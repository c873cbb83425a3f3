//! The sliding training window of a rolling-model monitor.
//!
//! A deployment that refits as traffic drifts needs to hold "the last W
//! bins" in a form a fit can consume. A [`TrainingWindow`] is exactly
//! that and nothing more: a bounded queue of each bin's three measurement
//! rows. A refit lends those rows, uncopied, to the same `fit_rounds` the
//! batch [`Diagnoser`](crate::Diagnoser) runs, and each fit round gathers
//! only the rows it trains on — so the window has no fitting logic of its
//! own, and a window fit is a function of the retained rows only (not of
//! how they were chunked or how far the window has rolled).
//!
//! Rolling the window forward drops the oldest `chunk_bins` rows at once,
//! so the window length moves in a sawtooth instead of sliding by one
//! bin per push.
//!
//! [`fit`](TrainingWindow::fit) is **the** window-fit code path: the
//! online [`Monitor`](crate::Monitor) calls it at every refit, and an
//! offline replay that pushes the same bins through a fresh window gets
//! bit-identical models — the property the monitor-lifecycle suite pins.

use crate::pipeline::{fit_rounds, DiagnoserConfig, FittedDiagnoser, RefitTrace, TrainingRows};
use crate::DiagnosisError;
use std::collections::VecDeque;

/// One training bin's retained measurement rows.
#[derive(Debug, Clone)]
struct WindowRow {
    bin: usize,
    bytes: Vec<f64>,
    packets: Vec<f64>,
    entropy_raw: Vec<f64>,
}

/// A sliding training window over scored bins: the retained rows of the
/// last `capacity_bins` bins, fitted by the one shared fit path.
#[derive(Debug, Clone)]
pub struct TrainingWindow {
    n_flows: usize,
    capacity_bins: usize,
    chunk_bins: usize,
    rows: VecDeque<WindowRow>,
}

impl TrainingWindow {
    /// An empty window for `n_flows` OD flows holding at most
    /// `capacity_bins` bins, rolled forward in `chunk_bins` granules.
    ///
    /// Because rolling drops `chunk_bins` rows at once, the effective
    /// window length stays within
    /// `[capacity_bins - chunk_bins + 1, capacity_bins]` once full.
    ///
    /// # Errors
    ///
    /// `BadConfig` when any parameter is zero, `chunk_bins` exceeds
    /// `capacity_bins`, or fewer than 2 flows are requested (the subspace
    /// method models an ensemble).
    pub fn new(
        n_flows: usize,
        capacity_bins: usize,
        chunk_bins: usize,
    ) -> Result<Self, DiagnosisError> {
        if n_flows < 2 {
            return Err(DiagnosisError::BadConfig(
                "need at least 2 OD flows for ensemble modeling",
            ));
        }
        if capacity_bins == 0 || chunk_bins == 0 {
            return Err(DiagnosisError::BadConfig(
                "window and chunk sizes must be at least 1 bin",
            ));
        }
        if chunk_bins > capacity_bins {
            return Err(DiagnosisError::BadConfig(
                "chunk size cannot exceed the window capacity",
            ));
        }
        Ok(TrainingWindow {
            n_flows,
            capacity_bins,
            chunk_bins,
            rows: VecDeque::new(),
        })
    }

    /// Number of OD flows `p`.
    pub fn n_flows(&self) -> usize {
        self.n_flows
    }

    /// Bins currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no bin has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Maximum bins held before the oldest chunk rolls out.
    pub fn capacity_bins(&self) -> usize {
        self.capacity_bins
    }

    /// Roll granularity in bins.
    pub fn chunk_bins(&self) -> usize {
        self.chunk_bins
    }

    /// The bin indices currently in the window, oldest first.
    pub fn bins(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.bin).collect()
    }

    /// Absorbs one bin's measurement rows: byte and packet counts per
    /// flow (length `p`) and the raw unfolded entropy row (length `4p`).
    /// Rolls the oldest `chunk_bins` rows out once the capacity is
    /// exceeded.
    ///
    /// # Errors
    ///
    /// `BadDataset` on a row-length mismatch; `NonFiniteInput` when any
    /// row carries a NaN or infinite value. The non-finite rejection
    /// happens before the window is touched: one retained NaN would make
    /// **every** subsequent fit of this window fail until the poisoned
    /// row rolls out.
    pub fn push_bin(
        &mut self,
        bin: usize,
        bytes_row: &[f64],
        packets_row: &[f64],
        entropy_raw: &[f64],
    ) -> Result<(), DiagnosisError> {
        let p = self.n_flows;
        if bytes_row.len() != p || packets_row.len() != p || entropy_raw.len() != 4 * p {
            return Err(DiagnosisError::BadDataset(
                "window rows must be p, p, and 4p long",
            ));
        }
        let finite = |row: &[f64]| row.iter().all(|v| v.is_finite());
        if !finite(bytes_row) || !finite(packets_row) || !finite(entropy_raw) {
            return Err(DiagnosisError::NonFiniteInput(
                "window rows must be finite; quarantine NaN/Inf bins upstream",
            ));
        }
        self.rows.push_back(WindowRow {
            bin,
            bytes: bytes_row.to_vec(),
            packets: packets_row.to_vec(),
            entropy_raw: entropy_raw.to_vec(),
        });
        if self.rows.len() > self.capacity_bins {
            self.rows.drain(..self.chunk_bins);
        }
        Ok(())
    }

    /// Fits the three subspace models on the window's current contents
    /// through the shared fit path — a round-0 fit on every retained row,
    /// then the configured clean-training trimming rounds
    /// (`refit_rounds`), exactly as the batch
    /// [`Diagnoser`](crate::Diagnoser) does — and returns the models with
    /// the per-round [`RefitTrace`]. Every round's models are calibrated
    /// on its training rows, so
    /// [`ThresholdPolicy::Empirical`](entromine_subspace::ThresholdPolicy::Empirical)
    /// works out of the box.
    ///
    /// The models are a pure function of the retained rows and the
    /// config: an offline replay of the same pushes produces bit-identical
    /// models, which is what makes online refits auditable.
    ///
    /// # Errors
    ///
    /// `BadConfig` on an invalid `alpha`; `BadDataset` with fewer than 4
    /// bins; any fit error from the subspace layer.
    pub fn fit(
        &self,
        config: &DiagnoserConfig,
    ) -> Result<(FittedDiagnoser, RefitTrace), DiagnosisError> {
        fit_rounds(config, self)
    }
}

impl TrainingRows for TrainingWindow {
    fn n_bins(&self) -> usize {
        self.rows.len()
    }

    fn p(&self) -> usize {
        self.n_flows
    }

    fn row(&self, i: usize) -> [&[f64]; 3] {
        let row = &self.rows[i];
        [&row.bytes, &row.packets, &row.entropy_raw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_subspace::ThresholdPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Pushes `bins` synthetic diurnal bins into a window.
    fn feed(window: &mut TrainingWindow, bins: std::ops::Range<usize>, seed: u64) {
        let p = window.n_flows();
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-flow gains drawn once so every bin shares latent structure.
        let gains: Vec<f64> = (0..p).map(|_| 1.0 + rng.random::<f64>()).collect();
        for bin in bins {
            let phase = (bin as f64 / 288.0) * std::f64::consts::TAU;
            let mut rng = StdRng::seed_from_u64(seed ^ (bin as u64).wrapping_mul(0x9E37));
            let bytes: Vec<f64> = gains
                .iter()
                .map(|g| 1e5 * g * (1.0 + 0.2 * phase.sin()) + 500.0 * rng.random::<f64>())
                .collect();
            let packets: Vec<f64> = bytes.iter().map(|b| b / 100.0).collect();
            let entropy: Vec<f64> = (0..4 * p)
                .map(|j| gains[j % p] * (2.0 + 0.3 * phase.cos()) + 0.05 * rng.random::<f64>())
                .collect();
            window.push_bin(bin, &bytes, &packets, &entropy).unwrap();
        }
    }

    #[test]
    fn config_validated() {
        assert!(TrainingWindow::new(1, 10, 5).is_err());
        assert!(TrainingWindow::new(4, 0, 1).is_err());
        assert!(TrainingWindow::new(4, 10, 0).is_err());
        assert!(TrainingWindow::new(4, 10, 11).is_err());
        assert!(TrainingWindow::new(4, 10, 10).is_ok());
    }

    #[test]
    fn rolls_whole_chunks() {
        let mut w = TrainingWindow::new(3, 12, 4).unwrap();
        feed(&mut w, 0..12, 1);
        assert_eq!(w.len(), 12);
        assert_eq!(w.bins().first(), Some(&0));
        // One more bin: the oldest chunk_bins rows (bins 0..4) roll out.
        feed(&mut w, 12..13, 1);
        assert_eq!(w.len(), 9);
        assert_eq!(w.bins().first(), Some(&4));
        assert_eq!(w.bins().last(), Some(&12));
    }

    #[test]
    fn row_lengths_validated() {
        let mut w = TrainingWindow::new(3, 8, 4).unwrap();
        assert!(w.push_bin(0, &[1.0; 2], &[1.0; 3], &[1.0; 12]).is_err());
        assert!(w.push_bin(0, &[1.0; 3], &[1.0; 3], &[1.0; 11]).is_err());
        assert!(w.push_bin(0, &[1.0; 3], &[1.0; 3], &[1.0; 12]).is_ok());
    }

    #[test]
    fn non_finite_rows_are_rejected_before_touching_the_window() {
        let mut w = TrainingWindow::new(3, 8, 4).unwrap();
        feed(&mut w, 0..5, 7);
        let pristine = w.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = vec![1.0; 3];
            bytes[1] = bad;
            assert!(matches!(
                w.push_bin(5, &bytes, &[1.0; 3], &[1.0; 12]),
                Err(DiagnosisError::NonFiniteInput(_))
            ));
            let mut entropy = vec![1.0; 12];
            entropy[7] = bad;
            assert!(matches!(
                w.push_bin(5, &[1.0; 3], &[1.0; 3], &entropy),
                Err(DiagnosisError::NonFiniteInput(_))
            ));
        }
        // The rejected pushes left nothing behind: same bins, and a fit
        // of the window is bit-identical to one that never saw them.
        assert_eq!(w.len(), pristine.len());
        assert_eq!(w.bins(), pristine.bins());
        let config = DiagnoserConfig {
            dim: entromine_subspace::DimSelection::Fixed(1),
            refit_rounds: 0,
            ..Default::default()
        };
        let (fa, _) = w.fit(&config).unwrap();
        let (fb, _) = pristine.fit(&config).unwrap();
        let probe = vec![1.5; 3];
        assert_eq!(
            fa.bytes_model().spe(&probe).unwrap(),
            fb.bytes_model().spe(&probe).unwrap()
        );
    }

    #[test]
    fn fit_requires_enough_bins() {
        let mut w = TrainingWindow::new(4, 20, 5).unwrap();
        feed(&mut w, 0..3, 2);
        assert!(matches!(
            w.fit(&DiagnoserConfig::default()),
            Err(DiagnosisError::BadDataset(_))
        ));
    }

    #[test]
    fn window_fit_is_a_pure_function_of_the_push_history() {
        // Two windows fed the same history must fit bit-identical models:
        // the property that makes online refits auditable offline.
        let config = DiagnoserConfig {
            dim: entromine_subspace::DimSelection::Fixed(2),
            ..Default::default()
        };
        let mut a = TrainingWindow::new(5, 60, 16).unwrap();
        let mut b = TrainingWindow::new(5, 60, 16).unwrap();
        feed(&mut a, 0..90, 3);
        feed(&mut b, 0..90, 3);
        let (fa, _) = a.fit(&config).unwrap();
        let (fb, _) = b.fit(&config).unwrap();
        let probe_bytes = vec![1.0e5; 5];
        let probe_entropy = vec![2.0; 20];
        assert_eq!(
            fa.bytes_model().spe(&probe_bytes).unwrap(),
            fb.bytes_model().spe(&probe_bytes).unwrap()
        );
        assert_eq!(
            fa.entropy_model().inner().spe(&probe_entropy).unwrap(),
            fb.entropy_model().inner().spe(&probe_entropy).unwrap()
        );
        assert_eq!(
            fa.bytes_model().threshold(0.999).unwrap(),
            fb.bytes_model().threshold(0.999).unwrap()
        );
    }

    #[test]
    fn empirical_policy_fits_calibrated_models() {
        let config = DiagnoserConfig {
            dim: entromine_subspace::DimSelection::Fixed(2),
            threshold_policy: ThresholdPolicy::Empirical,
            refit_rounds: 1,
            ..Default::default()
        };
        let mut w = TrainingWindow::new(5, 100, 25).unwrap();
        feed(&mut w, 0..100, 4);
        let (fitted, _) = w.fit(&config).unwrap();
        // Empirical thresholds are available immediately — the window fit
        // calibrated every model on its training rows.
        assert!(fitted
            .bytes_model()
            .threshold_with(0.99, ThresholdPolicy::Empirical)
            .is_ok());
        assert!(fitted
            .entropy_model()
            .inner()
            .threshold_with(0.99, ThresholdPolicy::Empirical)
            .is_ok());
        // And the sharpness surface reports the 100-bin window cannot
        // resolve alpha = 0.999.
        let warnings = fitted.sharpness_warnings(0.999);
        assert_eq!(warnings.len(), 3);
        assert!(warnings.iter().all(|(_, w)| w.required_bins == 1000));
    }
}
