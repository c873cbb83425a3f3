//! The multiway subspace method (paper §4.2).
//!
//! Unfolds the three-way entropy tensor `H(t, p, 4)` into the merged
//! `t x 4p` matrix, normalizes each feature submatrix to unit energy ("so
//! that no one feature dominates our analysis"), and applies the standard
//! subspace method to the result. Detections are correlated distributional
//! changes across OD flows *and* traffic features.
//!
//! The result is an ordinary [`SubspaceModel`] ([`MultiwayModel::inner`])
//! whose scoring plane carries the unit-energy divisors, so it scores raw
//! unfolded rows through the same `spe` / `spe_batch` / `spe_t2_batch`
//! entry points, thresholds and calibration as the volume detectors.
//! [`MultiwayModel`] adds only what is specific to the entropy tensor:
//! the fit, the normalization metadata and identification.

use crate::detector::SubspaceModel;
use crate::ident::{identify_greedy, FlowContribution};
use crate::SubspaceError;
use entromine_entropy::EntropyTensor;
use entromine_linalg::{DimSelection, FitStrategy, Mat};

/// A fitted multiway subspace model over an entropy tensor.
#[derive(Debug, Clone)]
pub struct MultiwayModel {
    /// The subspace model over the normalized unfolding, with the
    /// unit-energy divisors folded into its scoring plane: it takes raw
    /// unfolded rows.
    model: SubspaceModel,
    /// Per-feature normalization divisors (Frobenius norm of each
    /// submatrix at fit time). Applied to every row evaluated later, so a
    /// model fitted on clean data can score injected rows consistently.
    divisors: [f64; 4],
    n_flows: usize,
}

impl MultiwayModel {
    /// Unfolds, normalizes, and fits.
    ///
    /// The paper's wording is "dividing each element in a submatrix by the
    /// total energy of that submatrix"; dividing by the energy itself does
    /// not produce unit energy, so — as noted in DESIGN.md — we divide by
    /// the square root of the energy (the Frobenius norm), after which each
    /// submatrix has energy exactly 1.
    pub fn fit(tensor: &EntropyTensor, dim: DimSelection) -> Result<Self, SubspaceError> {
        Self::fit_unfolded(tensor.unfold(), dim, FitStrategy::Auto)
    }

    /// Fits the model using only the given time bins, with an explicit
    /// fit engine. Normalization energies are computed over the same rows,
    /// so excluding a strong anomaly keeps it from polluting the normal
    /// subspace (a known failure mode of PCA-based detectors).
    pub fn fit_on_rows_with(
        tensor: &EntropyTensor,
        dim: DimSelection,
        rows: &[usize],
        strategy: FitStrategy,
    ) -> Result<Self, SubspaceError> {
        let mut unfolded = Mat::zeros(rows.len(), 4 * tensor.n_flows());
        for (dst, &bin) in rows.iter().enumerate() {
            unfolded
                .row_mut(dst)
                .copy_from_slice(&tensor.unfolded_row(bin));
        }
        Self::fit_unfolded(unfolded, dim, strategy)
    }

    /// Fits the model to raw (un-normalized) unfolded rows, one `4p`-wide
    /// row per training bin — the constructor every other fit delegates
    /// to, and the one a rolling window calls with its retained rows.
    /// Normalizes each feature block to unit energy over exactly these
    /// rows (consuming the matrix: normalization happens in place), then
    /// applies the single-way method, which also calibrates the model on
    /// the same rows. The divisors are then folded into the model's
    /// scoring plane, so [`inner`](Self::inner) takes raw unfolded rows.
    ///
    /// # Errors
    ///
    /// `BadInput` for an empty matrix, a width that is not a positive
    /// multiple of 4, or a feature block whose energy overflows (a
    /// huge-but-finite row would otherwise normalize everything else to
    /// zero and fit a silently degenerate model); otherwise the
    /// conditions of [`SubspaceModel::fit_with`].
    pub fn fit_unfolded(
        mut unfolded: Mat,
        dim: DimSelection,
        strategy: FitStrategy,
    ) -> Result<Self, SubspaceError> {
        let p = unfolded.cols() / 4;
        if p == 0 || unfolded.cols() != 4 * p {
            return Err(SubspaceError::BadInput(
                "row length must be 4p (one value per feature per flow)",
            ));
        }
        if unfolded.rows() == 0 {
            return Err(SubspaceError::BadInput("no rows to fit on"));
        }
        let mut divisors = [1.0f64; 4];
        for (k, d) in divisors.iter_mut().enumerate() {
            let mut energy = 0.0;
            for bin in 0..unfolded.rows() {
                let block = &unfolded.row(bin)[k * p..(k + 1) * p];
                energy += block.iter().map(|v| v * v).sum::<f64>();
            }
            if !energy.is_finite() {
                return Err(SubspaceError::BadInput(
                    "feature energy is not finite (non-finite or overflowing rows)",
                ));
            }
            // A feature with zero energy everywhere (e.g. ICMP-only traffic
            // has all-zero ports) is left unscaled rather than divided by 0.
            *d = if energy > 0.0 { energy.sqrt() } else { 1.0 };
        }
        for bin in 0..unfolded.rows() {
            let row = unfolded.row_mut(bin);
            for (k, &d) in divisors.iter().enumerate() {
                for v in &mut row[k * p..(k + 1) * p] {
                    *v /= d;
                }
            }
        }
        // Calibrated on the normalized rows before the fold.
        let mut model = SubspaceModel::fit_with(&unfolded, dim, strategy)?;
        let mut per_col = vec![0.0; 4 * p];
        for (k, &d) in divisors.iter().enumerate() {
            per_col[k * p..(k + 1) * p].fill(d);
        }
        model.fold_divisors(per_col)?;
        Ok(MultiwayModel {
            model,
            divisors,
            n_flows: p,
        })
    }

    /// Number of OD flows `p`.
    pub fn n_flows(&self) -> usize {
        self.n_flows
    }

    /// The fitted single-way model over the normalized unfolding: the
    /// entropy detector. It scores raw unfolded rows; its thresholds,
    /// calibration and residuals are in normalized units.
    pub fn inner(&self) -> &SubspaceModel {
        &self.model
    }

    /// The per-feature Frobenius-norm divisors applied before analysis.
    pub fn divisors(&self) -> [f64; 4] {
        self.divisors
    }

    /// The residual entropy 4-vector of one OD flow at one bin:
    /// `[H̃(srcIP), H̃(srcPort), H̃(dstIP), H̃(dstPort)]` (FEATURES order),
    /// extracted from the full residual of the raw row.
    pub fn anomaly_vector(&self, raw: &[f64], flow: usize) -> Result<[f64; 4], SubspaceError> {
        if flow >= self.n_flows {
            return Err(SubspaceError::BadInput("flow index out of range"));
        }
        let r = self.model.residual(raw)?;
        let p = self.n_flows;
        Ok([r[flow], r[p + flow], r[2 * p + flow], r[3 * p + flow]])
    }

    /// Multi-attribute identification (§4.2): which OD flows carry the
    /// anomaly in this row?
    ///
    /// Greedily removes the per-flow 4-feature contribution `θ_k f_k` that
    /// best explains the residual, recursing "until the resulting state
    /// vector is below the detection threshold", or until `max_flows`
    /// flows have been blamed. `threshold` is that detection threshold:
    /// the one the alarm being explained fired against, under whichever
    /// [`ThresholdPolicy`](crate::ThresholdPolicy) produced it.
    pub fn identify(
        &self,
        raw: &[f64],
        threshold: f64,
        max_flows: usize,
    ) -> Result<Vec<FlowContribution>, SubspaceError> {
        let residual = self.model.residual(raw)?;
        identify_greedy(
            &residual,
            self.model.pca().components(),
            self.model.normal_dim(),
            self.n_flows,
            threshold,
            max_flows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_entropy::{BinSummary, TensorBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a tensor whose entropy timeseries follow a shared diurnal
    /// pattern per feature, plus noise: the low-rank structure the method
    /// expects. Optionally plants a port-scan-shaped anomaly.
    fn build_tensor(
        t: usize,
        p: usize,
        noise: f64,
        seed: u64,
        anomaly: Option<(usize, usize)>,
    ) -> EntropyTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains: Vec<[f64; 4]> = (0..p)
            .map(|_| {
                [
                    3.0 + rng.random::<f64>(),
                    4.0 + rng.random::<f64>(),
                    3.5 + rng.random::<f64>(),
                    2.5 + rng.random::<f64>(),
                ]
            })
            .collect();
        let mut b = TensorBuilder::new(t, p);
        for bin in 0..t {
            let phase = (bin as f64 / 288.0) * std::f64::consts::TAU;
            for (flow, gain) in gains.iter().enumerate() {
                let mut e = [0.0f64; 4];
                for (k, ek) in e.iter_mut().enumerate() {
                    *ek = gain[k] * (1.0 + 0.2 * phase.sin()) + noise * (rng.random::<f64>() - 0.5);
                }
                if let Some((abin, aflow)) = anomaly {
                    if bin == abin && flow == aflow {
                        // Port scan: dstPort entropy up, dstIP entropy down.
                        e[3] += 3.0;
                        e[2] -= 2.0;
                    }
                }
                b.set(
                    bin,
                    flow,
                    &BinSummary {
                        packets: 1000,
                        bytes: 100_000,
                        entropy: e,
                    },
                );
            }
        }
        let (tensor, _) = b.finish();
        tensor
    }

    #[test]
    fn unit_energy_normalization_holds() {
        let tensor = build_tensor(100, 6, 0.1, 1, None);
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(3)).unwrap();
        // Re-normalize the unfolding with the stored divisors and verify
        // each block has energy 1.
        let p = 6;
        let mut energies = [0.0f64; 4];
        for bin in 0..tensor.n_bins() {
            let row = tensor.unfolded_row(bin);
            for (k, d) in model.divisors().into_iter().enumerate() {
                energies[k] += row[k * p..(k + 1) * p]
                    .iter()
                    .map(|v| (v / d) * (v / d))
                    .sum::<f64>();
            }
        }
        for e in energies {
            assert!((e - 1.0).abs() < 1e-9, "block energy {e} != 1");
        }
    }

    #[test]
    fn clean_tensor_mostly_clean() {
        let tensor = build_tensor(300, 8, 0.2, 2, None);
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(5)).unwrap();
        let det = model.inner().detect(&tensor.unfold(), 0.9999).unwrap();
        assert!(det.len() < 8, "too many false alarms: {}", det.len());
    }

    #[test]
    fn port_scan_shape_detected_and_identified() {
        // The synthetic tensor has one latent temporal pattern, so the
        // normal subspace must be kept small: a generous m would absorb the
        // single injected anomaly into the model itself (the same reason
        // the paper fixes m = 10 on real data rather than letting variance
        // criteria chase the tail).
        let tensor = build_tensor(300, 8, 0.2, 3, Some((150, 4)));
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(1)).unwrap();
        let det = model.inner().detect(&tensor.unfold(), 0.999).unwrap();
        assert!(
            det.iter().any(|d| d.bin == 150),
            "anomalous bin not flagged: {det:?}"
        );
        // Identification must blame flow 4.
        let row = tensor.unfolded_row(150);
        let threshold = model.inner().threshold(0.999).unwrap();
        let blamed = model.identify(&row, threshold, 3).unwrap();
        assert!(!blamed.is_empty());
        assert_eq!(blamed[0].flow, 4, "wrong flow blamed: {blamed:?}");
    }

    #[test]
    fn anomaly_vector_sign_structure() {
        let tensor = build_tensor(300, 8, 0.2, 4, Some((150, 4)));
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(1)).unwrap();
        let v = model.anomaly_vector(&tensor.unfolded_row(150), 4).unwrap();
        // Port scan: residual dstPort entropy strongly positive, dstIP
        // strongly negative (FEATURES order: srcIP, srcPort, dstIP, dstPort).
        assert!(v[3] > 0.0, "dstPort residual should rise: {v:?}");
        assert!(v[2] < 0.0, "dstIP residual should fall: {v:?}");
        assert!(v[3].abs() > v[0].abs());
    }

    #[test]
    fn spe_matches_detect_threshold_semantics() {
        let tensor = build_tensor(200, 5, 0.3, 5, None);
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(4))
            .unwrap()
            .model;
        let alpha = 0.995;
        let threshold = model.threshold(alpha).unwrap();
        let series = model.spe_series(&tensor.unfold()).unwrap();
        let manual: Vec<usize> = series
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > threshold)
            .map(|(i, _)| i)
            .collect();
        let det: Vec<usize> = model
            .detect(&tensor.unfold(), alpha)
            .unwrap()
            .iter()
            .map(|d| d.bin)
            .collect();
        assert_eq!(manual, det);
    }

    #[test]
    fn unfolded_rows_fit_matches_tensor_fit() {
        // The tensor entry points delegate to the raw-rows constructor:
        // same rows in, bit-identical model out.
        let tensor = build_tensor(200, 5, 0.2, 9, None);
        let batch = MultiwayModel::fit(&tensor, DimSelection::Fixed(2)).unwrap();
        let rows =
            MultiwayModel::fit_unfolded(tensor.unfold(), DimSelection::Fixed(2), FitStrategy::Auto)
                .unwrap();
        assert_eq!(rows.n_flows(), 5);
        assert_eq!(rows.divisors(), batch.divisors());
        let (rows, batch) = (rows.inner(), batch.inner());
        assert_eq!(
            rows.threshold(0.999).unwrap(),
            batch.threshold(0.999).unwrap()
        );
        assert_eq!(rows.calibration(), batch.calibration());
        for bin in [0usize, 77, 199] {
            let row = tensor.unfolded_row(bin);
            assert_eq!(rows.spe(&row).unwrap(), batch.spe(&row).unwrap());
        }
    }

    #[test]
    fn unfolded_rows_fit_validates_inputs() {
        let fit =
            |x: Mat| MultiwayModel::fit_unfolded(x, DimSelection::Fixed(1), FitStrategy::Auto);
        assert!(fit(Mat::zeros(10, 0)).is_err(), "no flows");
        assert!(fit(Mat::zeros(10, 7)).is_err(), "width not a multiple of 4");
        assert!(fit(Mat::zeros(0, 12)).is_err(), "no rows");
        assert!(fit(Mat::from_fn(1, 12, |_, _| 1.0)).is_err(), "one row");
        // A huge-but-finite row overflows its block's energy; dividing by
        // the resulting Inf would zero every other row and fit a silently
        // degenerate model.
        let mut x = build_tensor(40, 3, 0.2, 13, None).unfold();
        x.row_mut(20)[..3].fill(1e300);
        assert!(matches!(fit(x), Err(SubspaceError::BadInput(_))));
    }

    #[test]
    fn row_length_validated() {
        let tensor = build_tensor(50, 4, 0.2, 6, None);
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(3)).unwrap();
        assert!(model.inner().spe(&[0.0; 7]).is_err());
        assert!(model.anomaly_vector(&tensor.unfolded_row(0), 9).is_err());
    }

    #[test]
    fn zero_energy_feature_does_not_poison_model() {
        // All-zero dstPort entropy (e.g. ICMP-only network): divisor
        // falls back to 1, model still fits and detects nothing odd.
        let mut b = TensorBuilder::new(60, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for bin in 0..60 {
            for flow in 0..3 {
                b.set(
                    bin,
                    flow,
                    &BinSummary {
                        packets: 10,
                        bytes: 1000,
                        entropy: [1.0 + 0.1 * rng.random::<f64>(), 2.0, 1.5, 0.0],
                    },
                );
            }
        }
        let (tensor, _) = b.finish();
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(1)).unwrap();
        assert_eq!(model.divisors()[3], 1.0);
        let det = model.inner().detect(&tensor.unfold(), 0.999).unwrap();
        assert!(det.len() < 5);
    }
}
