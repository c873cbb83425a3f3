//! Shadow probes of the traced rep.
//!
//! `Monitor::observe_bin` is one opaque call from outside: row assembly,
//! scoring, window push and (sometimes) a refit all happen inside it. To
//! say where its time goes without instrumenting the program, the traced
//! rep re-runs each of those steps through the layer's public function on
//! the same input, times that, and asserts the result equals what the
//! Monitor produced. `core.observe.closure` then states how much of the
//! real call's self time the probes explain.
//!
//! After the run, a second set of probes times the linear-algebra
//! building blocks on the driver's own copy of the final window's rows —
//! the yardsticks refit timings are compared against.

use crate::trace::{Kind, Tracer};
use crate::workloads::Workload;
use entromine::entropy::{FinalizedBin, TensorBuilder};
use entromine::linalg::{sym_eigen, Mat, MomentAccumulator};
use entromine::subspace::{DimSelection, MultiwayModel};
use entromine::{Diagnosis, FitStrategy, Monitor, MonitorStep, TrainingWindow, Verdict};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Span names of the per-bin shadow probes.
pub const ROWS: &str = "core.rows";
pub const SCORE: &str = "subspace.score";
pub const PUSH: &str = "core.window.push";
pub const MOMENTS: &str = "linalg.moments.push";
/// Span names of the post-run probes.
pub const FIT_ROWS: &str = "subspace.fit_rows";
pub const COVARIANCE: &str = "linalg.covariance";
pub const GRAM: &str = "linalg.gram";
pub const SYM_EIGEN: &str = "linalg.sym_eigen";

pub struct Shadow {
    alpha: f64,
    window_bins: usize,
    chunk_bins: usize,
    rows: (Vec<f64>, Vec<f64>, Vec<f64>),
    window: TrainingWindow,
    moments: MomentAccumulator,
    /// The shadow scorer's answer for the bin about to be observed;
    /// `None` while the Monitor has no model.
    expected: Option<Option<Diagnosis>>,
    /// The driver's own copy of what the Monitor's window holds.
    retained: VecDeque<FinalizedBin>,
    pub mismatches: Vec<String>,
}

impl Shadow {
    pub fn new(w: &Workload, n_flows: usize, alpha: f64) -> Self {
        Shadow {
            alpha,
            window_bins: w.window_bins,
            chunk_bins: w.chunk_bins,
            rows: Default::default(),
            window: TrainingWindow::new(n_flows, w.window_bins, w.chunk_bins)
                .expect("shadow window config"),
            moments: MomentAccumulator::new(4 * n_flows),
            expected: None,
            retained: VecDeque::new(),
            mismatches: Vec::new(),
        }
    }

    /// Runs the row-assembly and scoring probes against the model that
    /// is about to judge `fb` (a refit, if any, lands after scoring).
    pub fn before_observe(&mut self, tracer: &mut Tracer, monitor: &Monitor, fb: &FinalizedBin) {
        let (bytes, packets, entropy) = &mut self.rows;
        let t = Instant::now();
        fb.bytes_row_into(bytes);
        fb.packets_row_into(packets);
        fb.unfolded_entropy_row_into(entropy);
        tracer.record(ROWS, Kind::Shadow, fb.bin, t, t.elapsed());

        self.expected = None;
        let Some(fitted) = monitor.fitted() else {
            return;
        };
        // Thresholds are computed once per model inside the Monitor, so
        // building the scorer stays outside the timed part.
        let mut scorer = match fitted.streaming(self.alpha) {
            Ok(s) => s,
            Err(e) => {
                self.mismatches
                    .push(format!("bin {}: shadow scorer: {e}", fb.bin));
                return;
            }
        };
        let t = Instant::now();
        let scored = scorer.score_rows(fb.bin, bytes, packets, entropy);
        tracer.record(SCORE, Kind::Shadow, fb.bin, t, t.elapsed());
        match scored {
            Ok(d) => self.expected = Some(d),
            Err(e) => self
                .mismatches
                .push(format!("bin {}: shadow score: {e}", fb.bin)),
        }
    }

    /// Checks the Monitor's verdict against the shadow scorer's, then
    /// runs the window-push and moment-push probes on the same rows.
    pub fn after_observe(&mut self, tracer: &mut Tracer, fb: &FinalizedBin, step: &MonitorStep) {
        let bin = fb.bin;
        if let Some(expected) = self.expected.take() {
            let same = match (&step.verdict, &expected) {
                (Verdict::Clean, None) => true,
                (Verdict::Anomalous(got), Some(want)) => {
                    got.methods == want.methods
                        && got.entropy_spe.to_bits() == want.entropy_spe.to_bits()
                        && got.bytes_spe.to_bits() == want.bytes_spe.to_bits()
                        && got.packets_spe.to_bits() == want.packets_spe.to_bits()
                }
                _ => false,
            };
            if !same {
                self.mismatches.push(format!(
                    "bin {bin}: Monitor verdict differs from shadow score"
                ));
            }
            // Scored bins only: the cost does not depend on the state.
            let t = Instant::now();
            let pushed = self.moments.push(&self.rows.2);
            tracer.record(MOMENTS, Kind::Shadow, bin, t, t.elapsed());
            if let Err(e) = pushed {
                self.mismatches
                    .push(format!("bin {bin}: shadow moment push: {e}"));
            }
        }
        let (bytes, packets, entropy) = &self.rows;
        let t = Instant::now();
        let pushed = self.window.push_bin(bin, bytes, packets, entropy);
        tracer.record(PUSH, Kind::Shadow, bin, t, t.elapsed());
        if let Err(e) = pushed {
            self.mismatches
                .push(format!("bin {bin}: shadow window push: {e}"));
        }
        // Mirror the window's roll: whole chunks leave once it overflows.
        self.retained.push_back(fb.clone());
        if self.retained.len() > self.window_bins {
            self.retained.drain(..self.chunk_bins);
        }
    }

    /// Times the rows-based fit and the dense building blocks on the
    /// retained window (entropy rows, `bins x 4p`).
    pub fn post_run(&mut self, tracer: &mut Tracer) {
        let bins = self.retained.len();
        let Some(first) = self.retained.front() else {
            return;
        };
        let p = first.summaries.len();
        let last_bin = self.retained.back().map_or(0, |fb| fb.bin);
        let mut builder = TensorBuilder::new(bins, p);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(bins);
        for (i, fb) in self.retained.iter().enumerate() {
            for (flow, summary) in fb.summaries.iter().enumerate() {
                builder.set(i, flow, summary);
            }
            rows.push(fb.unfolded_entropy_row());
        }
        let (tensor, _) = builder.finish();
        let all: Vec<usize> = (0..bins).collect();

        let t = Instant::now();
        let fit = MultiwayModel::fit_on_rows_with(
            &tensor,
            DimSelection::Fixed(10),
            &all,
            FitStrategy::Auto,
        );
        tracer.record(FIT_ROWS, Kind::Shadow, last_bin, t, t.elapsed());
        if let Err(e) = black_box(fit) {
            self.mismatches.push(format!("post-run rows fit: {e}"));
        }

        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mat = Mat::from_rows(&refs);
        let t = Instant::now();
        let cov = mat.covariance();
        tracer.record(COVARIANCE, Kind::Shadow, last_bin, t, t.elapsed());
        if let Err(e) = black_box(cov) {
            self.mismatches.push(format!("post-run covariance: {e}"));
        }

        let t = Instant::now();
        let gram = mat.gram();
        tracer.record(GRAM, Kind::Shadow, last_bin, t, t.elapsed());

        let t = Instant::now();
        let eig = sym_eigen(&gram);
        tracer.record(SYM_EIGEN, Kind::Shadow, last_bin, t, t.elapsed());
        if let Err(e) = black_box(eig) {
            self.mismatches.push(format!("post-run sym_eigen: {e}"));
        }
    }
}
