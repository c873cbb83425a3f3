//! The multiway subspace method (paper §4.2).
//!
//! Unfolds the three-way entropy tensor `H(t, p, 4)` into the merged
//! `t x 4p` matrix, normalizes each feature submatrix to unit energy ("so
//! that no one feature dominates our analysis"), and applies the standard
//! subspace method to the result. Detections are correlated distributional
//! changes across OD flows *and* traffic features.

use crate::detector::{Detection, DimSelection, SubspaceModel};
use crate::ident::{identify_greedy, FlowContribution};
use crate::qstat::ThresholdPolicy;
use crate::SubspaceError;
use entromine_entropy::EntropyTensor;
use entromine_linalg::{FitStrategy, Mat, ScorePlan};

/// A fitted multiway subspace model over an entropy tensor.
#[derive(Debug, Clone)]
pub struct MultiwayModel {
    model: SubspaceModel,
    /// Per-feature normalization divisors (Frobenius norm of each
    /// submatrix at fit time). Applied to every row evaluated later, so a
    /// model fitted on clean data can score injected rows consistently.
    divisors: [f64; 4],
    n_flows: usize,
    /// The inner model's scoring plane with the unit-energy divisors
    /// folded into its centering pass (`c = raw/d − μ`, bitwise identical
    /// to normalizing first), so raw unfolded rows score allocation-free
    /// without materializing the normalized row.
    plan: ScorePlan,
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
    /// the same rows.
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
        let model = SubspaceModel::fit_with(&unfolded, dim, strategy)?;
        let mut per_col = vec![0.0; 4 * p];
        for (k, &d) in divisors.iter().enumerate() {
            per_col[k * p..(k + 1) * p].fill(d);
        }
        let plan = model
            .pca()
            .score_plan(model.normal_dim())?
            .with_divisors(per_col)?;
        Ok(MultiwayModel {
            model,
            divisors,
            n_flows: p,
            plan,
        })
    }

    /// Number of OD flows `p`.
    pub fn n_flows(&self) -> usize {
        self.n_flows
    }

    /// The fitted single-way model over the normalized unfolding.
    pub fn inner(&self) -> &SubspaceModel {
        &self.model
    }

    /// The per-feature Frobenius-norm divisors applied before analysis.
    pub fn divisors(&self) -> [f64; 4] {
        self.divisors
    }

    /// Applies the stored unit-energy normalization to a raw unfolded row.
    pub fn normalize_row(&self, raw: &[f64]) -> Result<Vec<f64>, SubspaceError> {
        self.check_width(raw)?;
        let p = self.n_flows;
        let mut out = raw.to_vec();
        for (k, &d) in self.divisors.iter().enumerate() {
            for v in &mut out[k * p..(k + 1) * p] {
                *v /= d;
            }
        }
        Ok(out)
    }

    /// SPE of a raw (un-normalized) unfolded row, through the
    /// divisor-folded scoring plane (allocation-free; the fold `raw/d − μ`
    /// is bitwise identical to normalizing first).
    pub fn spe(&self, raw: &[f64]) -> Result<f64, SubspaceError> {
        self.check_width(raw)?;
        Ok(self.plan.spe(raw)?)
    }

    /// SPEs of a batch of raw unfolded rows through the plan's batch
    /// entry — bitwise identical to per-row [`spe`](Self::spe). `out` is
    /// cleared first.
    ///
    /// # Errors
    ///
    /// Shape errors from scoring, on the first offending row.
    pub fn spe_batch<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        out: &mut Vec<f64>,
    ) -> Result<(), SubspaceError> {
        self.plan.spe_batch(rows, out)?;
        Ok(())
    }

    /// SPE and T² of one raw unfolded row from a single axis pass (see
    /// [`SubspaceModel::spe_t2`]).
    ///
    /// # Errors
    ///
    /// Shape errors from scoring.
    pub fn spe_t2(&self, raw: &[f64]) -> Result<(f64, f64), SubspaceError> {
        self.check_width(raw)?;
        let (lambdas, floor) = (self.model.pca().eigenvalues(), self.model.t2_floor());
        Ok(self.plan.spe_t2(raw, lambdas, floor)?)
    }

    /// Batched [`spe_t2`](Self::spe_t2) over raw unfolded rows: one
    /// `(SPE, T²)` pair per row appended to `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Shape errors from scoring, on the first offending row.
    pub fn spe_t2_batch<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        out: &mut Vec<(f64, f64)>,
    ) -> Result<(), SubspaceError> {
        let (lambdas, floor) = (self.model.pca().eigenvalues(), self.model.t2_floor());
        self.plan.spe_t2_batch(rows, lambdas, floor, out)?;
        Ok(())
    }

    /// The multiway wording of the `4p` width check (the plan would report
    /// a bare shape mismatch).
    fn check_width(&self, raw: &[f64]) -> Result<(), SubspaceError> {
        if raw.len() != 4 * self.n_flows {
            return Err(SubspaceError::BadInput(
                "row length must be 4p (one value per feature per flow)",
            ));
        }
        Ok(())
    }

    /// Residual vector `h̃` of a raw unfolded row (in normalized units).
    pub fn residual(&self, raw: &[f64]) -> Result<Vec<f64>, SubspaceError> {
        let normalized = self.normalize_row(raw)?;
        self.model.residual(&normalized)
    }

    /// The detection threshold `δ²_α` (Jackson–Mudholkar policy).
    pub fn threshold(&self, alpha: f64) -> Result<f64, SubspaceError> {
        self.model.threshold(alpha)
    }

    /// The detection threshold under an explicit [`ThresholdPolicy`].
    /// The empirical policy reads the inner model's training-SPE
    /// calibration (in normalized entropy units — the same units every
    /// scored row is normalized into).
    pub fn threshold_with(
        &self,
        alpha: f64,
        policy: ThresholdPolicy,
    ) -> Result<f64, SubspaceError> {
        self.model.threshold_with(alpha, policy)
    }

    /// Structured sharpness warning for an empirical threshold at
    /// `alpha`, read from the inner model's calibration (see
    /// [`SubspaceModel::empirical_sharpness`]).
    pub fn empirical_sharpness(&self, alpha: f64) -> Option<crate::EmpiricalSharpness> {
        self.model.empirical_sharpness(alpha)
    }

    /// Hotelling's T² of a raw unfolded row (see
    /// [`SubspaceModel::t2`](crate::SubspaceModel::t2)).
    pub fn t2(&self, raw: &[f64]) -> Result<f64, SubspaceError> {
        self.check_width(raw)?;
        let (lambdas, floor) = (self.model.pca().eigenvalues(), self.model.t2_floor());
        Ok(self.plan.t2(raw, lambdas, floor)?)
    }

    /// Scores one raw (un-normalized) unfolded row against a precomputed
    /// threshold — the multiway score path. Normalization uses the
    /// divisors stored at fit time, so a bin arriving months after
    /// training is scored in the same units the model was fitted in.
    pub fn score_row(
        &self,
        bin: usize,
        raw: &[f64],
        threshold: f64,
    ) -> Result<Option<Detection>, SubspaceError> {
        let spe = self.spe(raw)?;
        Ok((spe > threshold).then_some(Detection {
            bin,
            spe,
            threshold,
        }))
    }

    /// A scoring head with the Q-threshold for `alpha` precomputed.
    pub fn scorer(&self, alpha: f64) -> Result<MultiwayScorer<'_>, SubspaceError> {
        Ok(MultiwayScorer {
            model: self,
            threshold: self.threshold(alpha)?,
        })
    }

    /// Detects anomalous bins across the whole tensor — one
    /// [`spe_batch`](Self::spe_batch) pass, bitwise equal to replaying
    /// [`score_row`](Self::score_row) per bin.
    pub fn detect(
        &self,
        tensor: &EntropyTensor,
        alpha: f64,
    ) -> Result<Vec<Detection>, SubspaceError> {
        let threshold = self.threshold(alpha)?;
        let spes = self.spe_series(tensor)?;
        Ok(spes
            .iter()
            .enumerate()
            .filter(|&(_, &spe)| spe > threshold)
            .map(|(bin, &spe)| Detection {
                bin,
                spe,
                threshold,
            })
            .collect())
    }

    /// SPE of every bin (for residual scatter plots, Figure 4) — one
    /// batch pass over shared scratch.
    pub fn spe_series(&self, tensor: &EntropyTensor) -> Result<Vec<f64>, SubspaceError> {
        let rows: Vec<Vec<f64>> = (0..tensor.n_bins())
            .map(|bin| tensor.unfolded_row(bin))
            .collect();
        let mut out = Vec::with_capacity(rows.len());
        self.spe_batch(rows.iter().map(Vec::as_slice), &mut out)?;
        Ok(out)
    }

    /// The residual entropy 4-vector of one OD flow at one bin:
    /// `[H̃(srcIP), H̃(srcPort), H̃(dstIP), H̃(dstPort)]` (FEATURES order),
    /// extracted from the full residual of the raw row.
    pub fn anomaly_vector(&self, raw: &[f64], flow: usize) -> Result<[f64; 4], SubspaceError> {
        if flow >= self.n_flows {
            return Err(SubspaceError::BadInput("flow index out of range"));
        }
        let r = self.residual(raw)?;
        let p = self.n_flows;
        Ok([r[flow], r[p + flow], r[2 * p + flow], r[3 * p + flow]])
    }

    /// Multi-attribute identification (§4.2): which OD flows carry the
    /// anomaly in this row?
    ///
    /// Greedily removes the per-flow 4-feature contribution `θ_k f_k` that
    /// best explains the residual, recursing "until the resulting state
    /// vector is below the detection threshold", or until `max_flows`
    /// flows have been blamed.
    pub fn identify(
        &self,
        raw: &[f64],
        alpha: f64,
        max_flows: usize,
    ) -> Result<Vec<FlowContribution>, SubspaceError> {
        let threshold = self.threshold(alpha)?;
        let normalized = self.normalize_row(raw)?;
        let residual = self.model.residual(&normalized)?;
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

/// The score half of a fitted [`MultiwayModel`]: a borrow of the model
/// plus its precomputed Q-statistic threshold, for scoring raw unfolded
/// rows as they finalize.
#[derive(Debug, Clone, Copy)]
pub struct MultiwayScorer<'a> {
    model: &'a MultiwayModel,
    threshold: f64,
}

impl MultiwayScorer<'_> {
    /// The precomputed threshold `δ²_α`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The model being scored against.
    pub fn model(&self) -> &MultiwayModel {
        self.model
    }

    /// Scores one raw unfolded row, tagging any detection with `bin`.
    pub fn score(&self, bin: usize, raw: &[f64]) -> Result<Option<Detection>, SubspaceError> {
        self.model.score_row(bin, raw, self.threshold)
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
            let row = model.normalize_row(&tensor.unfolded_row(bin)).unwrap();
            for k in 0..4 {
                energies[k] += row[k * p..(k + 1) * p].iter().map(|v| v * v).sum::<f64>();
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
        let det = model.detect(&tensor, 0.9999).unwrap();
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
        let det = model.detect(&tensor, 0.999).unwrap();
        assert!(
            det.iter().any(|d| d.bin == 150),
            "anomalous bin not flagged: {det:?}"
        );
        // Identification must blame flow 4.
        let row = tensor.unfolded_row(150);
        let blamed = model.identify(&row, 0.999, 3).unwrap();
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
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(4)).unwrap();
        let alpha = 0.995;
        let threshold = model.threshold(alpha).unwrap();
        let series = model.spe_series(&tensor).unwrap();
        let manual: Vec<usize> = series
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > threshold)
            .map(|(i, _)| i)
            .collect();
        let det: Vec<usize> = model
            .detect(&tensor, alpha)
            .unwrap()
            .iter()
            .map(|d| d.bin)
            .collect();
        assert_eq!(manual, det);
    }

    #[test]
    fn scorer_replay_equals_detect() {
        let tensor = build_tensor(250, 6, 0.25, 8, Some((100, 2)));
        let model = MultiwayModel::fit(&tensor, DimSelection::Fixed(1)).unwrap();
        let alpha = 0.999;
        let batch = model.detect(&tensor, alpha).unwrap();
        let scorer = model.scorer(alpha).unwrap();
        let streamed: Vec<Detection> = (0..tensor.n_bins())
            .filter_map(|bin| scorer.score(bin, &tensor.unfolded_row(bin)).unwrap())
            .collect();
        assert_eq!(batch, streamed);
        assert!(streamed.iter().any(|d| d.bin == 100));
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
        assert_eq!(
            rows.threshold(0.999).unwrap(),
            batch.threshold(0.999).unwrap()
        );
        assert_eq!(rows.inner().calibration(), batch.inner().calibration());
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
        assert!(model.spe(&[0.0; 7]).is_err());
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
        let det = model.detect(&tensor, 0.999).unwrap();
        assert!(det.len() < 5);
    }
}
