//! The single-way subspace method (Lakhina et al., SIGCOMM 2004).

use crate::qstat::{empirical_quantile, q_threshold_from_power_sums, ThresholdPolicy};
use crate::SubspaceError;
use entromine_linalg::{DimSelection, FitStrategy, Mat, Pca, ScorePlan};

/// One detection: a time bin whose squared residual exceeded the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Index of the offending time bin (row of the measurement matrix).
    pub bin: usize,
    /// The squared prediction error `||x̃||²` at that bin.
    pub spe: f64,
    /// The Q-statistic threshold the SPE exceeded.
    pub threshold: f64,
}

/// A fitted subspace model over a `t x n` measurement matrix.
///
/// Rows are timepoints; columns are the correlated variables (OD-flow byte
/// counts, packet counts, or unfolded entropy). The leading `m` principal
/// axes span the normal subspace; everything else is residual.
///
/// Every fit also **calibrates** the model: the training rows' SPE order
/// statistics are retained (sorted), which is what the
/// [`ThresholdPolicy::Empirical`] threshold consumes.
///
/// The multiway entropy model ([`MultiwayModel::inner`]) is fitted on rows
/// divided by fixed per-feature divisors and carries them in its scoring
/// plane, so it takes rows in the caller's raw units like the volume
/// models do; its PCA, thresholds and calibration stay in the divided
/// units.
///
/// [`MultiwayModel::inner`]: crate::MultiwayModel::inner
#[derive(Debug, Clone)]
pub struct SubspaceModel {
    pca: Pca,
    m: usize,
    /// The fused scoring plane over the leading `m` axes, built once at
    /// fit time. Every SPE/T² consumer scores through it (allocation-free
    /// norm identity).
    plan: ScorePlan,
    /// Sorted (ascending) SPEs of the training rows.
    calibration: Vec<f64>,
}

impl SubspaceModel {
    /// Fits the model to `x` and selects the normal-subspace dimension,
    /// with the fit engine chosen by [`FitStrategy::Auto`] — wide
    /// training windows (rows < cols) dispatch to the Gram path,
    /// everything else to the dense solve. Thresholds agree across
    /// engines to round-off.
    ///
    /// # Errors
    ///
    /// Fails on degenerate input (fewer than two rows, zero columns), on a
    /// non-finite or out-of-`(0, 1)` variance fraction (rejected by
    /// [`Pca::fit_with`]), or if the
    /// requested dimension does not leave a non-empty residual space (or
    /// exceeds the axes the chosen engine can support).
    pub fn fit(x: &Mat, dim: DimSelection) -> Result<Self, SubspaceError> {
        Self::fit_with(x, dim, FitStrategy::Auto)
    }

    /// Like [`fit`](Self::fit) with an explicit engine choice. Use
    /// [`FitStrategy::Full`] to force the dense reference oracle.
    pub fn fit_with(
        x: &Mat,
        dim: DimSelection,
        strategy: FitStrategy,
    ) -> Result<Self, SubspaceError> {
        if x.rows() < 2 {
            return Err(SubspaceError::BadInput(
                "need at least two timepoints to model variation",
            ));
        }
        let pca = Pca::fit_with(x, strategy, dim)?;
        let n = pca.dim();
        let m = match dim {
            DimSelection::Fixed(m) => m,
            DimSelection::VarianceFraction(f) => pca.dims_for_variance(f),
        };
        if m >= n {
            return Err(SubspaceError::BadDimension {
                requested: m,
                available: n,
            });
        }
        // A rank-limited engine (Gram on a short window) must actually
        // carry the axes the projection needs.
        if m > pca.n_axes() {
            return Err(SubspaceError::BadDimension {
                requested: m,
                available: pca.n_axes(),
            });
        }
        let plan = pca.score_plan(m)?;
        let mut model = SubspaceModel {
            pca,
            m,
            plan,
            calibration: Vec::new(),
        };
        // Calibration is one O(t·n·m) scoring pass over data already in
        // hand, batched through the scoring plane.
        let mut spes = Vec::with_capacity(x.rows());
        model.spe_batch(x.row_iter(), &mut spes)?;
        spes.sort_by(|a, b| a.partial_cmp(b).expect("SPEs are finite"));
        model.calibration = spes;
        Ok(model)
    }

    /// Folds fixed per-column divisors into the scoring plane, after the
    /// model was fitted and calibrated on rows already divided by them:
    /// from here on every entry point takes rows in the caller's raw
    /// units (`x/d` is applied inside the centering pass, bitwise equal to
    /// dividing first), and [`residual`](Self::residual) divides too.
    pub(crate) fn fold_divisors(&mut self, divisors: Vec<f64>) -> Result<(), SubspaceError> {
        self.plan = self.pca.score_plan(self.m)?.with_divisors(divisors)?;
        Ok(())
    }

    /// The eigenvalue floor below which an axis counts as zero-variance
    /// for T².
    fn t2_floor(&self) -> f64 {
        1e-12 * self.pca.total_variance().max(1e-300)
    }

    /// The sorted training-SPE sample behind the empirical threshold.
    pub fn calibration(&self) -> &[f64] {
        &self.calibration
    }

    /// Structured sharpness warning for an empirical threshold at `alpha`:
    /// `Some` when the calibration sample is too small to resolve the
    /// requested quantile (see
    /// [`EmpiricalSharpness`](crate::EmpiricalSharpness)), `None` when the
    /// sample suffices.
    pub fn empirical_sharpness(&self, alpha: f64) -> Option<crate::EmpiricalSharpness> {
        crate::qstat::empirical_sharpness(self.calibration.len(), alpha)
    }

    /// Dimension of the normal subspace.
    pub fn normal_dim(&self) -> usize {
        self.m
    }

    /// Number of variables (columns) the model was fitted on.
    pub fn n_vars(&self) -> usize {
        self.pca.dim()
    }

    /// The underlying PCA (means, axes, spectrum).
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// Fraction of variance the normal subspace captures.
    pub fn explained_variance(&self) -> f64 {
        self.pca.explained_variance_ratio(self.m)
    }

    /// Squared prediction error of one observation row, via the fused
    /// scoring plane (norm identity, allocation-free, cancellation-guarded).
    pub fn spe(&self, row: &[f64]) -> Result<f64, SubspaceError> {
        Ok(self.plan.spe(row)?)
    }

    /// SPEs of a batch of rows through the scoring plane's batch entry
    /// (shared warm scratch, axis panel hot across consecutive rows —
    /// bitwise identical to calling [`spe`](Self::spe) per row). `out` is
    /// cleared first; one SPE per row in order.
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

    /// SPE and Hotelling's T² of every row, one `(SPE, T²)` pair per row
    /// appended to `out` (cleared first) — the refit-trimming scan, one
    /// fused axis pass per row over shared scratch.
    ///
    /// T² is the variance-weighted squared magnitude of a row's
    /// normal-subspace scores, `Σ_{j<m} score_j² / λ_j`. SPE is blind to
    /// anomalies whose direction the PCA absorbed into the normal
    /// subspace; such observations instead show an extreme score along
    /// the stolen axis, which T² exposes. The diagnosis pipeline uses T²
    /// (against a `χ²_m` quantile, [`t2_threshold`](Self::t2_threshold))
    /// for robust training-data trimming only — reported detections remain
    /// pure SPE exceedances as in the paper. Axes with (numerically) zero
    /// variance are skipped.
    ///
    /// # Errors
    ///
    /// Shape errors from scoring, on the first offending row.
    pub fn spe_t2_batch<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        out: &mut Vec<(f64, f64)>,
    ) -> Result<(), SubspaceError> {
        self.plan
            .spe_t2_batch(rows, self.pca.eigenvalues(), self.t2_floor(), out)?;
        Ok(())
    }

    /// The residual vector `x̃` of one observation row, in the units the
    /// model was fitted in: a row given in raw units is divided by the
    /// plan's folded divisors first, if any.
    pub fn residual(&self, row: &[f64]) -> Result<Vec<f64>, SubspaceError> {
        let scaled: Vec<f64>;
        let row = match self.plan.divisors() {
            // A wrong-width row skips the division and fails the shape
            // check below.
            Some(div) if div.len() == row.len() => {
                scaled = row.iter().zip(div).map(|(v, d)| v / d).collect();
                &scaled
            }
            _ => row,
        };
        Ok(self.pca.residual(row, self.m)?)
    }

    /// The detection threshold `δ²_α` for this model under the default
    /// (Jackson–Mudholkar) policy.
    pub fn threshold(&self, alpha: f64) -> Result<f64, SubspaceError> {
        self.threshold_with(alpha, ThresholdPolicy::JacksonMudholkar)
    }

    /// The detection threshold `δ²_α` under an explicit
    /// [`ThresholdPolicy`].
    ///
    /// The Jackson–Mudholkar policy consumes the model's residual power
    /// sums, summed over the complete spectrum every fit engine keeps. The
    /// empirical policy reads the `α` order statistic of the training-SPE
    /// calibration.
    ///
    /// # Errors
    ///
    /// `BadAlpha` outside `(0, 1)`.
    pub fn threshold_with(
        &self,
        alpha: f64,
        policy: ThresholdPolicy,
    ) -> Result<f64, SubspaceError> {
        match policy {
            ThresholdPolicy::JacksonMudholkar => {
                let sums = self.pca.residual_power_sums(self.m).map_err(|_| {
                    SubspaceError::BadDimension {
                        requested: self.m,
                        available: self.pca.dim(),
                    }
                })?;
                q_threshold_from_power_sums(&sums, alpha)
            }
            ThresholdPolicy::Empirical => {
                if !(alpha > 0.0 && alpha < 1.0) {
                    return Err(SubspaceError::BadAlpha(alpha));
                }
                empirical_quantile(&self.calibration, alpha)
            }
        }
    }

    /// The `χ²_m` quantile used as the T² trimming threshold.
    pub fn t2_threshold(&self, alpha: f64) -> f64 {
        entromine_linalg::stats::chi2_quantile(self.m, alpha)
    }

    /// Evaluates every row of `x` and returns the bins whose SPE exceeds
    /// the Jackson–Mudholkar `δ²_α`, in time order — one
    /// [`spe_batch`](Self::spe_batch) pass (bitwise equal to per-row
    /// [`spe`](Self::spe), since both run the same per-row plan
    /// arithmetic).
    pub fn detect(&self, x: &Mat, alpha: f64) -> Result<Vec<Detection>, SubspaceError> {
        let threshold = self.threshold(alpha)?;
        let mut spes = Vec::with_capacity(x.rows());
        self.spe_batch(x.row_iter(), &mut spes)?;
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

    /// SPE of every row (the full residual timeseries, for scatter plots
    /// like the paper's Figure 4) — one batch pass over shared scratch.
    pub fn spe_series(&self, x: &Mat) -> Result<Vec<f64>, SubspaceError> {
        let mut out = Vec::with_capacity(x.rows());
        self.spe_batch(x.row_iter(), &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// t x p matrix driven by two latent diurnal patterns plus noise — the
    /// low-rank-plus-noise structure the subspace method assumes.
    fn synthetic_traffic(t: usize, p: usize, noise: f64, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<(f64, f64)> = (0..p)
            .map(|_| (rng.random::<f64>() * 4.0, rng.random::<f64>() * 2.0))
            .collect();
        Mat::from_fn(t, p, |i, j| {
            let phase = i as f64 / 288.0 * std::f64::consts::TAU;
            let (w1, w2) = weights[j];
            10.0 + w1 * phase.sin() + w2 * (2.0 * phase).cos() + noise * (rng.random::<f64>() - 0.5)
        })
    }

    #[test]
    fn low_rank_data_explained_by_few_components() {
        let x = synthetic_traffic(500, 20, 0.01, 1);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(4)).unwrap();
        assert!(model.explained_variance() > 0.99);
        assert_eq!(model.normal_dim(), 4);
        assert_eq!(model.n_vars(), 20);
    }

    #[test]
    fn variance_fraction_selection() {
        let x = synthetic_traffic(500, 20, 0.01, 2);
        let model = SubspaceModel::fit(&x, DimSelection::VarianceFraction(0.85)).unwrap();
        // Two latent patterns dominate.
        assert!(model.normal_dim() <= 4, "dim = {}", model.normal_dim());
        assert!(model.explained_variance() >= 0.85);
    }

    #[test]
    fn clean_data_produces_no_detections_at_high_alpha() {
        let x = synthetic_traffic(400, 15, 0.5, 3);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(4)).unwrap();
        let detections = model.detect(&x, 0.9999).unwrap();
        // A handful of false alarms is expected statistically; the bulk of
        // bins must be clean.
        assert!(
            detections.len() < 10,
            "too many false alarms: {}",
            detections.len()
        );
    }

    #[test]
    fn injected_spike_is_detected_and_localized() {
        let mut x = synthetic_traffic(400, 15, 0.5, 4);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(4)).unwrap();
        // Inject a volume spike into one flow at bin 123.
        x[(123, 7)] += 40.0;
        let detections = model.detect(&x, 0.999).unwrap();
        assert!(
            detections.iter().any(|d| d.bin == 123),
            "injected bin not detected: {detections:?}"
        );
        for d in &detections {
            assert!(d.spe > d.threshold);
        }
    }

    #[test]
    fn spe_series_has_one_value_per_bin() {
        let x = synthetic_traffic(50, 8, 0.3, 5);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(3)).unwrap();
        let series = model.spe_series(&x).unwrap();
        assert_eq!(series.len(), 50);
        assert!(series.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn residual_matches_spe() {
        let x = synthetic_traffic(60, 6, 0.4, 6);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let row = x.row(10);
        let r = model.residual(row).unwrap();
        let spe = model.spe(row).unwrap();
        let norm2: f64 = r.iter().map(|v| v * v).sum();
        assert!((norm2 - spe).abs() < 1e-10);
    }

    #[test]
    fn variance_fraction_validated_at_fit_time() {
        let x = synthetic_traffic(100, 6, 0.2, 10);
        for bad in [0.0, 1.0, -0.3, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                SubspaceModel::fit(&x, DimSelection::VarianceFraction(bad)).is_err(),
                "variance fraction {bad} must be rejected"
            );
        }
        assert!(SubspaceModel::fit(&x, DimSelection::VarianceFraction(0.5)).is_ok());
    }

    #[test]
    fn bad_inputs_rejected() {
        let x = synthetic_traffic(50, 5, 0.1, 7);
        // Dimension as large as the variable count leaves no residual.
        assert!(matches!(
            SubspaceModel::fit(&x, DimSelection::Fixed(5)),
            Err(SubspaceError::BadDimension { .. })
        ));
        assert!(SubspaceModel::fit(&x, DimSelection::VarianceFraction(1.5)).is_err());
        let one_row = Mat::zeros(1, 5);
        assert!(SubspaceModel::fit(&one_row, DimSelection::Fixed(2)).is_err());
        // Wrong row width at evaluation time.
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        assert!(model.spe(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn empirical_threshold_covers_its_training_window() {
        let x = synthetic_traffic(500, 12, 0.5, 21);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(3)).unwrap();
        assert_eq!(model.calibration().len(), 500);
        for alpha in [0.95, 0.99] {
            let t = model
                .threshold_with(alpha, ThresholdPolicy::Empirical)
                .unwrap();
            let exceed = x
                .row_iter()
                .filter(|row| model.spe(row).unwrap() > t)
                .count() as f64
                / 500.0;
            // By construction the training exceedance tracks 1 - alpha.
            assert!(
                (exceed - (1.0 - alpha)).abs() < 0.01,
                "alpha {alpha}: training exceedance {exceed}"
            );
        }
        // Monotone in alpha, like the analytic policy.
        let lo = model
            .threshold_with(0.9, ThresholdPolicy::Empirical)
            .unwrap();
        let hi = model
            .threshold_with(0.999, ThresholdPolicy::Empirical)
            .unwrap();
        assert!(lo <= hi);
        assert!(model
            .threshold_with(1.5, ThresholdPolicy::Empirical)
            .is_err());
    }

    #[test]
    fn sharpness_warning_reflects_calibration_size() {
        let x = synthetic_traffic(300, 8, 0.4, 30);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        // 300 training bins resolve alpha = 0.99 but not 0.999.
        assert!(model.empirical_sharpness(0.99).is_none());
        let warn = model.empirical_sharpness(0.999).expect("must warn");
        assert_eq!(warn.training_bins, 300);
        assert_eq!(warn.required_bins, 1000);
    }

    #[test]
    fn strategy_fit_paths_agree_on_thresholds() {
        let x = synthetic_traffic(200, 48, 0.4, 23);
        let dim = DimSelection::Fixed(4);
        let full = SubspaceModel::fit_with(&x, dim, FitStrategy::Full).unwrap();
        let gram = SubspaceModel::fit_with(&x, dim, FitStrategy::Gram).unwrap();
        let oracle = full.threshold(0.999).unwrap();
        let t = gram.threshold(0.999).unwrap();
        assert!(
            (t - oracle).abs() < 1e-8 * (1.0 + oracle),
            "{t} vs {oracle}"
        );
        // Same SPEs, so same detections.
        let probe = x.row(17);
        let a = full.spe(probe).unwrap();
        let b = gram.spe(probe).unwrap();
        assert!((a - b).abs() < 1e-8 * (1.0 + a), "spe {a} vs {b}");
    }

    #[test]
    fn constant_traffic_has_zero_thresholds_and_zero_spe() {
        // Zero-variance data: the model is degenerate but must not panic.
        let x = Mat::from_fn(30, 4, |_, _| 5.0);
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(1)).unwrap();
        let t = model.threshold(0.999).unwrap();
        assert_eq!(t, 0.0);
        // All rows equal the mean: zero SPE, no detections (SPE > 0 required).
        let detections = model.detect(&x, 0.999).unwrap();
        assert!(detections.is_empty());
    }
}
