//! Detection thresholds for the squared prediction error.
//!
//! # The Q-statistic (Jackson & Mudholkar 1979)
//!
//! Given the eigenvalue spectrum `λ_1 >= λ_2 >= ... >= λ_n` of the sample
//! covariance and a normal subspace of dimension `m`, the squared residual
//! norm of a multivariate-normal observation exceeds
//!
//! ```text
//! δ²_α = φ₁ · [ c_α·sqrt(2·φ₂·h₀²)/φ₁ + 1 + φ₂·h₀·(h₀-1)/φ₁² ]^(1/h₀)
//! ```
//!
//! with probability `1 - α`, where `φ_i = Σ_{j>m} λ_j^i`,
//! `h₀ = 1 - 2φ₁φ₃/(3φ₂²)`, and `c_α` is the `α` standard-normal quantile.
//! This is the threshold the paper uses to turn a residual magnitude into a
//! detection at a desired false-alarm rate (α = 0.995, 0.999 in §6).
//!
//! The residual spectrum enters **only** through the power sums
//! `φ₁, φ₂, φ₃` (see
//! [`Spectrum::residual_power_sums`](entromine_linalg::Spectrum::residual_power_sums)).
//! The core entry point here is [`q_threshold_from_power_sums`];
//! [`q_statistic_threshold`] remains as a thin adapter over an explicit
//! eigenvalue slice.
//!
//! # The empirical alternative
//!
//! The Jackson–Mudholkar formula assumes Gaussian residuals. Entropy
//! residuals at small traffic scales are markedly heteroskedastic (Poisson
//! sampling noise scales with rate), and the Gaussian threshold then
//! *under-covers*: a clean training week can alarm on ~17% of its own bins
//! at `α = 0.999`. [`ThresholdPolicy::Empirical`] sidesteps the
//! distributional assumption entirely by calibrating `δ²_α` as the `α`
//! order statistic of the *training-window SPE distribution* — by
//! construction, a fraction `1 − α` of training bins exceeds it. Prefer it
//! when training data is plentiful and residuals are visibly non-Gaussian;
//! prefer Jackson–Mudholkar when the training window is short (an
//! empirical `α = 0.999` quantile needs thousands of bins to be sharp) or
//! when an analytic, model-derived threshold is required.

use crate::SubspaceError;
use entromine_linalg::stats::inv_norm_cdf;
use entromine_linalg::ResidualPowerSums;

/// How a fitted model turns a confidence level `α` into an SPE threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdPolicy {
    /// The analytic Jackson–Mudholkar threshold from the residual power
    /// sums — the paper's choice, exact under Gaussian residuals.
    #[default]
    JacksonMudholkar,
    /// The `α` quantile of the training-window SPE order statistics —
    /// assumption-free coverage of the training distribution itself
    /// (every fit retains its training SPEs for this).
    Empirical,
}

/// Computes the Q-statistic threshold `δ²_α` from an eigenvalue slice.
///
/// * `eigenvalues` — full covariance spectrum, descending.
/// * `m` — dimension of the normal subspace (`m < eigenvalues.len()`).
/// * `alpha` — confidence level in `(0, 1)`; detections fire when
///   `SPE > δ²_α`, giving false-alarm probability `1 - alpha` under the
///   null model.
///
/// This is the historical entry point, kept as a thin adapter: it clamps
/// the residual eigenvalues at zero (round-off from the solver), forms
/// their power sums, and delegates to [`q_threshold_from_power_sums`].
pub fn q_statistic_threshold(
    eigenvalues: &[f64],
    m: usize,
    alpha: f64,
) -> Result<f64, SubspaceError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(SubspaceError::BadAlpha(alpha));
    }
    if m >= eigenvalues.len() {
        return Err(SubspaceError::BadDimension {
            requested: m,
            available: eigenvalues.len(),
        });
    }
    q_threshold_from_power_sums(&ResidualPowerSums::from_slice(&eigenvalues[m..]), alpha)
}

/// Computes the Q-statistic threshold `δ²_α` from residual power sums —
/// the core of the detection threshold, fed by a fitted model's
/// [`Pca::residual_power_sums`](entromine_linalg::Pca::residual_power_sums).
///
/// Degenerate inputs are handled conservatively:
///
/// * If the residual power sums are ~0 (the data is perfectly modeled
///   by the normal subspace), the threshold is 0 — any measurable residual
///   is anomalous.
/// * If `h₀` is non-positive (possible for extremely heavy-tailed residual
///   spectra), the threshold falls back to the first-order normal
///   approximation `φ₁ + c_α·sqrt(2·φ₂)`.
///
/// # Errors
///
/// [`SubspaceError::BadAlpha`] unless `0 < alpha < 1`.
pub fn q_threshold_from_power_sums(
    sums: &ResidualPowerSums,
    alpha: f64,
) -> Result<f64, SubspaceError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(SubspaceError::BadAlpha(alpha));
    }
    let (phi1, phi2, phi3) = (sums.phi1, sums.phi2, sums.phi3);

    if phi1 <= 0.0 || phi2 <= 0.0 {
        // Residual space carries no variance: any residual is anomalous.
        return Ok(0.0);
    }

    let c_alpha = inv_norm_cdf(alpha);
    let h0 = 1.0 - 2.0 * phi1 * phi3 / (3.0 * phi2 * phi2);

    if h0 <= 0.0 {
        // Fall back to the first-order normal approximation.
        return Ok(phi1 + c_alpha * (2.0 * phi2).sqrt());
    }

    let term = c_alpha * (2.0 * phi2 * h0 * h0).sqrt() / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / (phi1 * phi1);
    // `term` can go (slightly) negative at extreme alpha; the residual
    // distribution's support is nonnegative, so clamp.
    if term <= 0.0 {
        return Ok(0.0);
    }
    Ok(phi1 * term.powf(1.0 / h0))
}

/// A structured warning that an empirical threshold is under-resolved:
/// the calibration sample is too small for the requested `α` quantile to
/// be sharp.
///
/// The `α` order statistic of a `t`-bin sample is only resolved by the
/// data when the sample is expected to put mass above it — i.e. when
/// `t · (1 − α) ≥ 1`. Below that ([`required_bins`] bins, e.g. 1000 bins
/// at `α = 0.999`), [`empirical_quantile`] interpolates against (or
/// saturates at) the sample maximum: the threshold becomes an extreme
/// value estimate with high variance, and the realized false-alarm rate
/// can sit well off `1 − α`. This is a *warning*, not an error — the
/// threshold is still the best available order statistic — so callers
/// surface it (structured, never a panic) and operators decide whether to
/// lengthen the window or fall back to Jackson–Mudholkar.
///
/// [`required_bins`]: EmpiricalSharpness::required_bins
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalSharpness {
    /// Bins in the calibration sample.
    pub training_bins: usize,
    /// The confidence level the threshold was requested at.
    pub alpha: f64,
    /// Minimum sample size at which the `alpha` quantile is resolved by
    /// the data: `ceil(1 / (1 − alpha))`.
    pub required_bins: usize,
}

impl std::fmt::Display for EmpiricalSharpness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "empirical alpha={} quantile is under-resolved: {} training bins < {} required \
             (threshold rides the sample maximum; lengthen the window or use Jackson-Mudholkar)",
            self.alpha, self.training_bins, self.required_bins
        )
    }
}

/// Checks whether a `training_bins`-sized calibration sample resolves the
/// `alpha` quantile, returning the structured warning when it does not.
/// Returns `None` for sufficient samples and for out-of-range `alpha`
/// (which the threshold call itself rejects as an error).
pub fn empirical_sharpness(training_bins: usize, alpha: f64) -> Option<EmpiricalSharpness> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return None;
    }
    let required = (1.0 / (1.0 - alpha)).ceil();
    // Guard the cast: alpha within a few ULP of 1.0 demands an absurd
    // sample; saturate rather than overflow.
    let required_bins = if required.is_finite() && required < usize::MAX as f64 {
        required as usize
    } else {
        usize::MAX
    };
    (training_bins < required_bins).then_some(EmpiricalSharpness {
        training_bins,
        alpha,
        required_bins,
    })
}

/// The `alpha` quantile of a **sorted ascending** SPE sample, by linear
/// interpolation of the order statistics: the empirical threshold `δ²_α`.
///
/// A fraction `1 − alpha` of the calibration sample exceeds the returned
/// value (up to interpolation), regardless of the residual distribution.
///
/// # Errors
///
/// [`SubspaceError::BadAlpha`] unless `0 < alpha < 1`;
/// [`SubspaceError::BadInput`] on an empty sample.
pub fn empirical_quantile(sorted_spe: &[f64], alpha: f64) -> Result<f64, SubspaceError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(SubspaceError::BadAlpha(alpha));
    }
    let t = sorted_spe.len();
    if t == 0 {
        return Err(SubspaceError::BadInput(
            "empirical threshold needs a non-empty calibration sample",
        ));
    }
    let pos = alpha * (t - 1) as f64;
    let lo = pos.floor() as usize;
    if lo + 1 >= t {
        return Ok(sorted_spe[t - 1]);
    }
    let frac = pos - lo as f64;
    Ok(sorted_spe[lo] + frac * (sorted_spe[lo + 1] - sorted_spe[lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_increases_with_alpha() {
        let eigs = vec![10.0, 5.0, 2.0, 1.0, 0.5, 0.25];
        let t95 = q_statistic_threshold(&eigs, 2, 0.95).unwrap();
        let t99 = q_statistic_threshold(&eigs, 2, 0.99).unwrap();
        let t999 = q_statistic_threshold(&eigs, 2, 0.999).unwrap();
        assert!(t95 < t99, "{t95} !< {t99}");
        assert!(t99 < t999, "{t99} !< {t999}");
    }

    #[test]
    fn threshold_scales_with_residual_variance() {
        let small = vec![10.0, 5.0, 0.1, 0.05, 0.02];
        let large = vec![10.0, 5.0, 1.0, 0.5, 0.2];
        let ts = q_statistic_threshold(&small, 2, 0.999).unwrap();
        let tl = q_statistic_threshold(&large, 2, 0.999).unwrap();
        assert!(ts < tl);
    }

    #[test]
    fn threshold_near_phi1_at_alpha_half() {
        // At alpha = 0.5, c_alpha = 0 and δ² = φ₁·(1 + correction)^(1/h₀).
        // The correction term is not small for heavy residual spectra (it is
        // ~-30% here), but the threshold must stay on φ₁'s scale.
        let eigs = vec![10.0, 1.0, 0.5, 0.25];
        let t = q_statistic_threshold(&eigs, 1, 0.5).unwrap();
        let phi1 = 1.75;
        assert!(t > 0.5 * phi1 && t < 1.5 * phi1, "t = {t}, phi1 = {phi1}");
    }

    #[test]
    fn zero_residual_spectrum_gives_zero_threshold() {
        let eigs = vec![10.0, 5.0, 0.0, 0.0];
        assert_eq!(q_statistic_threshold(&eigs, 2, 0.999).unwrap(), 0.0);
        // Tiny negative round-off eigenvalues behave the same.
        let eigs = vec![10.0, 5.0, -1e-18, -1e-19];
        assert_eq!(q_statistic_threshold(&eigs, 2, 0.999).unwrap(), 0.0);
    }

    #[test]
    fn slice_adapter_equals_power_sum_core() {
        // The adapter must be a pure repackaging: same inputs, same bits.
        let eigs = [12.0f64, 6.0, 3.0, 1.5, 0.75, 0.3, 0.1];
        for m in 0..6 {
            for alpha in [0.5, 0.95, 0.999] {
                let sums = ResidualPowerSums::from_slice(&eigs[m..]);
                assert_eq!(
                    q_statistic_threshold(&eigs, m, alpha).unwrap(),
                    q_threshold_from_power_sums(&sums, alpha).unwrap(),
                );
            }
        }
    }

    #[test]
    fn h0_fallback_branch_reached_and_finite() {
        // One moderate residual eigenvalue plus a sea of tiny ones drives
        // h₀ = 1 − 2φ₁φ₃/(3φ₂²) negative: φ₂, φ₃ ≈ 1 while φ₁ ≈ 1 + Nε.
        let mut eigs = vec![100.0, 1.0];
        eigs.extend(vec![1e-3; 1000]);
        let sums = {
            let residual = &eigs[1..];
            ResidualPowerSums {
                phi1: residual.iter().sum(),
                phi2: residual.iter().map(|l| l * l).sum(),
                phi3: residual.iter().map(|l| l * l * l).sum(),
            }
        };
        let h0 = 1.0 - 2.0 * sums.phi1 * sums.phi3 / (3.0 * sums.phi2 * sums.phi2);
        assert!(h0 <= 0.0, "fixture must exercise the fallback (h0 = {h0})");
        let t = q_threshold_from_power_sums(&sums, 0.999).unwrap();
        let first_order = sums.phi1 + inv_norm_cdf(0.999) * (2.0 * sums.phi2).sqrt();
        assert_eq!(t, first_order);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn invalid_arguments_rejected() {
        let eigs = vec![1.0, 0.5];
        assert!(matches!(
            q_statistic_threshold(&eigs, 0, 0.0),
            Err(SubspaceError::BadAlpha(_))
        ));
        assert!(matches!(
            q_statistic_threshold(&eigs, 0, 1.0),
            Err(SubspaceError::BadAlpha(_))
        ));
        assert!(matches!(
            q_statistic_threshold(&eigs, 2, 0.9),
            Err(SubspaceError::BadDimension { .. })
        ));
        assert!(matches!(
            q_statistic_threshold(&[], 0, 0.9),
            Err(SubspaceError::BadDimension { .. })
        ));
        let sums = ResidualPowerSums {
            phi1: 1.0,
            phi2: 1.0,
            phi3: 1.0,
        };
        assert!(q_threshold_from_power_sums(&sums, 0.0).is_err());
        assert!(q_threshold_from_power_sums(&sums, f64::NAN).is_err());
    }

    #[test]
    fn empirical_quantile_interpolates_order_statistics() {
        let sorted: Vec<f64> = (0..101).map(|i| i as f64).collect();
        // Exact order statistics at the grid points...
        assert!((empirical_quantile(&sorted, 0.5).unwrap() - 50.0).abs() < 1e-12);
        assert!((empirical_quantile(&sorted, 0.99).unwrap() - 99.0).abs() < 1e-12);
        // ...interpolation between them...
        let q = empirical_quantile(&sorted, 0.995).unwrap();
        assert!((q - 99.5).abs() < 1e-12, "q = {q}");
        // ...and saturation at the sample maximum.
        assert!(empirical_quantile(&sorted, 0.9999).unwrap() <= 100.0);
        assert_eq!(empirical_quantile(&[7.0], 0.9).unwrap(), 7.0);
        assert!(empirical_quantile(&[], 0.9).is_err());
        assert!(empirical_quantile(&sorted, 1.0).is_err());
    }

    #[test]
    fn sharpness_guard_flags_small_samples() {
        // The satellite example: alpha = 0.999 needs >= 1000 bins.
        let warn = empirical_sharpness(300, 0.999).expect("must warn");
        assert_eq!(warn.required_bins, 1000);
        assert_eq!(warn.training_bins, 300);
        assert!(warn.to_string().contains("300"));
        assert!(warn.to_string().contains("1000"));
        assert!(empirical_sharpness(999, 0.999).is_some());
        assert!(empirical_sharpness(1000, 0.999).is_none());
        // Lower alpha is satisfied by modest windows.
        assert!(empirical_sharpness(300, 0.99).is_none());
        assert!(empirical_sharpness(50, 0.99).is_some());
        // Out-of-range alpha is the threshold call's error, not a warning.
        assert!(empirical_sharpness(10, 1.0).is_none());
        assert!(empirical_sharpness(10, -0.5).is_none());
        assert!(empirical_sharpness(10, f64::NAN).is_none());
        // Alpha pathologically close to 1 stays finite and sane.
        let extreme = empirical_sharpness(10, 1.0 - 1e-12).expect("must warn");
        assert!(extreme.required_bins > 100_000_000_000);
    }

    #[test]
    fn empirical_quantile_covers_its_own_sample() {
        // By construction ~ (1 - alpha) of the calibration sample exceeds
        // the threshold.
        let mut spes: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 4001) as f64).collect();
        spes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for alpha in [0.9, 0.99, 0.999] {
            let t = empirical_quantile(&spes, alpha).unwrap();
            let exceed = spes.iter().filter(|&&s| s > t).count() as f64 / spes.len() as f64;
            assert!(
                (exceed - (1.0 - alpha)).abs() < 2.0 / spes.len() as f64 + 1e-3,
                "alpha {alpha}: exceedance {exceed}"
            );
        }
    }

    #[test]
    fn monte_carlo_false_alarm_rate() {
        // Draw residuals from the model the Q-statistic assumes (independent
        // normals with variances = residual eigenvalues) and check the
        // empirical exceedance probability is close to 1 - alpha.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let residual_eigs = [1.0f64, 0.6, 0.3, 0.2, 0.1, 0.05];
        let mut eigs = vec![50.0, 20.0]; // normal-subspace eigenvalues
        eigs.extend_from_slice(&residual_eigs);
        let alpha = 0.99;
        let threshold = q_statistic_threshold(&eigs, 2, alpha).unwrap();

        let mut rng = StdRng::seed_from_u64(2005);
        let trials = 200_000;
        let mut exceed = 0usize;
        for _ in 0..trials {
            // Sum of lambda_j * z_j^2 via Box-Muller pairs.
            let mut spe = 0.0;
            for &l in &residual_eigs {
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                spe += l * z * z;
            }
            if spe > threshold {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        let expected = 1.0 - alpha;
        // The JM approximation is not exact; accept a factor-2 band.
        assert!(
            rate > expected / 2.0 && rate < expected * 2.0,
            "false alarm rate {rate} too far from {expected}"
        );
    }
}
