//! The fitted eigenspectrum and its residual power sums.
//!
//! The Jackson–Mudholkar Q-statistic threshold — the detection test of the
//! whole pipeline — depends on the residual eigenvalues `λ_{m+1} … λ_n` of
//! the sample covariance **only** through the three power sums
//!
//! ```text
//! φ_i = Σ_{j>m} λ_j^i ,   i = 1, 2, 3.
//! ```
//!
//! Both fit engines know every eigenvalue before the first eigenvector is
//! computed (the dense solver from its eigenvalue-only QL pass, the Gram
//! engine from the `t × t` spectrum padded with exact zeros past the data's
//! rank), so [`Spectrum`] stores the complete descending spectrum and sums
//! the residual slice directly. Eigenvectors are stored only for the axes
//! the fit was asked for.

use crate::{LinalgError, Mat};

/// The residual power sums `φ₁, φ₂, φ₃` of a covariance spectrum past a
/// normal subspace of dimension `m` — the complete input of the
/// Jackson–Mudholkar threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualPowerSums {
    /// `φ₁ = Σ_{j>m} λ_j` — the residual variance.
    pub phi1: f64,
    /// `φ₂ = Σ_{j>m} λ_j²`.
    pub phi2: f64,
    /// `φ₃ = Σ_{j>m} λ_j³`.
    pub phi3: f64,
}

impl ResidualPowerSums {
    /// Power sums of an explicit residual eigenvalue slice, with each
    /// eigenvalue clamped at zero against solver round-off — the single
    /// definition of the clamping convention, shared by the
    /// slice-adapter threshold entry point and [`Spectrum`].
    pub fn from_slice(residual: &[f64]) -> Self {
        ResidualPowerSums {
            phi1: residual.iter().map(|&l| l.max(0.0)).sum(),
            phi2: residual.iter().map(|&l| l.max(0.0).powi(2)).sum(),
            phi3: residual.iter().map(|&l| l.max(0.0).powi(3)).sum(),
        }
    }
}

/// Smallest `m` whose leading `values` sum to at least `fraction` of
/// `total` (`Some(0)` for a zero-variance spectrum), or `None` when they
/// never do. The one place the cut is computed: the fit resolves a
/// variance-fraction request with it before any axis exists, and the
/// fitted [`Spectrum`] answers the same question with it afterwards.
pub(crate) fn leading_dims(values: &[f64], total: f64, fraction: f64) -> Option<usize> {
    if total <= 0.0 {
        return Some(0);
    }
    let mut acc = 0.0;
    for (i, v) in values.iter().enumerate() {
        acc += v;
        if acc / total >= fraction {
            return Some(i + 1);
        }
    }
    None
}

/// A complete eigenspectrum: every eigenvalue, descending, plus the
/// eigenvectors of the leading axes.
///
/// The eigenvector matrix usually carries fewer columns than there are
/// eigenvalues — a fit materializes the axes its request names, at most
/// the data's rank on the Gram path; [`n_axes`](Self::n_axes) is the
/// projectable count.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Every eigenvalue, descending.
    values: Vec<f64>,
    /// Orthonormal eigenvectors, one column per axis, aligned with the
    /// leading `values`.
    vectors: Mat,
}

impl Spectrum {
    /// A complete spectrum: every eigenvalue (descending) and the axes of
    /// the leading `vectors.cols()` of them. A fit materializes only the
    /// axes its request names, and the Gram path has none to offer past
    /// the data's rank, so fewer columns than eigenvalues is the normal
    /// case.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] unless there is one eigenvalue per
    /// row of `vectors` and at most that many columns.
    pub fn complete(values: Vec<f64>, vectors: Mat) -> Result<Self, LinalgError> {
        let dim = vectors.rows();
        if values.len() != dim || vectors.cols() > dim {
            return Err(LinalgError::ShapeMismatch {
                op: "complete spectrum",
                lhs: (values.len(), 1),
                rhs: vectors.shape(),
            });
        }
        Ok(Spectrum { values, vectors })
    }

    /// Every eigenvalue, descending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The orthonormal axis matrix (one column per projectable axis).
    pub fn vectors(&self) -> &Mat {
        &self.vectors
    }

    /// Number of projectable axes carried.
    pub fn n_axes(&self) -> usize {
        self.vectors.cols()
    }

    /// The total variance `Σ λ_j = tr C`.
    pub fn total_variance(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Fraction of total variance captured by the leading `m` eigenvalues
    /// (1.0 for a zero-variance spectrum: there is no variance to explain).
    pub fn explained(&self, m: usize) -> f64 {
        let total = self.total_variance();
        if total <= 0.0 {
            return 1.0;
        }
        self.values.iter().take(m).sum::<f64>() / total
    }

    /// Smallest `m` whose leading eigenvalues capture at least `fraction`
    /// of total variance.
    ///
    /// Zero-variance spectra answer 0; a fraction the spectrum never
    /// reaches answers its own length.
    pub fn dims_for_variance(&self, fraction: f64) -> usize {
        leading_dims(&self.values, self.total_variance(), fraction).unwrap_or(self.values.len())
    }

    /// The residual power sums `φ₁, φ₂, φ₃` past a normal subspace of
    /// dimension `m`, summed over the stored residual slice with each
    /// eigenvalue clamped at zero against solver round-off.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] if `m` leaves no residual space (`m ≥ n`).
    pub fn residual_power_sums(&self, m: usize) -> Result<ResidualPowerSums, LinalgError> {
        if m >= self.values.len() {
            return Err(LinalgError::Domain {
                what: "residual power sums need a non-empty residual space (m < n)",
            });
        }
        Ok(ResidualPowerSums::from_slice(&self.values[m..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym_eigen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complete_of(a: &Mat) -> Spectrum {
        let eigen = sym_eigen(a).unwrap();
        Spectrum::complete(eigen.values, eigen.vectors).unwrap()
    }

    fn random_psd(n: usize, rank: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Mat::from_fn(n, rank, |_, _| rng.random::<f64>() - 0.5);
        b.matmul(&b.transpose()).unwrap()
    }

    #[test]
    fn zero_residual_spectrum_clamps_to_zero() {
        // Rank-2 matrix: the solver leaves round-off of either sign past
        // the rank, and the residual sums must clamp it rather than go
        // negative.
        let a = random_psd(12, 2, 9);
        let sums = complete_of(&a).residual_power_sums(2).unwrap();
        assert!(sums.phi1 >= 0.0 && sums.phi1 < 1e-9);
        assert!(sums.phi2 >= 0.0 && sums.phi2 < 1e-9);
        assert!(sums.phi3 >= 0.0 && sums.phi3 < 1e-9);
    }

    #[test]
    fn dims_for_variance_matches_the_cumulative_cut() {
        // Cumulative shares of [8, 4, 2, 1, 1] / 16: 0.5, 0.75, 0.875,
        // 0.9375, 1 — every cut below is read off that list by hand.
        let full = Spectrum::complete(vec![8.0, 4.0, 2.0, 1.0, 1.0], Mat::identity(5)).unwrap();
        for (fraction, m) in [(0.3, 1), (0.5, 1), (0.75, 2), (0.9, 4), (0.999999, 5)] {
            assert_eq!(full.dims_for_variance(fraction), m, "fraction {fraction}");
        }
        // A fraction past the floating-point total saturates at n.
        assert_eq!(full.dims_for_variance(2.0), 5);
        // Zero-variance spectra need no axes at all.
        let zero = complete_of(&Mat::zeros(3, 3));
        assert_eq!(zero.dims_for_variance(0.9), 0);
    }

    #[test]
    fn complete_rejects_shapes_that_are_not_a_spectrum() {
        // One eigenvalue per dimension, never more axes than dimensions;
        // fewer axes than eigenvalues is the normal case.
        assert!(Spectrum::complete(vec![2.0, 1.0], Mat::identity(3)).is_err());
        assert!(Spectrum::complete(vec![2.0, 1.0], Mat::zeros(2, 3)).is_err());
        let thin = Spectrum::complete(vec![2.0, 1.0, 0.0], Mat::zeros(3, 1)).unwrap();
        assert_eq!((thin.n_axes(), thin.values().len()), (1, 3));
        assert!(thin.residual_power_sums(2).is_ok());
        assert!(thin.residual_power_sums(3).is_err());
    }
}
