//! Principal component analysis over the rows of a data matrix.
//!
//! The subspace method treats a `t x n` measurement matrix (rows =
//! timepoints, columns = variables) as samples of a correlated process,
//! finds the principal axes of variation, and splits every observation into
//! a *normal* component (projection onto the leading axes) and a *residual*
//! component (everything else). [`Pca`] holds the fitted axes plus every
//! eigenvalue of the covariance, which is what the detection thresholds
//! read.
//!
//! # The spectrum and its residual power sums
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
//! rank), so a fitted [`Pca`] stores the complete descending spectrum and
//! [`Pca::residual_power_sums`] sums the residual slice directly.
//!
//! # Fit engines and dispatch
//!
//! Two engines produce the same model at different costs. Both keep the
//! **whole** eigenvalue spectrum and materialize eigen*vectors* only for
//! the `m` axes the caller's [`DimSelection`] names, because scoring, T²,
//! calibration and flow identification never index past the normal
//! subspace. [`Pca::fit`] runs either one.
//!
//! * **Full** ([`FitStrategy::Full`]) — the blocked dense solver on the
//!   `n × n` covariance: `O(n³)` for the tridiagonalization and the
//!   eigenvalues, then `O(m·n²)` for the `m` requested vectors. Asked for
//!   `Fixed(n)` it carries every axis and is the reference oracle.
//! * **Gram** ([`FitStrategy::Gram`]) — the `t × t` Gram eigenproblem,
//!   `O(t²n + t³ + m·t·n)`: the Gram product, its eigenvalues, and the
//!   back-projection of `m` axes, at most the data's numerical rank.
//!   Exact (the spectrum past the data's rank is exactly zero), and the
//!   cheap path whenever `rows < cols`.
//!
//! [`FitStrategy::Auto`] picks Gram or Full from the data shape and the
//! requested `m`. Both yield thresholds within round-off of the all-axes
//! dense oracle; the equivalence is pinned by proptests in the subspace
//! crate.

use crate::eigen::sym_eigen_leading;
use crate::matrix::dot;
use crate::score::ScorePlan;
use crate::{LinalgError, Mat};

/// Which engine fits the eigenstructure of the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// Choose from the data shape and the axis request: `rows < cols`
    /// dispatches to [`Gram`](Self::Gram) (when the rank bound supports
    /// the request), everything else runs [`Full`](Self::Full).
    #[default]
    Auto,
    /// The blocked dense solver on the full covariance: every eigenvalue
    /// (`O(n³)`), eigenvectors for the requested axes only.
    Full,
    /// The `rows × rows` Gram eigenproblem, `O(t²n + t³ + m·t·n)` with
    /// only the `m` requested axes back-projected — exact, and the natural
    /// engine for wide matrices.
    Gram,
}

/// How many principal axes a fit keeps: the dimension of the normal
/// subspace, and the axes the fit materializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DimSelection {
    /// Exactly this many leading axes.
    ///
    /// The paper found "a knee in the amount of variance captured at
    /// m ≈ 10 (which accounted for 85% of the total variance)" and fixed
    /// m = 10 for both networks.
    Fixed(usize),
}

impl Default for DimSelection {
    fn default() -> Self {
        DimSelection::Fixed(10)
    }
}

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
    /// slice-adapter threshold entry point and
    /// [`Pca::residual_power_sums`].
    pub fn from_slice(residual: &[f64]) -> Self {
        ResidualPowerSums {
            phi1: residual.iter().map(|&l| l.max(0.0)).sum(),
            phi2: residual.iter().map(|&l| l.max(0.0).powi(2)).sum(),
            phi3: residual.iter().map(|&l| l.max(0.0).powi(3)).sum(),
        }
    }
}

/// A fitted principal component analysis: every eigenvalue of the
/// covariance plus the leading axes the fit was asked for.
///
/// Built by [`Pca::fit`]; columns of the input are centered to zero mean
/// before the covariance is formed (as in Lakhina et al., SIGCOMM 2004).
/// The eigen*values* are complete whatever the engine; the axis count,
/// exposed as [`n_axes`](Self::n_axes), is what the [`DimSelection`]
/// asked for, at most `dim()` on the dense engine and the data's numerical
/// rank on the Gram engine.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Every eigenvalue, descending (zero-padded past the data's rank on
    /// the Gram path).
    values: Vec<f64>,
    /// Orthonormal eigenvectors, `dim × n_axes`, one column per axis,
    /// aligned with the leading `values`.
    axes: Mat,
    strategy: FitStrategy,
}

impl Pca {
    /// Fits a PCA to the rows of `x` (columns are variables) with the
    /// engine `strategy` names, dispatching on the data shape and `m`
    /// when the strategy is [`Auto`](FitStrategy::Auto).
    ///
    /// The dispatch rules, in order:
    ///
    /// 1. `rows < cols` and the Gram rank bound (`rank ≤ rows − 1`) can
    ///    support `m` axes → **Gram** (exact, `O(t²n + t³ + m·t·n)`). A
    ///    window whose *numerical* rank turns out smaller than `m` falls
    ///    through to rule 2.
    /// 2. Otherwise → **Full**.
    ///
    /// Either way the model carries every eigenvalue and the `m` axes
    /// `dim` names, no more (`Fixed(x.cols())` asks for all of them);
    /// a forced Gram fit stops at the numerical rank. Check
    /// [`strategy`](Self::strategy) for the engine actually used.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] for zero columns or fewer than two rows;
    /// otherwise whatever the eigensolver reports.
    pub fn fit(x: &Mat, strategy: FitStrategy, dim: DimSelection) -> Result<Self, LinalgError> {
        let DimSelection::Fixed(m) = dim;
        let (t, n) = x.shape();
        match strategy {
            FitStrategy::Full => Self::full(x, m),
            FitStrategy::Gram => Self::gram(x, m),
            FitStrategy::Auto => {
                if t < n && t >= m.saturating_add(2) {
                    let gram = Self::gram(x, m)?;
                    // The row count bounded the rank a priori, but the
                    // *numerical* rank is only known after the fit: short
                    // or degenerate windows can support fewer axes than
                    // the request needs. Auto must then degrade to the
                    // dense engine (whose rank is `n`), not surface an
                    // error the dense path never raised.
                    if gram.n_axes() >= m {
                        return Ok(gram);
                    }
                }
                Self::full(x, m)
            }
        }
    }

    /// The dense engine, materializing the leading `m` axes.
    fn full(x: &Mat, m: usize) -> Result<Self, LinalgError> {
        if x.cols() == 0 {
            return Err(LinalgError::Empty {
                what: "PCA of a matrix with zero columns",
            });
        }
        let mean = x.col_means();
        let cov = x.covariance()?;
        let eigen = sym_eigen_leading(&cov, |_| m)?;
        Ok(Pca {
            mean,
            values: eigen.values,
            axes: eigen.vectors,
            strategy: FitStrategy::Full,
        })
    }

    /// The Gram engine: the same model as [`full`](Self::full) from the
    /// `t × t` Gram eigenproblem instead of the `n × n` covariance one,
    /// back-projecting the leading `m` axes (at most the numerical rank).
    ///
    /// For `X_c` the centered data, `X_c X_cᵀ u = μ u` implies
    /// `cov · (X_cᵀ u) = (μ / (t-1)) · (X_cᵀ u)`: the Gram spectrum is the
    /// covariance spectrum (scaled), and each covariance eigenvector is a
    /// normalized back-projection of a Gram eigenvector. When `t ≪ n` —
    /// e.g. one week of bins against the `4p ≈ 2000` unfolded entropy
    /// columns of a large network — this turns an `O(n³)` eigensolve into
    /// an `O(t³)` one. The Gram product itself runs on the same blocked
    /// scoped-thread kernel as [`Mat::covariance`]. The eigenvalues are
    /// the full zero-padded spectrum, so downstream threshold code sees
    /// the exact covariance-path spectrum.
    fn gram(x: &Mat, m: usize) -> Result<Self, LinalgError> {
        let (t, n) = x.shape();
        if n == 0 {
            return Err(LinalgError::Empty {
                what: "PCA of a matrix with zero columns",
            });
        }
        if t < 2 {
            return Err(LinalgError::Empty {
                what: "covariance needs at least 2 rows",
            });
        }
        let mean = x.col_means();
        let mut centered = x.clone();
        centered.center_cols(&mean);
        let gram = centered.gram();
        let denom = (t - 1) as f64;

        // The covariance spectrum is the Gram spectrum over `t − 1`, all
        // of it: thresholds read the residual eigenvalues too.
        // Numerically-zero Gram eigenvalues cannot be back-projected (the
        // division by √μ blows up), so everything at or below round-off
        // of the leading one is an exact zero in the spectrum and out of
        // reach of the request.
        let mut values = vec![0.0; n];
        let geig = sym_eigen_leading(&gram, |mu| {
            let tol = mu[0].max(0.0) * 1e-12;
            let rank = mu.iter().take(n).take_while(|&&v| v > tol).count();
            values.fill(0.0);
            for (slot, v) in values.iter_mut().zip(&mu[..rank]) {
                *slot = v / denom;
            }
            m.min(rank)
        })?;

        // Axis j is X_cᵀ u_j / √μ_j. Row j of `axes` accumulates it one
        // data row at a time, so the data streams through once and every
        // element sums its terms in row order.
        let k = geig.vectors.cols();
        let mut axes = Mat::zeros(k, n);
        for (i, row) in centered.row_iter().enumerate() {
            for (j, &uij) in geig.vectors.row(i).iter().enumerate() {
                if uij != 0.0 {
                    crate::kernel::axpy(axes.row_mut(j), uij, row);
                }
            }
        }
        for (j, mu) in geig.values[..k].iter().enumerate() {
            let inv_norm = 1.0 / mu.sqrt();
            for v in axes.row_mut(j) {
                *v *= inv_norm;
            }
        }
        Ok(Pca {
            mean,
            values,
            axes: axes.transpose(),
            strategy: FitStrategy::Gram,
        })
    }

    /// Number of variables (columns of the fitted data).
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of principal axes the model carries: what the
    /// [`DimSelection`] asked for, at most `dim()` on the full path and the
    /// data's numerical rank on the Gram path. Projections require
    /// `m <= n_axes()`.
    pub fn n_axes(&self) -> usize {
        self.axes.cols()
    }

    /// The per-column means removed before analysis.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Every eigenvalue of the covariance, descending (zero-padded past
    /// the data's rank on the Gram path).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.values
    }

    /// The engine that actually produced this model (never
    /// [`FitStrategy::Auto`]).
    pub fn strategy(&self) -> FitStrategy {
        self.strategy
    }

    /// `tr C`: total variance over the full spectrum.
    pub fn total_variance(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Residual power sums `φ₁, φ₂, φ₃` past the leading `m` components —
    /// the exact input of the Q-statistic threshold — summed over the
    /// residual eigenvalues with each clamped at zero against solver
    /// round-off.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] if `m >= dim()`.
    pub fn residual_power_sums(&self, m: usize) -> Result<ResidualPowerSums, LinalgError> {
        if m >= self.values.len() {
            return Err(LinalgError::Domain {
                what: "residual power sums need a non-empty residual space (m < n)",
            });
        }
        Ok(ResidualPowerSums::from_slice(&self.values[m..]))
    }

    /// The orthonormal principal axes, one per column, aligned with the
    /// leading [`n_axes`](Self::n_axes) of
    /// [`eigenvalues`](Self::eigenvalues): what the request asked for, at
    /// most the numerical rank.
    pub fn components(&self) -> &Mat {
        &self.axes
    }

    /// Fraction of variance explained by the leading `m` components (1.0
    /// for a zero-variance spectrum: there is no variance to explain).
    pub fn explained_variance_ratio(&self, m: usize) -> f64 {
        let total = self.total_variance();
        if total <= 0.0 {
            return 1.0;
        }
        self.values.iter().take(m).sum::<f64>() / total
    }

    /// Centers `x` and projects it onto the leading `m` principal axes,
    /// returning the `m` scores.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `x.len() != self.dim()`;
    /// [`LinalgError::Domain`] if `m > self.n_axes()`.
    pub fn project(&self, x: &[f64], m: usize) -> Result<Vec<f64>, LinalgError> {
        self.check(x, m)?;
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(v, mu)| v - mu).collect();
        Ok(self.scores_of_centered(&centered, m))
    }

    /// Scores of an already-centered observation against the leading `m`
    /// axes, accumulated row-major (the axis matrix stores variables as
    /// rows, so all `m` scores advance together over one contiguous scan).
    fn scores_of_centered(&self, centered: &[f64], m: usize) -> Vec<f64> {
        let mut scores = vec![0.0; m];
        for (i, &ci) in centered.iter().enumerate() {
            // The zero-skip lives only in this reference chain: it pays off
            // on the sparse synthetic fixtures it was written against, but
            // on dense entropy rows (the production workload) it is a
            // per-element branch that mispredicts almost every time. The
            // fused [`ScorePlan`](crate::ScorePlan) path deliberately drops
            // it and centers/scores unconditionally.
            if ci == 0.0 {
                continue;
            }
            for (s, &vij) in scores.iter_mut().zip(&self.axes.row(i)[..m]) {
                *s += ci * vij;
            }
        }
        scores
    }

    /// Splits a centered observation into its modeled (normal-subspace) part.
    ///
    /// Returns `x_hat` such that `x - mean = x_hat + x_tilde` with `x_hat`
    /// in the span of the leading `m` axes. The two passes (project, then
    /// expand) each scan the axis matrix once row-major, so scoring one
    /// observation is `O(n·m)` with contiguous access — the cost that
    /// bounds the streaming score path.
    pub fn reconstruct(&self, x: &[f64], m: usize) -> Result<Vec<f64>, LinalgError> {
        self.check(x, m)?;
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(v, mu)| v - mu).collect();
        let scores = self.scores_of_centered(&centered, m);
        let mut hat = vec![0.0; self.dim()];
        for (i, h) in hat.iter_mut().enumerate() {
            *h = dot(&scores, &self.axes.row(i)[..m]);
        }
        Ok(hat)
    }

    /// The residual `x_tilde = (x - mean) - x_hat` after removing the
    /// normal-subspace component.
    pub fn residual(&self, x: &[f64], m: usize) -> Result<Vec<f64>, LinalgError> {
        let hat = self.reconstruct(x, m)?;
        Ok(x.iter()
            .zip(&self.mean)
            .zip(&hat)
            .map(|((v, mu), h)| (v - mu) - h)
            .collect())
    }

    /// Squared prediction error `||x_tilde||^2`, the detection statistic of
    /// the subspace method, through the reference chain — project,
    /// reconstruct, residual, norm — kept verbatim as the executable spec
    /// of the statistic. The serving layers score through a fused
    /// [`ScorePlan`] instead (see [`score_plan`](Self::score_plan)), which
    /// is pinned against this (≤1e-10 relative) and falls back to this
    /// computation shape when its cancellation guard trips.
    pub fn spe_reference(&self, x: &[f64], m: usize) -> Result<f64, LinalgError> {
        let r = self.residual(x, m)?;
        Ok(dot(&r, &r))
    }

    /// Builds the fused scoring plane over the leading `m` axes: the mean
    /// plus those axes transposed into contiguous rows, ready for
    /// allocation-free norm-identity scoring ([`ScorePlan::spe`],
    /// [`ScorePlan::spe_batch`]).
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] if `m > self.n_axes()`.
    pub fn score_plan(&self, m: usize) -> Result<ScorePlan, LinalgError> {
        if m > self.n_axes() {
            return Err(LinalgError::Domain {
                what: "requested more components than available axes",
            });
        }
        let n = self.dim();
        let axes = Mat::from_fn(m, n, |j, i| self.axes[(i, j)]);
        ScorePlan::new(self.mean.clone(), axes)
    }

    fn check(&self, x: &[f64], m: usize) -> Result<(), LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "pca apply",
                lhs: (1, x.len()),
                rhs: (1, self.dim()),
            });
        }
        if m > self.n_axes() {
            return Err(LinalgError::Domain {
                what: "requested more components than available axes",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Data living (noisily) on a line in 3-space.
    fn line_data(n: usize, noise: f64, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(n, 3, |i, j| {
            let t = i as f64 / n as f64;
            let base = match j {
                0 => 2.0 * t,
                1 => -t + 5.0,
                _ => 0.5 * t - 2.0,
            };
            base + noise * (rng.random::<f64>() - 0.5)
        })
    }

    /// The all-axes dense oracle: every eigenvalue and every axis.
    fn all_axes(x: &Mat) -> Pca {
        Pca::fit(x, FitStrategy::Full, DimSelection::Fixed(x.cols())).unwrap()
    }

    /// The Gram engine asked for every axis: it stops at the numerical
    /// rank.
    fn gram_axes(x: &Mat) -> Pca {
        Pca::fit(x, FitStrategy::Gram, DimSelection::Fixed(x.cols())).unwrap()
    }

    /// Wide low-rank-plus-noise data for the dispatch tests.
    fn wide_data(t: usize, n: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains: Vec<f64> = (0..n).map(|_| 0.5 + rng.random::<f64>()).collect();
        Mat::from_fn(t, n, |i, j| {
            let phase = i as f64 / 50.0 * std::f64::consts::TAU;
            gains[j] * (3.0 + phase.sin()) + 0.05 * (rng.random::<f64>() - 0.5)
        })
    }

    #[test]
    fn one_dimensional_data_has_one_component() {
        let x = line_data(200, 0.0, 1);
        let pca = all_axes(&x);
        assert!(pca.explained_variance_ratio(1) > 1.0 - 1e-9);
    }

    #[test]
    fn known_spectrum_reads_off_its_variance_and_power_sums() {
        // Six axis-aligned rows ±a·e₀, ±b·e₁, ±c·e₂ have zero mean and
        // covariance diag(2a², 2b², 2c²) / 5 = diag(6, 3, 1).
        let (a, b, c) = (15f64.sqrt(), 7.5f64.sqrt(), 2.5f64.sqrt());
        let x = Mat::from_rows(&[
            &[a, 0.0, 0.0],
            &[-a, 0.0, 0.0],
            &[0.0, b, 0.0],
            &[0.0, -b, 0.0],
            &[0.0, 0.0, c],
            &[0.0, 0.0, -c],
        ]);
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        let pca = all_axes(&x);
        for (got, want) in pca.eigenvalues().iter().zip([6.0, 3.0, 1.0]) {
            close(*got, want);
        }
        close(pca.total_variance(), 10.0);
        for (m, want) in [(0, 0.0), (1, 0.6), (2, 0.9), (3, 1.0)] {
            close(pca.explained_variance_ratio(m), want);
        }
        // φᵢ past m = 1 sums 3ⁱ + 1ⁱ; past m = 2 it is 1ⁱ.
        let sums = pca.residual_power_sums(1).unwrap();
        close(sums.phi1, 4.0);
        close(sums.phi2, 10.0);
        close(sums.phi3, 28.0);
        let sums = pca.residual_power_sums(2).unwrap();
        for phi in [sums.phi1, sums.phi2, sums.phi3] {
            close(phi, 1.0);
        }
        // m = n leaves no residual space.
        assert!(pca.residual_power_sums(3).is_err());
        // A zero-variance spectrum explains everything with no axes.
        let flat = all_axes(&Mat::from_fn(4, 2, |_, _| 1.5));
        assert_eq!(flat.total_variance(), 0.0);
        assert_eq!(flat.explained_variance_ratio(1), 1.0);
    }

    #[test]
    fn rank_deficient_residual_power_sums_clamp_to_zero() {
        // Exactly rank-2 data in 12 columns: the dense solver leaves
        // round-off of either sign past the rank, and the residual sums
        // must clamp it rather than go negative.
        let mut rng = StdRng::seed_from_u64(9);
        let loads: Vec<(f64, f64)> = (0..12)
            .map(|_| (rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
            .collect();
        let x = Mat::from_fn(40, 12, |i, j| {
            let (u, v) = ((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos());
            u * loads[j].0 + v * loads[j].1
        });
        let pca = Pca::fit(&x, FitStrategy::Full, DimSelection::Fixed(2)).unwrap();
        // This fixture's round-off includes negative eigenvalues, so the
        // clamp is exercised, not just passed through.
        let tail = &pca.eigenvalues()[2..];
        assert!(tail.iter().any(|&l| l < 0.0), "{tail:?}");
        let sums = pca.residual_power_sums(2).unwrap();
        for phi in [sums.phi1, sums.phi2, sums.phi3] {
            assert!((0.0..1e-9).contains(&phi), "{phi}");
        }
    }

    #[test]
    fn noisy_line_mostly_one_component() {
        let x = line_data(500, 0.05, 2);
        let pca = all_axes(&x);
        assert!(pca.explained_variance_ratio(1) > 0.98);
    }

    #[test]
    fn residual_plus_reconstruction_is_centered_x() {
        let x = line_data(100, 0.3, 3);
        let pca = all_axes(&x);
        let probe = x.row(10);
        for m in [0, 1, 2, 3] {
            let hat = pca.reconstruct(probe, m).unwrap();
            let tilde = pca.residual(probe, m).unwrap();
            for j in 0..3 {
                let centered = probe[j] - pca.mean()[j];
                assert!((hat[j] + tilde[j] - centered).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_rank_projection_has_zero_residual() {
        let x = line_data(100, 0.3, 4);
        let pca = all_axes(&x);
        let spe = pca.spe_reference(x.row(5), 3).unwrap();
        assert!(spe < 1e-18, "full-dimensional SPE should vanish, got {spe}");
    }

    #[test]
    fn spe_decreases_with_more_components() {
        let x = line_data(300, 0.4, 5);
        let pca = all_axes(&x);
        let probe = x.row(7);
        let spe0 = pca.spe_reference(probe, 0).unwrap();
        let spe1 = pca.spe_reference(probe, 1).unwrap();
        let spe2 = pca.spe_reference(probe, 2).unwrap();
        assert!(spe0 >= spe1 - 1e-12);
        assert!(spe1 >= spe2 - 1e-12);
    }

    #[test]
    fn outlier_has_larger_spe_than_inliers() {
        let x = line_data(300, 0.05, 6);
        let pca = all_axes(&x);
        let inlier_spe = pca.spe_reference(x.row(50), 1).unwrap();
        // A point far off the line.
        let outlier = [0.0, 20.0, 10.0];
        let outlier_spe = pca.spe_reference(&outlier, 1).unwrap();
        assert!(outlier_spe > 100.0 * inlier_spe);
    }

    #[test]
    fn project_scores_match_reconstruction() {
        let x = line_data(100, 0.2, 7);
        let pca = all_axes(&x);
        let probe = x.row(20);
        let scores = pca.project(probe, 2).unwrap();
        // Reconstruction = sum of score_j * axis_j.
        let mut manual = [0.0; 3];
        for (j, &score) in scores.iter().enumerate() {
            for (i, m) in manual.iter_mut().enumerate() {
                *m += score * pca.components()[(i, j)];
            }
        }
        let hat = pca.reconstruct(probe, 2).unwrap();
        for i in 0..3 {
            assert!((manual[i] - hat[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_path_matches_covariance_path() {
        // Wide matrix (rows < cols): the Gram path's natural habitat.
        let mut rng = StdRng::seed_from_u64(11);
        let x = Mat::from_fn(40, 90, |i, j| {
            let t = i as f64 / 40.0;
            (j % 5) as f64 * t + 0.1 * (rng.random::<f64>() - 0.5)
        });
        let cov_path = all_axes(&x);
        let gram_path = gram_axes(&x);
        assert_eq!(gram_path.dim(), 90);
        assert!(gram_path.n_axes() <= 40);
        // Spectra agree (Gram pads the rank-deficient tail with zeros).
        for (a, b) in gram_path
            .eigenvalues()
            .iter()
            .zip(cov_path.eigenvalues())
            .take(gram_path.n_axes())
        {
            assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()), "{a} vs {b}");
        }
        assert_eq!(gram_path.eigenvalues().len(), 90);
        // The models score observations identically.
        for m in [1usize, 3, 8] {
            for probe in [x.row(0), x.row(17), x.row(39)] {
                let a = cov_path.spe_reference(probe, m).unwrap();
                let b = gram_path.spe_reference(probe, m).unwrap();
                assert!((a - b).abs() < 1e-8 * (1.0 + a), "spe {a} vs {b} at m={m}");
            }
        }
    }

    #[test]
    fn auto_dispatch_picks_shape_appropriate_engines() {
        // Wide: Gram.
        let wide = wide_data(30, 80, 22);
        let pca = Pca::fit(&wide, FitStrategy::Auto, DimSelection::Fixed(5)).unwrap();
        assert_eq!(pca.strategy(), FitStrategy::Gram);
        // Rows >= cols: Full, however thin the request against the width.
        for (t, n) in [(150, 64), (150, 8)] {
            let tall = wide_data(t, n, 23);
            let pca = Pca::fit(&tall, FitStrategy::Auto, DimSelection::Fixed(5)).unwrap();
            assert_eq!(pca.strategy(), FitStrategy::Full, "{t}x{n}");
        }
        // Wide but with too few rows to support the request: not Gram.
        let stub = wide_data(5, 80, 25);
        let pca = Pca::fit(&stub, FitStrategy::Auto, DimSelection::Fixed(10)).unwrap();
        assert_ne!(pca.strategy(), FitStrategy::Gram);
        assert!(pca.n_axes() >= 10);
    }

    #[test]
    fn auto_falls_back_when_gram_rank_cannot_deliver() {
        // Wide but exactly rank-2 data with a 10-axis request: the row
        // count passes the a-priori Gram bound, yet the numerical rank
        // supports only 2 axes. Auto must degrade to the dense oracle
        // (which the old default path was) rather than error.
        let mut rng = StdRng::seed_from_u64(31);
        let (t, n) = (30usize, 80usize);
        let coeffs: Vec<(f64, f64)> = (0..t)
            .map(|_| (rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
            .collect();
        let loads: Vec<(f64, f64)> = (0..n)
            .map(|_| (2.0 * rng.random::<f64>(), 2.0 * rng.random::<f64>()))
            .collect();
        let x = Mat::from_fn(t, n, |i, j| {
            coeffs[i].0 * loads[j].0 + coeffs[i].1 * loads[j].1
        });
        let auto = Pca::fit(&x, FitStrategy::Auto, DimSelection::Fixed(10)).unwrap();
        assert_eq!(auto.strategy(), FitStrategy::Full);
        assert!(auto.n_axes() >= 10);
        // A forced Gram fit on the same data honestly reports its rank.
        let gram = gram_axes(&x);
        assert!(gram.n_axes() < 10, "rank-2 data has no 10 Gram axes");
    }

    #[test]
    fn overflowing_product_is_a_typed_error_on_every_engine() {
        // A huge-but-finite row passes every finiteness gate upstream and
        // overflows the centered product to Inf. No engine may answer that
        // with `Ok` (a non-finite spectrum scores every later row as NaN,
        // i.e. silently clean) or with a panic: the eigensolver's sweep
        // budget turns the NaNs into `NoConvergence`. Rows < cols and
        // rows > cols, below and above the blocked solver's cutover.
        for (t, n) in [(12usize, 30usize), (30, 6), (60, 90), (90, 60)] {
            let mut x = wide_data(t, n, 41);
            x.row_mut(t / 2).fill(1e300);
            for strategy in [FitStrategy::Auto, FitStrategy::Full, FitStrategy::Gram] {
                let fit = Pca::fit(&x, strategy, DimSelection::Fixed(2));
                assert!(
                    matches!(fit, Err(LinalgError::NoConvergence { .. })),
                    "{t}x{n} {strategy:?}: {:?}",
                    fit.map(|p| p.strategy())
                );
            }
        }
    }

    #[test]
    fn gram_path_rejects_degenerate_input() {
        for degenerate in [Mat::zeros(1, 3), Mat::zeros(5, 0)] {
            let fit = Pca::fit(&degenerate, FitStrategy::Gram, DimSelection::Fixed(1));
            assert!(fit.is_err());
        }
        // All-constant data: rank zero, no axes, but a valid model whose
        // every projection is the mean.
        let x = Mat::from_fn(10, 4, |_, _| 2.5);
        let pca = gram_axes(&x);
        assert_eq!(pca.n_axes(), 0);
        assert!(pca.spe_reference(x.row(0), 0).unwrap() < 1e-18);
        assert!(pca.project(x.row(0), 1).is_err(), "no axes to project on");
    }

    #[test]
    fn errors_on_bad_arguments() {
        let x = line_data(50, 0.1, 8);
        let pca = all_axes(&x);
        assert!(pca.project(&[1.0, 2.0], 1).is_err());
        assert!(pca.project(&[1.0, 2.0, 3.0], 4).is_err());
        for degenerate in [Mat::zeros(1, 3), Mat::zeros(5, 0)] {
            let fit = Pca::fit(&degenerate, FitStrategy::Full, DimSelection::Fixed(1));
            assert!(fit.is_err());
        }
    }
}
