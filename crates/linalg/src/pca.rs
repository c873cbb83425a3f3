//! Principal component analysis over the rows of a data matrix.
//!
//! The subspace method treats a `t x n` measurement matrix (rows =
//! timepoints, columns = variables) as samples of a correlated process,
//! finds the principal axes of variation, and splits every observation into
//! a *normal* component (projection onto the leading axes) and a *residual*
//! component (everything else). [`Pca`] packages the fitted axes plus a
//! [`Spectrum`] — every eigenvalue, which is what the detection thresholds
//! read.
//!
//! # Fit engines and dispatch
//!
//! Two engines produce the same model at different costs. Both keep the
//! **whole** eigenvalue spectrum (thresholds, variance fractions and
//! explained-variance read all of it) and materialize eigen*vectors* only
//! for the axes the caller's [`DimSelection`] names, because scoring, T²,
//! calibration and flow identification never index past the normal
//! subspace.
//!
//! * **Full** ([`Pca::fit`]) — the blocked dense solver on the `n × n`
//!   covariance: `O(n³)` for the tridiagonalization and the eigenvalues,
//!   then `O(m·n²)` for the `m` requested vectors. [`Pca::fit`] itself
//!   asks for all `n` and is the reference oracle.
//! * **Gram** ([`Pca::fit_gram`]) — the `t × t` Gram eigenproblem,
//!   `O(t²n + t³ + m·t·n)`: the Gram product, its eigenvalues, and the
//!   back-projection of `m` axes. Exact (the spectrum past the data's
//!   rank is exactly zero), and the cheap path whenever `rows < cols`.
//!   [`Pca::fit_gram`] itself back-projects every axis the rank supports.
//!
//! [`FitStrategy`] names the engines; [`FitStrategy::Auto`] picks Gram or
//! Full from the data shape and the caller's [`DimSelection`]. Both yield
//! thresholds within round-off of the all-axes dense oracle; the
//! equivalence is pinned by proptests in the subspace crate.

use crate::eigen::sym_eigen_leading;
use crate::matrix::dot;
use crate::score::ScorePlan;
use crate::spectrum::{leading_dims, ResidualPowerSums, Spectrum};
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
///
/// [`Fixed`] selections come with their dimension attached;
/// [`VarianceFraction`] selections are resolved against the eigenvalues,
/// which both engines have in full before the first vector is computed.
///
/// [`Fixed`]: Self::Fixed
/// [`VarianceFraction`]: Self::VarianceFraction
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DimSelection {
    /// Exactly this many leading axes.
    ///
    /// The paper found "a knee in the amount of variance captured at
    /// m ≈ 10 (which accounted for 85% of the total variance)" and fixed
    /// m = 10 for both networks.
    Fixed(usize),
    /// The smallest count capturing at least this fraction of total
    /// variance (e.g. `0.85`).
    VarianceFraction(f64),
}

impl Default for DimSelection {
    fn default() -> Self {
        DimSelection::Fixed(10)
    }
}

/// What [`Pca::fit`] and [`Pca::fit_gram`] ask for: every axis the engine
/// can carry.
const ALL_AXES: DimSelection = DimSelection::Fixed(usize::MAX);

impl DimSelection {
    /// The number of leading axes that answers this request over a
    /// complete, descending spectrum — the same cut
    /// [`Pca::dims_for_variance`] reports on the fitted model.
    fn resolve(self, values: &[f64]) -> usize {
        match self {
            DimSelection::Fixed(m) => m.min(values.len()),
            DimSelection::VarianceFraction(f) => {
                leading_dims(values, values.iter().sum(), f).unwrap_or(values.len())
            }
        }
    }
}

/// A fitted principal component analysis.
///
/// Built by [`Pca::fit`] (covariance eigenproblem), [`Pca::fit_gram`] (the
/// equivalent `rows × rows` Gram eigenproblem, cheaper for wide matrices),
/// or the [`FitStrategy`] dispatcher ([`Pca::fit_with`]); columns of the
/// input are centered to zero mean before the covariance is formed (as in
/// Lakhina et al., SIGCOMM 2004).
///
/// [`fit`](Self::fit) carries one principal axis per variable and
/// [`fit_gram`](Self::fit_gram) one per unit of numerical rank (at most
/// `rows − 1`); through [`fit_with`](Self::fit_with) both engines carry
/// only the axes the request names. The eigen*values* are complete either
/// way. The axis count is exposed as [`n_axes`](Self::n_axes).
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    spectrum: Spectrum,
    strategy: FitStrategy,
}

impl Pca {
    /// Fits a PCA to the rows of `x` (columns are variables).
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from covariance construction (fewer than
    /// two rows) or the eigensolver.
    pub fn fit(x: &Mat) -> Result<Self, LinalgError> {
        Self::full_for(x, ALL_AXES)
    }

    /// The dense engine, materializing the axes `request` names.
    fn full_for(x: &Mat, request: DimSelection) -> Result<Self, LinalgError> {
        if x.cols() == 0 {
            return Err(LinalgError::Empty {
                what: "PCA of a matrix with zero columns",
            });
        }
        let mean = x.col_means();
        let cov = x.covariance()?;
        let eigen = sym_eigen_leading(&cov, |values| request.resolve(values))?;
        Ok(Pca {
            mean,
            spectrum: Spectrum::complete(eigen.values, eigen.vectors)?,
            strategy: FitStrategy::Full,
        })
    }

    /// Fits the same model as [`fit`](Self::fit) by solving the `t × t`
    /// Gram eigenproblem instead of the `n × n` covariance one.
    ///
    /// For `X_c` the centered data, `X_c X_cᵀ u = μ u` implies
    /// `cov · (X_cᵀ u) = (μ / (t-1)) · (X_cᵀ u)`: the Gram spectrum is the
    /// covariance spectrum (scaled), and each covariance eigenvector is a
    /// normalized back-projection of a Gram eigenvector. When `t ≪ n` —
    /// e.g. one week of bins against the `4p ≈ 2000` unfolded entropy
    /// columns of a large network — this turns an `O(n³)` eigensolve into
    /// an `O(t³)` one. The Gram product itself runs on the same blocked
    /// scoped-thread kernel as [`Mat::covariance`].
    ///
    /// Numerically the two paths agree to round-off (axes may flip sign);
    /// they are cross-checked in proptests. The returned model carries
    /// every axis the data's numerical rank supports
    /// (`n_axes() ≤ min(t − 1, n)`) plus the full zero-padded eigenvalue
    /// spectrum, so downstream threshold code sees the exact
    /// covariance-path spectrum. [`FitStrategy::Auto`] dispatches to this
    /// engine whenever `rows < cols` and the rank bound supports the
    /// request — and then back-projects the requested axes only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_gram(x: &Mat) -> Result<Self, LinalgError> {
        Self::gram_for(x, ALL_AXES)
    }

    /// The Gram engine, back-projecting the axes `request` names (at most
    /// the numerical rank).
    fn gram_for(x: &Mat, request: DimSelection) -> Result<Self, LinalgError> {
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
        // of it: thresholds and variance fractions read the residual
        // eigenvalues too. Numerically-zero Gram eigenvalues cannot be
        // back-projected (the division by √μ blows up), so everything at
        // or below round-off of the leading one is an exact zero in the
        // spectrum and out of reach of the request.
        let mut values = vec![0.0; n];
        let geig = sym_eigen_leading(&gram, |mu| {
            let tol = mu[0].max(0.0) * 1e-12;
            let rank = mu.iter().take(n).take_while(|&&v| v > tol).count();
            values.fill(0.0);
            for (slot, v) in values.iter_mut().zip(&mu[..rank]) {
                *slot = v / denom;
            }
            request.resolve(&values).min(rank)
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
            spectrum: Spectrum::complete(values, axes.transpose())?,
            strategy: FitStrategy::Gram,
        })
    }

    /// Fits with an explicit [`FitStrategy`], dispatching on the data
    /// shape and the [`DimSelection`] when the strategy is
    /// [`Auto`](FitStrategy::Auto).
    ///
    /// The dispatch rules, in order:
    ///
    /// 1. `rows < cols` and the Gram rank bound (`rank ≤ rows − 1`) can
    ///    support the request → **Gram** (exact, `O(t²n + t³ + m·t·n)`).
    /// 2. Otherwise → **Full**.
    ///
    /// Either way the model carries every eigenvalue and the axes
    /// `request` names, no more: `Fixed(m)` materializes `m`,
    /// `VarianceFraction(f)` the count the eigenvalues resolve `f` to.
    /// Check [`strategy`](Self::strategy) for the engine actually used.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] for a `VarianceFraction` that is not finite
    /// and strictly inside `(0, 1)`; otherwise the shape conditions of the
    /// selected engine.
    pub fn fit_with(
        x: &Mat,
        strategy: FitStrategy,
        request: DimSelection,
    ) -> Result<Self, LinalgError> {
        if let DimSelection::VarianceFraction(f) = request {
            if !(f > 0.0 && f < 1.0) {
                return Err(LinalgError::Domain {
                    what: "variance fraction must be finite and lie strictly inside (0, 1)",
                });
            }
        }
        let (t, n) = x.shape();
        match strategy {
            FitStrategy::Full => Self::full_for(x, request),
            FitStrategy::Gram => Self::gram_for(x, request),
            FitStrategy::Auto => {
                if t < n && t >= 2 && gram_supports(t, request) {
                    let gram = Self::gram_for(x, request)?;
                    // The row count bounded the rank a priori, but the
                    // *numerical* rank is only known after the fit: short
                    // or degenerate windows can support fewer axes than
                    // the request needs. Auto must then degrade to the
                    // dense engine (whose rank is `n`), not surface an
                    // error the old full path never raised.
                    if gram_delivers(&gram, request) {
                        return Ok(gram);
                    }
                }
                Self::full_for(x, request)
            }
        }
    }

    /// Number of variables (columns of the fitted data).
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of principal axes the model carries: what the
    /// [`DimSelection`] asked for, at most `dim()` on the full path and the
    /// data's numerical rank on the Gram path ([`fit`](Self::fit) and
    /// [`fit_gram`](Self::fit_gram) ask for everything). Projections
    /// require `m <= n_axes()`.
    pub fn n_axes(&self) -> usize {
        self.spectrum.n_axes()
    }

    /// The per-column means removed before analysis.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Every eigenvalue of the covariance, descending (zero-padded past
    /// the data's rank on the Gram path).
    pub fn eigenvalues(&self) -> &[f64] {
        self.spectrum.values()
    }

    /// The fitted [`Spectrum`]: every eigenvalue plus the leading axes.
    pub fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    /// The engine that actually produced this model (never
    /// [`FitStrategy::Auto`]).
    pub fn strategy(&self) -> FitStrategy {
        self.strategy
    }

    /// `tr C`: total variance over the full spectrum.
    pub fn total_variance(&self) -> f64 {
        self.spectrum.total_variance()
    }

    /// Residual power sums `φ₁, φ₂, φ₃` past the leading `m` components —
    /// the exact input of the Q-statistic threshold.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] if `m >= dim()`.
    pub fn residual_power_sums(&self, m: usize) -> Result<ResidualPowerSums, LinalgError> {
        self.spectrum.residual_power_sums(m)
    }

    /// The orthonormal principal axes, one per column, aligned with the
    /// leading [`n_axes`](Self::n_axes) of
    /// [`eigenvalues`](Self::eigenvalues): what the request asked for, at
    /// most the numerical rank.
    pub fn components(&self) -> &Mat {
        self.spectrum.vectors()
    }

    /// Fraction of variance explained by the leading `m` components.
    pub fn explained_variance_ratio(&self, m: usize) -> f64 {
        self.spectrum.explained(m)
    }

    /// Smallest component count capturing at least `fraction` of variance.
    ///
    /// Saturates at [`dim`](Self::dim) when the fraction is unreachable.
    pub fn dims_for_variance(&self, fraction: f64) -> usize {
        self.spectrum.dims_for_variance(fraction)
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
            for (s, &vij) in scores.iter_mut().zip(&self.spectrum.vectors().row(i)[..m]) {
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
            *h = dot(&scores, &self.spectrum.vectors().row(i)[..m]);
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
        let vectors = self.spectrum.vectors();
        let axes = Mat::from_fn(m, n, |j, i| vectors[(i, j)]);
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

/// Whether the Gram path's a-priori rank bound (`rank ≤ t − 1`) can
/// support the request. Fixed requests need `m` backprojectable axes;
/// variance fractions always resolve (the Gram spectrum is complete).
fn gram_supports(t: usize, request: DimSelection) -> bool {
    match request {
        DimSelection::Fixed(m) => t >= m.saturating_add(2),
        DimSelection::VarianceFraction(_) => true,
    }
}

/// Whether a *fitted* Gram model actually carries the axes the request
/// needs (it holds `min(request, numerical rank)`) — the a-posteriori
/// check behind [`gram_supports`], which only knew the row count.
fn gram_delivers(gram: &Pca, request: DimSelection) -> bool {
    match request {
        DimSelection::Fixed(m) => gram.n_axes() >= m,
        // A complete spectrum resolves any fraction within its own rank.
        DimSelection::VarianceFraction(_) => true,
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
        let pca = Pca::fit(&x).unwrap();
        assert!(pca.explained_variance_ratio(1) > 1.0 - 1e-9);
        assert_eq!(pca.dims_for_variance(0.999), 1);
    }

    #[test]
    fn noisy_line_mostly_one_component() {
        let x = line_data(500, 0.05, 2);
        let pca = Pca::fit(&x).unwrap();
        assert!(pca.explained_variance_ratio(1) > 0.98);
    }

    #[test]
    fn residual_plus_reconstruction_is_centered_x() {
        let x = line_data(100, 0.3, 3);
        let pca = Pca::fit(&x).unwrap();
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
        let pca = Pca::fit(&x).unwrap();
        let spe = pca.spe_reference(x.row(5), 3).unwrap();
        assert!(spe < 1e-18, "full-dimensional SPE should vanish, got {spe}");
    }

    #[test]
    fn spe_decreases_with_more_components() {
        let x = line_data(300, 0.4, 5);
        let pca = Pca::fit(&x).unwrap();
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
        let pca = Pca::fit(&x).unwrap();
        let inlier_spe = pca.spe_reference(x.row(50), 1).unwrap();
        // A point far off the line.
        let outlier = [0.0, 20.0, 10.0];
        let outlier_spe = pca.spe_reference(&outlier, 1).unwrap();
        assert!(outlier_spe > 100.0 * inlier_spe);
    }

    #[test]
    fn project_scores_match_reconstruction() {
        let x = line_data(100, 0.2, 7);
        let pca = Pca::fit(&x).unwrap();
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
        let cov_path = Pca::fit(&x).unwrap();
        let gram_path = Pca::fit_gram(&x).unwrap();
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
        let pca = Pca::fit_with(&wide, FitStrategy::Auto, DimSelection::Fixed(5)).unwrap();
        assert_eq!(pca.strategy(), FitStrategy::Gram);
        // Rows >= cols: Full, however thin the request against the width.
        for (t, n) in [(150, 64), (150, 8)] {
            let tall = wide_data(t, n, 23);
            let pca = Pca::fit_with(&tall, FitStrategy::Auto, DimSelection::Fixed(5)).unwrap();
            assert_eq!(pca.strategy(), FitStrategy::Full, "{t}x{n}");
        }
        // Wide but with too few rows to support the request: not Gram.
        let stub = wide_data(5, 80, 25);
        let pca = Pca::fit_with(&stub, FitStrategy::Auto, DimSelection::Fixed(10)).unwrap();
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
        let auto = Pca::fit_with(&x, FitStrategy::Auto, DimSelection::Fixed(10)).unwrap();
        assert_eq!(auto.strategy(), FitStrategy::Full);
        assert!(auto.n_axes() >= 10);
        // A forced Gram fit on the same data honestly reports its rank.
        let gram = Pca::fit_gram(&x).unwrap();
        assert!(gram.n_axes() < 10, "rank-2 data has no 10 Gram axes");
    }

    #[test]
    fn variance_fraction_request_escalates_to_an_answer() {
        // Wide data dispatches to Gram; the fraction resolves against the
        // complete spectrum and the model carries exactly the resolved
        // axes. A fraction that is not finite and strictly inside (0, 1)
        // answers nothing and is rejected by every engine.
        let x = wide_data(200, 300, 27);
        for bad in [f64::NAN, 0.0, 1.0, -1.0, f64::INFINITY] {
            for strategy in [FitStrategy::Auto, FitStrategy::Full, FitStrategy::Gram] {
                let fit = Pca::fit_with(&x, strategy, DimSelection::VarianceFraction(bad));
                assert!(
                    matches!(fit, Err(LinalgError::Domain { .. })),
                    "fraction {bad} under {strategy:?}: {:?}",
                    fit.map(|p| p.n_axes())
                );
            }
        }
        let pca =
            Pca::fit_with(&x, FitStrategy::Auto, DimSelection::VarianceFraction(0.9)).unwrap();
        assert_eq!(pca.strategy(), FitStrategy::Gram);
        let d = pca.dims_for_variance(0.9);
        assert!(d >= 1 && d == pca.n_axes(), "d={d} axes={}", pca.n_axes());
        assert!(pca.explained_variance_ratio(d) >= 0.9);
        let full =
            Pca::fit_with(&x, FitStrategy::Full, DimSelection::VarianceFraction(0.9)).unwrap();
        assert_eq!(full.dims_for_variance(0.9), d);
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
                let fit = Pca::fit_with(&x, strategy, DimSelection::Fixed(2));
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
        assert!(Pca::fit_gram(&Mat::zeros(1, 3)).is_err());
        assert!(Pca::fit_gram(&Mat::zeros(5, 0)).is_err());
        // All-constant data: rank zero, no axes, but a valid model whose
        // every projection is the mean.
        let x = Mat::from_fn(10, 4, |_, _| 2.5);
        let pca = Pca::fit_gram(&x).unwrap();
        assert_eq!(pca.n_axes(), 0);
        assert!(pca.spe_reference(x.row(0), 0).unwrap() < 1e-18);
        assert!(pca.project(x.row(0), 1).is_err(), "no axes to project on");
    }

    #[test]
    fn errors_on_bad_arguments() {
        let x = line_data(50, 0.1, 8);
        let pca = Pca::fit(&x).unwrap();
        assert!(pca.project(&[1.0, 2.0], 1).is_err());
        assert!(pca.project(&[1.0, 2.0, 3.0], 4).is_err());
        assert!(Pca::fit(&Mat::zeros(1, 3)).is_err());
        assert!(Pca::fit(&Mat::zeros(5, 0)).is_err());
    }
}
