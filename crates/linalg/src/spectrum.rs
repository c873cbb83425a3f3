//! Partial eigenspectra with exact residual power sums.
//!
//! The Jackson–Mudholkar Q-statistic threshold — the detection test of the
//! whole pipeline — depends on the residual eigenvalues `λ_{m+1} … λ_n` of
//! the sample covariance **only** through the three power sums
//!
//! ```text
//! φ_i = Σ_{j>m} λ_j^i ,   i = 1, 2, 3.
//! ```
//!
//! Diagonalizing all of a `4p × 4p` covariance to obtain them is therefore
//! pure over-computation: for a symmetric matrix `C` the full-spectrum
//! power sums are classical **trace identities**,
//!
//! ```text
//! S₁ = Σ_j λ_j  = tr C            (the diagonal)
//! S₂ = Σ_j λ_j² = tr C² = ‖C‖²_F  (the squared Frobenius norm)
//! S₃ = Σ_j λ_j³ = tr C³           (one blocked pass over the triangle)
//! ```
//!
//! so after computing only the **top-k eigenpairs** (`k ≥ m`, via
//! [`top_k_eigen_detailed`]) the residual sums follow exactly.
//!
//! Numerically, though, the naive subtraction `S_i − Σ_{j≤m} λ_j^i` is a
//! catastrophic cancellation whenever the residual spectrum is orders of
//! magnitude below `λ₁` (precisely the low-rank-plus-noise structure the
//! subspace method assumes): the difference of two `O(λ₁³)` quantities
//! carries `ε_mach·λ₁³` of round-off, which can dwarf a tiny `φ₃`
//! entirely. The identities are therefore evaluated on the **deflated
//! matrix** instead:
//!
//! ```text
//! D = C − Σ_{j≤k} λ_j v_j v_jᵀ        (‖D‖ ~ residual scale)
//! T_i = tr Dⁱ                          (computed at that scale — stable)
//! φ_i(m) = Σ_{m<j≤k} λ_j^i + T_i       (a sum of nonnegative terms)
//! ```
//!
//! Every term now lives at its own magnitude and the cancellation never
//! happens. The result replaces the `O(n³)` dense eigensolve with
//! `O(k·n²)` iteration plus one `O(n³/2)`-flop — but branch-free,
//! SIMD-friendly, and thread-parallel — trace kernel over `D`, which is
//! what makes Geant-width (`4p = 1936`) refits routine. [`Spectrum`]
//! packages the two halves: the leading eigenpairs a projection actually
//! uses, and the exact tail power sums the threshold needs.
//!
//! [`top_k_eigen_detailed`]: crate::top_k_eigen_detailed

use crate::eigen::{top_k_eigen_detailed, TopKInfo};
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
    /// slice-adapter threshold entry point and [`Spectrum`]'s complete
    /// branch.
    pub fn from_slice(residual: &[f64]) -> Self {
        ResidualPowerSums {
            phi1: residual.iter().map(|&l| l.max(0.0)).sum(),
            phi2: residual.iter().map(|&l| l.max(0.0).powi(2)).sum(),
            phi3: residual.iter().map(|&l| l.max(0.0).powi(3)).sum(),
        }
    }
}

/// `tr C³` of a symmetric matrix, without forming `C²` or `C³`.
///
/// Uses `(C³)_{ii} = Σ_j (C²)_{ij} C_{ij}` with `(C²)_{ij} = c_i · c_j`
/// (rows of a symmetric matrix are its columns), summing the upper
/// triangle once with off-diagonal weight 2:
///
/// ```text
/// tr C³ = Σ_i (c_i·c_i) C_ii + 2 Σ_{i<j} (c_i·c_j) C_ij .
/// ```
///
/// The kernel is blocked two ways: output rows are split across scoped
/// worker threads in triangle-balanced ranges (the ≤16-worker panel
/// machinery shared with [`Mat::covariance`]), and the `j` rows are
/// consumed in cache-sized panels so each worker's row block streams the
/// matrix once per panel instead of once per row. Per-row partial sums
/// accumulate in a fixed global `j` order and reduce in row order, so the
/// result is identical at any worker count.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input. Symmetry is the
/// caller's contract (covariances are symmetric by construction), matching
/// [`Mat::gram`]'s treatment.
///
/// [`Mat::covariance`]: crate::Mat::covariance
pub fn sym_trace_cubed(c: &Mat) -> Result<f64, LinalgError> {
    if c.rows() != c.cols() {
        return Err(LinalgError::NotSquare { shape: c.shape() });
    }
    let n = c.rows();
    if n == 0 {
        return Ok(0.0);
    }
    let mut row_sums = vec![0.0f64; n];
    // ~n³/2 multiply-adds over the triangle.
    let flops = n.saturating_mul(n + 1).saturating_mul(n) / 2;
    let ranges = crate::par::triangle_ranges(n, crate::par::workers_for(flops));
    if ranges.len() <= 1 {
        trace_cubed_rows(c, 0..n, &mut row_sums);
    } else {
        std::thread::scope(|s| {
            let mut rest: &mut [f64] = &mut row_sums;
            for range in ranges {
                let (head, tail) = rest.split_at_mut(range.len());
                rest = tail;
                s.spawn(move || trace_cubed_rows(c, range, head));
            }
        });
    }
    Ok(row_sums.iter().sum())
}

/// Fills `out[i - range.start] = Σ_{j≥i} w_ij (c_i·c_j) C_ij` for the rows
/// in `range`, with `w` = 1 on the diagonal and 2 off it.
fn trace_cubed_rows(c: &Mat, range: std::ops::Range<usize>, out: &mut [f64]) {
    /// `j` rows per panel: 32 rows of a 2000-column matrix is ~500 KiB,
    /// sized to stay cache-resident while every `i` row scans the panel.
    const PANEL: usize = 32;
    let n = c.rows();
    let base = range.start;
    let mut panel_start = range.start;
    while panel_start < n {
        let panel_end = (panel_start + PANEL).min(n);
        for i in range.clone() {
            if i >= panel_end {
                break;
            }
            let row_i = c.row(i);
            let acc = &mut out[i - base];
            for j in panel_start.max(i)..panel_end {
                let cij = row_i[j];
                if cij == 0.0 {
                    continue;
                }
                let weight = if i == j { 1.0 } else { 2.0 };
                *acc += weight * crate::matrix::dot4(row_i, c.row(j)) * cij;
            }
        }
        panel_start = panel_end;
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

/// An eigenspectrum that knows its leading eigenpairs exactly and its
/// *entire* spectrum through the power sums `S₁, S₂, S₃`.
///
/// Two flavours share the type:
///
/// * **complete** — every eigenvalue is stored (the dense path, and the
///   Gram path whose tail past the data's rank is exactly zero). Residual
///   power sums are computed from the stored residual slice, so this
///   flavour is bit-for-bit the reference oracle.
/// * **partial** — only the top `k` eigenvalues (and axes) are stored;
///   the power sums come from the trace identities, and residual sums for
///   any `m ≤ k` follow by subtraction, exact up to round-off.
///
/// The eigenvector matrix usually carries fewer columns than there are
/// stored eigenvalues — a fit materializes the axes its request names, at
/// most the data's rank on the Gram path; [`n_axes`](Self::n_axes) is the
/// projectable count.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Known leading eigenvalues, descending.
    values: Vec<f64>,
    /// Orthonormal eigenvectors, one column per axis, aligned with the
    /// leading `values`.
    vectors: Mat,
    /// Full dimension `n` of the underlying matrix.
    dim: usize,
    /// Whether `values` covers the entire spectrum.
    complete: bool,
    /// Exact power sums `[T₁, T₂, T₃]` of the spectrum **beyond** the
    /// known part, from trace identities on the deflated matrix
    /// (all-zero for complete spectra).
    tail_sums: [f64; 3],
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
        Ok(Spectrum {
            values,
            vectors,
            dim,
            complete: true,
            tail_sums: [0.0; 3],
        })
    }

    /// The top-`k` partial spectrum of a symmetric PSD matrix, with exact
    /// tail power sums from trace identities on the deflated matrix.
    ///
    /// Returns the spectrum together with the eigensolver's convergence
    /// diagnostics; callers that need certainty (the fit dispatcher) check
    /// [`TopKInfo::converged`] and fall back to the dense oracle when the
    /// iteration did not land.
    ///
    /// # Errors
    ///
    /// Shape and domain errors from [`top_k_eigen_detailed`].
    pub fn partial_of(cov: &Mat, k: usize, seed: u64) -> Result<(Self, TopKInfo), LinalgError> {
        let n = cov.rows();
        let (top, info) = top_k_eigen_detailed(cov, k, seed)?;
        // Deflate: D = C − Σ_j λ_j v_j v_jᵀ. Entries of D live at the
        // residual scale, so the tail traces computed from it never
        // suffer the S_i − Σλ^i cancellation.
        let mut d = cov.clone();
        for (j, &lambda) in top.values.iter().enumerate() {
            if lambda == 0.0 {
                continue;
            }
            let v = top.vectors.col(j);
            for (i, &vi) in v.iter().enumerate() {
                let scale = lambda * vi;
                if scale == 0.0 {
                    continue;
                }
                let row = d.row_mut(i);
                for (slot, &vj) in row.iter_mut().zip(&v) {
                    *slot -= scale * vj;
                }
            }
        }
        let t1 = (0..n).map(|i| d[(i, i)]).sum();
        let t2 = d.energy();
        let t3 = sym_trace_cubed(&d)?;
        Ok((
            Spectrum {
                values: top.values,
                vectors: top.vectors,
                dim: n,
                complete: k == n,
                tail_sums: [t1, t2, t3],
            },
            info,
        ))
    }

    /// Known leading eigenvalues, descending (all of them iff
    /// [`is_complete`](Self::is_complete)).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The orthonormal axis matrix (one column per projectable axis).
    pub fn vectors(&self) -> &Mat {
        &self.vectors
    }

    /// Full dimension `n` of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of projectable axes carried.
    pub fn n_axes(&self) -> usize {
        self.vectors.cols()
    }

    /// Number of eigenvalues known exactly.
    pub fn n_known(&self) -> usize {
        self.values.len()
    }

    /// Whether every eigenvalue is known.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// `S₁ = tr C`: the total variance, over the *full* spectrum (known
    /// eigenvalues plus the exact tail trace).
    pub fn total_variance(&self) -> f64 {
        self.values.iter().sum::<f64>() + self.tail_sums[0]
    }

    /// The exact power sums `[T₁, T₂, T₃]` of the spectrum beyond the
    /// known part (all-zero for complete spectra).
    pub fn tail_power_sums(&self) -> [f64; 3] {
        self.tail_sums
    }

    /// Fraction of total variance captured by the leading `m` eigenvalues
    /// (1.0 for a zero-variance spectrum, as in
    /// [`SymEigen::explained`](crate::SymEigen::explained)).
    pub fn explained(&self, m: usize) -> f64 {
        let total = self.total_variance();
        if total <= 0.0 {
            return 1.0;
        }
        self.values.iter().take(m).sum::<f64>() / total
    }

    /// Smallest `m` whose leading eigenvalues capture at least `fraction`
    /// of total variance — `None` when the answer is not determined by the
    /// known part of a partial spectrum (the caller escalates `k`).
    ///
    /// Zero-variance spectra answer `Some(0)`; a complete spectrum that
    /// never reaches `fraction` answers its own length, both matching
    /// [`SymEigen::dims_for_variance`](crate::SymEigen::dims_for_variance).
    pub fn dims_for_variance(&self, fraction: f64) -> Option<usize> {
        leading_dims(&self.values, self.total_variance(), fraction)
            .or(self.complete.then_some(self.values.len()))
    }

    /// The residual power sums `φ₁, φ₂, φ₃` past a normal subspace of
    /// dimension `m`.
    ///
    /// Complete spectra sum the stored residual slice directly (each
    /// eigenvalue clamped at zero against solver round-off) — bit-for-bit
    /// the historical slice arithmetic. Partial spectra **add** the known
    /// eigenvalues between `m` and `k` (clamped the same way) to the
    /// exact deflated tail sums: a sum of nonnegative terms, each at its
    /// own magnitude, with none of the `S_i − Σλ^i` cancellation. The two
    /// flavours agree to round-off, which the threshold-equivalence
    /// proptests pin at `1e-8` relative.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Domain`] if `m >= dim()` (no residual space) or if
    /// `m` exceeds the known part of a partial spectrum.
    pub fn residual_power_sums(&self, m: usize) -> Result<ResidualPowerSums, LinalgError> {
        if m >= self.dim {
            return Err(LinalgError::Domain {
                what: "residual power sums need a non-empty residual space (m < n)",
            });
        }
        if self.complete {
            return Ok(ResidualPowerSums::from_slice(&self.values[m..]));
        }
        if m > self.values.len() {
            return Err(LinalgError::Domain {
                what: "partial spectrum knows fewer leading eigenvalues than m",
            });
        }
        // The deflated traces can carry tiny negative round-off (D has
        // eigenvalues at ±deflation-error around zero past the rank).
        let mut sums = ResidualPowerSums::from_slice(&self.values[m..]);
        sums.phi1 += self.tail_sums[0].max(0.0);
        sums.phi2 += self.tail_sums[1].max(0.0);
        sums.phi3 += self.tail_sums[2].max(0.0);
        Ok(sums)
    }

    /// Relative spectral gap `(λ_m − λ_{m+1}) / λ₁` at the normal/residual
    /// cut, when both sides of the cut are known and the spectrum is not
    /// degenerate. A vanishing gap warns that the cut slices a cluster —
    /// the subspace is well-defined but its individual trailing axes are
    /// not.
    pub fn spectral_gap(&self, m: usize) -> Option<f64> {
        if m == 0 || m >= self.values.len() {
            return None;
        }
        let lead = self.values[0];
        (lead > 0.0).then(|| ((self.values[m - 1] - self.values[m]) / lead).max(0.0))
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
    fn trace_cubed_matches_eigenvalue_cubes() {
        for (n, rank, seed) in [(5usize, 5usize, 1u64), (20, 12, 2), (37, 37, 3)] {
            let a = random_psd(n, rank, seed);
            let s3 = sym_trace_cubed(&a).unwrap();
            let reference: f64 = sym_eigen(&a)
                .unwrap()
                .values
                .iter()
                .map(|l| l * l * l)
                .sum();
            assert!(
                (s3 - reference).abs() < 1e-9 * (1.0 + reference.abs()),
                "n={n}: {s3} vs {reference}"
            );
        }
    }

    #[test]
    fn trace_cubed_rejects_non_square_and_handles_empty() {
        assert!(sym_trace_cubed(&Mat::zeros(2, 3)).is_err());
        assert_eq!(sym_trace_cubed(&Mat::zeros(0, 0)).unwrap(), 0.0);
        assert_eq!(sym_trace_cubed(&Mat::zeros(4, 4)).unwrap(), 0.0);
    }

    #[test]
    fn partial_power_sums_match_full_subtraction() {
        let a = random_psd(24, 24, 7);
        let full = complete_of(&a);
        let (partial, info) = Spectrum::partial_of(&a, 6, 11).unwrap();
        assert!(info.converged, "top-k must converge on a benign spectrum");
        let scale = full.total_variance();
        for m in [0usize, 2, 5] {
            let f = full.residual_power_sums(m).unwrap();
            let p = partial.residual_power_sums(m).unwrap();
            assert!((f.phi1 - p.phi1).abs() < 1e-9 * (1.0 + scale), "m={m}");
            assert!((f.phi2 - p.phi2).abs() < 1e-9 * (1.0 + scale * scale));
            assert!((f.phi3 - p.phi3).abs() < 1e-8 * (1.0 + scale.powi(3)));
        }
        // m beyond the known part is refused, as is an empty residual.
        assert!(partial.residual_power_sums(7).is_err());
        assert!(full.residual_power_sums(24).is_err());
    }

    #[test]
    fn zero_residual_spectrum_clamps_to_zero() {
        // Rank-2 matrix: residual past m=2 is exactly zero and the
        // subtraction path must clamp round-off rather than go negative.
        let a = random_psd(12, 2, 9);
        let (partial, _) = Spectrum::partial_of(&a, 4, 5).unwrap();
        let sums = partial.residual_power_sums(2).unwrap();
        assert!(sums.phi1 >= 0.0 && sums.phi1 < 1e-9);
        assert!(sums.phi2 >= 0.0 && sums.phi2 < 1e-9);
        assert!(sums.phi3 >= 0.0 && sums.phi3 < 1e-9);
    }

    #[test]
    fn dims_for_variance_partial_vs_complete() {
        let a = random_psd(16, 16, 13);
        let full = complete_of(&a);
        let (partial, _) = Spectrum::partial_of(&a, 5, 3).unwrap();
        // A fraction resolvable within 5 axes agrees with the oracle...
        let easy = 0.3;
        assert_eq!(
            partial.dims_for_variance(easy),
            full.dims_for_variance(easy)
        );
        // ...an unresolvable one is honestly refused, not guessed.
        assert_eq!(partial.dims_for_variance(0.999999), None);
        assert!(full.dims_for_variance(0.999999).is_some());
        // Zero-variance spectra need no axes at all.
        let zero = complete_of(&Mat::zeros(3, 3));
        assert_eq!(zero.dims_for_variance(0.9), Some(0));
    }

    #[test]
    fn complete_rejects_shapes_that_are_not_a_spectrum() {
        // One eigenvalue per dimension, never more axes than dimensions;
        // fewer axes than eigenvalues is the normal case.
        assert!(Spectrum::complete(vec![2.0, 1.0], Mat::identity(3)).is_err());
        assert!(Spectrum::complete(vec![2.0, 1.0], Mat::zeros(2, 3)).is_err());
        let thin = Spectrum::complete(vec![2.0, 1.0, 0.0], Mat::zeros(3, 1)).unwrap();
        assert_eq!((thin.n_axes(), thin.n_known()), (1, 3));
        assert!(thin.is_complete());
    }

    #[test]
    fn spectral_gap_reports_the_cut() {
        let full = Spectrum::complete(vec![10.0, 6.0, 1.0, 0.9], Mat::identity(4)).unwrap();
        let gap = full.spectral_gap(2).unwrap();
        assert!((gap - 0.5).abs() < 1e-12, "gap {gap}");
        assert!(full.spectral_gap(0).is_none());
        assert!(full.spectral_gap(4).is_none());
    }
}
