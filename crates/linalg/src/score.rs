//! The fused scoring plane: allocation-free SPE via the norm identity.
//!
//! [`Pca::spe_reference`](crate::Pca::spe_reference) — the reference
//! chain, kept as the executable spec and the guard's fallback — scores one
//! observation by *project, reconstruct, residual, norm*: two full scans
//! of the axis matrix plus four heap allocations per row. The residual is
//! orthogonal to the modeled subspace, so the same statistic is
//!
//! ```text
//! SPE = ‖x − μ‖² − Σⱼ sⱼ²      (sⱼ = score along axis j)
//! ```
//!
//! — one axis-matrix pass, no `hat`/`residual` vectors at all. A
//! [`ScorePlan`] precomputes everything that pass needs (the mean, the
//! leading-`m` axes transposed into contiguous rows, optional per-column
//! normalization divisors) and runs it through the kernel tier's
//! multi-row FMA forms over thread-local scratch, so serving a row costs
//! zero allocations after warmup.
//!
//! # Cancellation guard
//!
//! The identity subtracts two nearly equal numbers when the row lies
//! almost inside the modeled subspace: `Σ sⱼ² → ‖x − μ‖²` and the
//! difference loses relative precision. Whenever the fused SPE falls
//! below [`GUARD_EPS`]`·‖x − μ‖²` (including any negative result), the
//! plan falls back to materializing the residual — the retained reference
//! computation — so the statistic stays trustworthy everywhere. Rows that
//! trip the guard are far below any detection threshold, so the fallback
//! never runs on the hot path of normal traffic.

use crate::error::LinalgError;
use crate::kernel;
use crate::matrix::Mat;
use std::cell::RefCell;

/// Guard threshold of the norm-identity cancellation check: when the
/// fused `SPE < GUARD_EPS · ‖x − μ‖²`, the plan recomputes through the
/// materialized residual. At this setting the fused path's worst-case
/// relative error stays well under the 1e-10 plan-vs-reference pin (the
/// subtraction magnifies rounding by at most `1/GUARD_EPS`).
pub const GUARD_EPS: f64 = 1e-3;

/// Reusable buffers of the scoring plane, one set per thread. Grow-only:
/// scoring models of different widths from one thread re-slices the same
/// capacity.
#[derive(Default)]
struct ScoreScratch {
    centered: Vec<f64>,
    scores: Vec<f64>,
    hat: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::default());
}

/// A precomputed, allocation-free scoring artifact over a fitted PCA:
/// the mean, the leading-`m` principal axes laid out as contiguous rows
/// (transposed from the variable-major component matrix, so each score is
/// one contiguous fused dot product), and optional per-column divisors
/// that fold a fixed normalization (the multiway model's unit-energy
/// scaling) into the centering pass.
///
/// Built by [`Pca::score_plan`](crate::Pca::score_plan). One fixed
/// per-row arithmetic backs every entry point — [`spe`](Self::spe),
/// [`spe_batch`](Self::spe_batch), [`spe_t2_batch`](Self::spe_t2_batch)
/// — so batch and streamed scoring of the same row are bitwise identical
/// by construction.
#[derive(Debug, Clone)]
pub struct ScorePlan {
    mean: Vec<f64>,
    /// `m × n`, row `j` = principal axis `j` (contiguous).
    axes: Mat,
    /// Per-column divisors applied before centering (`c = x/d − μ`), or
    /// `None` for identity.
    divisors: Option<Vec<f64>>,
}

impl ScorePlan {
    /// A plan over `mean` and an already-transposed `m × n` axis matrix
    /// (row `j` is principal axis `j`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when the axis width differs from the
    /// mean length.
    pub fn new(mean: Vec<f64>, axes: Mat) -> Result<Self, LinalgError> {
        if axes.cols() != mean.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "score plan",
                lhs: (axes.rows(), axes.cols()),
                rhs: (1, mean.len()),
            });
        }
        Ok(ScorePlan {
            mean,
            axes,
            divisors: None,
        })
    }

    /// Folds fixed per-column divisors into the centering pass, so raw
    /// (un-normalized) rows can be scored directly: the centered value
    /// becomes `x[i]/divisors[i] − mean[i]`, bitwise identical to
    /// dividing first and centering after.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on a length mismatch;
    /// [`LinalgError::Domain`] when any divisor is zero or non-finite.
    pub fn with_divisors(mut self, divisors: Vec<f64>) -> Result<Self, LinalgError> {
        if divisors.len() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "score plan divisors",
                lhs: (1, divisors.len()),
                rhs: (1, self.mean.len()),
            });
        }
        if divisors.iter().any(|d| !d.is_finite() || *d == 0.0) {
            return Err(LinalgError::Domain {
                what: "score-plan divisors must be finite and nonzero",
            });
        }
        self.divisors = Some(divisors);
        Ok(self)
    }

    /// The per-column divisors folded into the centering pass, or `None`
    /// when rows are scored as given.
    pub fn divisors(&self) -> Option<&[f64]> {
        self.divisors.as_deref()
    }

    /// Number of variables `n` a scored row must have.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of leading axes `m` the plan projects onto.
    pub fn n_axes(&self) -> usize {
        self.axes.rows()
    }

    fn check(&self, x: &[f64]) -> Result<(), LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "score plan apply",
                lhs: (1, x.len()),
                rhs: (1, self.dim()),
            });
        }
        Ok(())
    }

    /// Centering pass: `c = x − μ` (or `x/d − μ` with divisors folded
    /// in). Unconditional — no zero-skip branch: dense entropy rows make
    /// the reference chain's `ci == 0.0` skip a mispredicted branch per
    /// element, and the fused dot products don't care either way.
    fn center_into(&self, x: &[f64], c: &mut [f64]) {
        match &self.divisors {
            None => {
                for ((ci, &xi), &mu) in c.iter_mut().zip(x).zip(&self.mean) {
                    *ci = xi - mu;
                }
            }
            Some(div) => {
                for (((ci, &xi), &d), &mu) in c.iter_mut().zip(x).zip(div).zip(&self.mean) {
                    *ci = xi / d - mu;
                }
            }
        }
    }

    /// Scores of the centered row along all `m` axes, tiled through the
    /// kernel tier's multi-row fused dots (8 axis rows per pass, then 4,
    /// then singles) so the centered row streams from registers/L1 while
    /// the axis panel streams once.
    fn scores_into(&self, c: &[f64], scores: &mut [f64]) {
        let m = self.n_axes();
        let mut j = 0;
        while j + 8 <= m {
            let rows: [&[f64]; 8] = std::array::from_fn(|t| self.axes.row(j + t));
            scores[j..j + 8].copy_from_slice(&kernel::dot4_fused_x8(rows, c));
            j += 8;
        }
        if j + 4 <= m {
            let rows: [&[f64]; 4] = std::array::from_fn(|t| self.axes.row(j + t));
            scores[j..j + 4].copy_from_slice(&kernel::dot4_fused_x4(rows, c));
            j += 4;
        }
        while j < m {
            scores[j] = kernel::dot4_fused(self.axes.row(j), c);
            j += 1;
        }
    }

    /// The fixed per-row arithmetic behind every public entry point.
    /// Returns `(spe, fell_back)` with `c`/`scores` left holding the
    /// centered row and its scores (the fallback overwrites `c` with the
    /// residual).
    fn spe_in_scratch(&self, x: &[f64], s: &mut ScoreScratch) -> (f64, bool) {
        let n = self.dim();
        let m = self.n_axes();
        s.centered.resize(n, 0.0);
        s.scores.resize(m, 0.0);
        self.center_into(x, &mut s.centered);
        let c2 = kernel::dot4_fused(&s.centered, &s.centered);
        self.scores_into(&s.centered, &mut s.scores);
        let energy: f64 = s.scores.iter().map(|v| v * v).sum();
        let spe = c2 - energy;
        if spe < GUARD_EPS * c2 {
            // Cancellation guard: the subtraction lost too much relative
            // precision (or went negative). Materialize the residual —
            // the retained reference computation — from the data already
            // in scratch. Exactly zero with zero scores is the genuinely
            // clean row (x == mean), not cancellation.
            if spe == 0.0 && energy == 0.0 {
                return (0.0, false);
            }
            s.hat.resize(n, 0.0);
            s.hat.fill(0.0);
            for (j, &sj) in s.scores.iter().enumerate() {
                kernel::axpy_fused(&mut s.hat, sj, self.axes.row(j));
            }
            for (ci, &hi) in s.centered.iter_mut().zip(&s.hat) {
                *ci -= hi;
            }
            return (kernel::dot4_fused(&s.centered, &s.centered), true);
        }
        (spe, false)
    }

    /// T² from the scores already in scratch: `Σ_{λⱼ > floor} sⱼ²/λⱼ`.
    fn t2_of_scores(scores: &[f64], eigenvalues: &[f64], floor: f64) -> f64 {
        scores
            .iter()
            .zip(eigenvalues)
            .filter(|(_, &l)| l > floor)
            .map(|(s, &l)| s * s / l)
            .sum()
    }

    /// Squared prediction error of one row via the norm identity —
    /// allocation-free after thread warmup.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn spe(&self, x: &[f64]) -> Result<f64, LinalgError> {
        self.spe_checked(x).map(|(spe, _)| spe)
    }

    /// Like [`spe`](Self::spe), additionally reporting whether the
    /// cancellation guard routed this row through the materialized
    /// residual fallback — the observability hook the guard tests use.
    pub fn spe_checked(&self, x: &[f64]) -> Result<(f64, bool), LinalgError> {
        self.check(x)?;
        SCRATCH.with(|s| Ok(self.spe_in_scratch(x, &mut s.borrow_mut())))
    }

    /// Batch entry point: pushes every row through the **same** per-row
    /// arithmetic as [`spe`](Self::spe) (so batch and streamed scores of
    /// one row are bitwise identical) over one shared scratch, appending
    /// one SPE per row to `out` (cleared first). The win over per-call
    /// scoring is the single warm scratch and the axis panel staying hot
    /// in cache across consecutive rows.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on the first row whose length
    /// differs from `dim()`; `out` holds the SPEs of the rows before it.
    pub fn spe_batch<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        out.clear();
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            for row in rows {
                self.check(row)?;
                out.push(self.spe_in_scratch(row, s).0);
            }
            Ok(())
        })
    }

    /// SPE and Hotelling's T² of every row from a single axis pass per
    /// row: the scores feed both statistics, so the refit-trimming scan
    /// pays one matrix pass per row instead of three. One `(SPE, T²)` pair
    /// per row is appended to `out` (cleared first), over one shared
    /// scratch. `eigenvalues` aligns with the plan's axes; entries at or
    /// below `floor` are skipped (the zero-variance convention of
    /// `SubspaceModel::spe_t2_batch` in the subspace crate).
    ///
    /// # Errors
    ///
    /// As [`spe_batch`](Self::spe_batch).
    pub fn spe_t2_batch<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        eigenvalues: &[f64],
        floor: f64,
        out: &mut Vec<(f64, f64)>,
    ) -> Result<(), LinalgError> {
        out.clear();
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            for row in rows {
                self.check(row)?;
                let (spe, _) = self.spe_in_scratch(row, s);
                out.push((spe, Self::t2_of_scores(&s.scores, eigenvalues, floor)));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_2d() -> ScorePlan {
        // One axis along (1, 0) over a 2-variable space with mean (1, 2).
        let axes = Mat::from_fn(1, 2, |_, i| if i == 0 { 1.0 } else { 0.0 });
        ScorePlan::new(vec![1.0, 2.0], axes).unwrap()
    }

    #[test]
    fn identity_matches_hand_computation() {
        let plan = plan_2d();
        // x - mean = (3, 4): score 3 along the axis, residual (0, 4).
        let spe = plan.spe(&[4.0, 6.0]).unwrap();
        assert!((spe - 16.0).abs() < 1e-12, "spe {spe}");
    }

    #[test]
    fn in_subspace_row_trips_the_guard() {
        let plan = plan_2d();
        // x - mean = (5, 0) lies exactly on the axis: SPE is pure
        // cancellation, the guard must reroute.
        let (spe, fell_back) = plan.spe_checked(&[6.0, 2.0]).unwrap();
        assert!(fell_back, "guard must trip on an in-subspace row");
        assert!((0.0..1e-20).contains(&spe), "spe {spe}");
    }

    #[test]
    fn mean_row_scores_zero_without_fallback() {
        let plan = plan_2d();
        let (spe, fell_back) = plan.spe_checked(&[1.0, 2.0]).unwrap();
        assert_eq!(spe, 0.0);
        assert!(!fell_back, "x == mean is clean, not cancellation");
    }

    #[test]
    fn divisors_fold_into_centering() {
        let axes = Mat::from_fn(1, 2, |_, i| if i == 0 { 1.0 } else { 0.0 });
        let plan = ScorePlan::new(vec![1.0, 2.0], axes)
            .unwrap()
            .with_divisors(vec![2.0, 4.0])
            .unwrap();
        // Raw (8, 24) normalizes to (4, 6): same row as the identity test.
        let spe = plan.spe(&[8.0, 24.0]).unwrap();
        assert!((spe - 16.0).abs() < 1e-12, "spe {spe}");
    }

    #[test]
    fn shapes_validated() {
        let plan = plan_2d();
        assert!(plan.spe(&[1.0]).is_err());
        let mut pairs = Vec::new();
        let wide: &[f64] = &[1.0, 2.0, 3.0];
        assert!(plan.spe_t2_batch([wide], &[1.0], 0.0, &mut pairs).is_err());
        let axes = Mat::from_fn(1, 2, |_, _| 1.0);
        assert!(ScorePlan::new(vec![0.0; 3], axes.clone()).is_err());
        assert!(ScorePlan::new(vec![0.0; 2], axes.clone())
            .unwrap()
            .with_divisors(vec![1.0])
            .is_err());
        assert!(ScorePlan::new(vec![0.0; 2], axes)
            .unwrap()
            .with_divisors(vec![1.0, 0.0])
            .is_err());
    }

    #[test]
    fn batch_equals_per_row_bitwise() {
        let n = 37;
        let m = 11;
        let mean: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let axes = Mat::from_fn(m, n, |j, i| ((i * 7 + j * 13) as f64).cos() / 10.0);
        let plan = ScorePlan::new(mean, axes).unwrap();
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|r| (0..n).map(|i| ((r * n + i) as f64).sqrt()).collect())
            .collect();
        let mut batch = Vec::new();
        plan.spe_batch(rows.iter().map(Vec::as_slice), &mut batch)
            .unwrap();
        for (row, &b) in rows.iter().zip(&batch) {
            let one = plan.spe(row).unwrap();
            assert_eq!(one.to_bits(), b.to_bits(), "batch must replay per-row");
        }
    }
}
