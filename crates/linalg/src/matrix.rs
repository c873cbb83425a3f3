//! A dense, row-major `f64` matrix.
//!
//! [`Mat`] is deliberately simple: a `Vec<f64>` plus a shape. All hot loops
//! in this workspace (covariance accumulation, projections) are written
//! against row slices, which the row-major layout makes contiguous.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of `f64` values stored in row-major order.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Mat {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix from an owned row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Mat { rows, cols, data }
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterates over the rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer. Row `i` occupies
    /// `[i*cols, (i+1)*cols)`; `chunks_exact_mut(cols)` yields the rows —
    /// the seam kernels use to update several rows in one pass.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the cache-friendly `i-k-j` loop order over row slices.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            // Split borrow: output row i is disjoint from rhs.
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (j, &bkj) in b_row.iter().enumerate() {
                    out_row[j] += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self.row_iter().map(|row| dot(row, v)).collect())
    }

    /// Vector–matrix product `v^T * self`, returned as a plain vector.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (j, &aij) in self.row(i).iter().enumerate() {
                out[j] += vi * aij;
            }
        }
        Ok(out)
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.row_iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Subtracts `means[j]` from every entry of column `j`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `means.len() != self.cols()`.
    pub fn center_cols(&mut self, means: &[f64]) {
        assert_eq!(means.len(), self.cols, "means length must equal cols");
        for i in 0..self.rows {
            let row = self.row_mut(i);
            for (v, &m) in row.iter_mut().zip(means) {
                *v -= m;
            }
        }
    }

    /// Sample covariance of the columns: `X^T X / (rows - 1)` where `X` is
    /// `self` with column means removed.
    ///
    /// The kernel is blocked: workers own balanced contiguous row-blocks of
    /// the output's upper triangle (scoped threads, capped at 16), and each
    /// block is accumulated panel-by-panel over the data rows so the hot
    /// output rows stay cache-resident instead of streaming the whole
    /// triangle once per data row (~2x single-threaded on Geant-width
    /// matrices, where the triangle blows the cache). Narrow matrices on a
    /// single worker take the serial kernel directly. Every output element
    /// sums its per-row contributions in row order in every variant, so
    /// the result is bitwise-identical to
    /// [`covariance_serial`](Self::covariance_serial) at any worker count.
    ///
    /// Returns an error if the matrix has fewer than two rows.
    pub fn covariance(&self) -> Result<Mat, LinalgError> {
        if self.rows < 2 {
            return Err(LinalgError::Empty {
                what: "covariance needs at least 2 rows",
            });
        }
        let n = self.cols;
        let flops = self.rows.saturating_mul(n).saturating_mul(n + 1) / 2;
        let workers = crate::par::workers_for(flops);
        // Below ~640 columns the output triangle (< ~1.6 MiB) is
        // cache-resident and the straightforward kernel's single pass over
        // the data wins; with only one worker there is then nothing for
        // blocking to buy. Both kernels are bitwise-equal, so the dispatch
        // is invisible.
        if workers <= 1 && n < 640 {
            self.covariance_serial()
        } else {
            self.covariance_blocked()
        }
    }

    /// The blocked covariance kernel, unconditionally: cache-sized row
    /// panels, upper triangle split across scoped worker threads.
    ///
    /// [`covariance`](Self::covariance) routes here whenever blocking can
    /// pay (wide matrices, or more than one worker). Bitwise-equal to
    /// [`covariance_serial`](Self::covariance_serial).
    fn covariance_blocked(&self) -> Result<Mat, LinalgError> {
        if self.rows < 2 {
            return Err(LinalgError::Empty {
                what: "covariance needs at least 2 rows",
            });
        }
        let n = self.cols;
        let flops = self.rows.saturating_mul(n).saturating_mul(n + 1) / 2;
        let ranges = crate::par::triangle_ranges(n, crate::par::workers_for(flops));
        let means = self.col_means();
        let mut centered = self.clone();
        centered.center_cols(&means);
        let mut cov = Mat::zeros(n, n);
        if ranges.len() <= 1 {
            cov_accumulate(&centered, 0..n, &mut cov.data);
        } else {
            let centered_ref = &centered;
            std::thread::scope(|s| {
                let mut rest: &mut [f64] = &mut cov.data;
                for range in ranges {
                    let (head, tail) = rest.split_at_mut(range.len() * n);
                    rest = tail;
                    s.spawn(move || cov_accumulate(centered_ref, range, head));
                }
            });
        }
        let denom = (self.rows - 1) as f64;
        for i in 0..n {
            for j in i..n {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        Ok(cov)
    }

    /// The straightforward row-at-a-time covariance kernel: one scan of the
    /// full upper triangle per data row, single-threaded.
    ///
    /// Kept as the reference implementation — [`covariance`](Self::covariance)
    /// must agree with it bitwise (asserted in tests), and the perf runner
    /// in `crates/bench` reports the blocked kernel's speedup against this
    /// baseline.
    pub fn covariance_serial(&self) -> Result<Mat, LinalgError> {
        if self.rows < 2 {
            return Err(LinalgError::Empty {
                what: "covariance needs at least 2 rows",
            });
        }
        let means = self.col_means();
        let n = self.cols;
        let mut cov = Mat::zeros(n, n);
        let mut centered = vec![0.0; n];
        for row in self.row_iter() {
            for ((c, &v), &m) in centered.iter_mut().zip(row).zip(&means) {
                *c = v - m;
            }
            // Accumulate upper triangle of the outer product.
            for i in 0..n {
                let ci = centered[i];
                if ci == 0.0 {
                    continue;
                }
                let cov_row = &mut cov.data[i * n + i..(i + 1) * n];
                crate::kernel::axpy(cov_row, ci, &centered[i..]);
            }
        }
        let denom = (self.rows - 1) as f64;
        for i in 0..n {
            for j in i..n {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        Ok(cov)
    }

    /// Gram matrix `self · selfᵀ`: entry `(a, b)` is the dot product of
    /// rows `a` and `b`.
    ///
    /// Rows are contiguous in the row-major layout, so each entry is a
    /// streaming dot product, computed on 4 × 2 register tiles of the
    /// kernel tier; the upper triangle is split across scoped worker
    /// threads (balanced by element count, capped at 16) and mirrored.
    /// Every entry is bitwise equal to per-pair `dot4` of its two rows at
    /// any split and under every backend. This is the kernel behind
    /// [`Pca::fit_gram`], which solves the `rows < cols` eigenproblem in
    /// the small `rows × rows` space.
    ///
    /// [`Pca::fit_gram`]: crate::Pca::fit_gram
    pub fn gram(&self) -> Mat {
        let t = self.rows;
        let mut g = Mat::zeros(t, t);
        let flops = t.saturating_mul(t + 1).saturating_mul(self.cols) / 2;
        let ranges = crate::par::triangle_ranges(t, crate::par::workers_for(flops));
        if ranges.len() <= 1 {
            gram_accumulate(self, 0..t, &mut g.data);
        } else {
            std::thread::scope(|s| {
                let mut rest: &mut [f64] = &mut g.data;
                for range in ranges {
                    let (head, tail) = rest.split_at_mut(range.len() * t);
                    rest = tail;
                    s.spawn(move || gram_accumulate(self, range, head));
                }
            });
        }
        for a in 0..t {
            for b in a + 1..t {
                g[(b, a)] = g[(a, b)];
            }
        }
        g
    }

    /// Frobenius norm: square root of the sum of squared entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.energy().sqrt()
    }

    /// Total energy: sum of squared entries (squared Frobenius norm).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Multiplies every entry by `s`, in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Largest absolute difference against another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Mat) -> Result<f64, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// `true` if the matrix is symmetric to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the submatrix made of the given rows, in the given order.
    pub fn select_rows(&self, rows: &[usize]) -> Mat {
        let mut out = Mat::zeros(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Extracts the submatrix made of the given columns, in the given order.
    pub fn select_cols(&self, cols: &[usize]) -> Mat {
        let mut out = Mat::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (slot, &j) in dst.iter_mut().zip(cols) {
                *slot = src[j];
            }
        }
        out
    }

    /// Stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Mat) -> Result<Mat, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Mat::from_vec(self.rows + other.rows, self.cols, data))
    }

    /// Places `self` and `other` side by side (row counts must match).
    pub fn hstack(&self, other: &Mat) -> Result<Mat, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut out = Mat::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Accumulates rows `range` of the upper triangle of `centeredᵀ centered`
/// into `out` (row-major, `range.len() × n`, rebased to `range.start`).
///
/// Data rows are consumed in panels so the output rows being filled stay
/// hot across the whole panel; within one output element the per-row
/// contributions are still added in global row order, which is what makes
/// the blocked kernel bitwise-equal to the serial one.
fn cov_accumulate(centered: &Mat, range: std::ops::Range<usize>, out: &mut [f64]) {
    /// Data rows per panel: 64 rows of a 500-column matrix is ~250 KiB,
    /// sized to sit in L2 while each output row cycles through L1.
    const PANEL: usize = 64;
    let n = centered.cols();
    let t = centered.rows();
    let base = range.start;
    let mut panel_start = 0;
    while panel_start < t {
        let panel_end = (panel_start + PANEL).min(t);
        for i in range.clone() {
            let out_row = &mut out[(i - base) * n + i..(i - base + 1) * n];
            for r in panel_start..panel_end {
                let row = centered.row(r);
                let ci = row[i];
                if ci == 0.0 {
                    continue;
                }
                crate::kernel::axpy(out_row, ci, &row[i..]);
            }
        }
        panel_start = panel_end;
    }
}

/// Fills rows `range` of the upper triangle of `x · xᵀ` into `out`
/// (row-major, `range.len() × rows`, rebased to `range.start`).
///
/// Entries are four-lane [`dot4`] products (dispatched through the kernel
/// tier), not the strict left-to-right [`dot`], whose serial dependency
/// chain is exactly what makes it slow. Blocks of four rows are filled two
/// columns at a time by [`kernel::dot4_tile`](crate::kernel::dot4_tile),
/// starting at the block's first row; rows left over at the end of the
/// range and an odd last column take per-pair [`dot4`]. Every upper-
/// triangle entry is therefore **bitwise equal to per-pair `dot4`** at any
/// split. A diagonal tile also writes a few entries below the diagonal;
/// `dot4` is symmetric bit for bit, so they hold the mirrored value anyway
/// (and [`Mat::gram`]'s mirror pass overwrites them).
fn gram_accumulate(x: &Mat, range: std::ops::Range<usize>, out: &mut [f64]) {
    let t = x.rows();
    let base = range.start;
    let mut a = range.start;
    while a + 4 <= range.end {
        let rows = [x.row(a), x.row(a + 1), x.row(a + 2), x.row(a + 3)];
        let block = &mut out[(a - base) * t..(a - base + 4) * t];
        let mut b = a;
        while b + 2 <= t {
            let tile = crate::kernel::dot4_tile(rows, [x.row(b), x.row(b + 1)]);
            for (out_row, pair) in block.chunks_exact_mut(t).zip(tile) {
                out_row[b..b + 2].copy_from_slice(&pair);
            }
            b += 2;
        }
        if b < t {
            for (out_row, row_a) in block.chunks_exact_mut(t).zip(rows) {
                out_row[b] = dot4(row_a, x.row(b));
            }
        }
        a += 4;
    }
    for a in a..range.end {
        let row_a = x.row(a);
        let out_row = &mut out[(a - base) * t..(a - base + 1) * t];
        for (b, slot) in out_row.iter_mut().enumerate().skip(a) {
            *slot = dot4(row_a, x.row(b));
        }
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product accumulated into four independent lanes, dispatched
/// through the kernel tier ([`crate::kernel::dot4`]).
///
/// The strict left-to-right reduction of [`dot`] cannot be vectorized
/// without reassociating floating-point adds, so it runs scalar. The
/// Gram panels are throughput-bound on exactly this reduction and need
/// no bitwise agreement with a strict left-to-right reference — only
/// determinism for a fixed input, which the fixed lane structure provides
/// at any thread count *and under every backend*: the kernel contract
/// pins the lane sequence and reduction order bitwise across scalar and
/// AVX2.
#[inline]
pub(crate) fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernel::dot4(a, b)
}

/// Euclidean norm of a slice.
#[inline]
pub(crate) fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_ragged_panics() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 4.0]]);
        let i = Mat::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn col_means_and_centering() {
        let mut m = Mat::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
        let means = m.col_means();
        assert_eq!(means, vec![2.0, 20.0]);
        m.center_cols(&means);
        assert_eq!(m.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn covariance_matches_hand_computation() {
        // Two variables: x = [1,2,3], y = [2,4,6]. cov(x,x)=1, cov(x,y)=2, cov(y,y)=4.
        let m = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let c = m.covariance().unwrap();
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 0)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_requires_two_rows() {
        let m = Mat::from_rows(&[&[1.0, 2.0]]);
        assert!(m.covariance().is_err());
        assert!(m.covariance_serial().is_err());
    }

    #[test]
    fn blocked_covariance_is_bitwise_equal_to_serial() {
        // Deterministic pseudo-random data wide and tall enough to cross
        // panel boundaries and exercise multi-range splits.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for (t, n) in [(3usize, 5usize), (130, 37), (67, 130)] {
            let x = Mat::from_fn(t, n, |_, _| next());
            let blocked = x.covariance_blocked().unwrap();
            let serial = x.covariance_serial().unwrap();
            assert_eq!(
                blocked.as_slice(),
                serial.as_slice(),
                "blocked covariance diverged from serial at {t}x{n}"
            );
            assert_eq!(x.covariance().unwrap().as_slice(), serial.as_slice());
        }
    }

    #[test]
    fn gram_matches_explicit_product() {
        let x = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 1.0], &[2.0, 2.0, 2.0]]);
        let g = x.gram();
        let explicit = x.matmul(&x.transpose()).unwrap();
        assert!(g.max_abs_diff(&explicit).unwrap() < 1e-12);
        assert!(g.is_symmetric(0.0));
        // Degenerate shapes must not panic.
        assert_eq!(Mat::zeros(0, 3).gram().shape(), (0, 0));
        assert_eq!(Mat::zeros(2, 0).gram().shape(), (2, 2));
    }

    #[test]
    fn gram_is_bitwise_per_pair_dot4_at_every_tile_remainder() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for t in (1..=9).chain([13, 33]) {
            for n in [0usize, 1, 3, 4, 5, 1936] {
                let x = Mat::from_fn(t, n, |_, _| next());
                let g = x.gram();
                for a in 0..t {
                    for b in 0..t {
                        assert_eq!(
                            g[(a, b)].to_bits(),
                            dot4(x.row(a), x.row(b)).to_bits(),
                            "gram ({a}, {b}) at {t}x{n}"
                        );
                    }
                }
                for workers in [1usize, 2, 3, 7] {
                    let mut split = vec![0.0; t * t];
                    let mut rest: &mut [f64] = &mut split;
                    for range in crate::par::triangle_ranges(t, workers) {
                        let (head, tail) = rest.split_at_mut(range.len() * t);
                        rest = tail;
                        gram_accumulate(&x, range, head);
                    }
                    for a in 0..t {
                        for b in a..t {
                            assert_eq!(
                                split[a * t + b].to_bits(),
                                g[(a, b)].to_bits(),
                                "({a}, {b}) at {t}x{n}, {workers} splits"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn norms_and_energy() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.energy(), 25.0);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn symmetric_check() {
        let s = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = Mat::from_rows(&[&[1.0, 2.0], &[2.1, 5.0]]);
        assert!(!ns.is_symmetric(0.01));
        assert!(ns.is_symmetric(0.2));
        assert!(!Mat::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn select_cols_reorders() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s, Mat::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]));
    }

    #[test]
    fn select_rows_reorders() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, Mat::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
        assert_eq!(m.select_rows(&[]).shape(), (0, 2));
    }

    #[test]
    fn stacking() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v[(1, 0)], 3.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h[(0, 3)], 4.0);
        assert!(a.vstack(&Mat::zeros(1, 3)).is_err());
        assert!(a.hstack(&Mat::zeros(2, 2)).is_err());
    }

    #[test]
    fn scale_in_place() {
        let mut m = Mat::from_rows(&[&[1.0, -2.0]]);
        m.scale(-2.0);
        assert_eq!(m, Mat::from_rows(&[&[-2.0, 4.0]]));
    }

    #[test]
    fn dot4_matches_dot() {
        for len in [0usize, 1, 3, 4, 5, 17, 64, 101] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos() - 0.2).collect();
            let d = dot(&a, &b);
            let d4 = dot4(&a, &b);
            assert!(
                (d - d4).abs() <= 1e-12 * (1.0 + d.abs()),
                "len {len}: {d} vs {d4}"
            );
        }
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[1.5, 1.0]]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert!(a.max_abs_diff(&Mat::zeros(2, 2)).is_err());
    }

    proptest::proptest! {
        #[test]
        fn blocked_covariance_equals_serial(
            data in proptest::collection::vec(-10.0f64..10.0, 70 * 9),
        ) {
            // The blocked scoped-thread kernel must agree with the serial
            // reference *bitwise*, not just to tolerance.
            let m = Mat::from_vec(70, 9, data);
            let blocked = m.covariance_blocked().unwrap();
            let serial = m.covariance_serial().unwrap();
            let adaptive = m.covariance().unwrap();
            proptest::prop_assert_eq!(blocked.as_slice(), serial.as_slice());
            proptest::prop_assert_eq!(adaptive.as_slice(), serial.as_slice());
        }
    }
}
