//! Incremental first and second moments of a row stream.
//!
//! The batch pipeline forms a `t × n` matrix and re-scans it to build the
//! column means and sample covariance. [`MomentAccumulator`] computes the
//! same two statistics **one row at a time** — Welford's online mean update
//! plus a rank-one update of the centered co-moment matrix — so the
//! moments of a stream of finalized bins are available without the
//! `t × n` matrix ever existing. Memory is `O(n²)` for the co-moment
//! triangle, independent of how many rows flow through.
//!
//! Two accumulators over disjoint row sets can be [`merge`]d (Chan's
//! pairwise combination).
//!
//! No fit path consumes the accumulator: every model is fitted from
//! retained rows ([`Pca::fit_with`](crate::Pca::fit_with)). It is kept as
//! the substrate `bench_e2e` times (`linalg.moments.push`).
//!
//! The streamed covariance is algebraically identical to
//! [`Mat::covariance`] but not bitwise so (the update order differs);
//! proptests pin the two together to a tight relative tolerance.
//!
//! [`merge`]: MomentAccumulator::merge
//! [`Mat::covariance`]: crate::Mat::covariance

use crate::{LinalgError, Mat};

/// Streaming mean + covariance over rows of dimension `n`.
///
/// ```
/// use entromine_linalg::{Mat, MomentAccumulator};
///
/// let x = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
/// let mut acc = MomentAccumulator::new(2);
/// for row in x.row_iter() {
///     acc.push(row).unwrap();
/// }
/// assert_eq!(acc.mean(), &[2.0, 4.0]);
/// let cov = acc.covariance().unwrap();
/// assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MomentAccumulator {
    count: usize,
    mean: Vec<f64>,
    /// Upper triangle of `Σ (x - μ)(x - μ)ᵀ`, maintained incrementally.
    comoment: Mat,
    /// Scratch for the per-row deviation (avoids an allocation per push).
    delta: Vec<f64>,
}

impl MomentAccumulator {
    /// An empty accumulator for rows of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        MomentAccumulator {
            count: 0,
            mean: vec![0.0; dim],
            comoment: Mat::zeros(dim, dim),
            delta: vec![0.0; dim],
        }
    }

    /// Builds an accumulator by pushing every row of `x`.
    ///
    /// # Panics
    ///
    /// On a non-finite value in `x` — the streaming [`push`](Self::push)
    /// surfaces that as an error; this eager convenience has no error
    /// channel, and silently skipping the row would be worse.
    pub fn from_rows(x: &Mat) -> Self {
        let mut acc = MomentAccumulator::new(x.cols());
        for row in x.row_iter() {
            // Width always matches `x.cols()`; only a non-finite value
            // can be rejected.
            acc.push(row).expect("non-finite value in row");
        }
        acc
    }

    /// Row dimension `n`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of rows absorbed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Running column means (all zeros before the first push).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Absorbs one observation row.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `row.len() != self.dim()`;
    /// [`LinalgError::Domain`] if the row carries a NaN or infinite
    /// value. The rejection happens before any state is touched: one
    /// absorbed NaN would make the mean, the comoment, and **every later
    /// Chan [`merge`](Self::merge) of this accumulator** non-finite, with
    /// nothing downstream able to tell when the poisoning happened.
    pub fn push(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if row.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "moment push",
                lhs: (1, row.len()),
                rhs: (1, n),
            });
        }
        if !row.iter().all(|v| v.is_finite()) {
            return Err(LinalgError::Domain {
                what: "non-finite value in moment push",
            });
        }
        self.count += 1;
        let k = self.count as f64;
        for ((d, m), &x) in self.delta.iter_mut().zip(&self.mean).zip(row) {
            *d = x - m;
        }
        for (m, &d) in self.mean.iter_mut().zip(&self.delta) {
            *m += d / k;
        }
        // (x - μ_old)(x - μ_new)ᵀ = ((k-1)/k) · δδᵀ — symmetric, so only
        // the upper triangle is touched.
        let scale = (k - 1.0) / k;
        for i in 0..n {
            let di = self.delta[i] * scale;
            if di == 0.0 {
                continue;
            }
            let out_row = &mut self.comoment.row_mut(i)[i..];
            for (o, &dj) in out_row.iter_mut().zip(&self.delta[i..]) {
                *o += di * dj;
            }
        }
        Ok(())
    }

    /// Merges another accumulator over a **disjoint** row set into this one
    /// (Chan et al.'s pairwise update).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if the dimensions differ.
    pub fn merge(&mut self, other: &MomentAccumulator) -> Result<(), LinalgError> {
        let n = self.dim();
        if other.dim() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "moment merge",
                lhs: (1, n),
                rhs: (1, other.dim()),
            });
        }
        if other.count == 0 {
            return Ok(());
        }
        if self.count == 0 {
            *self = other.clone();
            return Ok(());
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let total = na + nb;
        for ((d, m), &mb) in self.delta.iter_mut().zip(&self.mean).zip(&other.mean) {
            *d = mb - m;
        }
        for (m, &d) in self.mean.iter_mut().zip(&self.delta) {
            *m += d * nb / total;
        }
        let scale = na * nb / total;
        for i in 0..n {
            let di = self.delta[i];
            let out_row = &mut self.comoment.row_mut(i)[i..];
            for ((o, &mb), &dj) in out_row
                .iter_mut()
                .zip(&other.comoment.row(i)[i..])
                .zip(&self.delta[i..])
            {
                *o += mb + di * dj * scale;
            }
        }
        self.count += other.count;
        Ok(())
    }

    /// The sample covariance `Σ (x - μ)(x - μ)ᵀ / (count - 1)` of
    /// everything pushed so far.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] with fewer than two rows, matching
    /// [`Mat::covariance`](crate::Mat::covariance) semantics.
    pub fn covariance(&self) -> Result<Mat, LinalgError> {
        if self.count < 2 {
            return Err(LinalgError::Empty {
                what: "covariance needs at least 2 rows",
            });
        }
        let n = self.dim();
        let denom = (self.count - 1) as f64;
        let mut cov = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.comoment[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        Ok(cov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(t: usize, n: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(t, n, |_, j| {
            (j as f64 + 1.0) * rng.random::<f64>() + if j % 2 == 0 { 10.0 } else { -3.0 }
        })
    }

    #[test]
    fn streamed_moments_match_batch() {
        let x = random_mat(257, 19, 1);
        let acc = MomentAccumulator::from_rows(&x);
        assert_eq!(acc.count(), 257);
        let batch_mean = x.col_means();
        for (a, b) in acc.mean().iter().zip(&batch_mean) {
            assert!((a - b).abs() < 1e-10, "mean diverged: {a} vs {b}");
        }
        let streamed = acc.covariance().unwrap();
        let batch = x.covariance().unwrap();
        assert!(streamed.max_abs_diff(&batch).unwrap() < 1e-9);
    }

    #[test]
    fn merge_of_disjoint_halves_matches_joint() {
        let x = random_mat(100, 7, 2);
        let mut left = MomentAccumulator::new(7);
        let mut right = MomentAccumulator::new(7);
        for (i, row) in x.row_iter().enumerate() {
            if i < 37 {
                left.push(row).unwrap();
            } else {
                right.push(row).unwrap();
            }
        }
        left.merge(&right).unwrap();
        let joint = MomentAccumulator::from_rows(&x);
        assert_eq!(left.count(), joint.count());
        for (a, b) in left.mean().iter().zip(joint.mean()) {
            assert!((a - b).abs() < 1e-10);
        }
        let merged_cov = left.covariance().unwrap();
        let joint_cov = joint.covariance().unwrap();
        assert!(merged_cov.max_abs_diff(&joint_cov).unwrap() < 1e-9);
    }

    #[test]
    fn merge_into_empty_and_of_empty() {
        let x = random_mat(20, 3, 3);
        let full = MomentAccumulator::from_rows(&x);
        let mut empty = MomentAccumulator::new(3);
        empty.merge(&full).unwrap();
        assert_eq!(empty.count(), 20);
        let mut with_empty = full.clone();
        with_empty.merge(&MomentAccumulator::new(3)).unwrap();
        assert_eq!(with_empty.count(), 20);
        assert!(
            with_empty
                .covariance()
                .unwrap()
                .max_abs_diff(&full.covariance().unwrap())
                .unwrap()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn errors_on_misuse() {
        let mut acc = MomentAccumulator::new(3);
        assert!(acc.push(&[1.0, 2.0]).is_err());
        assert!(acc.covariance().is_err());
        acc.push(&[1.0, 2.0, 3.0]).unwrap();
        assert!(acc.covariance().is_err(), "one row has no covariance");
        assert!(acc.merge(&MomentAccumulator::new(2)).is_err());
    }

    #[test]
    fn constant_stream_has_zero_covariance() {
        let mut acc = MomentAccumulator::new(2);
        for _ in 0..50 {
            acc.push(&[4.0, -1.0]).unwrap();
        }
        assert_eq!(acc.mean(), &[4.0, -1.0]);
        let cov = acc.covariance().unwrap();
        assert!(cov.as_slice().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn non_finite_rows_are_rejected_without_touching_state() {
        let mut acc = MomentAccumulator::new(2);
        acc.push(&[1.0, 2.0]).unwrap();
        let before_mean = acc.mean().to_vec();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                acc.push(&[bad, 0.0]),
                Err(LinalgError::Domain { .. })
            ));
        }
        // The rejected rows left count, mean, and comoment untouched —
        // the accumulator keeps working as if they were never offered.
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.mean(), before_mean.as_slice());
        acc.push(&[3.0, 4.0]).unwrap();
        assert_eq!(acc.mean(), &[2.0, 3.0]);
        assert!(acc
            .covariance()
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
    }
}
