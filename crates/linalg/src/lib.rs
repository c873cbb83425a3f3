//! Dense linear algebra for the `entromine` workspace.
//!
//! This crate provides exactly the numerical machinery the subspace method of
//! Lakhina, Crovella & Diot (SIGCOMM 2004/2005) needs, implemented from
//! scratch with no external numerics dependencies:
//!
//! * [`Mat`] — a dense, row-major, `f64` matrix with the usual algebraic
//!   operations (multiply, transpose, column statistics, norms).
//! * [`sym_eigen`] — a full symmetric eigendecomposition (Householder
//!   tridiagonalization followed by implicit-shift QL iteration), the
//!   reference oracle behind principal component analysis — and
//!   [`sym_eigen_leading`], the same solve with eigenvectors for the
//!   leading `k` only, which is what a fit runs.
//! * [`par`] — the shared worker-sizing policy (`workers_for`, ≤16
//!   threads) and range partitioners behind every scoped-thread kernel,
//!   public so other layers (the sharded ingest plane) share one fan-out
//!   discipline.
//! * [`Pca`] — principal component analysis over the rows of a data matrix
//!   (columns are variables), as used to split traffic into normal and
//!   residual subspaces: every covariance eigenvalue, the `m` leading axes
//!   the [`DimSelection`] asks for, and the residual power sums
//!   ([`ResidualPowerSums`]) the Jackson–Mudholkar threshold reads. One
//!   constructor, [`Pca::fit`], runs one of two engines named by
//!   [`FitStrategy`]: the dense covariance eigenproblem or the
//!   `rows × rows` Gram eigenproblem for wide matrices.
//! * [`MomentAccumulator`] — Welford-style online mean + covariance over a
//!   row stream (no fit path consumes it; `bench_e2e` times its push).
//! * [`ScorePlan`] — the fused scoring plane: allocation-free SPE via the
//!   norm identity `‖x−μ‖² − Σⱼ sⱼ²` with a cancellation guard and a
//!   batch entry point, built from a fitted model by [`Pca::score_plan`].
//!   The project–reconstruct–residual chain stays as
//!   [`Pca::spe_reference`] (executable spec and the guard's automatic
//!   fallback); every consumer scores through the plan.
//! * [`stats`] — the standard-normal quantile function (needed by the
//!   Jackson–Mudholkar Q-statistic threshold) and friends.
//!
//! The matrices that appear in the paper are modest — the widest is the
//! unfolded Geant entropy matrix with `4p = 1936` columns — so clear,
//! well-tested dense kernels are the right tool. The symmetric products
//! (`Mat::covariance`, `Mat::gram`) are the exception: they dominate fit
//! time, so they run blocked — workers own balanced row-blocks of the
//! output triangle under `std::thread::scope` (capped at 16 threads), and
//! data rows are consumed in cache-sized panels — while remaining
//! bitwise-identical to the serial reference kernel at any thread count.
//!
//! # Example
//!
//! ```
//! use entromine_linalg::{DimSelection, FitStrategy, Mat, Pca};
//!
//! // Three observations of two correlated variables.
//! let x = Mat::from_rows(&[
//!     &[1.0, 2.0],
//!     &[2.0, 4.1],
//!     &[3.0, 5.9],
//! ]);
//! let pca = Pca::fit(&x, FitStrategy::Auto, DimSelection::Fixed(1)).unwrap();
//! // Almost all variance is captured by the first principal axis.
//! assert!(pca.explained_variance_ratio(1) > 0.99);
//! ```

// `deny`, not `forbid`: the SIMD modules under `kernel/` opt back in with
// a module-local `#![allow(unsafe_code)]` + `#![deny(unsafe_op_in_unsafe_fn)]`.
// Everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod eigen;
mod error;
pub mod kernel;
mod matrix;
mod moments;
pub mod par;
mod pca;
pub mod score;
mod solve;
pub mod stats;

pub use eigen::{sym_eigen, sym_eigen_leading, sym_eigen_ql, SymEigen};
pub use error::LinalgError;
pub use matrix::Mat;
pub use moments::MomentAccumulator;
pub use pca::{DimSelection, FitStrategy, Pca, ResidualPowerSums};
pub use score::{ScorePlan, GUARD_EPS};
pub use solve::{solve, solve_regularized};
