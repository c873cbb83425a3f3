//! Fit-engine threshold equivalence (Gram / blocked / QL).
//!
//! Every fit engine must hand the Jackson–Mudholkar threshold the same
//! residual spectrum, or an engine switch could move an alarm. This suite
//! pins the thresholds at `1e-8` relative (with an absolute floor at the
//! round-off scale of the spectrum): the Gram engine against the dense
//! covariance solve across random traffic-like data, normal-subspace
//! dimensions, and confidence levels, including the degenerate
//! zero-residual and `h₀ ≤ 0` fallback branches of the formula; and the
//! blocked tridiagonal eigensolver against the retained QL reference.

use entromine_linalg::{FitStrategy, Mat, Pca};
use entromine_subspace::{q_threshold_from_power_sums, DimSelection, SubspaceModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `|a - b|` within `1e-8` relative, floored at the spectrum's round-off
/// scale (`trace` carries the units of every threshold).
fn assert_threshold_close(oracle: f64, other: f64, trace: f64, what: &str) {
    let tol = 1e-8 * oracle.abs() + 1e-10 * trace.abs() + 1e-12;
    assert!(
        (oracle - other).abs() <= tol,
        "{what}: oracle {oracle} vs {other} (tol {tol})"
    );
}

/// Low-rank-plus-noise data: the structure the subspace method models.
fn traffic_like(t: usize, n: usize, noise: f64, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let gains: Vec<f64> = (0..n).map(|_| 0.5 + 2.0 * rng.random::<f64>()).collect();
    let phases: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    Mat::from_fn(t, n, |i, j| {
        let s = ((i as f64 / 37.0 + phases[j]) * std::f64::consts::TAU).sin();
        gains[j] * (2.0 + s) + noise * (rng.random::<f64>() - 0.5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: Gram thresholds agree with the dense
    /// covariance solve within 1e-8 relative, across data, m, and alpha.
    #[test]
    fn gram_thresholds_match_full_oracle(
        seed in 0u64..10_000,
        t in 40usize..120,
        n in 24usize..56,
        m in 1usize..8,
        alpha_mil in 900usize..1000,
        noise in 0.0f64..0.3,
    ) {
        let alpha = alpha_mil as f64 / 1000.0;
        let x = traffic_like(t, n, noise, seed);
        let dim = DimSelection::Fixed(m);
        let full = SubspaceModel::fit_with(&x, dim, FitStrategy::Full).unwrap();
        let gram = SubspaceModel::fit_with(&x, dim, FitStrategy::Gram).unwrap();
        prop_assert_eq!(gram.pca().strategy(), FitStrategy::Gram);
        assert_threshold_close(
            full.threshold(alpha).unwrap(),
            gram.threshold(alpha).unwrap(),
            full.pca().total_variance(),
            "gram vs full",
        );
    }

    /// Degenerate branch: exact low-rank data (residual spectrum all zero
    /// past the rank). Every engine must land on a ~zero threshold rather
    /// than amplifying round-off.
    #[test]
    fn zero_residual_branch_agrees(
        seed in 0u64..10_000,
        rank in 1usize..4,
        m in 4usize..8,
        alpha_mil in 900usize..1000,
    ) {
        let alpha = alpha_mil as f64 / 1000.0;
        let (t, n) = (60usize, 30usize);
        let mut rng = StdRng::seed_from_u64(seed);
        // X = sum of `rank` outer products: rank(X_c) <= rank < m.
        let coeffs: Vec<Vec<f64>> = (0..rank)
            .map(|_| (0..t).map(|_| rng.random::<f64>() - 0.5).collect())
            .collect();
        let loads: Vec<Vec<f64>> = (0..rank)
            .map(|_| (0..n).map(|_| 2.0 * rng.random::<f64>()).collect())
            .collect();
        let x = Mat::from_fn(t, n, |i, j| {
            (0..rank).map(|r| coeffs[r][i] * loads[r][j]).sum()
        });
        let full = SubspaceModel::fit_with(&x, DimSelection::Fixed(m), FitStrategy::Full).unwrap();
        // The Gram engine carries no axes past the rank, so a model with
        // m > rank is out of its reach; its zero-padded spectrum still
        // feeds the threshold directly.
        let gram = Pca::fit(&x, FitStrategy::Gram, DimSelection::Fixed(n)).unwrap();
        let trace = full.pca().total_variance();
        let oracle = full.threshold(alpha).unwrap();
        let other =
            q_threshold_from_power_sums(&gram.residual_power_sums(m).unwrap(), alpha).unwrap();
        // Both are round-off of an exactly-zero residual spectrum.
        prop_assert!(oracle.abs() <= 1e-9 * (1.0 + trace), "oracle {}", oracle);
        assert_threshold_close(oracle, other, trace, "zero-residual");
    }
}

/// The `h₀ ≤ 0` fallback branch, end to end through both engines: one
/// moderate residual variance above a sea of tiny ones makes
/// `h₀ = 1 − 2φ₁φ₃/(3φ₂²)` negative, exercising the first-order normal
/// approximation fallback.
#[test]
fn h0_fallback_branch_agrees_between_engines() {
    let (t, n) = (400usize, 96usize);
    let mut rng = StdRng::seed_from_u64(77);
    // Independent columns with variances [100, 1, 0.01, 0.01, ...]: the
    // residual spectrum past m = 1 is heavy-tailed in exactly the way
    // that drives h0 negative.
    let sigma: Vec<f64> = (0..n)
        .map(|j| match j {
            0 => 10.0,
            1 => 1.0,
            _ => 0.1,
        })
        .collect();
    let x = Mat::from_fn(t, n, |_, j| sigma[j] * (rng.random::<f64>() - 0.5));
    let dim = DimSelection::Fixed(1);
    let full = SubspaceModel::fit_with(&x, dim, FitStrategy::Full).unwrap();
    let gram = SubspaceModel::fit_with(&x, dim, FitStrategy::Gram).unwrap();

    // Confirm the fixture actually reaches the fallback branch.
    let sums = full.pca().residual_power_sums(1).unwrap();
    let h0 = 1.0 - 2.0 * sums.phi1 * sums.phi3 / (3.0 * sums.phi2 * sums.phi2);
    assert!(h0 <= 0.0, "fixture must drive h0 negative, got {h0}");

    let trace = full.pca().total_variance();
    for alpha in [0.95, 0.995, 0.999] {
        assert_threshold_close(
            full.threshold(alpha).unwrap(),
            gram.threshold(alpha).unwrap(),
            trace,
            "h0 fallback",
        );
    }
}

/// The blocked tridiagonal eigensolver (`sym_eigen`) against the retained
/// QL reference (`sym_eigen_ql`), pinned where it matters operationally:
/// the Jackson–Mudholkar detection threshold consumes the residual
/// spectrum, so if the two solvers' spectra induce the same `δ²_α` the
/// eigensolver swap cannot move an alarm. Sizes are chosen so the blocked
/// fast path actually engages (n ≥ 32).
#[test]
fn blocked_and_ql_spectra_give_same_thresholds() {
    use entromine_subspace::q_statistic_threshold;
    for (n, seed) in [(36usize, 11u64), (48, 12), (64, 13)] {
        let x = traffic_like(3 * n, n, 0.2, seed);
        // A PSD matrix with traffic-like spectral decay.
        let a = x.transpose().matmul(&x).unwrap();
        let fast = entromine_linalg::sym_eigen(&a).unwrap();
        let ql = entromine_linalg::sym_eigen_ql(&a).unwrap();
        let trace: f64 = ql.values.iter().sum();
        for m in [1usize, 3, 6] {
            for alpha in [0.95, 0.999] {
                let oracle = q_statistic_threshold(&ql.values, m, alpha).unwrap();
                let got = q_statistic_threshold(&fast.values, m, alpha).unwrap();
                assert_threshold_close(
                    oracle,
                    got,
                    trace,
                    &format!("sym_eigen vs ql threshold, n={n} m={m} alpha={alpha}"),
                );
            }
        }
    }
}
