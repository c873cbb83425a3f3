//! Property-based tests for the dense linear-algebra kernels.
//!
//! These check algebraic identities on randomly generated inputs rather
//! than hand-picked cases: transpose involution, (AB)^T = B^T A^T,
//! eigen reconstruction, orthonormality, PCA residual orthogonality, and
//! monotonicity/symmetry of the normal quantile.

use entromine_linalg::{
    stats, sym_eigen, sym_eigen_leading, DimSelection, FitStrategy, Mat, MomentAccumulator, Pca,
    SymEigen,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a rows x cols matrix with entries in [-10, 10].
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

/// Strategy: a symmetric PSD matrix B^T B with B of shape (rows, n).
fn psd_strategy(n: usize, rows: usize) -> impl Strategy<Value = Mat> {
    mat_strategy(rows, n).prop_map(|b| {
        b.transpose()
            .matmul(&b)
            .expect("shapes match by construction")
    })
}

/// The all-axes PCA of `x` on `engine`: every eigenvalue, and every axis
/// the engine can carry.
fn all_axes(x: &Mat, engine: FitStrategy) -> Pca {
    Pca::fit(x, engine, DimSelection::Fixed(x.cols())).unwrap()
}

/// A full-rank `n × n` PSD matrix `BᵀB`, `B` of `n + 8` seeded uniform rows.
fn seeded_psd(n: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = Mat::from_fn(n + 8, n, |_, _| rng.random::<f64>() - 0.5);
    b.transpose().matmul(&b).unwrap()
}

/// `Q·diag(spectrum)·Qᵀ` for a seeded orthogonal `Q`.
fn with_spectrum(spectrum: &[f64], seed: u64) -> Mat {
    let n = spectrum.len();
    let q = sym_eigen(&seeded_psd(n, seed)).unwrap().vectors;
    let scaled = Mat::from_fn(n, n, |i, j| q[(i, j)] * spectrum[j]);
    let a = scaled.matmul(&q.transpose()).unwrap();
    // Symmetrize the product's round-off.
    Mat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

/// The contract of every leading-`k` solve, cluster at the cut or not: all
/// `n` eigenvalues, `k` orthonormal columns, each an eigenvector of `a` for
/// its eigenvalue to `1e-8·‖a‖`.
fn check_leading(a: &Mat, e: &SymEigen, k: usize) -> Result<(), String> {
    let n = a.rows();
    prop_assert_eq!(e.values.len(), n);
    prop_assert_eq!(e.vectors.shape(), (n, k));
    let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
    prop_assert!(vtv.max_abs_diff(&Mat::identity(k)).unwrap() < 1e-8);
    let scale = a.frobenius_norm();
    for j in 0..k {
        let v = e.vectors.col(j);
        let av = a.matvec(&v).unwrap();
        let r: f64 = av
            .iter()
            .zip(&v)
            .map(|(y, x)| (y - e.values[j] * x).powi(2))
            .sum();
        prop_assert!(
            r.sqrt() <= 1e-8 * scale,
            "axis {}: residual {}",
            j,
            r.sqrt()
        );
    }
    Ok(())
}

/// Largest entry by which axis `j` of `e` differs from axis `j` of `full`,
/// up to sign.
fn off_full(e: &SymEigen, full: &SymEigen, j: usize) -> f64 {
    let (v, w) = (e.vectors.col(j), full.vectors.col(j));
    let sign = v.iter().zip(&w).map(|(x, y)| x * y).sum::<f64>().signum();
    v.iter()
        .zip(&w)
        .fold(0.0, |m, (x, y)| m.max((sign * x - y).abs()))
}

#[test]
fn leading_vectors_survive_a_cluster_straddling_the_cut() {
    // A triple eigenvalue with the cut inside it (k = 2, 3), at its edges
    // (k = 1, 4), and a second cluster below it (k = 6). Any orthonormal
    // basis of an invariant subspace is correct, so the contract is
    // orthonormality and the residual; the solver goes further and starts
    // at the head of the cluster the cut falls in, which makes the basis
    // the full solve's. n = 40 takes the blocked pipeline, n = 12 the QL
    // reference.
    for n in [40usize, 12] {
        let mut spectrum = vec![1.0; n];
        spectrum[..4].copy_from_slice(&[5.0, 3.0, 3.0, 3.0]);
        let a = with_spectrum(&spectrum, 7);
        let full = sym_eigen(&a).unwrap();
        for k in [1usize, 2, 3, 4, 6, n] {
            let e = sym_eigen_leading(&a, |_| k).unwrap();
            check_leading(&a, &e, k).unwrap_or_else(|why| panic!("n={n} k={k}: {why}"));
            for (got, want) in e.values.iter().zip(&spectrum) {
                assert!((got - want).abs() < 1e-10, "n={n} k={k}: {got} vs {want}");
            }
            for j in 0..k {
                let gap = off_full(&e, &full, j);
                assert!(
                    gap < 1e-8,
                    "n={n} k={k} axis {j}: off the full solve by {gap}"
                );
            }
        }
    }
}

#[test]
fn leading_vectors_are_the_full_solve_bit_for_bit() {
    // With no cluster at the cut, asking for fewer vectors changes which
    // rows are computed and nothing about how: 100 = 12·8 + 4, so the
    // leading four ride the back-transform's remainder path in both.
    let a = seeded_psd(100, 3);
    let full = sym_eigen(&a).unwrap();
    for k in [1usize, 4, 5, 10, 50, 99] {
        let e = sym_eigen_leading(&a, |_| k).unwrap();
        for j in 0..k {
            let (got, want) = (e.vectors.col(j), full.vectors.col(j));
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "k={k}: axis {j} differs from the full solve"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leading_k_matches_the_full_solve(n in 2usize..=96, seed in any::<u64>()) {
        let a = seeded_psd(n, seed);
        let full = sym_eigen(&a).unwrap();
        for k in [0, 1, 10.min(n), n - 1, n] {
            // The request is read off the complete spectrum.
            let e = sym_eigen_leading(&a, |values| {
                assert_eq!(values.len(), n);
                k
            }).unwrap();
            prop_assert!(
                e.values.iter().zip(&full.values).all(|(x, y)| x.to_bits() == y.to_bits()),
                "k={}: eigenvalues moved", k
            );
            check_leading(&a, &e, k)?;
            for j in 0..k {
                let gap = off_full(&e, &full, j);
                prop_assert!(gap < 1e-8, "k={} axis {}: off the full solve by {}", k, j, gap);
            }
        }
    }

    #[test]
    fn transpose_is_involution(m in mat_strategy(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(a in mat_strategy(3, 4), b in mat_strategy(4, 5)) {
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab_t.max_abs_diff(&bt_at).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_associates_with_vectors(a in mat_strategy(4, 4), v in proptest::collection::vec(-5.0f64..5.0, 4)) {
        // (A A) v == A (A v)
        let lhs = a.matmul(&a).unwrap().matvec(&v).unwrap();
        let av = a.matvec(&v).unwrap();
        let rhs = a.matvec(&av).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diag(m in mat_strategy(12, 5)) {
        let c = m.covariance().unwrap();
        prop_assert!(c.is_symmetric(1e-9));
        for i in 0..5 {
            prop_assert!(c[(i, i)] >= -1e-12, "variance must be nonnegative");
        }
    }

    #[test]
    fn eigen_reconstructs(a in psd_strategy(5, 8)) {
        let e = sym_eigen(&a).unwrap();
        let n = a.rows();
        let mut lam = Mat::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&lam).unwrap().matmul(&e.vectors.transpose()).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(recon.max_abs_diff(&a).unwrap() < 1e-8 * scale);
    }

    #[test]
    fn eigenvalues_sorted_and_nonnegative_for_psd(a in psd_strategy(6, 9)) {
        let e = sym_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10, "eigenvalues must be descending");
        }
        let scale = a.frobenius_norm().max(1.0);
        for v in &e.values {
            prop_assert!(*v >= -1e-9 * scale, "PSD eigenvalue negative: {}", v);
        }
    }

    #[test]
    fn eigenvectors_orthonormal(a in psd_strategy(5, 7)) {
        let e = sym_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.max_abs_diff(&Mat::identity(a.rows())).unwrap() < 1e-8);
    }

    #[test]
    fn pca_residual_orthogonal_to_normal_part(m in mat_strategy(20, 4), row in 0usize..20) {
        let pca = all_axes(&m, FitStrategy::Full);
        let x = m.row(row);
        let hat = pca.reconstruct(x, 2).unwrap();
        let tilde = pca.residual(x, 2).unwrap();
        let dot: f64 = hat.iter().zip(&tilde).map(|(a, b)| a * b).sum();
        let scale = (hat.iter().map(|v| v * v).sum::<f64>()
            * tilde.iter().map(|v| v * v).sum::<f64>()).sqrt().max(1.0);
        prop_assert!(dot.abs() < 1e-8 * scale, "normal and residual parts must be orthogonal");
    }

    #[test]
    fn pca_spe_monotone_in_components(m in mat_strategy(25, 5), row in 0usize..25) {
        let pca = all_axes(&m, FitStrategy::Full);
        let x = m.row(row);
        let mut prev = f64::INFINITY;
        for k in 0..=5 {
            let spe = pca.spe_reference(x, k).unwrap();
            prop_assert!(spe <= prev + 1e-9, "SPE must not grow with more components");
            prev = spe;
        }
    }

    #[test]
    fn quantile_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assume!(hi - lo > 1e-12);
        prop_assert!(stats::inv_norm_cdf(lo) < stats::inv_norm_cdf(hi));
    }

    #[test]
    fn quantile_roundtrip(p in 0.001f64..0.999) {
        let x = stats::inv_norm_cdf(p);
        prop_assert!((stats::norm_cdf(x) - p).abs() < 1e-5);
    }

    #[test]
    fn quantile_antisymmetric(p in 0.001f64..0.5) {
        let a = stats::inv_norm_cdf(p);
        let b = stats::inv_norm_cdf(1.0 - p);
        prop_assert!((a + b).abs() < 1e-8);
    }

    #[test]
    fn streamed_moments_match_batch_covariance(m in mat_strategy(40, 6)) {
        let acc = MomentAccumulator::from_rows(&m);
        let streamed = acc.covariance().unwrap();
        let batch = m.covariance().unwrap();
        // Welford vs. two-pass differ only by round-off.
        prop_assert!(streamed.max_abs_diff(&batch).unwrap() < 1e-8);
        for (a, b) in acc.mean().iter().zip(m.col_means()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn moment_merge_is_order_insensitive(m in mat_strategy(30, 5), split in 1usize..29) {
        let mut left = MomentAccumulator::new(5);
        let mut right = MomentAccumulator::new(5);
        for (i, row) in m.row_iter().enumerate() {
            if i < split { left.push(row).unwrap() } else { right.push(row).unwrap() }
        }
        left.merge(&right).unwrap();
        let joint = MomentAccumulator::from_rows(&m);
        prop_assert!(
            left.covariance().unwrap().max_abs_diff(&joint.covariance().unwrap()).unwrap() < 1e-8
        );
    }

    #[test]
    fn gram_fit_scores_like_covariance_fit(m in mat_strategy(12, 20), k in 0usize..6) {
        // Wide matrix: Gram path carries at most 12 axes; both models must
        // assign every row the same residual magnitude.
        let cov_path = all_axes(&m, FitStrategy::Full);
        let gram_path = all_axes(&m, FitStrategy::Gram);
        prop_assume!(k <= gram_path.n_axes());
        for row in m.row_iter() {
            let a = cov_path.spe_reference(row, k).unwrap();
            let b = gram_path.spe_reference(row, k).unwrap();
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "spe {} vs {}", a, b);
        }
    }
}
