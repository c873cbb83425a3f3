//! Equivalence pins for the dispatched kernel tier and the blocked
//! tridiagonal eigensolver.
//!
//! Two families of contracts:
//!
//! * **Kernel pins** — `axpy`, `dot4` and the 4 × 2 `dot4_tile` (against
//!   per-pair scalar `dot4`) must be *bitwise* identical on every backend
//!   this host can run (scalar, AVX2), asserted
//!   through the explicit `*_on` seam so one process certifies every
//!   implementation. CI additionally runs this suite under
//!   `ENTROMINE_FORCE_SCALAR=1`, which pins the auto-dispatch seam itself.
//! * **Eigensolver pins** — `sym_eigen` (blocked tridiagonal pipeline)
//!   against `sym_eigen_ql` (the retained QL spec) at sizes where the fast
//!   path actually engages (n ≥ 32): eigenvalues to 1e-8 relative,
//!   orthonormal vectors, and matching reconstructions, including the
//!   adversarial spectra (clusters, exact repeats, rank deficiency) that
//!   inverse iteration finds hardest.

use entromine_linalg::kernel::{available_backends, axpy_on, dot4_on, dot4_tile_on, Backend};
use entromine_linalg::{sym_eigen, sym_eigen_ql, Mat};
use proptest::prelude::*;

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

/// Asserts the two solvers agree on a symmetric input: same eigenvalues to
/// 1e-8 relative, orthonormal fast-path vectors, and reconstructions that
/// match the input equally well.
fn assert_solvers_agree(a: &Mat, what: &str) {
    let fast = sym_eigen(a).expect("fast path");
    let oracle = sym_eigen_ql(a).expect("ql oracle");
    let n = a.rows();
    let scale = oracle.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (i, (f, q)) in fast.values.iter().zip(&oracle.values).enumerate() {
        assert!(
            (f - q).abs() <= 1e-8 * scale.max(1.0),
            "{what}: eigenvalue {i} disagrees: fast {f} vs ql {q} (scale {scale})"
        );
    }
    // Orthonormality of the fast path's vectors.
    let vt_v = fast
        .vectors
        .transpose()
        .matmul(&fast.vectors)
        .expect("square");
    let id = Mat::identity(n);
    let ortho = vt_v.max_abs_diff(&id).expect("same shape");
    assert!(ortho <= 1e-8, "{what}: VᵀV deviates from I by {ortho}");
    // Reconstruction: V Λ Vᵀ must reproduce the input as well as the
    // oracle does (clusters make per-vector comparison meaningless; the
    // reconstruction is basis-free).
    let mut lam = Mat::zeros(n, n);
    for i in 0..n {
        lam[(i, i)] = fast.values[i];
    }
    let recon = fast
        .vectors
        .matmul(&lam)
        .expect("square")
        .matmul(&fast.vectors.transpose())
        .expect("square");
    let err = recon.max_abs_diff(a).expect("same shape");
    assert!(
        err <= 1e-8 * scale.max(1.0),
        "{what}: reconstruction error {err} (scale {scale})"
    );
}

/// A symmetric matrix with a prescribed spectrum: Q Λ Qᵀ for a fixed
/// orthonormal Q built by QR-free Householder chaining from a seeded
/// start (deterministic — no RNG state shared with anything else).
fn matrix_with_spectrum(values: &[f64], seed: u64) -> Mat {
    let n = values.len();
    // Build an orthonormal Q by Gram–Schmidt on a deterministic
    // pseudo-random basis.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut q = Mat::zeros(n, n);
    for j in 0..n {
        let mut col: Vec<f64> = (0..n).map(|_| next()).collect();
        for p in 0..j {
            let mut proj = 0.0;
            for r in 0..n {
                proj += col[r] * q[(r, p)];
            }
            for r in 0..n {
                col[r] -= proj * q[(r, p)];
            }
        }
        let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm > 1e-8, "degenerate basis draw");
        for r in 0..n {
            q[(r, j)] = col[r] / norm;
        }
    }
    let mut lam = Mat::zeros(n, n);
    for i in 0..n {
        lam[(i, i)] = values[i];
    }
    let a = q
        .matmul(&lam)
        .expect("square")
        .matmul(&q.transpose())
        .expect("square");
    // Symmetrize away the last-bit asymmetry from forming the product.
    let mut s = a.clone();
    for i in 0..n {
        for j in 0..n {
            s[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    s
}

#[test]
fn eigen_agrees_on_clustered_spectrum() {
    // Tight cluster, exact repeats, and a slowly decaying tail — the
    // stress shape for shifted inverse iteration.
    let mut values = vec![10.0, 10.0, 10.0, 7.0, 7.0 - 1e-9, 4.0];
    values.extend((0..42).map(|i| 0.5 - 1e-3 * i as f64));
    let a = matrix_with_spectrum(&values, 0x5eed);
    assert_solvers_agree(&a, "clustered spectrum n=48");
}

#[test]
fn eigen_agrees_on_scaled_identity() {
    // Fully degenerate spectrum: any orthonormal basis is correct.
    let mut a = Mat::identity(40);
    a.scale(2.0);
    assert_solvers_agree(&a, "2·I n=40");
}

#[test]
fn eigen_agrees_on_zero_matrix() {
    assert_solvers_agree(&Mat::zeros(40, 40), "zero matrix n=40");
}

#[test]
fn eigen_agrees_on_rank_deficient() {
    // Rank 6 in a 40-dimensional space: a 34-fold zero eigenvalue.
    let b = matrix_with_spectrum(
        &[9.0, 5.0, 3.0, 2.0, 1.0, 0.5]
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0.0, 34))
            .collect::<Vec<_>>(),
        0xfeed,
    );
    assert_solvers_agree(&b, "rank-deficient n=40");
}

#[test]
fn eigen_agrees_on_wide_dynamic_range() {
    let values: Vec<f64> = (0..36).map(|i| 1e6 * (0.5f64).powi(i)).collect();
    let a = matrix_with_spectrum(&values, 0xabcd);
    assert_solvers_agree(&a, "wide dynamic range n=36");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eigen_agrees_on_random_psd(a in psd_strategy(33, 40)) {
        assert_solvers_agree(&a, "random psd n=33");
    }

    #[test]
    fn axpy_bitwise_on_every_backend(
        acc in proptest::collection::vec(-1e6f64..1e6, 0..97),
        x in -1e3f64..1e3,
        seed in any::<u64>(),
    ) {
        // ys derived from the seed so lengths always match acc.
        let mut state = seed | 1;
        let ys: Vec<f64> = (0..acc.len()).map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }).collect();
        let mut reference = acc.clone();
        axpy_on(Backend::Scalar, &mut reference, x, &ys);
        for backend in available_backends() {
            let mut got = acc.clone();
            axpy_on(backend, &mut got, x, &ys);
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), r.to_bits(),
                    "axpy lane {} differs on {:?}", i, backend
                );
            }
        }
    }

    #[test]
    fn dot4_bitwise_on_every_backend(
        a in proptest::collection::vec(-1e6f64..1e6, 0..97),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let b: Vec<f64> = (0..a.len()).map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }).collect();
        let reference = dot4_on(Backend::Scalar, &a, &b);
        for backend in available_backends() {
            let got = dot4_on(backend, &a, &b);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "dot4 differs on {:?}: {} vs {}", backend, got, reference
            );
        }
    }

    #[test]
    fn dot4_tile_bitwise_on_every_backend(
        first in proptest::collection::vec(-1e6f64..1e6, 0..97),
        seed in any::<u64>(),
    ) {
        // Five more rows of the same length, derived from the seed.
        let mut state = seed | 1;
        let mut row = || -> Vec<f64> {
            (0..first.len()).map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }).collect()
        };
        let rows = [first.clone(), row(), row(), row(), row(), row()];
        let a = [&rows[0][..], &rows[1], &rows[2], &rows[3]];
        let b = [&rows[4][..], &rows[5]];
        for backend in available_backends() {
            let tile = dot4_tile_on(backend, a, b);
            for i in 0..4 {
                for j in 0..2 {
                    let reference = dot4_on(Backend::Scalar, a[i], b[j]);
                    prop_assert_eq!(
                        tile[i][j].to_bits(), reference.to_bits(),
                        "tile ({}, {}) differs on {:?} at len {}", i, j, backend, first.len()
                    );
                }
            }
        }
    }
}

/// Manual perf probe (not a CI assertion): `cargo test --release -p
/// entromine-linalg --test kernel_equivalence -- --ignored --nocapture`.
#[test]
#[ignore = "timing probe, run manually"]
fn eigen_speed_probe() {
    let n = 300;
    let values: Vec<f64> = (0..n).map(|i| 1e3 / (1.0 + i as f64)).collect();
    let a = matrix_with_spectrum(&values, 0x9a5e);
    let mut best_fast = f64::INFINITY;
    let mut best_ql = f64::INFINITY;
    for rep in 0..5 {
        let t0 = std::time::Instant::now();
        let fast = sym_eigen(&a).expect("fast");
        let t_fast = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let oracle = sym_eigen_ql(&a).expect("ql");
        let t_ql = t1.elapsed().as_secs_f64();
        best_fast = best_fast.min(t_fast);
        best_ql = best_ql.min(t_ql);
        println!(
            "n={n} rep {rep}: fast {:.3}ms ql {:.3}ms ratio {:.2} (lead fast {:.6} ql {:.6})",
            t_fast * 1e3,
            t_ql * 1e3,
            t_ql / t_fast,
            fast.values[0],
            oracle.values[0],
        );
    }
    println!(
        "n={n} best-of-5: fast {:.3}ms ql {:.3}ms ratio {:.2}",
        best_fast * 1e3,
        best_ql * 1e3,
        best_ql / best_fast
    );
}
