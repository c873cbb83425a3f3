//! Pins the fused scoring plane ([`ScorePlan`]) against the reference
//! project–reconstruct–residual chain ([`Pca::spe_reference`]):
//!
//! * random models × random probe rows agree to ≤1e-10 relative SPE
//!   (plus a rounding floor proportional to the centered energy, which is
//!   what the norm identity's subtraction is conditioned on), up to the
//!   Geant entropy width of 1936 columns;
//! * rows lying inside the modeled subspace provably take the
//!   cancellation-guard fallback and still score ≈0;
//! * the guard threshold itself behaves as documented (fallback SPE is
//!   never negative).
//!
//! CI runs this suite under auto dispatch and `ENTROMINE_FORCE_SCALAR`,
//! so the agreement holds on every kernel tier.

use entromine_linalg::{DimSelection, FitStrategy, Mat, Pca};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fits the all-axes dense PCA over `rows × cols` data packed row-major.
fn fit(rows: usize, cols: usize, data: &[f64]) -> Pca {
    let x = Mat::from_fn(rows, cols, |i, j| data[i * cols + j]);
    Pca::fit(&x, FitStrategy::Full, DimSelection::Fixed(cols)).expect("random matrix fits")
}

/// A `t × n` low-rank-plus-noise traffic matrix: per-column gains on one
/// shared 48-bin seasonal mode, plus small uniform noise.
fn low_rank_traffic(t: usize, n: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let gains: Vec<f64> = (0..n).map(|_| 1.0 + 4.0 * rng.random::<f64>()).collect();
    Mat::from_fn(t, n, |i, j| {
        let phase = i as f64 / 48.0 * std::f64::consts::TAU;
        gains[j] * (5.0 + phase.sin()) + 0.3 * (rng.random::<f64>() - 0.5)
    })
}

/// Centered energy `‖x − μ‖²` — the quantity the norm identity subtracts
/// from, and therefore the natural scale of its rounding error.
fn centered_energy(pca: &Pca, probe: &[f64]) -> f64 {
    probe
        .iter()
        .zip(pca.mean())
        .map(|(v, mu)| (v - mu) * (v - mu))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_matches_reference_spe(
        data in proptest::collection::vec(-10.0f64..10.0, 40 * 7),
        probe in proptest::collection::vec(-10.0f64..10.0, 7),
    ) {
        let pca = fit(40, 7, &data);
        for m in [1usize, 3, 5] {
            let plan = pca.score_plan(m).unwrap();
            let reference = pca.spe_reference(&probe, m).unwrap();
            let fused = plan.spe(&probe).unwrap();
            let c2 = centered_energy(&pca, &probe);
            // ≤1e-10 relative, plus a c2-scaled floor: when the row sits
            // (nearly) inside the subspace both paths compute rounding
            // noise of scale eps·c2, and only the floor is meaningful.
            let tol = 1e-10 * reference.abs() + 1e-13 * c2;
            prop_assert!(
                (fused - reference).abs() <= tol,
                "m={m}: fused {fused} vs reference {reference} (c2 {c2})"
            );
            prop_assert!(fused >= 0.0, "SPE must stay nonnegative: {fused}");
        }
    }

    #[test]
    fn wide_models_agree_too(
        data in proptest::collection::vec(-3.0f64..3.0, 30 * 24),
        probe in proptest::collection::vec(-3.0f64..3.0, 24),
        traffic_seed in 0u64..1_000_000,
    ) {
        // Wider than the kernel tier's 8/4-row tiles, so every tile shape
        // (x8, x4, singles) participates in the score pass.
        let pca = fit(30, 24, &data);
        for m in [2usize, 9, 13] {
            let plan = pca.score_plan(m).unwrap();
            let reference = pca.spe_reference(&probe, m).unwrap();
            let fused = plan.spe(&probe).unwrap();
            let c2 = centered_energy(&pca, &probe);
            let tol = 1e-10 * reference.abs() + 1e-13 * c2;
            prop_assert!(
                (fused - reference).abs() <= tol,
                "m={m}: fused {fused} vs reference {reference} (c2 {c2})"
            );
        }
        // Geant entropy width (4p = 1936) on low-rank traffic, fitted the
        // way the detector fits that width (Gram): its own rows sit close
        // to the modeled subspace, so many of them take the guard. Gram's
        // back-projected axes are orthonormal only to d = max|VᵀV − I|
        // (1e-10 to 1e-8 on this fixture); the norm identity inherits up
        // to m·d·‖s‖² of it, so the floor carries that term too.
        let m = 10;
        let x = low_rank_traffic(64, 1936, traffic_seed);
        let pca = Pca::fit(&x, FitStrategy::Auto, DimSelection::Fixed(m)).unwrap();
        prop_assert_eq!(pca.strategy(), FitStrategy::Gram);
        let axes = pca.components();
        let defect = axes
            .transpose()
            .matmul(axes)
            .unwrap()
            .max_abs_diff(&Mat::identity(m))
            .unwrap();
        let plan = pca.score_plan(m).unwrap();
        let mut guarded = 0;
        for row in x.row_iter() {
            let reference = pca.spe_reference(row, m).unwrap();
            let (fused, fell_back) = plan.spe_checked(row).unwrap();
            guarded += usize::from(fell_back);
            let c2 = centered_energy(&pca, row);
            let tol = 1e-10 * reference.abs() + (1e-13 + m as f64 * defect) * c2;
            prop_assert!(
                (fused - reference).abs() <= tol,
                "width 1936: fused {fused} vs reference {reference} (c2 {c2}, defect {defect})"
            );
        }
        prop_assert!(guarded > 0, "the fixture must exercise the guard at this width");
    }

    #[test]
    fn in_subspace_rows_take_the_guard(
        data in proptest::collection::vec(-5.0f64..5.0, 50 * 9),
        coeffs in proptest::collection::vec(0.5f64..4.0, 3),
    ) {
        let pca = fit(50, 9, &data);
        let m = 3;
        let plan = pca.score_plan(m).unwrap();
        // x = μ + Σⱼ aⱼ·vⱼ lies exactly in the modeled subspace: the
        // fused SPE is pure cancellation and the guard MUST reroute to
        // the materialized-residual fallback.
        let axes = pca.components();
        let x: Vec<f64> = (0..9)
            .map(|i| {
                let mut v = pca.mean()[i];
                for (j, &a) in coeffs.iter().enumerate().take(m) {
                    v += a * axes[(i, j)];
                }
                v
            })
            .collect();
        let (spe, fell_back) = plan.spe_checked(&x).unwrap();
        prop_assert!(fell_back, "in-subspace row must trip the guard");
        let c2 = centered_energy(&pca, &x);
        prop_assert!(c2 > 0.1, "coefficients keep the row off the mean");
        prop_assert!(
            spe >= 0.0 && spe <= 1e-10 * c2,
            "guarded SPE must be ~0: {spe} (c2 {c2})"
        );
        // And the reference chain agrees it is ~0.
        let reference = pca.spe_reference(&x, m).unwrap();
        prop_assert!(reference <= 1e-10 * c2);
    }

    #[test]
    fn batch_replays_per_row_bitwise(
        data in proptest::collection::vec(-4.0f64..4.0, 35 * 11),
        probes in proptest::collection::vec(-4.0f64..4.0, 11 * 6),
    ) {
        let pca = fit(35, 11, &data);
        let plan = pca.score_plan(4).unwrap();
        let rows: Vec<&[f64]> = probes.chunks(11).collect();
        let mut batch = Vec::new();
        plan.spe_batch(rows.iter().copied(), &mut batch).unwrap();
        prop_assert_eq!(batch.len(), rows.len());
        for (row, &b) in rows.iter().zip(&batch) {
            let one = plan.spe(row).unwrap();
            prop_assert_eq!(
                one.to_bits(),
                b.to_bits(),
                "batch and per-row scoring must be the same arithmetic"
            );
        }
    }
}

#[test]
fn guard_fallback_is_observable_and_clean_rows_are_not_fallbacks() {
    // Deterministic complement of the proptests: a mean row scores
    // exactly 0 without the fallback, an in-subspace row with it.
    let data: Vec<f64> = (0..40 * 6)
        .map(|i| ((i * 31 % 17) as f64) - 8.0 + 0.01 * i as f64)
        .collect();
    let pca = fit(40, 6, &data);
    let plan = pca.score_plan(2).unwrap();

    let (spe, fell_back) = plan.spe_checked(pca.mean()).unwrap();
    assert_eq!(spe, 0.0);
    assert!(!fell_back, "x == mean is a clean zero, not cancellation");

    let axes = pca.components();
    let x: Vec<f64> = (0..6)
        .map(|i| pca.mean()[i] + 2.5 * axes[(i, 0)] - 1.5 * axes[(i, 1)])
        .collect();
    let (spe, fell_back) = plan.spe_checked(&x).unwrap();
    assert!(fell_back, "in-subspace row must trip the guard");
    assert!((0.0..1e-10).contains(&spe), "guarded SPE ~0: {spe}");
}

#[test]
fn t2_matches_reference_projection() {
    let data: Vec<f64> = (0..60 * 8)
        .map(|i| ((i * 13 % 29) as f64 / 7.0) - 2.0)
        .collect();
    let pca = fit(60, 8, &data);
    let m = 4;
    let plan = pca.score_plan(m).unwrap();
    let floor = 1e-12 * pca.total_variance().max(1e-300);
    let probe: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();

    let scores = pca.project(&probe, m).unwrap();
    let reference: f64 = scores
        .iter()
        .zip(pca.eigenvalues())
        .filter(|(_, &l)| l > floor)
        .map(|(s, &l)| s * s / l)
        .sum();
    let mut pairs = Vec::new();
    plan.spe_t2_batch([probe.as_slice()], pca.eigenvalues(), floor, &mut pairs)
        .unwrap();
    let [(spe, fused)] = pairs[..] else {
        panic!("one pair per row: {pairs:?}")
    };
    assert!(
        (fused - reference).abs() <= 1e-10 * (1.0 + reference.abs()),
        "{fused} vs {reference}"
    );
    assert_eq!(
        spe.to_bits(),
        plan.spe(&probe).unwrap().to_bits(),
        "spe_t2_batch's SPE is the plan SPE"
    );
}
