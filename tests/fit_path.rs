//! One fit path — the contract of "training rows → models".
//!
//! The batch [`Diagnoser::fit`] and the rolling [`TrainingWindow::fit`]
//! run the same `fit_rounds`; the window adds nothing but row retention.
//! Three consequences, each pinned bit for bit (`to_bits`, no tolerance):
//!
//! 1. a window that holds every bin of a dataset fits exactly the models
//!    the batch pipeline fits on that dataset, trimming round included;
//! 2. a window fit depends on the retained rows only — not on the roll
//!    granularity, and not on whether the window rolled to get there;
//! 3. the engine follows the window's shape: Gram (no eigen-iteration)
//!    when rows < cols, a covariance engine otherwise — and no round is
//!    ever warm-started or downdated.
//!
//! And one that is pinned against the all-axes oracles instead: a fit
//! materializes only the axes its request names, and nothing a detector
//! reads — thresholds, SPE, T², blamed flows — can tell.

use entromine::linalg::{Mat, Pca};
use entromine::net::Topology;
use entromine::subspace::{DimSelection, MultiwayModel, SubspaceModel, ThresholdPolicy};
use entromine::synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};
use entromine::{Diagnoser, DiagnoserConfig, FitStrategy, FittedDiagnoser, TrainingWindow};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One bin's `(bytes, packets, raw unfolded entropy)` rows.
type Rows = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Deterministic synthetic bin rows for `p` flows: shared per-flow gains,
/// a diurnal phase, hash jitter — no RNG. `spike` displaces flow 3.
fn rows(p: usize, bin: usize, spike: bool) -> Rows {
    let gain = |i: usize| 1.0 + ((i * 37 + 11) % 101) as f64 / 101.0;
    let phase = (bin as f64 / 48.0) * std::f64::consts::TAU;
    let jit = |i: usize| {
        let x = (bin as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
        ((x >> 33) % 1009) as f64 / 1009.0
    };
    let spike = if spike { 6.0 } else { 0.0 };
    let bytes: Vec<f64> = (0..p)
        .map(|i| {
            1e5 * gain(i) * (1.0 + 0.1 * phase.sin())
                + 300.0 * jit(i)
                + if i == 3 { spike * 1e5 } else { 0.0 }
        })
        .collect();
    let packets = bytes.iter().map(|b| b / 100.0).collect();
    let entropy = (0..4 * p)
        .map(|i| {
            gain(i % p) * (2.0 + 0.2 * phase.cos())
                + 0.02 * jit(i)
                + if i % p == 3 { spike } else { 0.0 }
        })
        .collect();
    (bytes, packets, entropy)
}

/// A window over the synthetic rows of `bins`, with `spike_bin` spiked.
fn window(
    p: usize,
    capacity: usize,
    chunk: usize,
    bins: std::ops::RangeInclusive<usize>,
    spike_bin: Option<usize>,
) -> TrainingWindow {
    let mut w = TrainingWindow::new(p, capacity, chunk).unwrap();
    for bin in bins {
        let (b, k, e) = rows(p, bin, spike_bin == Some(bin));
        w.push_bin(bin, &b, &k, &e).unwrap();
    }
    w
}

/// Two fitted pipelines are the same models: thresholds under both
/// policies, calibration samples, and SPEs of the probe rows, bit for bit.
fn assert_bit_identical(a: &FittedDiagnoser, b: &FittedDiagnoser, probes: &[Rows], what: &str) {
    let alpha = a.config().alpha;
    fn inner(f: &FittedDiagnoser) -> [&SubspaceModel; 3] {
        [
            f.bytes_model(),
            f.packets_model(),
            f.entropy_model().inner(),
        ]
    }
    for (name, (ma, mb)) in ["bytes", "packets", "entropy"]
        .iter()
        .zip(inner(a).into_iter().zip(inner(b)))
    {
        assert_eq!(ma.normal_dim(), mb.normal_dim(), "{what}/{name}: dim");
        for policy in [
            ThresholdPolicy::JacksonMudholkar,
            ThresholdPolicy::Empirical,
        ] {
            assert_eq!(
                ma.threshold_with(alpha, policy).unwrap().to_bits(),
                mb.threshold_with(alpha, policy).unwrap().to_bits(),
                "{what}/{name}: {policy:?} threshold"
            );
        }
        assert_eq!(
            bits(ma.calibration()),
            bits(mb.calibration()),
            "{what}/{name}: calibration sample"
        );
    }
    assert_eq!(a.entropy_model().divisors(), b.entropy_model().divisors());
    for (i, (bytes, packets, entropy)) in probes.iter().enumerate() {
        let spes = |f: &FittedDiagnoser| {
            [
                f.bytes_model().spe(bytes).unwrap().to_bits(),
                f.packets_model().spe(packets).unwrap().to_bits(),
                f.entropy_model().inner().spe(entropy).unwrap().to_bits(),
            ]
        };
        assert_eq!(spes(a), spes(b), "{what}: SPE of probe {i}");
    }
}

#[test]
fn window_holding_a_dataset_fits_the_batch_models_bit_for_bit() {
    // 9 flows: the volume matrices (96 x 9) take a covariance engine, the
    // unfolded entropy matrix (96 x 36) too; the alpha flow at bin 50 is
    // strong enough that the trimming round must flag it.
    let spike_bin = 50;
    let d = Dataset::generate(
        Topology::line(3),
        DatasetConfig {
            seed: 17,
            n_bins: 96,
            sample_rate: 100,
            traffic_scale: 0.03,
            rate_noise: 0.03,
            anonymize: false,
        },
        vec![AnomalyEvent {
            label: AnomalyLabel::AlphaFlow,
            start_bin: spike_bin,
            duration: 1,
            flows: vec![4],
            packets_per_cell: 900.0,
            seed: 3,
        }],
    );
    let row_of = |bin: usize| -> Rows {
        (
            d.volumes.bytes().row(bin).to_vec(),
            d.volumes.packets().row(bin).to_vec(),
            d.tensor.unfolded_row(bin),
        )
    };
    let mut w = TrainingWindow::new(d.n_flows(), d.n_bins(), 8).unwrap();
    for bin in 0..d.n_bins() {
        let (b, k, e) = row_of(bin);
        w.push_bin(bin, &b, &k, &e).unwrap();
    }
    let probes = [row_of(0), row_of(spike_bin), row_of(95)];
    for refit_rounds in [0, 1] {
        let config = DiagnoserConfig {
            refit_rounds,
            ..Default::default()
        };
        let batch = Diagnoser::new(config).fit(&d).unwrap();
        let (online, trace) = w.fit(&config).unwrap();
        assert_bit_identical(&batch, &online, &probes, &format!("rounds={refit_rounds}"));

        assert_eq!(trace.rounds.len(), refit_rounds + 1);
        assert_eq!(trace.rounds[0].training_bins, d.n_bins());
        if let Some(trimmed) = trace.rounds.get(1) {
            assert!(trimmed.flagged_bins >= 1, "the spike must be flagged");
            assert_eq!(trimmed.training_bins + trimmed.flagged_bins, d.n_bins());
            assert_eq!(
                online.bytes_model().calibration().len(),
                trimmed.training_bins
            );
            // The spike bin was trained out, so the final models alarm on
            // it (a model that had absorbed it would not).
            let mut scorer = online.streaming(config.alpha).unwrap();
            let (b, k, e) = &probes[1];
            assert!(scorer.score_rows(spike_bin, b, k, e).unwrap().is_some());
        }
    }
}

#[test]
fn window_fit_is_a_function_of_the_retained_rows_only() {
    // Three routes to a window holding bins 6..=26 (capacity 24): rolled
    // in 4-bin granules, rolled in 6-bin granules, and never rolled. The
    // volume models are 21 x 8 (covariance engine), the entropy model
    // 21 x 32 (Gram), with a trimming round on the spike at bin 15.
    let p = 8;
    let spike = Some(15);
    let routes = [
        ("chunk 4, rolled", window(p, 24, 4, 2..=26, spike)),
        ("chunk 6, rolled", window(p, 24, 6, 0..=26, spike)),
        ("chunk 6, fresh", window(p, 24, 6, 6..=26, spike)),
    ];
    let probes = [rows(p, 6, false), rows(p, 15, true), rows(p, 40, false)];
    for refit_rounds in [0, 1] {
        let config = DiagnoserConfig {
            dim: DimSelection::Fixed(2),
            refit_rounds,
            ..Default::default()
        };
        let (reference, ref_trace) = routes[0].1.fit(&config).unwrap();
        assert_eq!(
            ref_trace.rounds.len(),
            refit_rounds + 1,
            "the spike must trigger every configured trimming round"
        );
        for (what, w) in &routes {
            assert_eq!(w.bins(), (6..=26).collect::<Vec<_>>(), "{what}");
            let (fitted, trace) = w.fit(&config).unwrap();
            assert_bit_identical(&reference, &fitted, &probes, what);
            for (a, b) in trace.rounds.iter().zip(&ref_trace.rounds) {
                assert_eq!(
                    (a.training_bins, a.flagged_bins, a.cycles),
                    (b.training_bins, b.flagged_bins, b.cycles),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn the_engine_follows_the_window_shape_and_every_round_is_cold() {
    let config = DiagnoserConfig {
        dim: DimSelection::Fixed(2),
        refit_rounds: 1,
        ..Default::default()
    };
    let engines = |f: &FittedDiagnoser| {
        [
            f.bytes_model().pca().strategy(),
            f.packets_model().pca().strategy(),
            f.entropy_model().inner().pca().strategy(),
        ]
    };
    // Rows < cols on every model (20 x 32 volumes, 20 x 128 entropy).
    let (wide, wide_trace) = window(32, 20, 5, 0..=19, Some(9)).fit(&config).unwrap();
    assert_eq!(engines(&wide), [FitStrategy::Gram; 3]);
    // Rows > cols on every model (60 x 8 volumes, 60 x 32 entropy).
    let (tall, tall_trace) = window(8, 60, 5, 0..=59, Some(30)).fit(&config).unwrap();
    assert!(!engines(&tall).contains(&FitStrategy::Gram));

    for round in wide_trace.rounds.iter().chain(&tall_trace.rounds) {
        assert!(!round.warm_start && !round.downdated && round.cycles == 0);
    }
}

/// A `t × 4p` window of unfolded entropy rows at a canonical workload's
/// shape: fourteen well-separated components (strengths falling by 0.9 per
/// step, so neither a 10-axis cut nor an 85 % one lands in a cluster) over
/// a noise floor three orders of magnitude down. No RNG.
fn low_rank_window(t: usize, p: usize) -> Mat {
    // SplitMix64's finalizer over the pair: a linear hash would make the
    // "noise" a low-rank function of (row, column).
    let unit = |a: usize, b: usize| {
        let mut x = (a as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((b as u64).wrapping_mul(1442695040888963407));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    Mat::from_fn(t, 4 * p, |i, j| {
        let signal: f64 = (0..14)
            .map(|r| {
                let phase = (r + 1) as f64 * i as f64 / t as f64 * std::f64::consts::TAU;
                0.9f64.powi(r as i32) * phase.sin() * unit(j, 1000 + r)
            })
            .sum();
        3.0 + unit(j, 7) + signal + 1e-3 * unit(i, j)
    })
}

#[test]
fn a_fit_materializes_the_requested_axes_and_the_detector_cannot_tell() {
    // The two shapes a canonical refit round fits: Geant's entropy window
    // (rows < cols: Gram) and Abilene's (rows > cols: dense).
    let m = 10;
    let alpha = 0.999;
    for (p, engine) in [(484usize, FitStrategy::Gram), (121, FitStrategy::Full)] {
        let x = low_rank_window(648, p);
        let n = 4 * p;
        let what = format!("648 x {n}");
        let lean = Pca::fit_with(&x, FitStrategy::Auto, DimSelection::Fixed(m)).unwrap();
        let oracle = match engine {
            FitStrategy::Gram => Pca::fit_gram(&x),
            _ => Pca::fit(&x),
        }
        .unwrap();
        assert_eq!(lean.strategy(), engine, "{what}");
        assert_eq!(lean.n_axes(), m, "{what}");
        // Centring costs one rank: 647 axes from 648 rows, or all 484.
        let rank = n.min(648 - 1);
        assert_eq!(
            oracle.n_axes(),
            rank,
            "{what}: the oracle carries every axis"
        );

        // Every eigenvalue survives — the residual ones are the threshold's
        // whole input — so Jackson–Mudholkar cannot move by a bit.
        assert_eq!(lean.eigenvalues().len(), n, "{what}");
        assert_eq!(
            bits(lean.eigenvalues()),
            bits(oracle.eigenvalues()),
            "{what}"
        );
        let nonzero = |pca: &Pca| pca.eigenvalues().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero(&lean), nonzero(&oracle), "{what}");
        assert_eq!(nonzero(&lean), rank, "{what}: a truncated spectrum");
        let jm = |pca: &Pca| {
            let sums = pca.residual_power_sums(m).unwrap();
            entromine::subspace::q_threshold_from_power_sums(&sums, alpha).unwrap()
        };
        assert_eq!(jm(&lean).to_bits(), jm(&oracle).to_bits(), "{what}: JM");

        // Every training row scores the same through the production plane.
        let floor = 1e-12 * lean.total_variance();
        let scores = |pca: &Pca| {
            let mut out = Vec::new();
            pca.score_plan(m)
                .unwrap()
                .spe_t2_batch(x.row_iter(), pca.eigenvalues(), floor, &mut out)
                .unwrap();
            out
        };
        for (i, (a, b)) in scores(&lean).into_iter().zip(scores(&oracle)).enumerate() {
            assert!(
                (a.0 - b.0).abs() <= 1e-9 * b.0,
                "{what} row {i}: SPE {a:?} vs {b:?}"
            );
            assert!(
                (a.1 - b.1).abs() <= 1e-9 * b.1,
                "{what} row {i}: T2 {a:?} vs {b:?}"
            );
        }

        // Identification reads the leading m columns and the threshold: the
        // lean model blames what the other engine's model blames.
        let other = match engine {
            FitStrategy::Gram => FitStrategy::Full,
            _ => FitStrategy::Gram,
        };
        let fit = |s| MultiwayModel::fit_unfolded(x.clone(), DimSelection::Fixed(m), s).unwrap();
        let (auto, cross) = (fit(FitStrategy::Auto), fit(other));
        assert_eq!(auto.inner().pca().strategy(), engine, "{what}");
        assert_eq!(auto.inner().pca().n_axes(), m, "{what}");
        let mut injected = x.row(300).to_vec();
        for (feature, bump) in [30.0, -20.0, 16.0, 40.0].into_iter().enumerate() {
            injected[feature * p + 3] += bump;
            injected[feature * p + 77] -= 0.7 * bump;
        }
        let blamed = |model: &MultiwayModel| -> Vec<usize> {
            let threshold = model.inner().threshold(alpha).unwrap();
            let found = model.identify(&injected, threshold, 4).unwrap();
            found.iter().map(|c| c.flow).collect()
        };
        assert_eq!(blamed(&auto), blamed(&cross), "{what}");
        assert_eq!(blamed(&auto)[..2], [3, 77], "{what}");
    }
}

#[test]
fn a_variance_fraction_fit_is_the_fixed_fit_of_the_dimension_it_resolves_to() {
    for p in [484usize, 121] {
        let x = low_rank_window(648, p);
        let by_fraction =
            SubspaceModel::fit_with(&x, DimSelection::VarianceFraction(0.85), FitStrategy::Auto)
                .unwrap();
        let m = by_fraction.normal_dim();
        assert!((2..14).contains(&m), "p={p}: resolved m={m}");
        assert_eq!(by_fraction.pca().n_axes(), m, "p={p}");
        let fixed = SubspaceModel::fit_with(&x, DimSelection::Fixed(m), FitStrategy::Auto).unwrap();
        assert_eq!(by_fraction.pca().strategy(), fixed.pca().strategy());
        for policy in [
            ThresholdPolicy::JacksonMudholkar,
            ThresholdPolicy::Empirical,
        ] {
            assert_eq!(
                by_fraction.threshold_with(0.999, policy).unwrap().to_bits(),
                fixed.threshold_with(0.999, policy).unwrap().to_bits(),
                "p={p}: {policy:?}"
            );
        }
        assert_eq!(
            bits(by_fraction.pca().components().as_slice()),
            bits(fixed.pca().components().as_slice()),
            "p={p}: axes"
        );
        assert_eq!(
            bits(by_fraction.calibration()),
            bits(fixed.calibration()),
            "p={p}: calibration sample"
        );
    }
}
