//! Sketched-tier equivalence and error-bound pins — the contract of the
//! bounded-memory scale tier.
//!
//! Three promises are pinned here, on identical synth feeds:
//!
//! 1. **Documented error bound.** For any offered multiset and any
//!    budget, the sketch's entropy estimate lands within
//!    [`SketchHistogram::error_bound_against`] of the exact plane's value
//!    — fixed feeds plus a proptest sweep. Under budget the bound is zero
//!    and the estimate is the exact value bit for bit.
//! 2. **Purity of the sketched plane.** The sketch's state is a pure
//!    function of the offered multiset, so the sketched serial per-event,
//!    serial batched, and sharded (1/2/7/16, in-order and shuffled
//!    batches) planes all emit bit-identical `FinalizedBin` rows — the
//!    same equivalence discipline the exact tier pins in
//!    `shard_equivalence.rs`, now per tier.
//! 3. **Bounded memory where exact is not.** On a feed with ≥ 1e6
//!    distinct keys the exact histogram's heap scales with the key count
//!    while the sketch stays under its precomputed
//!    [`SketchHistogram::heap_ceiling`] at every step, with entropy still
//!    inside the documented bound.
//!
//! CI runs this file as the named `sketch-equivalence` step.

mod common;

use common::family_key;
use entromine_entropy::shard::ShardedGridBuilder;
use entromine_entropy::stream::{StreamConfig, StreamingGridBuilder};
use entromine_entropy::{
    AccumulatorPolicy, FeatureHistogram, FinalizedBin, SketchHistogram, SketchParams, FEATURES,
};
use entromine_net::{Ipv4, PacketHeader, Topology};
use entromine_synth::{DatasetConfig, SyntheticNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn sketch_of(params: SketchParams, entries: &[(u32, u64)]) -> SketchHistogram {
    let mut sk = SketchHistogram::new(params);
    for &(v, n) in entries {
        sk.offer_n(v, n);
    }
    sk
}

fn exact_of(entries: &[(u32, u64)]) -> FeatureHistogram {
    let mut h = FeatureHistogram::new();
    for &(v, n) in entries {
        h.add_n(v, n);
    }
    h
}

/// Asserts the documented bound for one multiset and budget, returning
/// the absolute error actually observed.
fn assert_within_bound(entries: &[(u32, u64)], budget: usize) -> f64 {
    let exact = exact_of(entries);
    let sk = sketch_of(SketchParams { budget }, entries);
    let err = (sk.entropy() - entromine_entropy::sample_entropy(&exact)).abs();
    let bound = sk.error_bound_against(&exact);
    assert!(
        err <= bound,
        "budget {budget}: |Ĥ − H| = {err} exceeds documented bound {bound} \
         (level {}, {} retained of {} distinct)",
        sk.level(),
        sk.retained(),
        exact.distinct()
    );
    err
}

// ---------------------------------------------------------------------------
// 1. Error bound, fixed feeds
// ---------------------------------------------------------------------------

#[test]
fn under_budget_sketch_is_bitwise_exact() {
    let entries: Vec<(u32, u64)> = (0..100u32).map(|v| (v * 17, 1 + (v as u64 % 5))).collect();
    let exact = exact_of(&entries);
    let sk = sketch_of(SketchParams { budget: 128 }, &entries);
    assert_eq!(sk.level(), 0);
    assert_eq!(sk.entropy(), entromine_entropy::sample_entropy(&exact));
    assert_eq!(sk.error_bound_against(&exact), 0.0);
}

#[test]
fn dispersed_feed_within_bound() {
    // A scan-shaped feed: hundreds of thousands of near-singleton keys —
    // the regime the sketched tier exists for. All-singleton is estimated
    // exactly; mixing in light repeats exercises the HT estimator.
    for budget in [64usize, 512, 4096] {
        let entries: Vec<(u32, u64)> = (0..300_000u32)
            .map(|v| (v.wrapping_mul(2_654_435_761), 1 + (v as u64 % 2)))
            .collect();
        assert_within_bound(&entries, budget);
    }
}

#[test]
fn skewed_feed_within_bound() {
    // Zipf-ish: a few heavy hitters over a dispersed tail. The bound is
    // loose here (heavy hitters inflate Σf²) but must still hold.
    let mut entries: Vec<(u32, u64)> = (0..50_000u32)
        .map(|v| (v.wrapping_mul(0x9E37_79B9), 1))
        .collect();
    for (rank, e) in entries.iter_mut().take(20).enumerate() {
        e.1 = 200_000 / (rank as u64 + 1);
    }
    for budget in [256usize, 2048] {
        assert_within_bound(&entries, budget);
    }
}

#[test]
fn all_singleton_flood_estimated_exactly() {
    // The pure-scan case: every count is 1, T = T̂ = 0 at every level, so
    // the estimate is exact no matter how deep the sampling goes.
    let entries: Vec<(u32, u64)> = (0..200_000u32)
        .map(|v| (v.wrapping_mul(0x0100_0193), 1))
        .collect();
    let exact = exact_of(&entries);
    let sk = sketch_of(SketchParams { budget: 32 }, &entries);
    assert!(sk.level() > 0);
    assert_eq!(sk.entropy(), entromine_entropy::sample_entropy(&exact));
}

// ---------------------------------------------------------------------------
// 2. Sketched-plane purity: serial / batched / sharded bit-identity
// ---------------------------------------------------------------------------

fn traffic(seed: u64, n_flows: usize, n_bins: usize, per_bin: usize) -> Vec<(usize, PacketHeader)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for bin in 0..n_bins {
        for _ in 0..per_bin {
            let flow = rng.random_range(0..n_flows);
            let ts = bin as u64 * 300 + rng.random_range(0..300);
            let pkt = PacketHeader::tcp(
                // A wide source space so cells overflow small budgets and
                // the sketch really samples.
                Ipv4(rng.random_range(0..1_000_000)),
                rng.random_range(1024..2048),
                Ipv4(rng.random_range(0..100)),
                [80u16, 443, 53, 22][rng.random_range(0..4)],
                40 + rng.random_range(0..1400),
                ts,
            );
            out.push((flow, pkt));
        }
    }
    out
}

fn run_sketched_serial(
    params: SketchParams,
    config: &StreamConfig,
    events: &[(usize, PacketHeader)],
) -> Vec<FinalizedBin> {
    let mut b =
        StreamingGridBuilder::<SketchHistogram>::with_params(config.clone(), params).unwrap();
    for &(flow, ref pkt) in events {
        b.offer_packet(flow, pkt).unwrap();
    }
    b.finish()
}

#[test]
fn sketched_plane_is_order_batch_and_shard_invariant() {
    let config = StreamConfig::new(5);
    let params = SketchParams { budget: 48 };
    let events = traffic(42, 5, 4, 800);
    let reference = run_sketched_serial(params, &config, &events);
    assert!(!reference.is_empty());

    // Shuffled batched serial offers.
    let mut shuffled = events.clone();
    shuffled.reverse();
    let mut batched =
        StreamingGridBuilder::<SketchHistogram>::with_params(config.clone(), params).unwrap();
    for chunk in shuffled.chunks(173) {
        batched.offer_packets(chunk).unwrap();
    }
    assert_eq!(batched.finish(), reference, "batched ≠ per-event");

    // Sharded planes at every shard count, batch path, in offer order and
    // shuffled (both segmentations straddle bins).
    for shards in SHARD_COUNTS {
        for (label, feed, chunk) in [("in order", &events, 311), ("shuffled", &shuffled, 173)] {
            let mut sharded =
                ShardedGridBuilder::<SketchHistogram>::with_params(config.clone(), shards, params)
                    .unwrap();
            for batch in feed.chunks(chunk) {
                sharded.offer_packets(batch).unwrap();
            }
            assert_eq!(
                sharded.finish(),
                reference,
                "shards={shards} {label} ≠ serial"
            );
        }
    }

    // And the run-time facade resolves to the same plane.
    let mut via_policy = AccumulatorPolicy::Sketched { budget: 48 }
        .sharded(config, 7)
        .unwrap();
    via_policy.offer_packets(&events).unwrap();
    assert_eq!(via_policy.finish(), reference);
}

#[test]
fn under_budget_sketched_plane_matches_exact_plane_bitwise() {
    // Key spaces small enough to fit the budget: the sketched plane must
    // be indistinguishable from the exact plane, row for row, bit for bit.
    let config = StreamConfig::new(3);
    let mut rng = StdRng::seed_from_u64(7);
    let events: Vec<(usize, PacketHeader)> = (0..3_000)
        .map(|i| {
            (
                rng.random_range(0..3),
                PacketHeader::tcp(
                    Ipv4(rng.random_range(0..40)),
                    rng.random_range(1024..1040),
                    Ipv4(rng.random_range(0..10)),
                    80,
                    100,
                    (i as u64 * 7) % 1500,
                ),
            )
        })
        .collect();
    let mut exact = StreamingGridBuilder::new(config.clone()).unwrap();
    for &(flow, ref pkt) in &events {
        exact.offer_packet(flow, pkt).unwrap();
    }
    let sketched = run_sketched_serial(SketchParams { budget: 4096 }, &config, &events);
    assert_eq!(exact.finish(), sketched);
}

// ---------------------------------------------------------------------------
// 3. Plane-level error bound: every bin, every flow, every feature
// ---------------------------------------------------------------------------

#[test]
fn sketched_plane_rows_within_bound_of_exact_rows_on_every_bin() {
    let config = StreamConfig::new(4);
    let budget = 64usize;
    let events = traffic(1234, 4, 3, 1500);

    let mut exact = StreamingGridBuilder::new(config.clone()).unwrap();
    for &(flow, ref pkt) in &events {
        exact.offer_packet(flow, pkt).unwrap();
    }
    let exact_bins = exact.finish();
    let sketched_bins = run_sketched_serial(SketchParams { budget }, &config, &events);
    assert_eq!(exact_bins.len(), sketched_bins.len());

    // Rebuild each cell's per-feature multisets to compute the bound the
    // documented way, then hold every emitted entropy to it.
    let mut checked = 0usize;
    for (eb, sb) in exact_bins.iter().zip(&sketched_bins) {
        assert_eq!(eb.bin, sb.bin);
        for flow in 0..4usize {
            for (k, feature) in entromine_entropy::FEATURES.into_iter().enumerate() {
                let entries: Vec<(u32, u64)> = {
                    let mut h = FeatureHistogram::new();
                    for &(f, ref p) in &events {
                        if f == flow && (p.timestamp / 300) as usize == eb.bin {
                            h.add(feature.extract(p));
                        }
                    }
                    h.iter().collect()
                };
                let exact_h = exact_of(&entries);
                let sk = sketch_of(SketchParams { budget }, &entries);
                // The plane's cell is the same pure function of the
                // multiset as direct accumulation.
                assert_eq!(sb.summaries[flow].entropy[k], sk.entropy());
                let err = (sb.summaries[flow].entropy[k] - eb.summaries[flow].entropy[k]).abs();
                let bound = sk.error_bound_against(&exact_h);
                assert!(
                    err <= bound,
                    "bin {} flow {flow} feature {feature:?}: err {err} > bound {bound}",
                    eb.bin
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * 4 * exact_bins.len());
}

// ---------------------------------------------------------------------------
// 4. Bounded memory at the 1e6-distinct scale
// ---------------------------------------------------------------------------

#[test]
fn million_distinct_keys_bounded_under_ceiling_while_exact_is_not() {
    let budget = 4096usize;
    let ceiling = SketchHistogram::heap_ceiling(budget);
    let mut exact = FeatureHistogram::new();
    let mut sk = SketchHistogram::new(SketchParams { budget });
    let mut peak = 0usize;
    // 1,048,576 distinct keys spread over the u32 space, mildly weighted.
    let n = 1u32 << 20;
    for i in 0..n {
        let v = i.wrapping_mul(2_654_435_761);
        let w = 1 + (i as u64 & 7);
        exact.add_n(v, w);
        sk.offer_n(v, w);
        peak = peak.max(sk.heap_bytes());
    }
    assert_eq!(exact.distinct(), n as usize);
    assert!(
        exact.heap_bytes() > 8 * ceiling,
        "exact tier must blow through the sketch ceiling for this pin to mean anything \
         (exact {} vs ceiling {ceiling})",
        exact.heap_bytes()
    );
    assert!(
        peak <= ceiling,
        "sketch peak {peak} exceeded its ceiling {ceiling}"
    );
    let err = (sk.entropy() - entromine_entropy::sample_entropy(&exact)).abs();
    let bound = sk.error_bound_against(&exact);
    assert!(err <= bound, "err {err} > bound {bound} at 1e6 distinct");
}

// ---------------------------------------------------------------------------
// 5. Property sweeps
// ---------------------------------------------------------------------------

/// Bins × OD flows of the Abilene feed the error-bound sweep draws cells
/// from: ten bins at 1-in-100 sampling and 0.2 traffic scale, about a
/// thousand packets per cell.
const ABILENE_CELLS: usize = 10 * 121;

/// The packets of cell `index` (bin-major) of that feed.
fn abilene_cell_packets(index: usize) -> Vec<PacketHeader> {
    static NET: OnceLock<SyntheticNetwork> = OnceLock::new();
    let net = NET.get_or_init(|| {
        let config = DatasetConfig {
            seed: 9,
            n_bins: 10,
            sample_rate: 100,
            traffic_scale: 0.2,
            rate_noise: 0.02,
            anonymize: false,
        };
        SyntheticNetwork::new(Topology::abilene(), config)
    });
    net.cell_packets(index / 121, index % 121, &[])
}

// ---------------------------------------------------------------------------
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_entropy_error_within_documented_bound(
        seed in 0u64..1_000_000,
        budget in 8usize..512,
        distinct in 1usize..20_000,
        max_weight in 1u64..64,
        family in 0u8..3,
        abilene_cell in 0usize..ABILENE_CELLS,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<(u32, u64)> = (0..distinct)
            .map(|_| {
                let key = family_key(family, rng.random_range(0..u32::MAX));
                (key, rng.random_range(1..max_weight + 1))
            })
            .collect();
        assert_within_bound(&entries, budget);
        // The same bound on every feature of one real synthetic Abilene
        // cell, whose service mixes and address pools no uniform draw
        // reproduces.
        let packets = abilene_cell_packets(abilene_cell);
        for feature in FEATURES {
            let exact: FeatureHistogram = packets.iter().map(|p| feature.extract(p)).collect();
            assert_within_bound(&exact.iter().collect::<Vec<_>>(), budget);
        }
    }

    #[test]
    fn prop_sketch_state_is_pure_function_of_multiset(
        seed in 0u64..1_000_000,
        budget in 4usize..256,
        family in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<(u32, u64)> = (0..2_000)
            .map(|_| {
                let key = family_key(family, rng.random_range(0..100_000));
                (key, rng.random_range(1..5))
            })
            .collect();
        let params = SketchParams { budget };
        let forward = sketch_of(params, &entries);
        // Reversed order, split into two merged halves, and unit-weight
        // replay must all land on the identical state.
        let mut reversed: Vec<(u32, u64)> = entries.clone();
        reversed.reverse();
        prop_assert_eq!(&sketch_of(params, &reversed), &forward);
        let (a, b) = entries.split_at(entries.len() / 2);
        let mut merged = sketch_of(params, a);
        merged.merge_from(&sketch_of(params, b));
        prop_assert_eq!(&merged, &forward);
        prop_assert_eq!(merged.entropy(), forward.entropy());
    }

    #[test]
    fn prop_sketched_shard_counts_agree(seed in 0u64..10_000, budget in 8usize..96) {
        let config = StreamConfig::new(4);
        let params = SketchParams { budget };
        let events = traffic(seed, 4, 2, 300);
        let reference = run_sketched_serial(params, &config, &events);
        for shards in [2usize, 7] {
            let mut b = ShardedGridBuilder::<SketchHistogram>::with_params(
                config.clone(), shards, params).unwrap();
            b.offer_packets(&events).unwrap();
            prop_assert_eq!(&b.finish(), &reference, "shards={}", shards);
        }
    }

    #[test]
    fn prop_heap_never_exceeds_ceiling(seed in 0u64..10_000, budget in 1usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sk = SketchHistogram::new(SketchParams { budget });
        let ceiling = SketchHistogram::heap_ceiling(budget);
        for _ in 0..20_000 {
            sk.offer_n(rng.random_range(0..u32::MAX), rng.random_range(1..4));
            prop_assert!(sk.heap_bytes() <= ceiling);
        }
        prop_assert!(sk.retained() <= budget);
    }
}
