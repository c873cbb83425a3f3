//! Flat-table vs reference-map histogram equivalence, and high-precision
//! pinning of the compensated entropy sum.
//!
//! The flat [`FeatureHistogram`] is only admissible while every
//! observable — totals, per-value counts, distinct counts, top-k, rank
//! order, and entropy — agrees *exactly* with the pinned `HashMap`-backed
//! [`MapHistogram`] reference on the same operation sequence. Entropy
//! additionally must be a pure function of the count multiset: any
//! insertion order, capacity history, or merge split of the same traffic
//! must produce bit-identical values.
//!
//! The second half pins the Neumaier-compensated summation inside
//! [`entropy_from_sorted_counts`] against a double-double (~106-bit)
//! re-computation, including the adversarial shape called out in the
//! issue: one giant count drowning a sea of singletons.

mod common;

use common::family_key;
use entromine_entropy::{
    entropy_from_sorted_counts, sample_entropy, FeatureHistogram, MapHistogram,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Observational equivalence: flat table vs reference map
// ---------------------------------------------------------------------

/// One step of a histogram workload, decoded from a generated tuple:
/// selector 0 is `add`, 1 is `add_n` (weights include 0, a no-op, and
/// large jumps), 2 is a merge of a histogram expanded deterministically
/// from the seed. Keys deliberately include 0 and clustered ranges, and
/// are mapped through [`family_key`] into the family under test.
type RawOp = (u8, u32, u64);

fn merge_values(seed: u64, family: u8) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(0..40);
    (0..len)
        .map(|_| family_key(family, rng.random_range(0..200)))
        .collect()
}

fn apply(ops: &[RawOp], family: u8) -> (FeatureHistogram, MapHistogram) {
    let mut flat = FeatureHistogram::new();
    let mut map = MapHistogram::new();
    for &(sel, v, n) in ops {
        match sel % 3 {
            0 => {
                let v = family_key(family, v);
                flat.add(v);
                map.add(v);
            }
            1 => {
                let v = family_key(family, v % 50);
                flat.add_n(v, n);
                map.add_n(v, n);
            }
            _ => {
                let values = merge_values(v as u64 ^ n, family);
                let mf: FeatureHistogram = values.iter().copied().collect();
                let mut mm = MapHistogram::new();
                for &v in &values {
                    mm.add(v);
                }
                flat.merge(&mf);
                map.merge(&mm);
            }
        }
    }
    (flat, map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_matches_map_on_random_op_sequences(
        ops in proptest::collection::vec((0u8..3, 0u32..400, 0u64..1000), 0..60),
        probes in proptest::collection::vec(0u32..450, 0..20),
        k in 0usize..30,
        family in 0u8..3,
    ) {
        let (flat, map) = apply(&ops, family);
        prop_assert_eq!(flat.total(), map.total());
        prop_assert_eq!(flat.distinct(), map.distinct());
        prop_assert_eq!(flat.is_empty(), map.total() == 0);
        for v in probes {
            let v = family_key(family, v);
            prop_assert_eq!(flat.count(v), map.count(v), "count({}) diverged", v);
        }
        // Every entry the map holds, the flat table holds, and vice versa
        // (iter order is unspecified on both sides; compare as sets).
        let mut a: Vec<(u32, u64)> = flat.iter().collect();
        let mut b: Vec<(u32, u64)> = map.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert_eq!(flat.counts_sorted(), map.counts_sorted());
        prop_assert_eq!(flat.rank_ordered_counts(), map.rank_ordered_counts());
        prop_assert_eq!(flat.top_k(k), map.top_k(k), "top_k({}) diverged", k);
        // Entropy through the shared canonical core must agree bitwise.
        let flat_entropy = sample_entropy(&flat);
        let map_entropy = entropy_from_sorted_counts(map.total(), &map.counts_sorted());
        prop_assert_eq!(flat_entropy.to_bits(), map_entropy.to_bits());
    }

    #[test]
    fn entropy_is_a_pure_function_of_the_multiset(
        values in proptest::collection::vec((0u32..100, 1u64..50), 1..80),
        seed in 0u64..1000,
        cap in 0usize..600,
        split in 0usize..80,
        family in 0u8..3,
    ) {
        let values: Vec<(u32, u64)> =
            values.into_iter().map(|(v, n)| (family_key(family, v), n)).collect();
        // Build the same multiset four ways: in order, shuffled, into a
        // pre-sized table, and via a merge of two halves. All four must
        // produce bit-identical entropy (and equal histograms).
        let mut in_order = FeatureHistogram::new();
        for &(v, n) in &values {
            in_order.add_n(v, n);
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled_values = values.clone();
        for i in (1..shuffled_values.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled_values.swap(i, j);
        }
        let mut shuffled = FeatureHistogram::new();
        for &(v, n) in &shuffled_values {
            shuffled.add_n(v, n);
        }

        let mut presized = FeatureHistogram::with_capacity(cap);
        for &(v, n) in &shuffled_values {
            presized.add_n(v, n);
        }

        let split = split.min(values.len());
        let mut merged = FeatureHistogram::new();
        for &(v, n) in &values[..split] {
            merged.add_n(v, n);
        }
        let mut other = FeatureHistogram::new();
        for &(v, n) in &values[split..] {
            other.add_n(v, n);
        }
        merged.merge(&other);

        let reference = sample_entropy(&in_order);
        for (label, h) in [("shuffled", &shuffled), ("presized", &presized), ("merged", &merged)] {
            prop_assert_eq!(&in_order, h, "{} multiset diverged", label);
            prop_assert_eq!(
                reference.to_bits(),
                sample_entropy(h).to_bits(),
                "{} entropy not bit-identical", label
            );
        }
    }
}

// ---------------------------------------------------------------------
// High-precision pinning of the compensated entropy sum
// ---------------------------------------------------------------------

/// A double-double value `hi + lo` with ~106 significand bits.
#[derive(Debug, Clone, Copy)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };

    /// Error-free transformation: `a + b = s + e` exactly.
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        let e = (a - (s - bb)) + (b - bb);
        (s, e)
    }

    fn add(self, x: f64) -> Dd {
        let (s, e) = Dd::two_sum(self.hi, x);
        let lo = self.lo + e;
        let (hi, lo) = Dd::two_sum(s, lo);
        Dd { hi, lo }
    }

    fn value(self) -> f64 {
        self.hi + self.lo
    }
}

/// The entropy formula re-evaluated with a double-double accumulator:
/// every `n·log2 n` term added individually (no grouping), in the given
/// order.
fn entropy_dd(total: u64, counts: &[u64]) -> f64 {
    if total == 0 || counts.len() <= 1 {
        return 0.0;
    }
    let mut t = Dd::ZERO;
    for &c in counts {
        if c > 1 {
            let x = c as f64;
            t = t.add(x * x.log2());
        }
    }
    let s = total as f64;
    (s.log2() - t.value() / s).max(0.0)
}

/// |a - b| in units of `b`'s ulp (for finite, same-sign values).
fn ulps_apart(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

#[test]
fn compensated_entropy_matches_double_double_on_giant_plus_singletons() {
    // The issue's adversarial shape: one giant count plus a sea of
    // singletons. The giant's term has magnitude ~2^69 while every
    // singleton contributes exactly zero; a naive accumulation in an
    // unlucky order would shed all the singleton structure. Entropy here
    // is small (the distribution is almost a point mass), so the final
    // subtraction log2(S) − T/S is also a cancellation stress.
    for singletons in [10u64, 1_000, 100_000] {
        for giant in [1u64 << 20, 1u64 << 40, 1_000_000_007_000] {
            let mut counts = vec![1u64; singletons as usize];
            counts.push(giant);
            let total = giant + singletons;
            let h = entropy_from_sorted_counts(total, &counts);
            let r = entropy_dd(total, &counts);
            assert!(
                (h - r).abs() <= 1e-13 * r.abs().max(1.0) || ulps_apart(h, r) <= 8,
                "giant={giant} singletons={singletons}: {h:e} vs dd {r:e}"
            );
            assert!(h > 0.0, "mixture must have positive entropy");
        }
    }
}

#[test]
fn compensated_entropy_matches_double_double_on_wide_magnitude_spread() {
    // Terms spanning ~15 orders of magnitude, many near-duplicates: the
    // grouped Neumaier sum must track the double-double reference to a
    // few ulps even though naive f64 summation would lose the tail.
    let mut rng = StdRng::seed_from_u64(0xE27);
    for round in 0..20 {
        let mut counts: Vec<u64> = Vec::new();
        counts.push(1 + rng.random_range(0..u64::pow(10, 12)));
        for _ in 0..rng.random_range(1..400) {
            let mag = rng.random_range(0..10u32);
            counts.push(1 + rng.random_range(0..u64::pow(10, mag)));
        }
        let singletons = rng.random_range(0..2000);
        counts.resize(counts.len() + singletons, 1);
        counts.sort_unstable();
        let total: u64 = counts.iter().sum();
        let h = entropy_from_sorted_counts(total, &counts);
        let r = entropy_dd(total, &counts);
        assert!(
            (h - r).abs() <= 1e-13 * r.abs().max(1.0) || ulps_apart(h, r) <= 8,
            "round {round}: {h:e} vs dd {r:e} ({} ulps)",
            ulps_apart(h, r)
        );
    }
}

#[test]
fn compensated_entropy_matches_textbook_formula() {
    // Cross-check against the paper's -Σ p log2 p form evaluated in
    // double-double, on assorted well-conditioned histograms.
    let cases: Vec<Vec<u64>> = vec![
        vec![1, 1, 1, 1],
        vec![2, 3, 5, 7, 11, 13],
        vec![1, 10, 100, 1000, 10_000],
        (1..=500u64).collect(),
        vec![1_000_000_000, 1, 1, 1],
    ];
    for counts in cases {
        let total: u64 = counts.iter().sum();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let h = entropy_from_sorted_counts(total, &sorted);
        let s = total as f64;
        let mut acc = Dd::ZERO;
        for &c in &counts {
            let p = c as f64 / s;
            acc = acc.add(-p * p.log2());
        }
        let reference = acc.value().max(0.0);
        assert!(
            (h - reference).abs() <= 1e-12 * reference.max(1.0),
            "counts {counts:?}: {h} vs {reference}"
        );
    }
}

// ---------------------------------------------------------------------
// The u32::MAX side-counter path
// ---------------------------------------------------------------------
//
// The flat table encodes vacancy as key 0 and stores values as
// `value + 1`, so `u32::MAX` is the one value the slot encoding cannot
// represent: it lives in a dedicated side counter. Every observable must
// treat it like any other key — these tests drive the side counter
// through insertion, weighted insertion, merges (in both directions and
// on both sides), multiset equality, and entropy, against the map
// reference.

#[test]
fn max_key_insert_and_count_match_reference() {
    let mut flat = FeatureHistogram::new();
    let mut map = MapHistogram::new();
    for h in [&mut flat as &mut dyn FnMutAdd, &mut map] {
        h.add_pair(u32::MAX, 1);
        h.add_pair(u32::MAX, 2);
        h.add_pair(0, 5);
        h.add_pair(7, 3);
    }
    assert_eq!(flat.total(), map.total());
    assert_eq!(flat.distinct(), 3);
    assert_eq!(flat.count(u32::MAX), 3);
    assert_eq!(flat.count(u32::MAX), map.count(u32::MAX));
    let mut a: Vec<(u32, u64)> = flat.iter().collect();
    a.sort_unstable();
    assert_eq!(a, vec![(0, 5), (7, 3), (u32::MAX, 3)]);
    assert_eq!(flat.counts_sorted(), map.counts_sorted());
    // A zero-weight offer of MAX is a no-op and must not create an entry.
    let mut empty = FeatureHistogram::new();
    empty.add_n(u32::MAX, 0);
    assert_eq!(empty.distinct(), 0);
    assert_eq!(empty.count(u32::MAX), 0);
}

/// Object-safe add helper so the flat and map histograms share one
/// driving loop above.
trait FnMutAdd {
    fn add_pair(&mut self, v: u32, n: u64);
}
impl FnMutAdd for FeatureHistogram {
    fn add_pair(&mut self, v: u32, n: u64) {
        self.add_n(v, n);
    }
}
impl FnMutAdd for MapHistogram {
    fn add_pair(&mut self, v: u32, n: u64) {
        self.add_n(v, n);
    }
}

#[test]
fn max_key_merges_in_both_directions() {
    // MAX only on the receiving side, only on the incoming side, and on
    // both — every combination must sum like an ordinary key.
    let with_max: FeatureHistogram = [u32::MAX, u32::MAX, 3].into_iter().collect();
    let without: FeatureHistogram = [3u32, 4].into_iter().collect();

    let mut recv = with_max.clone();
    recv.merge(&without);
    assert_eq!(recv.count(u32::MAX), 2);
    assert_eq!(recv.count(3), 2);

    let mut send = without.clone();
    send.merge(&with_max);
    assert_eq!(send.count(u32::MAX), 2);
    assert_eq!(send, recv, "merge is multiset-commutative incl. MAX");

    let mut both = with_max.clone();
    both.merge(&with_max);
    assert_eq!(both.count(u32::MAX), 4);
    assert_eq!(both.total(), with_max.total() * 2);

    // Against the map reference, bit for bit on entropy.
    let mut map = MapHistogram::new();
    for (v, n) in recv.iter() {
        map.add_n(v, n);
    }
    assert_eq!(
        sample_entropy(&recv).to_bits(),
        entropy_from_sorted_counts(map.total(), &map.counts_sorted()).to_bits()
    );
}

#[test]
fn max_key_participates_in_multiset_equality() {
    let a: FeatureHistogram = [u32::MAX, 1, u32::MAX].into_iter().collect();
    let b: FeatureHistogram = [1u32, u32::MAX, u32::MAX].into_iter().collect();
    assert_eq!(a, b, "order must not matter");
    let c: FeatureHistogram = [1u32, u32::MAX].into_iter().collect();
    assert_ne!(a, c, "differing MAX count must break equality");
    let d: FeatureHistogram = [1u32, 1, u32::MAX].into_iter().collect();
    assert_ne!(
        a, d,
        "swapping MAX mass onto another key must break equality"
    );
}

#[test]
fn max_key_entropy_equals_relabeled_table() {
    // Entropy is label-blind: {MAX: 4, 9: 2, 0: 1} must produce exactly
    // the entropy of {5: 4, 9: 2, 0: 1} even though MAX's count lives in
    // the side counter rather than the columns.
    let mut with_max = FeatureHistogram::new();
    with_max.add_n(u32::MAX, 4);
    with_max.add_n(9, 2);
    with_max.add_n(0, 1);
    let mut relabeled = FeatureHistogram::new();
    relabeled.add_n(5, 4);
    relabeled.add_n(9, 2);
    relabeled.add_n(0, 1);
    assert_eq!(
        sample_entropy(&with_max).to_bits(),
        sample_entropy(&relabeled).to_bits()
    );
    // top_k sees the side counter too, with the deterministic tie order.
    assert_eq!(with_max.top_k(2), vec![(u32::MAX, 4), (9, 2)]);
}
