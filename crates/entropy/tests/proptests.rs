//! Property-based tests for histograms and entropy metrics.

use entromine_entropy::{sample_entropy, simpson_index, BinAccumulator, FeatureHistogram};
use entromine_net::{Ipv4, PacketHeader};
use proptest::prelude::*;

fn hist_from(values: &[u32]) -> FeatureHistogram {
    values.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn entropy_bounds(values in proptest::collection::vec(0u32..1000, 0..300)) {
        let h = hist_from(&values);
        let e = sample_entropy(&h);
        prop_assert!(e >= 0.0, "entropy must be nonnegative, got {}", e);
        let n = h.distinct().max(1) as f64;
        prop_assert!(e <= n.log2() + 1e-9, "entropy {} exceeds log2(N) = {}", e, n.log2());
    }

    #[test]
    fn entropy_invariant_under_relabeling(values in proptest::collection::vec(0u32..100, 1..200), offset in 1u32..1_000_000) {
        // Entropy depends only on the multiset of counts, not the labels.
        let h1 = hist_from(&values);
        let relabeled: Vec<u32> = values.iter().map(|v| v.wrapping_add(offset)).collect();
        let h2 = hist_from(&relabeled);
        prop_assert!((sample_entropy(&h1) - sample_entropy(&h2)).abs() < 1e-12);
    }

    #[test]
    fn entropy_invariant_under_count_scaling(values in proptest::collection::vec(0u32..50, 1..100), k in 1u64..20) {
        // Multiplying every count by k leaves the distribution unchanged.
        let h1 = hist_from(&values);
        let mut h2 = FeatureHistogram::new();
        for (v, n) in h1.iter() {
            h2.add_n(v, n * k);
        }
        prop_assert!((sample_entropy(&h1) - sample_entropy(&h2)).abs() < 1e-9);
    }

    #[test]
    fn simpson_in_unit_interval(values in proptest::collection::vec(0u32..500, 0..300)) {
        let s = simpson_index(&hist_from(&values));
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn merge_totals_add(a in proptest::collection::vec(0u32..100, 0..100), b in proptest::collection::vec(0u32..100, 0..100)) {
        let ha = hist_from(&a);
        let hb = hist_from(&b);
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.total(), ha.total() + hb.total());
        prop_assert!(merged.distinct() <= ha.distinct() + hb.distinct());
        prop_assert!(merged.distinct() >= ha.distinct().max(hb.distinct()));
    }

    #[test]
    fn rank_order_sums_to_total(values in proptest::collection::vec(0u32..200, 0..200)) {
        let h = hist_from(&values);
        let ranked = h.rank_ordered_counts();
        prop_assert_eq!(ranked.iter().sum::<u64>(), h.total());
        // Must be non-increasing.
        for w in ranked.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn accumulator_entropy_matches_direct_histograms(
        srcs in proptest::collection::vec(0u32..20, 1..100),
        dport in 0u16..1024,
    ) {
        let packets: Vec<PacketHeader> = srcs
            .iter()
            .map(|&s| PacketHeader::tcp(Ipv4(s), 1234, Ipv4(42), dport, 100, 0))
            .collect();
        let mut acc = BinAccumulator::new();
        acc.add_packets(&packets);
        let summary = acc.summarize();

        let h = hist_from(&srcs);
        prop_assert!((summary.entropy[0] - sample_entropy(&h)).abs() < 1e-12);
        // Single destination port: zero entropy.
        prop_assert_eq!(summary.entropy[3], 0.0);
        prop_assert_eq!(summary.packets, packets.len() as u64);
    }
}
