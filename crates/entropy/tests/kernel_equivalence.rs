//! Equivalence pins for the entropy crate's SIMD kernel tier.
//!
//! * The **`Σ n·log2 n` reduction is tolerance-pinned**: the multi-lane
//!   compensated kernel must agree with the sequential scalar reference
//!   to 1e-13 relative, including across the `n·log2 n` lookup-table
//!   cutoff at 1024. CI re-runs this suite under
//!   `ENTROMINE_FORCE_SCALAR=1` to pin the auto-dispatch seam itself.
//! * The **flat histogram's public observables** are pinned across its
//!   growth boundary (the load-factor-triggered rehash).

use entromine_entropy::kernel::{available_backends, term_sum_on, Backend};
use entromine_entropy::{entropy_from_sorted_counts, sample_entropy, FeatureHistogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn term_sum_backends_agree(
        groups in proptest::collection::vec((1u64..200_000, 1u64..2_000), 0..300),
    ) {
        let reference = term_sum_on(Backend::Scalar, groups.iter().copied());
        for backend in available_backends() {
            let got = term_sum_on(backend, groups.iter().copied());
            let rel = (got - reference).abs() / reference.abs().max(1.0);
            prop_assert!(
                rel <= 1e-13,
                "term_sum on {:?}: {} vs scalar {} (rel {})", backend, got, reference, rel
            );
        }
    }

    #[test]
    fn histogram_counts_survive_growth_under_dispatch(
        values in proptest::collection::vec((0u32..500, 1u64..50), 1..200),
    ) {
        // The flat table must agree with a plain reference map through
        // however many rehashes occur.
        let mut h = FeatureHistogram::new();
        let mut reference = std::collections::BTreeMap::new();
        for &(v, n) in &values {
            h.add_n(v, n);
            *reference.entry(v).or_insert(0u64) += n;
        }
        prop_assert_eq!(h.distinct(), reference.len());
        for (&v, &n) in &reference {
            prop_assert_eq!(h.count(v), n, "count of {}", v);
        }
    }
}

/// The load-factor growth boundary: MIN_CAP is 32 and tables grow at
/// half full, so distinct counts 15 → 16 → 17 straddle the first rehash.
/// Counts, distinct, and lookups must be unperturbed on every side, and
/// a pre-sized table (different capacity history) must compare equal.
#[test]
fn growth_boundary_preserves_observables() {
    for boundary in [15u32, 16, 17, 63, 64, 65] {
        let mut grown = FeatureHistogram::new();
        for v in 0..boundary {
            grown.add_n(v, u64::from(v) + 1);
        }
        let mut presized = FeatureHistogram::with_capacity(boundary as usize);
        for v in (0..boundary).rev() {
            presized.add_n(v, u64::from(v) + 1);
        }
        assert_eq!(
            grown.distinct(),
            boundary as usize,
            "distinct at {boundary}"
        );
        for v in 0..boundary {
            assert_eq!(grown.count(v), u64::from(v) + 1, "count {v} at {boundary}");
        }
        assert_eq!(grown.count(boundary + 1), 0);
        assert_eq!(
            grown, presized,
            "multiset equality across capacity histories at {boundary}"
        );
        assert_eq!(
            sample_entropy(&grown),
            sample_entropy(&presized),
            "entropy across capacity histories at {boundary}"
        );
    }
}

/// Counts straddling the `n·log2 n` lookup-table cutoff (1024): the
/// dispatched entropy must match the canonical sorted-counts reduction
/// bit-for-bit (same process, same backend) and the direct formula to
/// high accuracy.
#[test]
fn entropy_term_table_cutoff_edge() {
    let counts = [1022u64, 1023, 1024, 1025];
    let mut h = FeatureHistogram::new();
    for (i, &n) in counts.iter().enumerate() {
        h.add_n(i as u32, n);
    }
    let total: u64 = counts.iter().sum();
    assert_eq!(
        sample_entropy(&h),
        entropy_from_sorted_counts(total, &counts),
        "histogram path must equal the canonical sorted-counts path"
    );
    let s = total as f64;
    let direct: f64 = -counts
        .iter()
        .map(|&n| (n as f64 / s) * (n as f64 / s).log2())
        .sum::<f64>();
    assert!(
        (sample_entropy(&h) - direct).abs() <= 1e-12,
        "entropy near table cutoff: {} vs direct {}",
        sample_entropy(&h),
        direct
    );
    // The reduction itself, pinned across backends right at the edge.
    let groups: Vec<(u64, u64)> = counts.iter().map(|&c| (c, 1)).collect();
    let reference = term_sum_on(Backend::Scalar, groups.iter().copied());
    for backend in available_backends() {
        let got = term_sum_on(backend, groups.iter().copied());
        let rel = (got - reference).abs() / reference.abs().max(1.0);
        assert!(
            rel <= 1e-13,
            "cutoff terms on {backend:?}: {got} vs {reference}"
        );
    }
}
