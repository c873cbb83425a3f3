//! Dispersion metrics over feature histograms.
//!
//! The paper's central summary is **sample entropy** (§3):
//!
//! ```text
//! H(X) = - Σ_{i=1}^{N} (n_i / S) · log2(n_i / S)
//! ```
//!
//! which is 0 when all observations share one value (maximal concentration)
//! and `log2(N)` when all `N` values are equally common (maximal
//! dispersal). The alternatives here (normalized entropy, Simpson index,
//! Gini coefficient, distinct count) support the ablation benches: the
//! paper notes other dispersion metrics exist but that "entropy works well
//! in practice".
//!
//! # Order independence
//!
//! Every metric here is computed as a function of the histogram's **count
//! multiset**, never of its iteration order: counts are first sorted
//! (ascending), and floating-point reductions run over that canonical
//! order with Neumaier-compensated summation. Entropy is evaluated in the
//! algebraically equivalent form
//!
//! ```text
//! H(X) = log2(S) - (Σ n_i · log2(n_i)) / S
//! ```
//!
//! whose terms are all nonnegative (no intermediate cancellation) and
//! vanish exactly for singleton values. The payoff is that entropy is a
//! *pure function of the multiset*: merging histograms, re-batching
//! events, map-side combining, or resizing tables cannot perturb a single
//! bit of the result — which is precisely the property the ingest plane's
//! bit-identity contract stands on.

use crate::hist::FeatureHistogram;
use std::sync::OnceLock;

/// Precomputed `n · log2(n)` for small counts — the overwhelmingly common
/// case in per-cell feature histograms, where most values occur a handful
/// of times. One table lookup replaces a `log2` call on the finalization
/// path.
const TERM_TABLE_LEN: usize = 1024;

fn count_term_table() -> &'static [f64; TERM_TABLE_LEN] {
    static TABLE: OnceLock<[f64; TERM_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; TERM_TABLE_LEN];
        for (n, slot) in t.iter_mut().enumerate().skip(2) {
            let x = n as f64;
            *slot = x * x.log2();
        }
        t
    })
}

/// `n · log2(n)` with the small-count fast path (0 for `n <= 1`).
#[inline]
pub(crate) fn count_term(n: u64) -> f64 {
    if (n as usize) < TERM_TABLE_LEN {
        count_term_table()[n as usize]
    } else {
        let x = n as f64;
        x * x.log2()
    }
}

/// One step of Neumaier's compensated summation: adds `term` into
/// `(sum, comp)`, capturing the low-order bits ordinary addition drops.
#[inline]
pub(crate) fn neumaier(sum: &mut f64, comp: &mut f64, term: f64) {
    let t = *sum + term;
    if sum.abs() >= term.abs() {
        *comp += (*sum - t) + term;
    } else {
        *comp += (term - t) + *sum;
    }
    *sum = t;
}

/// The canonical entropy reduction: the correction sum
/// `T = Σ multiplicity · (c · log2 c)` over count groups
/// `(c, multiplicity)` in **ascending count order**, with Neumaier
/// compensation, closed with `log2(S) − T/S`. Every entropy path in the
/// crate funnels through this one sequence of floating-point operations,
/// which is what makes the value a pure function of the count multiset.
/// Singletons contribute exactly zero (1 · log2 1): a scan's sea of
/// once-seen ports costs nothing and loses nothing.
///
/// The reduction itself is [`crate::kernel::term_sum`]: a multi-lane
/// compensated kernel on AVX2 hosts, the sequential scalar reference
/// elsewhere (and under `ENTROMINE_FORCE_SCALAR`).
fn entropy_from_count_groups(total: u64, groups: impl Iterator<Item = (u64, u64)>) -> f64 {
    let t = crate::kernel::term_sum(groups);
    let s = total as f64;
    (s.log2() - t / s).max(0.0)
}

/// Groups an ascending count slice into `(count, multiplicity)` pairs.
pub(crate) fn sorted_groups(counts: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= counts.len() {
            return None;
        }
        let c = counts[i];
        let start = i;
        while i < counts.len() && counts[i] == c {
            i += 1;
        }
        Some((c, (i - start) as u64))
    })
}

/// Sample entropy from a canonical (ascending) count multiset — the
/// shared core of [`sample_entropy`], the `MapHistogram` reference path in
/// the equivalence suite, and the high-precision pinning tests.
///
/// `counts` must be sorted ascending; `total` must equal its sum. Equal
/// counts are folded into one weighted term, and the weighted terms are
/// accumulated with Neumaier compensation, so the result is a
/// deterministic pure function of `(total, counts)`.
pub fn entropy_from_sorted_counts(total: u64, counts: &[u64]) -> f64 {
    debug_assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    debug_assert_eq!(counts.iter().sum::<u64>(), total);
    if total == 0 || counts.len() <= 1 {
        return 0.0;
    }
    entropy_from_count_groups(total, sorted_groups(counts))
}

/// Counts below this threshold are histogrammed into a stack array at
/// finalization instead of being sorted — per-cell feature histograms
/// are overwhelmingly small counts, so this removes the comparison sort
/// from the hot finalization path.
const SMALL_COUNT: usize = 256;

/// Sample entropy of a histogram, in bits.
///
/// Empty histograms have entropy 0 by convention (there is no distribution
/// to be dispersed).
///
/// Large histograms are canonicalized by a count-of-counts pass (small
/// counts bucketed directly, the rare large ones sorted); small ones
/// sort their counts outright, which is cheaper than zeroing the bucket
/// array. Both produce the exact same ascending group sequence — and
/// therefore bit-identical results — as [`entropy_from_sorted_counts`]
/// over the sorted counts.
pub fn sample_entropy(hist: &FeatureHistogram) -> f64 {
    let total = hist.total();
    let distinct = hist.distinct();
    if total == 0 || distinct <= 1 {
        return 0.0;
    }
    if distinct <= 64 {
        let mut buf = [0u64; 65];
        let counts = &mut buf[..distinct + 1];
        hist.compact_counts(counts);
        let counts = &mut counts[..distinct];
        counts.sort_unstable();
        return entropy_from_count_groups(total, sorted_groups(counts));
    }
    // Vacant slots land in bucket 0, which is not a count and is skipped.
    let mut small = [0u32; SMALL_COUNT];
    let mut spill: Vec<u64> = Vec::new();
    for n in hist.slot_counts() {
        if (n as usize) < SMALL_COUNT {
            small[n as usize] += 1;
        } else {
            spill.push(n);
        }
    }
    spill.sort_unstable();
    let small_groups = small
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &k)| k != 0)
        .map(|(c, &k)| (c as u64, k as u64));
    entropy_from_count_groups(total, small_groups.chain(sorted_groups(&spill)))
}

/// Entropy normalized by its maximum `log2(N)`, mapping any histogram into
/// `[0, 1]`. Histograms with fewer than two distinct values map to 0.
///
/// Useful when comparing distributions with very different support sizes,
/// e.g. ports (≤ 65536 values) against addresses.
pub fn normalized_entropy(hist: &FeatureHistogram) -> f64 {
    let n = hist.distinct();
    if n < 2 {
        return 0.0;
    }
    sample_entropy(hist) / (n as f64).log2()
}

/// Simpson's diversity index `1 - Σ p_i^2`.
///
/// 0 for a single-valued histogram, approaching 1 for highly dispersed
/// ones. The sum of squared counts is formed exactly in integers (order
/// independent by construction) and divided once.
pub fn simpson_index(hist: &FeatureHistogram) -> f64 {
    let s = hist.total();
    if s == 0 {
        return 0.0;
    }
    let sum_sq: u128 = hist.slot_counts().map(|n| n as u128 * n as u128).sum();
    let s = s as f64;
    (1.0 - sum_sq as f64 / (s * s)).clamp(0.0, 1.0)
}

/// Gini coefficient of the count distribution.
///
/// 0 when all values are equally frequent (perfect equality / maximal
/// dispersal), approaching 1 when one value dominates. Computed over the
/// canonical ascending count order with compensated summation.
pub fn gini_coefficient(hist: &FeatureHistogram) -> f64 {
    let n = hist.distinct();
    if n == 0 || hist.total() == 0 {
        return 0.0;
    }
    let counts = hist.counts_sorted();
    let total: u64 = hist.total();
    // G = (2 Σ_i i·x_(i) ) / (n Σ x) - (n+1)/n    with 1-based ranks i.
    let mut weighted = 0.0;
    let mut comp = 0.0;
    for (i, &x) in counts.iter().enumerate() {
        neumaier(&mut weighted, &mut comp, (i as f64 + 1.0) * x as f64);
    }
    let n_f = n as f64;
    (2.0 * (weighted + comp)) / (n_f * total as f64) - (n_f + 1.0) / n_f
}

/// Number of distinct values — the crudest dispersion measure.
pub fn distinct_count(hist: &FeatureHistogram) -> f64 {
    hist.distinct() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u32]) -> FeatureHistogram {
        values.iter().copied().collect()
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(sample_entropy(&FeatureHistogram::new()), 0.0);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        // "takes on the value 0 when the distribution is maximally
        // concentrated, i.e., all observations are the same."
        let h = hist_of(&[7, 7, 7, 7, 7]);
        assert_eq!(sample_entropy(&h), 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_log2_n() {
        // "takes on the value log2 N when ... n_1 = n_2 = ... = n_N."
        let h = hist_of(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!((sample_entropy(&h) - 3.0).abs() < 1e-12);
        let h2 = hist_of(&[1, 1, 2, 2, 3, 3]);
        assert!((sample_entropy(&h2) - (3.0f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn entropy_known_asymmetric_case() {
        // p = (3/4, 1/4): H = 2 - 0.75*log2(3) = 0.811278...
        let h = hist_of(&[1, 1, 1, 2]);
        let expected = 2.0 - 0.75 * 3.0f64.log2();
        assert!((sample_entropy(&h) - expected).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_all_singletons_is_exact() {
        // A scan histogram (every value seen once) has entropy exactly
        // log2(S): every term of the correction sum vanishes identically.
        let h: FeatureHistogram = (0..4096u32).collect();
        assert_eq!(sample_entropy(&h), 12.0);
        let h2: FeatureHistogram = (0..1000u32).collect();
        assert_eq!(sample_entropy(&h2), 1000f64.log2());
    }

    #[test]
    fn entropy_bounded_by_log2_n() {
        let h = hist_of(&[1, 1, 2, 3, 3, 3, 4]);
        let max = (h.distinct() as f64).log2();
        let e = sample_entropy(&h);
        assert!(e > 0.0 && e < max);
    }

    #[test]
    fn entropy_concentration_reduces_it() {
        // Adding mass to an existing heavy hitter reduces dispersal.
        let balanced = hist_of(&[1, 2, 3, 4]);
        let skewed = hist_of(&[1, 1, 1, 1, 2, 3, 4]);
        assert!(sample_entropy(&skewed) < sample_entropy(&balanced));
    }

    #[test]
    fn entropy_large_counts_cross_term_table() {
        // Counts straddling the lookup-table boundary agree with the
        // plain formula to high accuracy.
        let mut h = FeatureHistogram::new();
        h.add_n(1, 1023);
        h.add_n(2, 1024);
        h.add_n(3, 5000);
        let s = (1023 + 1024 + 5000) as f64;
        let expected: f64 = -[1023.0, 1024.0, 5000.0]
            .iter()
            .map(|&n| (n / s) * (n / s).log2())
            .sum::<f64>();
        assert!((sample_entropy(&h) - expected).abs() < 1e-12);
    }

    #[test]
    fn normalized_entropy_range() {
        assert_eq!(normalized_entropy(&FeatureHistogram::new()), 0.0);
        assert_eq!(normalized_entropy(&hist_of(&[5, 5])), 0.0); // single value
        let uniform = hist_of(&[1, 2, 3, 4]);
        assert!((normalized_entropy(&uniform) - 1.0).abs() < 1e-12);
        let skewed = hist_of(&[1, 1, 1, 2]);
        let ne = normalized_entropy(&skewed);
        assert!(ne > 0.0 && ne < 1.0);
    }

    #[test]
    fn simpson_index_cases() {
        assert_eq!(simpson_index(&FeatureHistogram::new()), 0.0);
        assert_eq!(simpson_index(&hist_of(&[3, 3, 3])), 0.0);
        // Uniform over 4: 1 - 4*(1/16) = 0.75.
        assert!((simpson_index(&hist_of(&[1, 2, 3, 4])) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gini_cases() {
        assert_eq!(gini_coefficient(&FeatureHistogram::new()), 0.0);
        // Equal counts: Gini = 0.
        let uniform = hist_of(&[1, 1, 2, 2, 3, 3]);
        assert!(gini_coefficient(&uniform).abs() < 1e-12);
        // Strong skew: positive Gini.
        let mut skewed = FeatureHistogram::new();
        skewed.add_n(1, 97);
        skewed.add(2);
        skewed.add(3);
        skewed.add(4);
        assert!(gini_coefficient(&skewed) > 0.5);
    }

    #[test]
    fn distinct_count_metric() {
        assert_eq!(distinct_count(&FeatureHistogram::new()), 0.0);
        assert_eq!(distinct_count(&hist_of(&[1, 1, 2, 9])), 3.0);
    }

    #[test]
    fn port_scan_signature_in_entropy() {
        // Miniature of Figure 1: a port scan disperses destination ports and
        // concentrates destination addresses.
        let normal_ports = hist_of(&[80, 80, 80, 443, 443, 53, 25, 110]);
        let normal_addrs = hist_of(&[1, 2, 3, 4, 5, 1, 2, 3]);

        let mut scan_ports = FeatureHistogram::new();
        let mut scan_addrs = FeatureHistogram::new();
        for port in 0..500u32 {
            scan_ports.add(port);
            scan_addrs.add(42); // one victim
        }

        assert!(
            sample_entropy(&scan_ports) > sample_entropy(&normal_ports),
            "scan must disperse ports"
        );
        assert!(
            sample_entropy(&scan_addrs) < sample_entropy(&normal_addrs),
            "scan must concentrate addresses"
        );
    }
}
