//! Scoped-thread partitioning for the blocked kernels.
//!
//! The symmetric kernels in this crate — [`Mat::covariance`] (`XᵀX` over
//! centered columns) and the Gram product behind [`Pca::fit`]'s Gram
//! engine (`XXᵀ` over centered rows) — fill only the upper triangle of their
//! output and mirror it afterwards. Parallelizing them is therefore a
//! matter of handing each worker a contiguous block of output rows whose
//! triangle rows it owns exclusively; no locks, no atomics, and — because
//! every output element is still accumulated over data rows in the same
//! order as the serial kernel — bitwise-identical results at any worker
//! count.
//!
//! The triangle makes equal-width blocks badly imbalanced (row `i` of an
//! `n×n` upper triangle holds `n - i` elements), so [`triangle_ranges`]
//! chooses block boundaries that equalize the *element* count per worker
//! instead of the row count. Work without a triangle (the sharded ingest
//! plane's shard groups) splits plain ranges via [`even_ranges`].
//!
//! The sizing policy ([`workers_for`], [`MAX_THREADS`]) is exported so
//! other layers share one fan-out discipline instead of inventing their
//! own. Two do besides the kernels here: the sharded streaming ingest
//! plane in `entromine-entropy` (one worker per shard group), and a fit
//! round in `entromine-core`, which fits the byte and packet models on
//! one scoped worker beside the entropy model when [`workers_for`] grants
//! the two volume covariances' work at least two workers. Every fan-out
//! leaves its results bitwise-identical at any worker count.
//!
//! The triangle fan-out earns its threads on the fit path, measured on a
//! 2-vCPU AVX2+FMA host as two workers against the same run pinned to one
//! CPU (`taskset -c 0`, so [`workers_for`] returns 1). `bench_e2e`'s traced
//! `geant-refit` rep, post-run probes on the final 648 × 1936 window, four
//! reps each: `linalg.gram.busy_ms` 19–37 ms (median 24) against 33–47 ms
//! (median 34), about 1.4x; `linalg.covariance.busy_ms` 197–224 ms against
//! 302–314 ms, about 1.45x. Best of 7 in isolation: the Gram product at
//! 648 × 1936 takes 22–23 ms against 43 ms (1.85x), and the 648 × 484
//! covariance of a Geant volume model 10.5–11.7 ms against 18 ms (1.6x).
//! Both stay.
//!
//! [`Mat::covariance`]: crate::Mat::covariance
//! [`Pca::fit`]: crate::Pca::fit

use std::ops::Range;
use std::sync::OnceLock;

/// Worker cap, matching the fan-out cap used by the synthetic generator.
pub const MAX_THREADS: usize = 16;

/// Number of workers for a kernel with `work` accumulation flops (or an
/// equivalent per-element cost unit): the machine's available parallelism,
/// capped at [`MAX_THREADS`], and 1 when the problem is too small for
/// spawn overhead to pay off.
///
/// The available parallelism is read once per process, at the first call,
/// and latched: the query costs tens of microseconds, and this runs on
/// every batch offer, every sealing watermark and every covariance and
/// Gram. A CPU affinity set before the first call (`taskset`) is seen.
pub fn workers_for(work: usize) -> usize {
    // Spawning a thread costs on the order of tens of microseconds; only
    // fan out when each worker gets millions of flops to chew on.
    const MIN_WORK_PER_THREAD: usize = 4_000_000;
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    });
    hw.min(work / MIN_WORK_PER_THREAD).max(1)
}

/// Splits the row indices `0..n` of an `n×n` upper triangle into at most
/// `workers` contiguous ranges with approximately equal element counts
/// `Σ (n - i)`.
pub fn triangle_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1).min(n.max(1));
    let total = n * (n + 1) / 2;
    let per_worker = total.div_ceil(workers.max(1)).max(1);
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..n {
        acc += n - i;
        if acc >= per_worker || i + 1 == n {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// Splits `0..n` into at most `workers` contiguous ranges of nearly equal
/// length (the first `n % workers` ranges carry one extra element). Every
/// index is covered exactly once; empty ranges are never emitted.
pub fn even_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 481] {
            for workers in [1usize, 2, 3, 8, 16] {
                let ranges = triangle_ranges(n, workers);
                let mut covered = vec![false; n];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "row {i} covered twice (n={n})");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap in coverage (n={n})");
            }
        }
    }

    #[test]
    fn ranges_are_balanced_by_elements() {
        let n = 400;
        let ranges = triangle_ranges(n, 4);
        let loads: Vec<usize> = ranges
            .iter()
            .map(|r| r.clone().map(|i| n - i).sum())
            .collect();
        let total: usize = loads.iter().sum();
        assert_eq!(total, n * (n + 1) / 2);
        let per = total / loads.len();
        for &l in &loads {
            // Within 2x of the ideal share: the triangle prevents perfect
            // splits but the imbalance must stay bounded.
            assert!(l < 2 * per + n, "load {l} vs ideal {per}");
        }
    }

    #[test]
    fn worker_count_scales_with_work() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1000), 1);
        assert!(workers_for(usize::MAX / 2) <= MAX_THREADS);
    }

    #[test]
    fn even_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 481] {
            for workers in [1usize, 2, 3, 8, 16] {
                let ranges = even_ranges(n, workers);
                let mut covered = vec![false; n];
                for r in &ranges {
                    assert!(!r.is_empty(), "empty range emitted (n={n})");
                    for i in r.clone() {
                        assert!(!covered[i], "index {i} covered twice (n={n})");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap in coverage (n={n})");
                // Balanced to within one element.
                if let (Some(max), Some(min)) = (
                    ranges.iter().map(Range::len).max(),
                    ranges.iter().map(Range::len).min(),
                ) {
                    assert!(max - min <= 1, "imbalanced: {max} vs {min}");
                }
            }
        }
    }
}
