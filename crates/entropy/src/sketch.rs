//! The bounded-memory sketched tier: hash-space level sampling with
//! Horvitz–Thompson entropy estimation.
//!
//! The exact tier holds one table entry per distinct feature value, which
//! at the ROADMAP's "millions of users" scale means hundreds of megabytes
//! of open-bin histograms. [`SketchHistogram`] caps that: it retains at
//! most a budgeted number of *surviving* keys and estimates entropy from
//! them, trading a documented error bound for a hard memory ceiling.
//!
//! # The sketch
//!
//! Survival is decided by one deterministic Fx multiply (`fx_hash`; the
//! flat table deliberately indexes with a different product, so a
//! survivor table does not cluster): a key `v` survives **level** `L`
//! iff the low `L` bits of `hash(v) >> 32` are zero, so each level
//! samples the key space with probability `q = 2^−L` and level-`L+1`
//! survivors are a subset of level-`L` survivors (the admission mask
//! only grows). The sketch starts
//! at level 0 (exact) and raises the level — evicting non-survivors —
//! whenever the survivor table would exceed `budget` distinct keys.
//!
//! Monotone admission gives the two properties everything else stands on:
//!
//! * **Exact survivor counts.** A key surviving at the final level was
//!   admitted at every earlier level too, so every one of its offers was
//!   recorded: retained counts are exact, never approximate.
//! * **Order independence.** The final level is the smallest `L` at which
//!   the offered key set has ≤ `budget` survivors — a pure function of
//!   the offered multiset, however it was ordered, batched, merged, or
//!   sharded. The whole sketch state is therefore a pure function of the
//!   multiset (for a fixed budget), and the sketched ingest plane
//!   inherits the exact plane's bit-identity contract: serial, batched,
//!   and sharded sketched builders emit identical rows.
//!
//! At level 0 the sketch *is* the exact histogram and finalizes through
//! the identical floating-point path, bit for bit.
//!
//! # Entropy estimate and error bound
//!
//! With survivor counts `n_i` sampled at rate `q`, the correction sum
//! `T = Σ n_i·log2(n_i)` over the full population is estimated by the
//! Horvitz–Thompson scaling `T̂ = (Σ_surv n_i·log2 n_i) / q`, which is
//! unbiased over the admission randomness, and entropy by
//! `Ĥ = log2(S) − T̂/S` (clamped at 0) with the *exact* total `S`.
//! `Var(T̂) = ((1−q)/q)·Σ_pop f_i²` with `f_i = n_i·log2(n_i)`, so
//!
//! ```text
//! σ(Ĥ) = sqrt((1−q)/q · Σ_pop f_i²) / S
//! ```
//!
//! **Documented bound:** `|Ĥ − H| ≤ 0.05 + 4·σ(Ĥ)` bits (exactly 0 at
//! level 0). The additive floor absorbs estimator noise when `T` is tiny;
//! the `4σ` term is Chebyshev-style slack under the approximation that
//! the fixed multiplicative hash behaves like an independent `q`-sampler
//! (for the consecutive-integer runs real feature values arrive in, the
//! multiply equidistributes admission, which empirically *lowers* the
//! variance). The suite in `crates/entropy/tests/sketch_equivalence.rs`
//! pins this bound against the exact plane on fixed and property-based
//! feeds; [`error_bound_against`](SketchHistogram::error_bound_against)
//! evaluates it from exact counts, and
//! [`entropy_stderr`](SketchHistogram::entropy_stderr) self-reports the
//! HT estimate of `σ` when no exact plane is at hand. The bound is loose
//! exactly where a sketch is the wrong tool — one heavy hitter carrying
//! most of `S` — and tight on the dispersed distributions (scans, sprays)
//! the detectors care about; all-singleton histograms are estimated
//! *exactly* (`T = T̂ = 0`).
//!
//! # Memory ceiling
//!
//! The survivor table is a [`FeatureHistogram`] (12 bytes/slot, load
//! ≤ 1/2, 4× growth), the level bump evicts as soon as `budget` is
//! exceeded, and merges shrink incrementally, so the slot count never
//! exceeds `8·(budget+1)` even transiently — with a floor of the flat
//! table's 32-slot minimum allocation, which dominates for tiny budgets:
//! [`heap_ceiling`](SketchHistogram::heap_ceiling) =
//! `max(384, 96·(budget+1))` bytes per sketch. A `(flow, bin)` cell holds
//! four sketches; `sketch_equivalence.rs` pins the ceiling on a
//! 2^20-distinct-key feed.

use crate::dist::DistributionAccumulator;
use crate::hist::{fx_hash, FeatureHistogram};
use crate::metrics::{count_term, sample_entropy, sorted_groups, weighted_term_sum};

/// Default survivor budget: 4096 keys ≈ 384 KB ceiling per sketch.
pub const DEFAULT_BUDGET: usize = 4096;

/// The deepest sampling level (`q = 2^−32`); beyond this every remaining
/// `u32` key space is expected to yield ~1 survivor, so raising further
/// cannot help.
const MAX_LEVEL: u32 = 32;

/// Construction parameters of the sketched tier: the survivor-key budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Maximum number of distinct keys the survivor table may retain.
    /// Clamped to at least 1 at construction.
    pub budget: usize,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            budget: DEFAULT_BUDGET,
        }
    }
}

/// A bounded-memory distribution store: hash-space level sampling over a
/// flat survivor table, with Horvitz–Thompson entropy estimation. See the
/// [module docs](self) for the sampling scheme, the order-independence
/// argument, the error bound, and the memory ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchHistogram {
    /// Surviving keys with their exact counts.
    table: FeatureHistogram,
    /// Current sampling level; admission probability is `2^−level`.
    level: u32,
    /// Survivor-key budget (≥ 1).
    budget: usize,
    /// Exact total of all offered weight, survivors or not.
    total: u64,
}

impl Default for SketchHistogram {
    fn default() -> Self {
        Self::new(SketchParams::default())
    }
}

impl SketchHistogram {
    /// An empty sketch with the given parameters (no allocation).
    pub fn new(params: SketchParams) -> Self {
        SketchHistogram {
            table: FeatureHistogram::new(),
            level: 0,
            budget: params.budget.max(1),
            total: 0,
        }
    }

    /// Whether `value` survives sampling at `level`.
    #[inline]
    pub(crate) fn admitted_at(level: u32, value: u32) -> bool {
        let mask = (1u64 << level) - 1;
        (fx_hash(value) >> 32) & mask == 0
    }

    /// Whether `value` survives at the current level.
    #[inline]
    fn admits(&self, value: u32) -> bool {
        Self::admitted_at(self.level, value)
    }

    /// Records `weight` observations of `value`. The total is always
    /// counted; the table only sees surviving keys.
    #[inline]
    pub fn offer_n(&mut self, value: u32, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if !self.admits(value) {
            return;
        }
        self.table.add_n(value, weight);
        if self.table.distinct() > self.budget {
            self.shrink_to_budget();
        }
    }

    /// Raises the level until the survivor table fits the budget,
    /// evicting newly non-surviving keys.
    #[cold]
    fn shrink_to_budget(&mut self) {
        while self.table.distinct() > self.budget && self.level < MAX_LEVEL {
            self.level += 1;
            let kept: Vec<(u32, u64)> = self
                .table
                .iter()
                .filter(|&(v, _)| Self::admitted_at(self.level, v))
                .collect();
            let mut next = FeatureHistogram::with_capacity(kept.len());
            for (v, n) in kept {
                next.add_n(v, n);
            }
            self.table = next;
        }
    }

    /// Merges another sketch of the same budget, as if its offers had
    /// been replayed here. The result is the sketch of the combined
    /// multiset — independent of how the traffic was split (this is what
    /// makes the sketched sharded plane bit-identical to the serial one).
    pub fn merge_from(&mut self, other: &SketchHistogram) {
        debug_assert_eq!(
            self.budget, other.budget,
            "sketches merge only within one tier configuration"
        );
        self.total += other.total;
        if other.level > self.level {
            self.level = other.level;
            // Re-filter our own survivors under the deeper level.
            let kept: Vec<(u32, u64)> = self
                .table
                .iter()
                .filter(|&(v, _)| Self::admitted_at(self.level, v))
                .collect();
            let mut next = FeatureHistogram::with_capacity(kept.len());
            for (v, n) in kept {
                next.add_n(v, n);
            }
            self.table = next;
        }
        // Monotone admission makes mid-merge shrinks safe: a key the
        // deeper level would evict is simply never admitted below.
        for (v, n) in other.table.iter() {
            if self.admits(v) {
                self.table.add_n(v, n);
                if self.table.distinct() > self.budget {
                    self.shrink_to_budget();
                }
            }
        }
    }

    /// Exact total weight offered (survivors or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current sampling level `L`; the sketch retains keys with
    /// probability `2^−L`. Level 0 means no eviction has happened and the
    /// sketch is exact.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The survivor-key budget this sketch was configured with.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of distinct keys currently retained (≤ budget, except
    /// transiently inside an offer).
    pub fn retained(&self) -> usize {
        self.table.distinct()
    }

    /// Inverse inclusion probability `1/q = 2^level` (exact in `f64` for
    /// every admissible level).
    pub fn scale(&self) -> f64 {
        (1u64 << self.level) as f64
    }

    /// Horvitz–Thompson estimate of the number of distinct values in the
    /// population.
    pub fn distinct_estimate(&self) -> f64 {
        self.table.distinct() as f64 * self.scale()
    }

    /// The estimated sample entropy, in bits.
    ///
    /// At level 0 this routes through the *identical* floating-point
    /// sequence as the exact tier ([`sample_entropy`]) and is bit-equal
    /// to it. At deeper levels the correction sum over survivors is
    /// scaled by `2^level` (exact: a power-of-two multiply) before the
    /// same `log2(S) − T/S` closing step.
    pub fn entropy(&self) -> f64 {
        if self.level == 0 {
            return sample_entropy(&self.table);
        }
        if self.total == 0 {
            return 0.0;
        }
        let counts = self.table.counts_sorted();
        let t = weighted_term_sum(sorted_groups(&counts)) * self.scale();
        let s = self.total as f64;
        (s.log2() - t / s).max(0.0)
    }

    /// Self-reported standard error of [`entropy`](Self::entropy): the
    /// Horvitz–Thompson variance estimate computed from the survivors
    /// (0 at level 0, where the sketch is exact). An *estimate* — when
    /// the exact plane is available, prefer
    /// [`error_bound_against`](Self::error_bound_against).
    pub fn entropy_stderr(&self) -> f64 {
        if self.level == 0 || self.total == 0 {
            return 0.0;
        }
        let q = 1.0 / self.scale();
        // E[Σ_surv f_i²·(1−q)/q²] = Σ_pop f_i²·(1−q)/q = Var(T̂).
        let factor = (1.0 - q) / (q * q);
        let counts = self.table.counts_sorted();
        let mut var = 0.0;
        for &c in &counts {
            if c > 1 {
                let f = count_term(c);
                var += factor * f * f;
            }
        }
        var.sqrt() / self.total as f64
    }

    /// The additive floor of the documented error bound, in bits.
    pub const ERROR_FLOOR_BITS: f64 = 0.05;

    /// The sigma multiplier of the documented error bound.
    pub const ERROR_SIGMAS: f64 = 4.0;

    /// The documented error bound evaluated against the exact plane:
    /// `0.05 + 4·σ(Ĥ)` bits with `σ` computed from the **exact** counts
    /// (see the [module docs](self)), and exactly 0 at level 0, where the
    /// sketch must be bit-identical. The equivalence suite, the CI smoke
    /// run, and the bench all assert
    /// `|entropy() − sample_entropy(exact)| ≤ error_bound_against(exact)`.
    pub fn error_bound_against(&self, exact: &FeatureHistogram) -> f64 {
        if self.level == 0 {
            return 0.0;
        }
        let q = 1.0 / self.scale();
        let factor = (1.0 - q) / q;
        let counts = exact.counts_sorted();
        let mut var = 0.0;
        for &c in &counts {
            if c > 1 {
                let f = count_term(c);
                var += factor * f * f;
            }
        }
        let sigma = var.sqrt() / exact.total().max(1) as f64;
        Self::ERROR_FLOOR_BITS + Self::ERROR_SIGMAS * sigma
    }

    /// Bytes of heap currently owned by the survivor table.
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// The worst-case heap a sketch of `budget` can own, even transiently
    /// inside an offer or merge: the survivor table never exceeds
    /// `budget + 1` distinct keys before a shrink rebuilds it, and the
    /// flat table grows 4× at load 1/2, so the slot count stays under
    /// `8·(budget+1)` — 96 bytes of columns per budgeted key, floored at
    /// the table's 32-slot (384-byte) minimum allocation.
    pub fn heap_ceiling(budget: usize) -> usize {
        (96 * (budget.max(1) + 1)).max(384)
    }

    /// Exact count of a retained key (0 if evicted or never offered —
    /// indistinguishable by design).
    pub fn count(&self, value: u32) -> u64 {
        if self.admits(value) {
            self.table.count(value)
        } else {
            0
        }
    }

    /// Iterates over retained `(value, count)` pairs in unspecified
    /// order; counts are exact.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.table.iter()
    }

    /// The `k` most frequent *retained* values, most frequent first, ties
    /// broken by value — the same deterministic order as the exact
    /// tier's [`FeatureHistogram::top_k`], so sketched-vs-exact
    /// attribution comparisons are stable. Heavy hitters appear iff they
    /// survive sampling; survivors report exact counts.
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        self.table.top_k(k)
    }
}

impl DistributionAccumulator for SketchHistogram {
    type Params = SketchParams;

    fn with_params(params: &SketchParams, capacity_hint: usize) -> Self {
        let mut s = SketchHistogram::new(*params);
        if capacity_hint > 0 {
            s.table = FeatureHistogram::with_capacity(capacity_hint.min(s.budget));
        }
        s
    }

    #[inline]
    fn offer_n(&mut self, value: u32, weight: u64) {
        SketchHistogram::offer_n(self, value, weight);
    }

    fn merge_from(&mut self, other: &Self) {
        SketchHistogram::merge_from(self, other);
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn size_hint(&self) -> usize {
        self.table.distinct()
    }

    fn entropy(&self) -> f64 {
        SketchHistogram::entropy(self)
    }

    fn entropy_stderr(&self) -> f64 {
        SketchHistogram::entropy_stderr(self)
    }

    fn heap_bytes(&self) -> usize {
        SketchHistogram::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(budget: usize) -> SketchHistogram {
        SketchHistogram::new(SketchParams { budget })
    }

    #[test]
    fn under_budget_is_exact_level_zero() {
        let mut sk = sketch(64);
        let mut exact = FeatureHistogram::new();
        for v in 0..50u32 {
            sk.offer_n(v, (v as u64 % 3) + 1);
            exact.add_n(v, (v as u64 % 3) + 1);
        }
        assert_eq!(sk.level(), 0);
        assert_eq!(sk.total(), exact.total());
        assert_eq!(sk.retained(), 50);
        // Bit-identical entropy at level 0.
        assert_eq!(sk.entropy(), sample_entropy(&exact));
        assert_eq!(sk.entropy_stderr(), 0.0);
        assert_eq!(sk.error_bound_against(&exact), 0.0);
        assert_eq!(sk.count(7), exact.count(7));
    }

    #[test]
    fn over_budget_raises_level_and_keeps_survivors_exact() {
        let mut sk = sketch(100);
        for v in 0..10_000u32 {
            sk.offer_n(v, (v as u64 % 5) + 1);
        }
        assert!(sk.level() > 0, "10k keys into a 100-key budget must evict");
        assert!(sk.retained() <= 100);
        assert_eq!(sk.total(), (0..10_000u64).map(|v| (v % 5) + 1).sum::<u64>());
        // Survivor counts are exact: monotone admission never dropped one
        // of a surviving key's offers.
        for (v, n) in sk.iter() {
            assert_eq!(n, (v as u64 % 5) + 1, "survivor {v} count");
        }
        // Survivorship is exactly the admission predicate at the final
        // level.
        for v in 0..10_000u32 {
            let expected = SketchHistogram::admitted_at(sk.level(), v);
            assert_eq!(sk.count(v) > 0, expected, "key {v}");
        }
    }

    #[test]
    fn state_is_a_pure_function_of_the_multiset() {
        // Same multiset, three very different histories: offer order
        // reversed, weights split into unit offers, and a two-way merge.
        let entries: Vec<(u32, u64)> = (0..3000u32).map(|v| (v * 7, (v as u64 % 4) + 1)).collect();

        let mut fwd = sketch(128);
        for &(v, n) in &entries {
            fwd.offer_n(v, n);
        }
        let mut rev = sketch(128);
        for &(v, n) in entries.iter().rev() {
            for _ in 0..n {
                rev.offer_n(v, 1);
            }
        }
        let mut left = sketch(128);
        let mut right = sketch(128);
        for (i, &(v, n)) in entries.iter().enumerate() {
            if i % 2 == 0 {
                left.offer_n(v, n);
            } else {
                right.offer_n(v, n);
            }
        }
        left.merge_from(&right);

        assert_eq!(fwd, rev);
        assert_eq!(fwd, left);
        // Estimates are bit-identical too, not merely close.
        assert_eq!(fwd.entropy(), rev.entropy());
        assert_eq!(fwd.entropy(), left.entropy());
        assert_eq!(fwd.entropy_stderr(), left.entropy_stderr());
    }

    #[test]
    fn singleton_floods_are_estimated_exactly() {
        // A scan: every key once. T = 0 on both sides, so the estimate is
        // exactly log2(S) — error 0 despite deep eviction.
        let mut sk = sketch(64);
        let mut exact = FeatureHistogram::new();
        for v in 0..100_000u32 {
            sk.offer_n(v, 1);
            exact.add(v);
        }
        assert!(sk.level() > 0);
        assert_eq!(sk.entropy(), sample_entropy(&exact));
    }

    #[test]
    fn entropy_error_within_documented_bound() {
        // A mixed zipf-ish feed, far over budget.
        let mut sk = sketch(256);
        let mut exact = FeatureHistogram::new();
        for v in 0..50_000u32 {
            let n = 1 + (v as u64 % 7) * (v as u64 % 11);
            sk.offer_n(v, n);
            exact.add_n(v, n);
        }
        assert!(sk.level() >= 5);
        let err = (sk.entropy() - sample_entropy(&exact)).abs();
        let bound = sk.error_bound_against(&exact);
        assert!(err <= bound, "err {err} > bound {bound}");
    }

    #[test]
    fn heap_stays_under_ceiling() {
        for budget in [1usize, 16, 100, 1024] {
            let mut sk = sketch(budget);
            let mut peak = 0usize;
            for v in 0..200_000u32 {
                sk.offer_n(v.wrapping_mul(2_654_435_761), 1 + (v as u64 & 3));
                peak = peak.max(sk.heap_bytes());
            }
            assert!(
                peak <= SketchHistogram::heap_ceiling(budget),
                "budget {budget}: peak {peak} > ceiling {}",
                SketchHistogram::heap_ceiling(budget)
            );
            assert!(sk.retained() <= budget);
        }
    }

    #[test]
    fn merge_respects_ceiling_and_multiset() {
        let mut parts: Vec<SketchHistogram> = Vec::new();
        let mut whole = sketch(64);
        for p in 0..8u32 {
            let mut s = sketch(64);
            for v in 0..5_000u32 {
                let key = p * 5_000 + v;
                s.offer_n(key, (key as u64 % 3) + 1);
                whole.offer_n(key, (key as u64 % 3) + 1);
            }
            parts.push(s);
        }
        let mut merged = sketch(64);
        let mut peak = 0usize;
        for p in &parts {
            merged.merge_from(p);
            peak = peak.max(merged.heap_bytes());
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.entropy(), whole.entropy());
        assert!(peak <= SketchHistogram::heap_ceiling(64));
    }

    #[test]
    fn max_key_participates_like_any_other() {
        // u32::MAX lives in the flat table's side counter; the sketch
        // must admit, count, and merge it like any other key.
        let mut a = sketch(8);
        a.offer_n(u32::MAX, 5);
        let mut b = sketch(8);
        b.offer_n(u32::MAX, 3);
        b.offer_n(1, 1);
        a.merge_from(&b);
        if a.count(u32::MAX) > 0 {
            assert_eq!(a.count(u32::MAX), 8);
        }
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn zero_weight_is_a_no_op() {
        let mut sk = sketch(8);
        sk.offer_n(3, 0);
        assert_eq!(sk.total(), 0);
        assert_eq!(sk.entropy(), 0.0);
        assert_eq!(sk.entropy_stderr(), 0.0);
    }

    #[test]
    fn distinct_estimate_tracks_population() {
        let mut sk = sketch(512);
        for v in 0..100_000u32 {
            sk.offer_n(v, 1);
        }
        let est = sk.distinct_estimate();
        // Multiplicative-hash level sampling over a consecutive run is
        // near-perfectly equidistributed; 15% slack is generous.
        assert!(
            (est - 100_000.0).abs() < 15_000.0,
            "distinct estimate {est} far from 100000"
        );
    }

    #[test]
    fn budget_is_clamped_to_one() {
        let mut sk = sketch(0);
        assert_eq!(sk.budget(), 1);
        for v in 0..1000u32 {
            sk.offer_n(v, 2);
        }
        assert!(sk.retained() <= 1);
        assert_eq!(sk.total(), 2000);
    }
}
