//! Counting histograms over traffic feature values.
//!
//! Two implementations live here:
//!
//! * [`FeatureHistogram`] — the production table: an open-addressing,
//!   linear-probing flat table of inline `u32` key and `u64` count
//!   columns with power-of-two capacity. One predictable probe sequence per update, no
//!   per-entry indirection, and a whole table that is a handful of cache
//!   lines for the few-hundred-distinct-value histograms a (flow, bin)
//!   cell actually holds — this is the structure the ingest hot path
//!   hammers four times per packet.
//! * [`MapHistogram`] — the previous `HashMap`-backed implementation,
//!   kept verbatim as the pinned *observational-equivalence reference*
//!   (the same serial-reference pattern as `covariance_serial` and
//!   `StreamingGridBuilder`): `crates/entropy/tests/hist_equivalence.rs`
//!   drives both through random operation sequences and requires every
//!   observable — totals, counts, distinct, top-k, rank order, entropy —
//!   to agree exactly.
//!
//! Both hash deterministically (no per-instance seed), and neither
//! promises anything about raw iteration order: every derived quantity
//! (entropy, rank order, top-k) is defined as a function of the
//! *multiset* of entries, which is what makes merge and combining order —
//! and the flat table's slot index — unobservable downstream.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic FxHash-style hasher.
///
/// `std`'s default `HashMap` hasher is seeded per instance, which makes
/// iteration order — and therefore anything computed from an unsorted
/// walk — vary between runs. Reproducibility is a hard requirement here
/// (same seed ⇒ bit-identical dataset), so histograms use this fixed-key
/// multiply-rotate hasher instead. Keys are attacker-influenced in a real
/// deployment only through feature values, whose cardinality per bin is
/// bounded by the sampled packet count, so HashDoS resistance is not a
/// concern at this layer.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic hash state for histogram maps.
pub type DetState = BuildHasherDefault<FxHasher>;

/// Exactly what [`FxHasher`] computes for one `u32` write (the rotate of
/// the zero initial state is a no-op, leaving the single multiply). The
/// sketched tier (`crate::sketch`) samples on bits 32.. of this product;
/// the flat table deliberately indexes with a different one
/// ([`home_slot`]).
#[inline(always)]
pub(crate) fn fx_hash(key: u32) -> u64 {
    (key as u64).wrapping_mul(FxHasher::SEED)
}

/// Where a stored key's probe walk starts, before masking to the table
/// size — see "Slot index" on [`FeatureHistogram`] for why these bits
/// and this multiplier.
#[inline(always)]
fn home_slot(stored: u32) -> usize {
    ((stored as u64).wrapping_mul(0xC3D3_C931_8344_F221) >> 32) as usize
}

/// Walks `stored`'s probe sequence and returns the first slot that holds
/// it or is vacant. `keys` has power-of-two length and at least one
/// vacant slot (the table grows at half full); `stored` is nonzero.
#[inline(always)]
fn probe(keys: &[u32], stored: u32) -> usize {
    let mask = keys.len() - 1;
    let mut j = home_slot(stored) & mask;
    loop {
        let k = keys[j];
        if k == stored || k == 0 {
            return j;
        }
        j = (j + 1) & mask;
    }
}

/// Smallest capacity the table allocates once it holds anything.
const MIN_CAP: usize = 32;

/// Growth factor. Quadrupling instead of doubling halves the number of
/// rehash passes a freshly opened cell pays while filling up, which is
/// where the ingest path spends its allocation budget; the peak load
/// factor stays ≤ 1/2 either way.
const GROWTH: usize = 4;

/// An empirical histogram `X = {n_i, i = 1..N}`: feature value `i`
/// occurred `n_i` times in the sample.
///
/// Keys are the `u32` encoding produced by
/// [`Feature::extract`](entromine_net::packet::Feature::extract) (address
/// as numeric value, port widened).
///
/// # Layout
///
/// Keys and counts live inline in two parallel power-of-two arrays,
/// probed linearly from the key's home slot by a scalar walk. Splitting
/// the columns keeps the probe loop inside the dense 4-byte key array —
/// a few KB even for thousands of entries, so the walk stays in L1/L2
/// where an interleaved 16-byte layout would thrash — while the matching
/// count is a single indexed access on hit. A key slot stores
/// `value + 1` with `0` marking vacancy; the one value that encoding
/// cannot represent (`u32::MAX`) lives in a dedicated side counter. The
/// table grows when half full. A default-constructed histogram owns no
/// allocation at all (gap bins materialize thousands of empty cells).
///
/// # Slot index
///
/// The home slot is bits 32.. of `stored · 0xC3D3_C931_8344_F221`,
/// masked to the table size: one multiply, no seed, and every bit of the
/// key reaches the index. The *low* bits of an odd multiply do not have
/// that property — they keep the key's trailing zeros. Abilene masks the
/// last 11 bits of every address (`Ipv4::anonymize`), `(x << 11) · odd`
/// ends in eleven zeros, and a table of ≤ 2048 slots indexed that way
/// starts every masked address at slot 0 and degenerates into a linear
/// scan: 375 slots per probe on 3000 random masked keys, 9.8 on the
/// address features of a real `abilene-packets` bin against 1.15 on its
/// ports.
///
/// A fixed multiplier makes the index a linear map of the key, and a
/// linear map meets each arithmetic-progression family (one stride at
/// one table size) by luck: the keys spread perfectly or pile up a few
/// deep. In a scratch census of 3114 (family, size) cells — strides,
/// aligned and masked blocks, sketch survivors, 25 to 28 000 keys — no
/// multiplier was clean: `2^64/φ` left 5 % of the cells above 2 slots
/// per probe (worst 10.6) and three dozen published mixer and LCG
/// constants 3–22 % (three of them with a cell in the hundreds). This
/// one, picked by that census from 30 000 random draws, left 1.4 %
/// (worst 7.0) and keeps every family that `probe_lengths_stay_short`
/// pins at or below 1.31. Nothing else is special about it; the test is
/// what holds the property.
///
/// The index must not read the bits the sketched tier samples on. A
/// level-`L` [`SketchHistogram`](crate::SketchHistogram) retains exactly
/// the keys whose `fx_hash` bits 32..32+L are zero, so an index built
/// from that product (`h ^ (h >> 32)`, say) sends every survivor of a
/// deep sketch to the same few slots — 250 slots per probe at level 10.
///
/// Equality ([`PartialEq`]) is multiset equality of the entries —
/// capacity and insertion history are not observable.
#[derive(Debug, Clone, Default)]
pub struct FeatureHistogram {
    /// Stored keys (`value + 1`; 0 = vacant), power-of-two length.
    keys: Vec<u32>,
    /// Count of each occupied key slot, same indices as `keys`.
    counts: Vec<u64>,
    /// Occupied slots (= distinct values, excluding the side counter).
    distinct: usize,
    /// Occupancy threshold that triggers the next growth.
    grow_at: usize,
    total: u64,
    /// Count of `u32::MAX`, the one value the vacancy encoding cannot
    /// store in the table.
    max_key_count: u64,
}

impl FeatureHistogram {
    /// An empty histogram (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram pre-sized to absorb `cap` distinct values
    /// without growing (the ingest plane feeds this from the previous
    /// bin's observed cardinality).
    pub fn with_capacity(cap: usize) -> Self {
        let mut h = FeatureHistogram::default();
        if cap > 0 {
            h.rebuild((cap * 2).next_power_of_two().max(MIN_CAP));
        }
        h
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn add(&mut self, value: u32) {
        self.add_n(value, 1);
    }

    /// Records `n` observations of `value`.
    #[inline]
    pub fn add_n(&mut self, value: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        let Some(stored) = value.checked_add(1) else {
            self.max_key_count += n;
            return;
        };
        // Growing *before* the probe keeps the walk free of any fullness
        // check: occupancy never exceeds half the slots, so a vacant slot
        // is always reachable.
        if self.distinct >= self.grow_at {
            self.grow();
        }
        let j = probe(&self.keys, stored);
        if self.keys[j] == stored {
            self.counts[j] += n;
        } else {
            self.keys[j] = stored;
            self.counts[j] = n;
            self.distinct += 1;
        }
    }

    /// Ensures the table can absorb `additional` more distinct values
    /// without growing mid-stream.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.distinct + additional).saturating_mul(2);
        if needed > self.keys.len() {
            self.rebuild(needed.next_power_of_two().max(MIN_CAP));
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &FeatureHistogram) {
        // Pre-reserve for the incoming entries so the merge rehashes at
        // most once instead of once per growth step.
        self.reserve(other.distinct);
        for (v, n) in other.iter() {
            self.add_n(v, n);
        }
    }

    /// Re-homes every entry into fresh arrays of `cap` slots.
    #[cold]
    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; cap]);
        self.grow_at = cap / 2;
        for (stored, count) in old_keys.into_iter().zip(old_counts) {
            if stored == 0 {
                continue;
            }
            // Keys are unique, so the probe can only land on a vacancy.
            let j = probe(&self.keys, stored);
            debug_assert_eq!(self.keys[j], 0, "rehashed keys are unique");
            self.keys[j] = stored;
            self.counts[j] = count;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = if self.keys.is_empty() {
            MIN_CAP
        } else {
            self.keys.len() * GROWTH
        };
        self.rebuild(cap);
    }

    /// Total number of observations `S`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values `N`.
    pub fn distinct(&self) -> usize {
        self.distinct + (self.max_key_count != 0) as usize
    }

    /// `true` if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count of a specific value (0 if unseen).
    pub fn count(&self, value: u32) -> u64 {
        let Some(stored) = value.checked_add(1) else {
            return self.max_key_count;
        };
        if self.keys.is_empty() {
            return 0;
        }
        let j = probe(&self.keys, stored);
        if self.keys[j] == stored {
            self.counts[j]
        } else {
            0
        }
    }

    /// Iterates over `(value, count)` pairs in unspecified order.
    ///
    /// Everything derived from a histogram must be a function of the
    /// multiset of pairs, never of this order (which depends on capacity
    /// history); the sorted accessors below are the canonical views.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(&k, _)| k != 0)
            .map(|(&k, &n)| (k - 1, n))
            .chain((self.max_key_count != 0).then_some((u32::MAX, self.max_key_count)))
    }

    /// The count column as it lies in the table, then the `u32::MAX` side
    /// counter: every value's count once, in unspecified order, **with a
    /// zero for each vacant slot** (and for an unused side counter). The
    /// walk for consumers that discard the value and can absorb zeros:
    /// unlike [`iter`](Self::iter) it never tests a key, and in a
    /// scattered table that test is a coin flip per slot.
    pub(crate) fn slot_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts
            .iter()
            .copied()
            .chain(std::iter::once(self.max_key_count))
    }

    /// Writes the non-zero counts to the front of `out` (unspecified
    /// order) and returns how many there are — [`distinct`](Self::distinct).
    /// Every slot is stored and only the cursor depends on its count, so
    /// the pass is branch-free; `out` needs one slot of slack for that
    /// store.
    pub(crate) fn compact_counts(&self, out: &mut [u64]) -> usize {
        debug_assert!(out.len() > self.distinct());
        let mut len = 0;
        for n in self.slot_counts() {
            out[len] = n;
            len += usize::from(n != 0);
        }
        len
    }

    /// All counts, ascending — the canonical multiset view the dispersion
    /// metrics consume (entropy, Gini, and rank order are functions of
    /// the count multiset alone).
    pub fn counts_sorted(&self) -> Vec<u64> {
        let mut counts = vec![0; self.distinct() + 1];
        let len = self.compact_counts(&mut counts);
        counts.truncate(len);
        counts.sort_unstable();
        counts
    }

    /// Counts sorted in decreasing order — the paper's "rank order"
    /// histogram view (Figure 1 plots these).
    pub fn rank_ordered_counts(&self) -> Vec<u64> {
        let mut counts = self.counts_sorted();
        counts.reverse();
        counts
    }

    /// The `k` most frequent values with their counts, most frequent
    /// first. Ties are broken by value for determinism.
    ///
    /// Uses partial selection (`select_nth_unstable`) so only the top `k`
    /// pay the sort, not all `N` entries.
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut pairs: Vec<(u32, u64)> = self.iter().collect();
        let order = |a: &(u32, u64), b: &(u32, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if k < pairs.len() {
            pairs.select_nth_unstable_by(k - 1, order);
            pairs.truncate(k);
        }
        pairs.sort_unstable_by(order);
        pairs
    }

    /// The single most frequent value, if any (ties broken by value).
    pub fn heavy_hitter(&self) -> Option<(u32, u64)> {
        self.top_k(1).into_iter().next()
    }

    /// Bytes of heap currently owned by the table (the two parallel slot
    /// columns; the struct header itself is not counted). This is the
    /// number the memory-tier benches and ceilings account against: a
    /// `u32` key column plus a `u64` count column is 12 bytes per slot.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u64>()
    }

    /// The fraction of observations belonging to the most frequent value
    /// (0.0 for an empty histogram).
    pub fn max_share(&self) -> f64 {
        match self.heavy_hitter() {
            Some((_, n)) if self.total > 0 => n as f64 / self.total as f64,
            _ => 0.0,
        }
    }
}

impl PartialEq for FeatureHistogram {
    /// Multiset equality: same totals and the same `(value, count)`
    /// entries, regardless of capacity or insertion history.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.distinct() == other.distinct()
            && self.iter().all(|(v, n)| other.count(v) == n)
    }
}

impl Eq for FeatureHistogram {}

impl FromIterator<u32> for FeatureHistogram {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut h = FeatureHistogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

/// The `HashMap`-backed histogram this crate used before the flat table —
/// kept, unchanged in behaviour, as the pinned observational-equivalence
/// reference for [`FeatureHistogram`]. Not used on any hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapHistogram {
    counts: HashMap<u32, u64, DetState>,
    total: u64,
}

impl MapHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: u32) {
        self.add_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn add_n(&mut self, value: u32, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &MapHistogram) {
        for (&v, &n) in &other.counts {
            self.add_n(v, n);
        }
    }

    /// Total number of observations `S`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values `N`.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of a specific value (0 if unseen).
    pub fn count(&self, value: u32) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Iterates over `(value, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&v, &n)| (v, n))
    }

    /// All counts, ascending (the canonical multiset view).
    pub fn counts_sorted(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable();
        counts
    }

    /// Counts sorted in decreasing order.
    pub fn rank_ordered_counts(&self) -> Vec<u64> {
        let mut counts = self.counts_sorted();
        counts.reverse();
        counts
    }

    /// The `k` most frequent values, most frequent first, ties broken by
    /// value (the reference implementation sorts everything).
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = self.counts.iter().map(|(&v, &n)| (v, n)).collect();
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::packet::Feature;

    #[test]
    fn empty_histogram() {
        let h = FeatureHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.count(5), 0);
        assert!(h.rank_ordered_counts().is_empty());
        assert!(h.heavy_hitter().is_none());
        assert_eq!(h.max_share(), 0.0);
        // No allocation until the first observation.
        assert_eq!(h.keys.capacity(), 0);
    }

    #[test]
    fn counting() {
        let h: FeatureHistogram = [1u32, 1, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(h.total(), 6);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(9), 0);
    }

    #[test]
    fn add_n_and_zero() {
        let mut h = FeatureHistogram::new();
        h.add_n(7, 5);
        h.add_n(8, 0); // no-op
        assert_eq!(h.total(), 5);
        assert_eq!(h.distinct(), 1);
        assert_eq!(h.count(8), 0);
    }

    #[test]
    fn key_zero_is_a_valid_value() {
        // A slot stores `value + 1` and 0 marks vacancy, so value 0 (a
        // real address encoding) must behave like any other.
        let mut h = FeatureHistogram::new();
        h.add(0);
        h.add(0);
        h.add(7);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.distinct(), 2);
    }

    #[test]
    fn counts_only_walk_sees_the_multiset_iter_sees() {
        // Empty, sparse in an oversized table, grown, and with both edge
        // keys: the compacted counts are `iter`'s counts, and the raw walk
        // adds nothing but zeros.
        let mut oversized = FeatureHistogram::with_capacity(500);
        oversized.add_n(9, 4);
        let mut edges: FeatureHistogram = (0..300u32).map(|v| v % 97).collect();
        edges.add_n(u32::MAX, 6);
        edges.add_n(0, 2);
        for h in [FeatureHistogram::new(), oversized, edges] {
            let mut want: Vec<u64> = h.iter().map(|(_, n)| n).collect();
            want.sort_unstable();
            let mut got = vec![u64::MAX; h.distinct() + 1];
            let len = h.compact_counts(&mut got);
            got.truncate(len);
            got.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(h.counts_sorted(), want);
            let mut raw: Vec<u64> = h.slot_counts().filter(|&n| n != 0).collect();
            raw.sort_unstable();
            assert_eq!(raw, want);
            assert_eq!(h.slot_counts().sum::<u64>(), h.total());
        }
    }

    /// Mean and worst number of slots a lookup of a stored key examines.
    fn probe_lengths(h: &FeatureHistogram) -> (f64, usize) {
        let mask = h.keys.len() - 1;
        let (mut total, mut worst) = (0, 0);
        for (j, &stored) in h.keys.iter().enumerate() {
            if stored != 0 {
                let slots = (j.wrapping_sub(home_slot(stored)) & mask) + 1;
                total += slots;
                worst = worst.max(slots);
            }
        }
        (total as f64 / h.distinct as f64, worst)
    }

    /// The key families feature values arrive in. The slot index is
    /// unobservable in every output, so this is the only test that
    /// notices when it degrades: the index this one replaced (low bits
    /// of `value · odd`) scans 375 slots per probe on the masked family
    /// while passing every other test in the workspace.
    #[test]
    fn probe_lengths_stay_short() {
        use crate::sketch::SketchHistogram;
        use entromine_net::{Ipv4, PacketHeader};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(21);
        let mut families: Vec<(String, Vec<u32>)> = vec![
            (
                "consecutive run".into(),
                (0..6000).map(|i| 0x0A01_0000 + i).collect(),
            ),
            (
                "/21-masked, random".into(),
                (0..3000)
                    .map(|_| Ipv4(rng.random_range(0..u32::MAX)).anonymize().0)
                    .collect(),
            ),
            (
                "/21-masked, consecutive blocks".into(),
                (0..500).map(|i| (0x14000 + i) << 11).collect(),
            ),
            (
                "/24-aligned".into(),
                (0..2000).map(|i| (0x0A_0000 + i) << 8).collect(),
            ),
            (
                "ephemeral ports".into(),
                (0..1500).map(|_| rng.random_range(32768..61000)).collect(),
            ),
            ("ports 0..1024".into(), (0..1024).collect()),
            (
                "random u32".into(),
                (0..3000).map(|_| rng.random_range(0..u32::MAX)).collect(),
            ),
            (
                // One cell's worth of Abilene packets: hosts of a few
                // customer networks, addresses masked on export.
                "srcIP of an anonymized cell".into(),
                (0..1200)
                    .map(|_| {
                        let src = Ipv4(0x0A10_0000 + rng.random_range(0..1 << 20));
                        let pkt = PacketHeader::tcp(src, 1024, Ipv4(9), 80, 100, 0).anonymized();
                        Feature::SrcIp.extract(&pkt)
                    })
                    .collect(),
            ),
        ];
        for k in [4, 8, 12, 16] {
            families.push((
                format!("multiples of 2^{k}"),
                (0..2000).map(|i| i << k).collect(),
            ));
        }
        // What a sketch's survivor table holds once it samples: the keys
        // whose Fx bits 32..32+level are zero.
        for level in [6, 10] {
            families.push((
                format!("level-{level} sketch survivors of /21-masked keys"),
                (0..1 << 21)
                    .map(|block| block << 11)
                    .filter(|&v| SketchHistogram::admitted_at(level, v))
                    .take(2000)
                    .collect(),
            ));
        }
        for (name, keys) in &families {
            // As the ingest plane sizes a table (from the distinct count)
            // and as an unhinted table grows.
            let grown: FeatureHistogram = keys.iter().copied().collect();
            let distinct = grown.distinct();
            let mut presized = FeatureHistogram::with_capacity(distinct);
            for &v in keys {
                presized.add(v);
            }
            for (how, h) in [("presized", &presized), ("grown", &grown)] {
                let (mean, worst) = probe_lengths(h);
                println!("{name} ({distinct} keys, {how}): {mean:.2} / {worst}");
                assert!(
                    mean <= 2.0 && worst <= 32,
                    "{name} ({distinct} keys, {how}): {mean:.2} slots per probe, worst {worst}"
                );
            }
        }
    }

    #[test]
    fn growth_preserves_contents() {
        let mut h = FeatureHistogram::new();
        for v in 0..10_000u32 {
            h.add_n(v, (v as u64 % 7) + 1);
        }
        assert_eq!(h.distinct(), 10_000);
        for v in 0..10_000u32 {
            assert_eq!(h.count(v), (v as u64 % 7) + 1);
        }
        // Load factor stays at or below one half.
        assert!(h.keys.len() >= 2 * h.distinct());
    }

    #[test]
    fn with_capacity_absorbs_without_growth() {
        let mut h = FeatureHistogram::with_capacity(500);
        let cap = h.keys.len();
        for v in 0..500u32 {
            h.add(v);
        }
        assert_eq!(h.keys.len(), cap, "pre-sized table must not grow");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: FeatureHistogram = [1u32, 2].into_iter().collect();
        let b: FeatureHistogram = [2u32, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.distinct(), 3);
    }

    #[test]
    fn multiset_equality_ignores_history() {
        // Same multiset built in different orders, with different
        // capacity histories, must compare equal.
        let a: FeatureHistogram = [5u32, 9, 9, 1, 5, 5].into_iter().collect();
        let mut b = FeatureHistogram::with_capacity(300);
        b.add_n(9, 2);
        b.add_n(1, 1);
        b.add_n(5, 3);
        assert_eq!(a, b);
        let mut c = b.clone();
        c.add(1);
        assert_ne!(a, c);
    }

    #[test]
    fn rank_order_is_descending() {
        let h: FeatureHistogram = [5u32, 5, 5, 9, 9, 1].into_iter().collect();
        assert_eq!(h.rank_ordered_counts(), vec![3, 2, 1]);
    }

    #[test]
    fn top_k_and_heavy_hitter() {
        let h: FeatureHistogram = [5u32, 5, 5, 9, 9, 1].into_iter().collect();
        assert_eq!(h.top_k(2), vec![(5, 3), (9, 2)]);
        assert_eq!(h.heavy_hitter(), Some((5, 3)));
        assert!((h.max_share() - 0.5).abs() < 1e-12);
        // k larger than distinct count returns everything.
        assert_eq!(h.top_k(10).len(), 3);
        assert!(h.top_k(0).is_empty());
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let h: FeatureHistogram = [4u32, 2, 4, 2].into_iter().collect();
        // Equal counts: smaller value first.
        assert_eq!(h.top_k(2), vec![(2, 2), (4, 2)]);
    }

    #[test]
    fn top_k_partial_selection_matches_full_sort() {
        // Many ties across the k boundary: the select_nth path must agree
        // with the reference's full sort.
        let mut flat = FeatureHistogram::new();
        let mut map = MapHistogram::new();
        for v in 0..200u32 {
            let n = (v as u64 % 5) + 1;
            flat.add_n(v, n);
            map.add_n(v, n);
        }
        for k in [0, 1, 3, 40, 199, 200, 500] {
            assert_eq!(flat.top_k(k), map.top_k(k), "k = {k}");
        }
    }
}
