//! Seeded, deterministic fault injection for the ingest→Monitor seams.
//!
//! The paper's detector is meant to run unattended on backbone telemetry,
//! where the real enemy is not clean synthetic drift but corrupt exports,
//! collector outages, duplicated and reordered deliveries, and clock
//! skew. This module packages those faults as **data** — a [`FaultPlan`]
//! of `(bin, FaultKind)` events plus a seed — and a [`FaultInjector`]
//! that applies the plan at either of the pipeline's two seams:
//!
//! * the **row seam** ([`FaultInjector::deliver_rows`]): the three
//!   measurement rows a [`Monitor`](crate::Monitor) observes per bin, for
//!   garbage-row, drop, duplicate, and reorder faults;
//! * the **packet seam** ([`FaultInjector::deliver_batch`]): one bin's
//!   packet batch headed for the ingest grid, for outage, duplicate,
//!   reorder, and timestamp-skew faults.
//!
//! The injector wraps the stream from the *outside* — the hot-path types
//! ([`Monitor`](crate::Monitor), [`TrainingWindow`](crate::TrainingWindow),
//! the grid builders) are untouched, which is what keeps the no-fault
//! guarantee trivially auditable: with [`FaultPlan::none`] every delivery
//! is an exact copy of its input, and a monitor fed through the injector
//! is **bitwise identical** to one fed directly (pinned in
//! `tests/fault_equivalence.rs`).
//!
//! Everything is deterministic: fault payloads (which positions a garbage
//! row corrupts, which bins a [`FaultPlan::random_outages`] schedule
//! blanks) derive from the plan seed and the bin index alone via a
//! splitmix64 stream, never from global state. The same plan over the
//! same feed reproduces the same faulted stream, which is what makes a
//! chaos failure replayable from its seed.

use entromine_net::PacketHeader;
use std::collections::BTreeMap;

/// The value pattern a [`FaultKind::GarbageRows`] event writes into the
/// corrupted positions of a bin's measurement rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GarbageKind {
    /// NaN — the classic silent poison: every comparison is false, every
    /// downstream moment non-finite. Must be quarantined, not scored.
    Nan,
    /// `±Inf` (sign drawn from the seeded stream per position).
    Infinite,
    /// Huge but finite values (`~1e300`): these pass any finiteness gate
    /// — they are real, scorable data — but square to `Inf` inside the
    /// fit's centered products, making every fit of a window that absorbed
    /// them fail until the poisoned chunk rolls out. The fault that
    /// exercises refit failure chains and retry backoff.
    HugeFinite,
    /// Every value replaced by the same constant: a frozen exporter.
    /// Enough consecutive constant bins make the training window
    /// rank-degenerate at refit time.
    Constant,
}

/// One fault's effect on the delivery stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Collector outage: the bin's delivery is suppressed entirely.
    DropBin,
    /// The bin's delivery is emitted twice (a collector re-exporting a
    /// batch after a timeout).
    DuplicateBin,
    /// The bin's delivery is held back and released only after `by`
    /// subsequent upstream bins have been delivered — out-of-order
    /// arrival. Held deliveries still pending at end of stream are
    /// released by [`FaultInjector::flush`].
    DelayBin {
        /// How many subsequent upstream deliveries overtake this bin.
        by: usize,
    },
    /// The bin's measurement rows are corrupted with the given pattern
    /// (row seam only; a packet batch carries integer counts, so this
    /// event is a no-op at the packet seam).
    GarbageRows(GarbageKind),
    /// Every packet timestamp in the bin's batch is shifted by `secs`
    /// (packet seam only): negative values send the batch backward in
    /// event time (late data the grid's allowed-lateness policy must
    /// absorb or count as dropped), large positive values send it to the
    /// far future (refused by the grid's horizon sanity bound — and the
    /// watermark is *not* advanced by refused packets).
    SkewTimestamps {
        /// Signed shift in seconds; saturates at zero going backward.
        secs: i64,
    },
}

/// One scheduled fault: at upstream bin `bin`, apply `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The upstream bin index the fault applies to.
    pub bin: usize,
    /// What happens to that bin's delivery.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault schedule: which bins get which faults.
///
/// Plans are plain data — build them with [`with`](Self::with) /
/// [`outage`](Self::outage), generate them with
/// [`random_outages`](Self::random_outages), or construct the fields
/// directly. Multiple events on one bin compose in insertion order (e.g.
/// garbage-then-duplicate emits two corrupted copies).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for every derived payload (garbage positions and values).
    pub seed: u64,
    /// The scheduled faults, applied per bin in insertion order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injecting it is bitwise a no-op (pinned in
    /// `tests/fault_equivalence.rs`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan schedules no faults at all.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder: schedule `kind` at `bin`.
    pub fn with(mut self, bin: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { bin, kind });
        self
    }

    /// Builder: a collector outage spanning `bins` (one
    /// [`FaultKind::DropBin`] per bin).
    pub fn outage(mut self, bins: std::ops::Range<usize>) -> Self {
        for bin in bins {
            self.events.push(FaultEvent {
                bin,
                kind: FaultKind::DropBin,
            });
        }
        self
    }

    /// A schedule that blanks each of `total_bins` independently with
    /// probability `chance` — the "dead collector" model the
    /// `backbone_monitor` example injects. Deterministic in `seed`.
    pub fn random_outages(seed: u64, total_bins: usize, chance: f64) -> Self {
        let mut plan = FaultPlan {
            seed,
            events: Vec::new(),
        };
        for bin in 0..total_bins {
            if SplitMix64::for_bin(seed, bin).next_f64() < chance {
                plan.events.push(FaultEvent {
                    bin,
                    kind: FaultKind::DropBin,
                });
            }
        }
        plan
    }

    /// The bins this plan drops ([`FaultKind::DropBin`]), ascending and
    /// deduplicated — ground truth for outage accounting.
    pub fn drop_bins(&self) -> Vec<usize> {
        let mut bins: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::DropBin)
            .map(|e| e.bin)
            .collect();
        bins.sort_unstable();
        bins.dedup();
        bins
    }
}

/// One bin's measurement rows as (possibly faulted) delivered to a
/// monitor: the row-seam delivery unit of a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelivery {
    /// The bin index carried by the delivery (the upstream bin's — a
    /// duplicated or reordered delivery keeps its original index).
    pub bin: usize,
    /// Per-flow byte counts, length `p`.
    pub bytes: Vec<f64>,
    /// Per-flow packet counts, length `p`.
    pub packets: Vec<f64>,
    /// Raw unfolded entropy row, length `4p`.
    pub entropy: Vec<f64>,
    /// `true` when any fault touched this delivery's contents or timing.
    pub faulted: bool,
}

/// One bin's packet batch as (possibly faulted) delivered to the ingest
/// grid: the packet-seam delivery unit of a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDelivery {
    /// The upstream bin index the batch was built for.
    pub bin: usize,
    /// `(flow, header)` pairs ready for `offer_packets`.
    pub packets: Vec<(usize, PacketHeader)>,
    /// `true` when any fault touched this delivery's contents or timing.
    pub faulted: bool,
}

/// Running counters of what the injector actually did — the injected
/// ground truth a harness compares the monitor's
/// [`health`](crate::Monitor::health) counters against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries suppressed by [`FaultKind::DropBin`].
    pub dropped: u64,
    /// Extra copies emitted by [`FaultKind::DuplicateBin`].
    pub duplicated: u64,
    /// Deliveries held back by [`FaultKind::DelayBin`].
    pub delayed: u64,
    /// Deliveries corrupted by [`FaultKind::GarbageRows`].
    pub corrupted: u64,
    /// Batches time-shifted by [`FaultKind::SkewTimestamps`].
    pub skewed: u64,
}

/// Applies a [`FaultPlan`] to a stream of per-bin deliveries, at the row
/// seam or the packet seam. See the module-level docs for the no-fault
/// bitwise guarantee and the determinism contract.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    /// Per-bin fault list, in the plan's insertion order.
    by_bin: BTreeMap<usize, Vec<FaultKind>>,
    /// Row-seam deliveries held back by `DelayBin`, with the number of
    /// future upstream deliveries still to overtake them.
    held_rows: Vec<(usize, RowDelivery)>,
    /// Packet-seam deliveries held back by `DelayBin`, same discipline.
    held_batches: Vec<(usize, BatchDelivery)>,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut by_bin: BTreeMap<usize, Vec<FaultKind>> = BTreeMap::new();
        for event in &plan.events {
            by_bin.entry(event.bin).or_default().push(event.kind);
        }
        FaultInjector {
            seed: plan.seed,
            by_bin,
            held_rows: Vec::new(),
            held_batches: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Row seam: takes one upstream bin's true measurement rows and
    /// returns the deliveries the fault schedule produces — possibly
    /// none (outage), possibly several (duplicates, or a held-back bin
    /// whose delay expired). With no fault scheduled for the bin, the
    /// single delivery is an exact copy of the input.
    pub fn deliver_rows(
        &mut self,
        bin: usize,
        bytes: &[f64],
        packets: &[f64],
        entropy: &[f64],
    ) -> Vec<RowDelivery> {
        // Count this upstream delivery against existing holds *before*
        // fault processing, so a bin held during this very call is not
        // decremented by its own delivery.
        let released = self.take_due_rows();
        let mut current = vec![RowDelivery {
            bin,
            bytes: bytes.to_vec(),
            packets: packets.to_vec(),
            entropy: entropy.to_vec(),
            faulted: false,
        }];
        if let Some(kinds) = self.by_bin.get(&bin).cloned() {
            for kind in kinds {
                match kind {
                    FaultKind::DropBin => {
                        self.stats.dropped += current.len() as u64;
                        current.clear();
                    }
                    FaultKind::DuplicateBin => {
                        self.stats.duplicated += current.len() as u64;
                        let copies: Vec<RowDelivery> = current
                            .iter()
                            .map(|d| RowDelivery {
                                faulted: true,
                                ..d.clone()
                            })
                            .collect();
                        current.extend(copies);
                    }
                    FaultKind::DelayBin { by } => {
                        self.stats.delayed += current.len() as u64;
                        for mut d in current.drain(..) {
                            d.faulted = true;
                            self.held_rows.push((by.max(1), d));
                        }
                    }
                    FaultKind::GarbageRows(garbage) => {
                        let mut rng = SplitMix64::for_bin(self.seed, bin);
                        for d in &mut current {
                            corrupt_row(&mut d.bytes, garbage, &mut rng);
                            corrupt_row(&mut d.packets, garbage, &mut rng);
                            corrupt_row(&mut d.entropy, garbage, &mut rng);
                            d.faulted = true;
                            self.stats.corrupted += 1;
                        }
                    }
                    // Rows carry no timestamps; skew is a packet-seam
                    // fault and leaves row deliveries untouched.
                    FaultKind::SkewTimestamps { .. } => {}
                }
            }
        }
        // Held bins whose delay just expired arrive after the current
        // bin — that is the reordering. They already had their faults
        // applied when first delivered, so current-bin faults skip them.
        current.extend(released);
        current
    }

    /// Packet seam: takes one upstream bin's packet batch and returns
    /// the batch deliveries the fault schedule produces. Garbage-row
    /// events are no-ops here; timestamp skew applies here only.
    pub fn deliver_batch(
        &mut self,
        bin: usize,
        packets: &[(usize, PacketHeader)],
    ) -> Vec<BatchDelivery> {
        let released = self.take_due_batches();
        let mut current = vec![BatchDelivery {
            bin,
            packets: packets.to_vec(),
            faulted: false,
        }];
        if let Some(kinds) = self.by_bin.get(&bin).cloned() {
            for kind in kinds {
                match kind {
                    FaultKind::DropBin => {
                        self.stats.dropped += current.len() as u64;
                        current.clear();
                    }
                    FaultKind::DuplicateBin => {
                        self.stats.duplicated += current.len() as u64;
                        let copies: Vec<BatchDelivery> = current
                            .iter()
                            .map(|d| BatchDelivery {
                                faulted: true,
                                ..d.clone()
                            })
                            .collect();
                        current.extend(copies);
                    }
                    FaultKind::DelayBin { by } => {
                        self.stats.delayed += current.len() as u64;
                        for mut d in current.drain(..) {
                            d.faulted = true;
                            self.held_batches.push((by.max(1), d));
                        }
                    }
                    FaultKind::SkewTimestamps { secs } => {
                        for d in &mut current {
                            for (_, header) in &mut d.packets {
                                header.timestamp = if secs >= 0 {
                                    header.timestamp.saturating_add(secs as u64)
                                } else {
                                    header.timestamp.saturating_sub(secs.unsigned_abs())
                                };
                            }
                            d.faulted = true;
                            self.stats.skewed += 1;
                        }
                    }
                    // Packet batches carry integer counts, not rows.
                    FaultKind::GarbageRows(_) => {}
                }
            }
        }
        current.extend(released);
        current
    }

    /// Releases every delivery still held back by a `DelayBin` fault —
    /// call once after the upstream ends so a delay past the end of the
    /// stream cannot swallow a bin.
    pub fn flush(&mut self) -> (Vec<RowDelivery>, Vec<BatchDelivery>) {
        let rows = self.held_rows.drain(..).map(|(_, d)| d).collect();
        let batches = self.held_batches.drain(..).map(|(_, d)| d).collect();
        (rows, batches)
    }

    fn take_due_rows(&mut self) -> Vec<RowDelivery> {
        let mut due = Vec::new();
        let mut still_held = Vec::with_capacity(self.held_rows.len());
        for (remaining, d) in self.held_rows.drain(..) {
            if remaining <= 1 {
                due.push(d);
            } else {
                still_held.push((remaining - 1, d));
            }
        }
        self.held_rows = still_held;
        due
    }

    fn take_due_batches(&mut self) -> Vec<BatchDelivery> {
        let mut due = Vec::new();
        let mut still_held = Vec::with_capacity(self.held_batches.len());
        for (remaining, d) in self.held_batches.drain(..) {
            if remaining <= 1 {
                due.push(d);
            } else {
                still_held.push((remaining - 1, d));
            }
        }
        self.held_batches = still_held;
        due
    }
}

/// Overwrites a deterministic ~quarter of `row` (always including the
/// first element, so a corruption is never an accidental no-op) with the
/// garbage pattern.
fn corrupt_row(row: &mut [f64], garbage: GarbageKind, rng: &mut SplitMix64) {
    for (i, v) in row.iter_mut().enumerate() {
        let hit = i == 0 || rng.next_f64() < 0.25;
        if !hit {
            continue;
        }
        *v = match garbage {
            GarbageKind::Nan => f64::NAN,
            GarbageKind::Infinite => {
                if rng.next_f64() < 0.5 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            GarbageKind::HugeFinite => 1e300,
            GarbageKind::Constant => 1.0,
        };
    }
}

/// Splitmix64: a tiny, allocation-free deterministic stream. Each
/// (seed, bin) pair gets an independent stream, so payloads do not
/// depend on the order the injector visits bins in.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn for_bin(seed: u64, bin: usize) -> Self {
        // Golden-ratio mix keeps adjacent bins' streams uncorrelated.
        SplitMix64 {
            state: seed ^ (bin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::{Ipv4, PacketHeader};

    fn rows(p: usize, bin: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let bytes: Vec<f64> = (0..p).map(|i| (bin * 10 + i) as f64).collect();
        let packets: Vec<f64> = bytes.iter().map(|b| b / 2.0).collect();
        let entropy: Vec<f64> = (0..4 * p).map(|i| 1.0 + i as f64 / 10.0).collect();
        (bytes, packets, entropy)
    }

    #[test]
    fn empty_plan_is_an_exact_copy() {
        let mut inj = FaultInjector::new(&FaultPlan::none());
        let (b, p, e) = rows(3, 7);
        let out = inj.deliver_rows(7, &b, &p, &e);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bin, 7);
        assert_eq!(out[0].bytes, b);
        assert_eq!(out[0].packets, p);
        assert_eq!(out[0].entropy, e);
        assert!(!out[0].faulted);
        assert_eq!(*inj.stats(), FaultStats::default());
        let (held_rows, held_batches) = inj.flush();
        assert!(held_rows.is_empty() && held_batches.is_empty());
    }

    #[test]
    fn drop_duplicate_and_delay_compose() {
        let plan = FaultPlan::none()
            .with(1, FaultKind::DropBin)
            .with(2, FaultKind::DuplicateBin)
            .with(3, FaultKind::DelayBin { by: 2 });
        let mut inj = FaultInjector::new(&plan);
        let (b, p, e) = rows(2, 0);
        assert_eq!(inj.deliver_rows(0, &b, &p, &e).len(), 1);
        assert_eq!(inj.deliver_rows(1, &b, &p, &e).len(), 0, "dropped");
        let dup = inj.deliver_rows(2, &b, &p, &e);
        assert_eq!(dup.iter().map(|d| d.bin).collect::<Vec<_>>(), [2, 2]);
        assert_eq!(inj.deliver_rows(3, &b, &p, &e).len(), 0, "held");
        assert_eq!(inj.deliver_rows(4, &b, &p, &e).len(), 1);
        // Bin 3 released after two subsequent deliveries, after bin 5.
        let out = inj.deliver_rows(5, &b, &p, &e);
        assert_eq!(out.iter().map(|d| d.bin).collect::<Vec<_>>(), [5, 3]);
        assert_eq!(
            *inj.stats(),
            FaultStats {
                dropped: 1,
                duplicated: 1,
                delayed: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn garbage_payloads_are_deterministic_in_the_seed() {
        let plan = FaultPlan {
            seed: 42,
            events: vec![FaultEvent {
                bin: 5,
                kind: FaultKind::GarbageRows(GarbageKind::Nan),
            }],
        };
        let (b, p, e) = rows(4, 5);
        let out_a = FaultInjector::new(&plan).deliver_rows(5, &b, &p, &e);
        let out_b = FaultInjector::new(&plan).deliver_rows(5, &b, &p, &e);
        // NaN != NaN, so compare bit patterns.
        let bits = |d: &RowDelivery| {
            d.bytes
                .iter()
                .chain(&d.packets)
                .chain(&d.entropy)
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&out_a[0]), bits(&out_b[0]));
        assert!(out_a[0].faulted);
        assert!(out_a[0].bytes[0].is_nan(), "first element always corrupted");
        // A different seed corrupts different positions/values.
        let other = FaultPlan { seed: 43, ..plan };
        let out_c = FaultInjector::new(&other).deliver_rows(5, &b, &p, &e);
        assert_ne!(bits(&out_a[0]), bits(&out_c[0]));
    }

    #[test]
    fn timestamp_skew_applies_only_at_the_packet_seam() {
        let plan = FaultPlan::none()
            .with(0, FaultKind::SkewTimestamps { secs: -100 })
            .with(1, FaultKind::SkewTimestamps { secs: 1_000_000 });
        let mut inj = FaultInjector::new(&plan);
        let pkt = |ts| {
            (
                0usize,
                PacketHeader::tcp(
                    Ipv4::new(10, 0, 0, 1),
                    1,
                    Ipv4::new(10, 0, 0, 2),
                    2,
                    100,
                    ts,
                ),
            )
        };
        let back = inj.deliver_batch(0, &[pkt(30), pkt(150)]);
        assert_eq!(back[0].packets[0].1.timestamp, 0, "saturates at zero");
        assert_eq!(back[0].packets[1].1.timestamp, 50);
        let forward = inj.deliver_batch(1, &[pkt(30)]);
        assert_eq!(forward[0].packets[0].1.timestamp, 1_000_030);
        assert_eq!(inj.stats().skewed, 2);
        // The same plan at the row seam changes nothing.
        let mut row_inj = FaultInjector::new(&plan);
        let (b, p, e) = rows(2, 0);
        let out = row_inj.deliver_rows(0, &b, &p, &e);
        assert_eq!(out[0].bytes, b);
        assert!(!out[0].faulted);
    }

    #[test]
    fn random_outages_are_reproducible_and_reported() {
        let plan = FaultPlan::random_outages(7, 200, 0.1);
        assert_eq!(plan, FaultPlan::random_outages(7, 200, 0.1));
        let drops = plan.drop_bins();
        assert!(!drops.is_empty() && drops.len() < 60, "≈10% of 200 bins");
        let mut inj = FaultInjector::new(&plan);
        let (b, p, e) = rows(2, 0);
        for bin in 0..200 {
            let n = inj.deliver_rows(bin, &b, &p, &e).len();
            assert_eq!(n, usize::from(!drops.contains(&bin)));
        }
        assert_eq!(inj.stats().dropped, drops.len() as u64);
    }
}
