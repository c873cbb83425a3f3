//! Map-side combining: the batch-ingest engine behind
//! [`ShardedGridBuilder`](crate::ShardedGridBuilder)'s batch offers.
//!
//! Every batch the sharded plane accepts takes the same three steps, the
//! first of which finishes before any accumulator is touched:
//!
//! 1. **Validate** every event against the grid in one forward pass
//!    ([`validate_batch`]): atomic batch error semantics, late events
//!    dropped and counted, and each survivor handed to its owning shard
//!    as one packed `u64` key, `rank << 32 | batch index`, where the
//!    *cell rank* `(bin − next_emit) · width + slot` totally orders the
//!    shard's cells by (bin, flow slot). The same pass counts each
//!    shard's events per slot and notes whether its keys came out
//!    non-decreasing. [`StreamConfig`](crate::StreamConfig) bounds
//!    `horizon_bins · n_flows` to `2^32`, so a rank always fits its 32
//!    bits.
//! 2. **Group in linear time** ([`CellKeys::grouped`]). A shard whose
//!    keys are already non-decreasing is grouped as offered (a
//!    per-flow, per-bin feed) and skips the next step, for which it
//!    would be the identity. Any other shard runs one stable counting
//!    sort on the slot: a prefix sum over the counts and one scatter into
//!    a grow-only buffer, `O(n + width)`. Events of one flow keep offer
//!    order, so a flow burst stays adjacent; they may still alternate
//!    between bins (a flow's held records from the previous bin among
//!    the current bin's), which step 3 handles by starting a new cell
//!    whenever the rank changes.
//! 3. **Run-merge** within each cell ([`accumulate_grouped`]):
//!    consecutive events sharing one feature tuple collapse into a single
//!    weighted run fed through [`BinAccumulator::absorb_run`]'s `add_n`
//!    path, so the histograms see four table probes per distinct flow per
//!    bin instead of four per packet — with the cell borrowed once per
//!    contiguous group and no allocation per packet.
//!
//! There is no in-order walk, no comparison sort and no bail-out: every
//! batch, whatever its shape, is validated, grouped and run-merged. The
//! serial [`StreamingGridBuilder`](crate::StreamingGridBuilder) shares
//! step 1 only; it absorbs the admitted events one at a time, as the
//! executable specification.
//!
//! Because entropy finalization is a pure function of each histogram's
//! count multiset (see [`crate::metrics`]), none of this reordering or
//! weighting is observable downstream: the sharded plane emits
//! [`FinalizedBin`](crate::FinalizedBin) rows bit-identical to per-packet
//! offers, which `crates/entropy/tests/shard_equivalence.rs` pins on
//! shuffled, multi-bin batches at every shard count.

use crate::accum::BinAccumulator;
use crate::stream::StreamError;

/// The accumulation surface the combining engine drives: anything that
/// can lend out the accumulator of a `(bin, slot)` cell. The engine
/// borrows each cell once per contiguous cell group and feeds it merged
/// runs directly — no intermediate buffering.
pub trait CellGrid {
    /// Borrows (opening if necessary) the accumulator for `slot` at
    /// `bin`. `slot` is whatever index space the caller's ranks use
    /// (shard-local flow indices on the sharded plane).
    fn cell(&mut self, bin: usize, slot: usize) -> &mut BinAccumulator;
}

/// The admission rules of a grid builder, hoisted out so the serial and
/// sharded planes admit events identically.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub n_flows: usize,
    pub bin_secs: u64,
    pub next_emit: usize,
    pub horizon_bins: usize,
}

impl Admission {
    /// Validates one event: `Ok(None)` means late (drop and count),
    /// `Ok(Some(bin))` admits it.
    #[inline]
    pub fn admit(&self, flow: usize, timestamp: u64) -> Result<Option<usize>, StreamError> {
        self.check_flow(flow)?;
        self.admit_time(timestamp)
    }

    #[inline]
    fn check_flow(&self, flow: usize) -> Result<(), StreamError> {
        if flow >= self.n_flows {
            return Err(StreamError::FlowOutOfRange {
                flow,
                n_flows: self.n_flows,
            });
        }
        Ok(())
    }

    #[inline]
    fn admit_time(&self, timestamp: u64) -> Result<Option<usize>, StreamError> {
        let bin = (timestamp / self.bin_secs) as usize;
        if bin < self.next_emit {
            return Ok(None);
        }
        let horizon_end = self.next_emit.saturating_add(self.horizon_bins);
        if bin >= horizon_end {
            return Err(StreamError::BeyondHorizon { bin, horizon_end });
        }
        Ok(Some(bin))
    }
}

/// An event the batch paths can ingest: anything that knows its event
/// time and reduces to a weighted feature tuple.
pub trait IngestEvent {
    /// The timestamp that bins this event.
    fn event_time(&self) -> u64;
    /// The four extracted feature values, `FEATURES` order.
    fn tuple(&self) -> [u32; 4];
    /// The packet weight this event carries.
    fn weight(&self) -> u64;
    /// The byte volume this event carries.
    fn bytes(&self) -> u64;
    /// Whether two events share one flow tuple (compared on the raw
    /// fields, so the hot merge loop never materializes tuples it will
    /// not keep).
    fn same_tuple(&self, other: &Self) -> bool;
}

impl IngestEvent for entromine_net::packet::PacketHeader {
    #[inline]
    fn event_time(&self) -> u64 {
        self.timestamp
    }

    #[inline]
    fn tuple(&self) -> [u32; 4] {
        [
            self.src_ip.0,
            self.src_port as u32,
            self.dst_ip.0,
            self.dst_port as u32,
        ]
    }

    #[inline]
    fn weight(&self) -> u64 {
        1
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes as u64
    }

    #[inline]
    fn same_tuple(&self, other: &Self) -> bool {
        self.src_ip == other.src_ip
            && self.src_port == other.src_port
            && self.dst_ip == other.dst_ip
            && self.dst_port == other.dst_port
    }
}

impl IngestEvent for entromine_net::flow::FlowRecord {
    /// Flow records bin by their first-packet timestamp (how collectors
    /// export, and how the paper bins).
    #[inline]
    fn event_time(&self) -> u64 {
        self.first
    }

    #[inline]
    fn tuple(&self) -> [u32; 4] {
        [
            self.key.src_ip.0,
            self.key.src_port as u32,
            self.key.dst_ip.0,
            self.key.dst_port as u32,
        ]
    }

    #[inline]
    fn weight(&self) -> u64 {
        self.packets
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The transport protocol is deliberately ignored: the accumulators
    /// never see it, so records differing only in protocol combine.
    #[inline]
    fn same_tuple(&self, other: &Self) -> bool {
        self.key.src_ip == other.key.src_ip
            && self.key.src_port == other.key.src_port
            && self.key.dst_ip == other.key.dst_ip
            && self.key.dst_port == other.key.dst_port
    }
}

/// Coordinator pre-pass: validates the whole batch (atomically — on error
/// nothing may be absorbed), counts late events, and hands every admitted
/// event's `(batch index, flow, bin)` to `sink` for rank assignment.
/// Returns the late-event count.
pub(crate) fn validate_batch<E: IngestEvent>(
    batch: &[(usize, E)],
    adm: &Admission,
    mut sink: impl FnMut(u32, usize, usize),
) -> Result<u64, StreamError> {
    assert!(
        batch.len() <= u32::MAX as usize,
        "a batch indexes its events in 32 bits"
    );
    let mut late = 0u64;
    // The last admitted bin and its first second: an event inside that
    // window (most of any feed) skips the division and the horizon checks.
    let mut window: Option<(u64, usize)> = None;
    for (i, &(flow, ref ev)) in batch.iter().enumerate() {
        adm.check_flow(flow)?;
        let ts = ev.event_time();
        let bin = match window {
            Some((lo, bin)) if ts.wrapping_sub(lo) < adm.bin_secs => bin,
            _ => match adm.admit_time(ts)? {
                None => {
                    late += 1;
                    continue;
                }
                Some(bin) => {
                    window = Some((bin as u64 * adm.bin_secs, bin));
                    bin
                }
            },
        };
        sink(i as u32, flow, bin);
    }
    Ok(late)
}

/// One shard's cell keys for the batch in flight, and the scratch that
/// groups them by cell. Kept across batches: [`reset`](Self::reset) keeps
/// every buffer's capacity, so a steady feed allocates nothing here.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellKeys {
    /// `rank << 32 | batch index` per admitted event, in batch order.
    keys: Vec<u64>,
    /// Events per slot this batch; the counting sort turns them into
    /// scatter offsets.
    counts: Vec<u32>,
    /// The last key pushed.
    last: u64,
    /// Whether the keys came out non-decreasing, i.e. already grouped.
    sorted: bool,
    /// Scatter target of the counting sort; it only ever grows.
    grouped: Vec<u64>,
}

impl CellKeys {
    /// Empties the keys for a new batch over `slots` slots.
    pub(crate) fn reset(&mut self, slots: usize) {
        self.keys.clear();
        self.counts.clear();
        self.counts.resize(slots, 0);
        self.last = 0;
        self.sorted = true;
    }

    /// Records the admitted event at batch index `idx`, `bins_ahead` bins
    /// past the next unemitted one, in `slot`. Its cell rank
    /// `bins_ahead · slots + slot` is below the `2^32` cells
    /// [`StreamConfig`](crate::StreamConfig) bounds the horizon to.
    #[inline]
    pub(crate) fn push(&mut self, bins_ahead: usize, slot: usize, idx: u32) {
        let rank = bins_ahead * self.counts.len() + slot;
        debug_assert!(
            rank <= u32::MAX as usize,
            "cell rank {rank} overflows 32 bits"
        );
        let key = (rank as u64) << 32 | idx as u64;
        self.sorted &= key >= self.last;
        self.last = key;
        self.keys.push(key);
        self.counts[slot] += 1;
    }

    /// The keys grouped by slot, batch order kept within a slot. Keys that
    /// came out non-decreasing are returned as pushed; otherwise one
    /// stable counting sort on the slot (a prefix sum over the counts and
    /// one scatter) groups them in linear time.
    pub(crate) fn grouped(&mut self) -> &[u64] {
        if self.sorted {
            return &self.keys;
        }
        let mut at = 0u32;
        for c in &mut self.counts {
            let n = *c;
            *c = at;
            at += n;
        }
        let n = self.keys.len();
        if self.grouped.len() < n {
            self.grouped.resize(n, 0);
        }
        let stride = self.counts.len() as u64;
        for &key in &self.keys {
            let to = &mut self.counts[((key >> 32) % stride) as usize];
            self.grouped[*to as usize] = key;
            *to += 1;
        }
        &self.grouped[..n]
    }
}

/// Combines each cell's events into weighted runs and feeds them to the
/// grid cell by cell. `keys` hold `rank << 32 | batch index` with
/// `rank = (bin − next_emit) · stride + slot`, grouped by slot
/// ([`CellKeys::grouped`]); a slot's events may still alternate between
/// bins, so a new cell starts wherever the rank changes.
pub(crate) fn accumulate_grouped<E: IngestEvent>(
    batch: &[(usize, E)],
    keys: &[u64],
    stride: usize,
    next_emit: usize,
    grid: &mut impl CellGrid,
) {
    let mut k = 0;
    while k < keys.len() {
        let rank = keys[k] >> 32;
        let mut end = k + 1;
        while end < keys.len() && keys[end] >> 32 == rank {
            end += 1;
        }
        let bin = next_emit + (rank / stride as u64) as usize;
        let slot = (rank % stride as u64) as usize;
        let acc = grid.cell(bin, slot);
        let mut i = k;
        while i < end {
            let first = &batch[keys[i] as u32 as usize].1;
            let mut weight = first.weight();
            let mut bytes = first.bytes();
            i += 1;
            while i < end {
                let next = &batch[keys[i] as u32 as usize].1;
                if !next.same_tuple(first) {
                    break;
                }
                weight += next.weight();
                bytes += next.bytes();
                i += 1;
            }
            acc.absorb_run(first.tuple(), weight, bytes);
        }
        k = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::{Ipv4, PacketHeader};

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn adm() -> Admission {
        Admission {
            n_flows: 4,
            bin_secs: 300,
            next_emit: 0,
            horizon_bins: 2016,
        }
    }

    #[test]
    fn admission_matches_builder_rules() {
        let a = adm();
        assert!(matches!(a.admit(0, 10), Ok(Some(0))));
        assert!(matches!(a.admit(3, 700), Ok(Some(2))));
        assert!(matches!(
            a.admit(4, 0),
            Err(StreamError::FlowOutOfRange { .. })
        ));
        assert!(matches!(
            a.admit(0, u64::MAX),
            Err(StreamError::BeyondHorizon { .. })
        ));
        let later = Admission {
            next_emit: 2,
            ..adm()
        };
        assert!(matches!(later.admit(0, 10), Ok(None)), "sealed bin is late");
    }

    /// Validates `batch` into one shard's keys over every flow, the way
    /// the sharded plane does with a single shard.
    fn keys_of(batch: &[(usize, PacketHeader)], a: &Admission) -> (CellKeys, u64) {
        let mut keys = CellKeys::default();
        keys.reset(a.n_flows);
        let late = validate_batch(batch, a, |idx, flow, bin| {
            keys.push(bin - a.next_emit, flow, idx)
        })
        .unwrap();
        (keys, late)
    }

    /// The serial builder's way: each admitted event absorbed on its own,
    /// in offer order.
    fn per_event(batch: &[(usize, PacketHeader)], a: &Admission) -> MapGrid {
        let mut grid = MapGrid::default();
        validate_batch(batch, a, |idx, flow, bin| {
            let ev = &batch[idx as usize].1;
            grid.cell(bin, flow)
                .absorb_run(ev.tuple(), ev.weight(), ev.bytes());
        })
        .unwrap();
        grid
    }

    fn assert_same_cells(want: &MapGrid, got: &MapGrid) {
        assert_eq!(want.cells.len(), got.cells.len());
        for (k, acc) in &want.cells {
            assert_eq!(acc.summarize(), got.cells[k].summarize(), "cell {k:?}");
        }
    }

    #[test]
    fn grouped_runs_combine_equal_tuples() {
        // Interleaved cells and duplicate tuples: runs must come back
        // grouped per cell with duplicates combined.
        let batch = vec![
            (0usize, pkt(1, 80, 10)),
            (1, pkt(2, 80, 20)),
            (0, pkt(1, 80, 30)),
            (0, pkt(5, 443, 40)),
            (1, pkt(2, 80, 350)), // bin 1
        ];
        let a = adm();
        let (mut keys, late) = keys_of(&batch, &a);
        assert_eq!(late, 0);
        assert!(!keys.sorted, "flows interleave");
        let mut grid = MapGrid::default();
        accumulate_grouped(&batch, keys.grouped(), a.n_flows, 0, &mut grid);
        assert_eq!(grid.cells.len(), 3);
        // (bin 0, flow 0): two packets of tuple (1, 1024, 9, 80) combined
        // plus one of (5, ..., 443).
        let acc = &grid.cells[&(0, 0)];
        assert_eq!(acc.packets(), 3);
        assert_eq!(acc.bytes(), 300);
        assert_eq!(acc.histogram(crate::Feature::SrcIp).count(1), 2);
        assert_eq!(acc.histogram(crate::Feature::SrcIp).count(5), 1);
        assert_eq!(grid.cells[&(0, 1)].packets(), 1);
        assert_eq!(grid.cells[&(1, 1)].packets(), 1);
    }

    #[test]
    fn validation_error_matches_forward_order() {
        // Two different errors behind a valid event: the earliest one in
        // offer order surfaces.
        let batch = vec![
            (0usize, pkt(1, 80, 10)),
            (9, pkt(2, 80, 20)),
            (0, pkt(3, 80, u64::MAX)),
        ];
        let err = validate_batch(&batch, &adm(), |_, _, _| {}).unwrap_err();
        assert!(matches!(err, StreamError::FlowOutOfRange { flow: 9, .. }));
    }

    #[test]
    fn per_event_path_builds_identical_cells() {
        // An ungrouped, multi-bin batch with a late event and a repeated
        // tuple: absorbing the admitted events one at a time in offer
        // order (the serial builder's way) and the group-and-merge path
        // must build identical cells.
        let a = Admission {
            next_emit: 1,
            ..adm()
        };
        let batch = vec![
            (2usize, pkt(1, 80, 610)), // bin 2
            (0, pkt(9, 80, 20)),       // late: bin 0 is sealed
            (3, pkt(3, 443, 650)),
            (2, pkt(1, 80, 315)),
            (1, pkt(4, 80, 320)),
            (2, pkt(1, 80, 330)),
            (2, pkt(5, 80, 340)),
        ];
        let (mut keys, late) = keys_of(&batch, &a);
        assert_eq!(late, 1);
        let mut grouped = MapGrid::default();
        accumulate_grouped(&batch, keys.grouped(), a.n_flows, a.next_emit, &mut grouped);
        let want = per_event(&batch, &a);
        assert_eq!(want.cells.len(), 4);
        assert_same_cells(&want, &grouped);
    }

    #[test]
    fn held_records_across_two_bins_land_in_their_cells() {
        // The NetFlow held-record shape: flow 1's records from bin 0,
        // exported late, interleave with its bin 1 records and with other
        // flows. Fed as is, the keys take the counting sort's scatter;
        // pre-grouped by (bin, flow), they are non-decreasing and skip it.
        // Both must fill the cells the per-event path fills.
        let shuffled = vec![
            (1usize, pkt(7, 80, 310)), // bin 1
            (3, pkt(2, 53, 320)),
            (1, pkt(7, 80, 290)), // held: bin 0
            (1, pkt(8, 443, 330)),
            (0, pkt(4, 80, 100)),
            (1, pkt(7, 80, 20)), // held: bin 0
            (1, pkt(7, 80, 340)),
            (3, pkt(2, 53, 200)),
        ];
        let a = adm();
        let want = per_event(&shuffled, &a);
        assert_eq!(want.cells.len(), 5);
        assert_eq!(want.cells[&(0, 1)].packets(), 2);
        assert_eq!(want.cells[&(1, 1)].packets(), 3);

        let (mut keys, _) = keys_of(&shuffled, &a);
        assert!(!keys.sorted, "a shuffled batch takes the scatter");
        let mut scattered = MapGrid::default();
        accumulate_grouped(&shuffled, keys.grouped(), a.n_flows, 0, &mut scattered);
        assert_same_cells(&want, &scattered);

        let mut pregrouped = shuffled.clone();
        pregrouped.sort_by_key(|(flow, p)| (p.timestamp / a.bin_secs, *flow));
        let (mut keys, _) = keys_of(&pregrouped, &a);
        assert!(keys.sorted, "a pre-grouped batch skips the scatter");
        let mut skipped = MapGrid::default();
        accumulate_grouped(&pregrouped, keys.grouped(), a.n_flows, 0, &mut skipped);
        assert_same_cells(&want, &skipped);
    }

    /// A trivially inspectable grid for engine tests.
    #[derive(Default)]
    struct MapGrid {
        cells: std::collections::BTreeMap<(usize, usize), BinAccumulator>,
    }

    impl CellGrid for MapGrid {
        fn cell(&mut self, bin: usize, slot: usize) -> &mut BinAccumulator {
            self.cells.entry((bin, slot)).or_default()
        }
    }
}
