//! Map-side combining: the batch-ingest engine behind
//! [`ShardedGridBuilder`](crate::ShardedGridBuilder)'s batch offers.
//!
//! Every batch the sharded plane accepts takes the same three steps
//! before any accumulator is touched:
//!
//! 1. **Validate** every event against the grid in one forward pass
//!    ([`validate_batch`]): atomic batch error semantics, late events
//!    dropped and counted, and each survivor handed to its owning shard
//!    with a *cell rank* — `(bin − next_emit) · width + slot` — that
//!    totally orders the shard's cells by (bin, flow slot).
//! 2. **Sort and group.** Each shard sorts its `(rank, index)` keys with
//!    one `sort_unstable` on plain integers, paying `O(n log n)` once to
//!    buy perfect cell locality downstream; the batch index breaks ties,
//!    so events of one cell keep offer order and a flow burst stays
//!    adjacent.
//! 3. **Run-merge** within each cell ([`accumulate_grouped`]):
//!    consecutive events sharing one feature tuple collapse into a single
//!    weighted run fed through [`BinAccumulator::absorb_run`]'s `add_n`
//!    path, so the histograms see four table probes per distinct flow per
//!    bin instead of four per packet — with the cell borrowed once per
//!    contiguous group and no allocation per packet.
//!
//! There is no in-order walk and no bail-out: every batch, whatever its
//! shape, is validated, rank-sorted and run-merged. The serial
//! [`StreamingGridBuilder`](crate::StreamingGridBuilder) shares step 1
//! only; it absorbs the admitted events one at a time, as the executable
//! specification.
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
        if flow >= self.n_flows {
            return Err(StreamError::FlowOutOfRange {
                flow,
                n_flows: self.n_flows,
            });
        }
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
    let mut late = 0u64;
    for (i, &(flow, ref ev)) in batch.iter().enumerate() {
        match adm.admit(flow, ev.event_time())? {
            None => late += 1,
            Some(bin) => sink(i as u32, flow, bin),
        }
    }
    Ok(late)
}

/// Sorts `(rank, index)` keys, combines each cell's events into weighted
/// runs, and feeds them to the grid cell by cell, where
/// `rank = (bin − next_emit) · stride + slot`.
pub(crate) fn accumulate_grouped<E: IngestEvent>(
    batch: &[(usize, E)],
    keys: &mut [(u64, u32)],
    stride: usize,
    next_emit: usize,
    grid: &mut impl CellGrid,
) {
    keys.sort_unstable();
    let mut k = 0;
    while k < keys.len() {
        let rank = keys[k].0;
        let mut end = k + 1;
        while end < keys.len() && keys[end].0 == rank {
            end += 1;
        }
        let bin = next_emit + rank as usize / stride;
        let slot = rank as usize % stride;
        let acc = grid.cell(bin, slot);
        let mut i = k;
        while i < end {
            let first = &batch[keys[i].1 as usize].1;
            let mut weight = first.weight();
            let mut bytes = first.bytes();
            i += 1;
            while i < end {
                let next = &batch[keys[i].1 as usize].1;
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
        let mut keys = Vec::new();
        let late = validate_batch(&batch, &a, |idx, flow, bin| {
            keys.push((((bin * a.n_flows) + flow) as u64, idx));
        })
        .unwrap();
        assert_eq!(late, 0);
        let mut grid = MapGrid::default();
        accumulate_grouped(&batch, &mut keys, a.n_flows, 0, &mut grid);
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
        // order (the serial builder's way) and the sort-and-merge path
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
        let mut per_event = MapGrid::default();
        let mut keys = Vec::new();
        let late = validate_batch(&batch, &a, |idx, flow, bin| {
            let ev = &batch[idx as usize].1;
            per_event
                .cell(bin, flow)
                .absorb_run(ev.tuple(), ev.weight(), ev.bytes());
            keys.push((((bin - a.next_emit) * a.n_flows + flow) as u64, idx));
        })
        .unwrap();
        assert_eq!(late, 1);
        let mut sorted = MapGrid::default();
        accumulate_grouped(&batch, &mut keys, a.n_flows, a.next_emit, &mut sorted);
        assert_eq!(per_event.cells.len(), 4);
        assert_eq!(per_event.cells.len(), sorted.cells.len());
        for (k, acc) in &per_event.cells {
            assert_eq!(acc.summarize(), sorted.cells[k].summarize(), "cell {k:?}");
        }
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
