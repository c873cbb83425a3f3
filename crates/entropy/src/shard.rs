//! The sharded ingest plane: per-shard grid builders + a coordinator.
//!
//! [`StreamingGridBuilder`](crate::StreamingGridBuilder) is a single
//! accumulation thread: every packet of every OD flow funnels through one
//! set of open-bin accumulators. That is the right *executable
//! specification* — small, obviously correct, easy to test against — but
//! a PoP-scale deployment ingests millions of users' traffic, and one
//! core's worth of histogram updates becomes the pipeline's front-door
//! bottleneck long before the detectors do.
//!
//! [`ShardedGridBuilder`] is the production ingest plane:
//!
//! * **Hash partitioning.** Each OD flow is assigned to one of `N` shards
//!   by a fixed multiplicative hash of its flow index. A shard owns the
//!   open-bin [`BinAccumulator`]s of exactly its own flows, so shards
//!   never share mutable state and need no locks.
//! * **Batch fan-out with map-side combining.** Events are offered in
//!   batches ([`offer_packets`](ShardedGridBuilder::offer_packets) /
//!   [`offer_flows`](ShardedGridBuilder::offer_flows)); the coordinator
//!   validates the whole batch up front and assigns each event a cell
//!   rank, then every shard sort-and-groups its slice into
//!   `(bin, flow, flow-key)` combined runs (the `combine` module) and
//!   feeds its accumulators through the weighted `add_n` path — four
//!   table probes per distinct flow per bin instead of four per packet.
//!   Shards fan out over scoped threads, reusing the worker-sizing
//!   discipline of [`entromine_linalg::par`] (spawn only when the batch
//!   is worth it, ≤16 OS threads regardless of shard count).
//! * **Watermark coordination.** The event-time watermark, lateness
//!   slack, sanity horizon, and gap-bin conventions live in the
//!   coordinator and behave exactly like the serial builder's. When a bin
//!   seals, every shard summarizes its slice (in parallel when large
//!   enough) and the coordinator scatters the slices into the dense
//!   flow-ordered [`FinalizedBin`] row.
//!
//! # Bit-identical by construction
//!
//! Each (flow, bin) cell's accumulator receives exactly the traffic the
//! serial builder's cell would — a flow lives on one shard, and
//! combining only reorders and reweights updates, never moves them
//! between cells. Counts are exact integer sums, and entropy
//! finalization is a pure function of each histogram's count multiset
//! (sorted-count-group iteration with compensated summation, see
//! [`sample_entropy`](crate::sample_entropy)), so neither sharding,
//! batch segmentation, nor
//! combining order can perturb a bit of the output. Finalization
//! summarizes each cell independently and places it at its global flow
//! index. The emitted `FinalizedBin` sequence is therefore bitwise
//! identical to the serial per-packet builder's for *any* shard count;
//! the shard-equivalence suite
//! (`crates/entropy/tests/shard_equivalence.rs`) pins this over shard
//! counts 1/2/7/16, late events, and gap bins.
//!
//! # Batch error semantics
//!
//! A batch is validated **atomically**, exactly like the serial builder's
//! batch offers: if any event is invalid (unknown flow, corrupt
//! far-future timestamp) the whole batch is rejected before any shard
//! touches an accumulator. Late events are not errors in either plane —
//! they are dropped and counted, never silently.

use crate::accum::{BinAccumulator, BinSummary};
use crate::combine;
use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use crate::stream::{FinalizedBin, StreamConfig, StreamError};
use entromine_linalg::par;
use entromine_net::flow::FlowRecord;
use entromine_net::packet::PacketHeader;
use std::collections::BTreeMap;

/// Fixed multiplicative (Fibonacci) hash assigning a flow to a shard.
///
/// The constant is `2^64 / φ`; the high bits of the product are well
/// mixed, so consecutive flow indices spread evenly across shards instead
/// of striding.
fn shard_of(flow: usize, shards: usize) -> usize {
    (((flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
}

/// Rough per-packet accumulation cost in the flop-equivalent units
/// [`par::workers_for`] expects (four histogram updates dominate).
const PACKET_WORK: usize = 400;

/// Rough per-cell finalization cost (four entropy reductions) in the same
/// units.
const SUMMARIZE_WORK: usize = 600;

/// One shard of the ingest plane: the open-bin accumulators of the flows
/// it owns, stored at shard-local indices.
#[derive(Debug, Clone)]
struct Shard<D: DistributionAccumulator = FeatureHistogram> {
    /// Global flow ids owned by this shard, ascending. `flows[local] =
    /// global`.
    flows: Vec<usize>,
    /// Open bins, keyed by bin index; each row holds one accumulator per
    /// owned flow, in `flows` order.
    open: BTreeMap<usize, Vec<BinAccumulator<D>>>,
    /// Per owned flow, the per-feature distinct counts of its last
    /// finalized bin with traffic — sizing hints for fresh accumulators.
    size_hints: Vec<[u32; 4]>,
    /// Store parameters for every cell this shard opens.
    params: D::Params,
}

impl<D: DistributionAccumulator> combine::CellGrid<D> for Shard<D> {
    /// Borrows (opening if necessary) the local accumulator for `local`
    /// flow index at `bin`. Fresh rows are pre-sized from the previous
    /// bin's distinct counts with no headroom beyond the power-of-two
    /// rounding, so a table whose cell sees more distinct values than
    /// that still regrows once mid-bin: 2–3 % of the tables of a
    /// steady-state `abilene-packets` bin, 6 % at `abilene-netflow`'s
    /// half scale. A 25 % headroom trial did not pay (−5 % on the
    /// isolated insert loop, and finalization walks the extra slots).
    fn cell(&mut self, bin: usize, local: usize) -> &mut BinAccumulator<D> {
        let hints = &self.size_hints;
        let params = &self.params;
        &mut self.open.entry(bin).or_insert_with(|| {
            hints
                .iter()
                .map(|h| BinAccumulator::with_size_hints_in(h.map(|d| d as usize), params))
                .collect()
        })[local]
    }
}

impl<D: DistributionAccumulator> Shard<D> {
    /// Removes and summarizes this shard's slice of `bin`, if any traffic
    /// opened it, feeding the observed cardinalities back as hints
    /// (flows that saw no traffic this bin keep their previous hints).
    fn take_summaries(&mut self, bin: usize) -> Option<Vec<BinSummary>> {
        self.open.remove(&bin).map(|row| {
            for (hint, acc) in self.size_hints.iter_mut().zip(&row) {
                if acc.packets() > 0 {
                    let d = acc.size_hints();
                    *hint = [d[0] as u32, d[1] as u32, d[2] as u32, d[3] as u32];
                }
            }
            row.iter().map(BinAccumulator::summarize).collect()
        })
    }
}

/// The sharded ingest plane: hash-partitioned per-shard builders behind a
/// watermark coordinator. See the [module docs](self) for the design and
/// the bit-identity contract with
/// [`StreamingGridBuilder`](crate::StreamingGridBuilder).
///
/// ```
/// use entromine_entropy::shard::ShardedGridBuilder;
/// use entromine_entropy::stream::StreamConfig;
/// use entromine_net::{Ipv4, PacketHeader};
///
/// let mut b = ShardedGridBuilder::new(StreamConfig::new(2), 4).unwrap();
/// let batch = vec![
///     (0, PacketHeader::tcp(Ipv4(1), 10, Ipv4(2), 80, 100, 12)),
///     (1, PacketHeader::tcp(Ipv4(3), 11, Ipv4(4), 443, 100, 290)),
/// ];
/// b.offer_packets(&batch).unwrap();
/// let sealed = b.advance_watermark(300);
/// assert_eq!(sealed.len(), 1);
/// assert_eq!(sealed[0].summaries[0].packets, 1);
/// assert_eq!(sealed[0].summaries[1].packets, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedGridBuilder<D: DistributionAccumulator = FeatureHistogram> {
    config: StreamConfig,
    /// Store parameters handed to every shard (and through them to every
    /// cell) — `()` for the exact tier, the key budget for the sketched.
    params: D::Params,
    /// Flow → shard id.
    shard_ix: Vec<u32>,
    /// Flow → index within its shard's accumulator rows.
    local_ix: Vec<u32>,
    shards: Vec<Shard<D>>,
    watermark: u64,
    next_emit: usize,
    /// Late events dropped (counted by the coordinator's validation pass).
    late_events: u64,
    /// Offers refused by the far-future horizon bound, mirroring the
    /// serial builder's counter (a refused batch counts once).
    rejected_events: u64,
    finalized_bins: u64,
    /// Per-shard `(rank, index)` sort-key buffers, kept across batches so
    /// a steady feed stops paying one allocation per shard per batch.
    scratch: Vec<Vec<(u64, u32)>>,
}

impl ShardedGridBuilder {
    /// A sharded plane with `shards` shards and no open bins, starting at
    /// bin 0 with watermark 0.
    ///
    /// Like [`StreamingGridBuilder::new`](crate::StreamingGridBuilder::new),
    /// this is implemented on the concrete exact-tier type so pre-trait
    /// call sites keep compiling; other tiers go through
    /// [`with_params`](Self::with_params) or the
    /// [`AccumulatorPolicy`](crate::AccumulatorPolicy) facade.
    ///
    /// # Errors
    ///
    /// The same [`StreamError::BadConfig`] conditions as the serial
    /// builder, plus a zero shard count.
    pub fn new(config: StreamConfig, shards: usize) -> Result<Self, StreamError> {
        Self::with_params(config, shards, ())
    }
}

impl<D: DistributionAccumulator> ShardedGridBuilder<D> {
    /// [`new`](ShardedGridBuilder::new) with explicit store parameters —
    /// the tier-generic constructor.
    pub fn with_params(
        config: StreamConfig,
        shards: usize,
        params: D::Params,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        if shards == 0 {
            return Err(StreamError::BadConfig(
                "ingest plane needs at least 1 shard",
            ));
        }
        // More shards than flows would leave empty shards; harmless, but
        // clamping keeps the fan-out honest.
        let shards = shards.min(config.n_flows);
        let mut shard_ix = vec![0u32; config.n_flows];
        let mut local_ix = vec![0u32; config.n_flows];
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for flow in 0..config.n_flows {
            let s = shard_of(flow, shards);
            shard_ix[flow] = s as u32;
            local_ix[flow] = owned[s].len() as u32;
            owned[s].push(flow);
        }
        let scratch = vec![Vec::new(); owned.len()];
        Ok(ShardedGridBuilder {
            config,
            shard_ix,
            local_ix,
            shards: owned
                .into_iter()
                .map(|flows| Shard {
                    size_hints: vec![[0u32; 4]; flows.len()],
                    flows,
                    open: BTreeMap::new(),
                    params: params.clone(),
                })
                .collect(),
            params,
            watermark: 0,
            next_emit: 0,
            late_events: 0,
            rejected_events: 0,
            finalized_bins: 0,
            scratch,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The store parameters every cell is built from.
    pub fn params(&self) -> &D::Params {
        &self.params
    }

    /// Number of shards the flow space is partitioned into.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current event-time watermark, seconds.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of bins currently open on any shard (bounds the working
    /// set).
    pub fn open_bins(&self) -> usize {
        // A bin may be open on several shards; count distinct bins the
        // way the serial builder would.
        let mut bins: Vec<usize> = self
            .shards
            .iter()
            .flat_map(|s| s.open.keys().copied())
            .collect();
        bins.sort_unstable();
        bins.dedup();
        bins.len()
    }

    /// Events dropped because they arrived after their bin sealed.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Offers refused by the far-future horizon sanity bound
    /// ([`StreamError::BeyondHorizon`]); semantics match
    /// [`StreamingGridBuilder::rejected_events`].
    ///
    /// [`StreamingGridBuilder::rejected_events`]:
    ///     crate::StreamingGridBuilder::rejected_events
    pub fn rejected_events(&self) -> u64 {
        self.rejected_events
    }

    /// Bins finalized so far.
    pub fn finalized_bins(&self) -> u64 {
        self.finalized_bins
    }

    /// The next bin index [`advance_watermark`](Self::advance_watermark)
    /// will emit.
    pub fn next_bin(&self) -> usize {
        self.next_emit
    }

    /// Offers a batch of packets through the map-side combining path,
    /// fanning accumulation out across the shards. The batch is validated
    /// atomically: on error, nothing has been absorbed. Late events are
    /// dropped and counted.
    pub fn offer_packets(&mut self, batch: &[(usize, PacketHeader)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Offers a batch of flow records through the same combining path and
    /// atomic validation as [`offer_packets`](Self::offer_packets).
    pub fn offer_flows(&mut self, batch: &[(usize, FlowRecord)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Shared batch path: validate and partition in one coordinator
    /// pre-pass, then sort-and-group each shard's slice into combined
    /// flow runs and fan the per-shard accumulation out (see the
    /// [`combine`] module for the engine).
    fn offer_batch<E: combine::IngestEvent + Sync>(
        &mut self,
        batch: &[(usize, E)],
    ) -> Result<(), StreamError> {
        // Coordinator pre-pass, O(1) per event: validate (so the
        // expensive accumulation below never aborts half-done), drop and
        // count late events, and assign each survivor its cell rank in
        // its owning shard — each worker then touches only its own events
        // instead of rescanning the whole batch.
        let adm = self.config.admission(self.next_emit);
        let next_emit = self.next_emit;
        let widths: Vec<usize> = self.shards.iter().map(|s| s.flows.len()).collect();
        // The per-shard sort-key buffers persist on the builder: clearing
        // keeps their capacity, so after the first few batches of a steady
        // feed this path allocates nothing.
        for keys in &mut self.scratch {
            keys.clear();
        }
        let per_shard = &mut self.scratch;
        let shard_ix = &self.shard_ix;
        let local_ix = &self.local_ix;
        let late = match combine::validate_batch(batch, &adm, |idx, flow, bin| {
            let s = shard_ix[flow] as usize;
            let rank = ((bin - next_emit) * widths[s] + local_ix[flow] as usize) as u64;
            per_shard[s].push((rank, idx));
        }) {
            Ok(late) => late,
            Err(e) => {
                if matches!(e, StreamError::BeyondHorizon { .. }) {
                    self.rejected_events += 1;
                }
                return Err(e);
            }
        };
        // The batch validated end to end: only now does any state change.
        self.late_events += late;

        let run = |shard: &mut Shard<D>, keys: &mut Vec<(u64, u32)>| {
            let width = shard.flows.len();
            combine::accumulate_grouped(batch, keys, width, next_emit, shard);
        };

        let workers = par::workers_for(batch.len().saturating_mul(PACKET_WORK));
        if self.shards.len() == 1 || workers <= 1 {
            for (shard, keys) in self.shards.iter_mut().zip(per_shard.iter_mut()) {
                run(shard, keys);
            }
            return Ok(());
        }
        // One worker per shard, with shards grouped when there are more
        // shards than the thread cap allows.
        let groups = par::even_ranges(self.shards.len(), workers.min(par::MAX_THREADS));
        std::thread::scope(|scope| {
            let mut shards_rest: &mut [Shard<D>] = &mut self.shards;
            let mut keys_rest: &mut [Vec<(u64, u32)>] = per_shard;
            for group in &groups {
                let (mine, tail) = shards_rest.split_at_mut(group.len());
                shards_rest = tail;
                let (my_keys, keys_tail) = keys_rest.split_at_mut(group.len());
                keys_rest = keys_tail;
                let run = &run;
                scope.spawn(move || {
                    for (shard, keys) in mine.iter_mut().zip(my_keys) {
                        run(shard, keys);
                    }
                });
            }
        });
        Ok(())
    }

    /// Bytes of heap currently owned by the distribution stores of every
    /// open cell across all shards — the sharded plane's working-set
    /// number for the memory-tier benches. Mirrors
    /// [`StreamingGridBuilder::accumulator_heap_bytes`](crate::StreamingGridBuilder::accumulator_heap_bytes).
    pub fn accumulator_heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.open.values())
            .flat_map(|row| row.iter().map(BinAccumulator::heap_bytes))
            .sum()
    }

    /// Advances the event-time watermark (monotone) and returns every
    /// newly sealed bin in time order — the coordinator half of the
    /// plane, with the same sealing, gap-bin, and horizon-capping rules
    /// as the serial builder.
    pub fn advance_watermark(&mut self, event_time: u64) -> Vec<FinalizedBin> {
        self.watermark = self.watermark.max(event_time);
        let sealed_below = (self.watermark.saturating_sub(self.config.allowed_lateness)
            / self.config.bin_secs) as usize;
        let capped = sealed_below.min(self.next_emit.saturating_add(self.config.horizon_bins));
        self.emit_through(capped)
    }

    /// Seals and returns every bin still open on any shard (plus zero
    /// rows for gaps) — the end-of-stream flush.
    pub fn finish(mut self) -> Vec<FinalizedBin> {
        match self
            .shards
            .iter()
            .filter_map(|s| s.open.keys().next_back().copied())
            .max()
        {
            Some(last) => self.emit_through(last + 1),
            None => Vec::new(),
        }
    }

    /// Emits bins `next_emit..upto` in order: each shard summarizes its
    /// slice of every sealed bin (fanned out when the work justifies it),
    /// and the coordinator scatters the slices into dense flow-ordered
    /// rows.
    fn emit_through(&mut self, upto: usize) -> Vec<FinalizedBin> {
        if self.next_emit >= upto {
            return Vec::new();
        }
        let bins: Vec<usize> = (self.next_emit..upto).collect();

        // Per shard, the summarized slice of every sealed bin it opened.
        let summarize = |shard: &mut Shard<D>| -> Vec<(usize, Vec<BinSummary>)> {
            bins.iter()
                .filter_map(|&bin| shard.take_summaries(bin).map(|s| (bin, s)))
                .collect()
        };
        let open_cells: usize = self
            .shards
            .iter()
            .map(|s| {
                s.open
                    .range(..upto)
                    .map(|(_, row)| row.len())
                    .sum::<usize>()
            })
            .sum();
        let workers = par::workers_for(open_cells.saturating_mul(SUMMARIZE_WORK));
        let slices: Vec<Vec<(usize, Vec<BinSummary>)>> = if self.shards.len() == 1 || workers <= 1 {
            self.shards.iter_mut().map(summarize).collect()
        } else {
            let groups = par::even_ranges(self.shards.len(), workers.min(par::MAX_THREADS));
            let mut slices: Vec<Vec<(usize, Vec<BinSummary>)>> =
                vec![Vec::new(); self.shards.len()];
            std::thread::scope(|scope| {
                let mut shards_rest: &mut [Shard<D>] = &mut self.shards;
                let mut out_rest: &mut [Vec<(usize, Vec<BinSummary>)>] = &mut slices;
                for group in &groups {
                    let (mine, tail) = shards_rest.split_at_mut(group.len());
                    shards_rest = tail;
                    let (out, out_tail) = out_rest.split_at_mut(group.len());
                    out_rest = out_tail;
                    let summarize = &summarize;
                    scope.spawn(move || {
                        for (shard, slot) in mine.iter_mut().zip(out) {
                            *slot = summarize(shard);
                        }
                    });
                }
            });
            slices
        };

        // Scatter: dense zero rows, overwritten wherever a shard had
        // traffic. An untouched cell equals a fresh accumulator's
        // summary, so this matches the serial builder bit for bit.
        let mut rows: BTreeMap<usize, Vec<BinSummary>> = BTreeMap::new();
        for (shard, slice) in self.shards.iter().zip(slices) {
            for (bin, summaries) in slice {
                let row = rows
                    .entry(bin)
                    .or_insert_with(|| vec![BinSummary::default(); self.config.n_flows]);
                for (&flow, summary) in shard.flows.iter().zip(summaries) {
                    row[flow] = summary;
                }
            }
        }
        let out: Vec<FinalizedBin> = bins
            .iter()
            .map(|&bin| FinalizedBin {
                bin,
                summaries: rows
                    .remove(&bin)
                    .unwrap_or_else(|| vec![BinSummary::default(); self.config.n_flows]),
            })
            .collect();
        self.finalized_bins += out.len() as u64;
        self.next_emit = upto;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(ShardedGridBuilder::new(StreamConfig::new(0), 2).is_err());
        assert!(ShardedGridBuilder::new(StreamConfig::new(3), 0).is_err());
        let mut cfg = StreamConfig::new(3);
        cfg.bin_secs = 0;
        assert!(ShardedGridBuilder::new(cfg, 2).is_err());
        assert!(ShardedGridBuilder::new(StreamConfig::new(3).with_horizon(0), 2).is_err());
    }

    #[test]
    fn shard_count_clamped_to_flows() {
        let b = ShardedGridBuilder::new(StreamConfig::new(3), 64).unwrap();
        assert_eq!(b.shards(), 3);
    }

    #[test]
    fn every_flow_owned_exactly_once() {
        let b = ShardedGridBuilder::new(StreamConfig::new(121), 7).unwrap();
        let mut owned: Vec<usize> = b.shards.iter().flat_map(|s| s.flows.clone()).collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..121).collect::<Vec<_>>());
        // The hash spreads flows: no shard is empty, none hoards.
        for s in &b.shards {
            assert!(!s.flows.is_empty());
            assert!(s.flows.len() <= 121 / 7 * 3);
        }
    }

    #[test]
    fn batch_is_validated_atomically() {
        let mut b = ShardedGridBuilder::new(StreamConfig::new(2), 2).unwrap();
        let batch = vec![(0usize, pkt(1, 80, 10)), (5, pkt(2, 80, 20))];
        assert_eq!(
            b.offer_packets(&batch),
            Err(StreamError::FlowOutOfRange {
                flow: 5,
                n_flows: 2
            })
        );
        // Nothing was absorbed: flushing yields no bins.
        assert!(b.finish().is_empty());
    }

    #[test]
    fn late_batch_events_counted_not_misfiled() {
        let mut b = ShardedGridBuilder::new(StreamConfig::new(2), 2).unwrap();
        b.offer_packets(&[(0, pkt(1, 80, 10))]).unwrap();
        assert_eq!(b.advance_watermark(600).len(), 2);
        // Bin 0 is sealed; a batch straggler is dropped and counted.
        b.offer_packets(&[(1, pkt(2, 80, 5)), (1, pkt(3, 80, 700))])
            .unwrap();
        assert_eq!(b.late_events(), 1);
        let sealed = b.advance_watermark(900);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[1].packets, 1);
    }

    #[test]
    fn corrupt_timestamp_rejected_in_batch() {
        let mut b = ShardedGridBuilder::new(StreamConfig::new(1), 1).unwrap();
        assert!(matches!(
            b.offer_packets(&[(0, pkt(1, 80, u64::MAX))]),
            Err(StreamError::BeyondHorizon { .. })
        ));
        assert_eq!(b.rejected_events(), 1);
        // A valid event ahead of the corrupt one is not absorbed either,
        // and the refused batch still counts once.
        assert!(b
            .offer_packets(&[(0, pkt(2, 80, 10)), (0, pkt(3, 80, u64::MAX))])
            .is_err());
        assert_eq!(b.rejected_events(), 2);
        assert!(b.finish().is_empty());
    }
}
