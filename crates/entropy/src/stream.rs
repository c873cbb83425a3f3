//! Streaming construction of the per-bin traffic grid.
//!
//! The batch path ([`TensorBuilder`](crate::TensorBuilder)) assumes the
//! whole `t × p` grid of cell summaries exists before anything downstream
//! runs. An operator watching a live link has no such luxury: packets and
//! flow records arrive roughly in time order, and the grid must grow one
//! finalized bin at a time while memory stays bounded by the number of
//! bins still *open*, not by the length of the stream.
//!
//! [`StreamingGridBuilder`] is that ingest stage. It consumes time-ordered
//! (well, *mostly* time-ordered) packet and flow-record events, keeps a
//! [`BinAccumulator`] grid only for bins the event-time **watermark** has
//! not yet sealed, and emits a [`FinalizedBin`] — the per-flow volume and
//! 4-feature entropy row the detectors consume — as soon as the watermark
//! passes a bin's closing boundary plus the configured lateness slack.
//! Finalization collapses each cell's histograms into 48-byte summaries
//! and drops them, which is exactly the property that lets weeks of
//! network-wide data flow through a fixed-size working set.
//!
//! # Event time, watermarks, lateness
//!
//! * Every offered event carries its own timestamp (seconds from the
//!   measurement epoch); the builder never looks at a wall clock.
//! * The watermark only moves via [`advance_watermark`], monotonically.
//!   Callers that trust their source's ordering advance it with each
//!   event's timestamp; callers with out-of-order sources advance it on a
//!   schedule of their choosing.
//! * Bin `b` (covering `[b·bin_secs, (b+1)·bin_secs)`) is sealed once
//!   `watermark >= (b+1)·bin_secs + allowed_lateness`. Events for sealed
//!   bins are dropped and counted in [`late_events`], never silently.
//! * Bins the watermark skips over without any event finalize as all-zero
//!   rows — the same convention the batch builder uses for missing-data
//!   periods (the paper's Geant archive has them too).
//! * A sanity horizon ([`StreamConfig::horizon_bins`]) bounds how far past
//!   the present an event may land and how many gap bins one watermark
//!   advance emits, so a corrupt timestamp cannot blow the working set.
//!
//! # Per-event vs batch offers
//!
//! This builder is the executable specification the production plane
//! ([`ShardedGridBuilder`](crate::ShardedGridBuilder)) and the
//! equivalence suites are pinned against, so it stays one event at a
//! time. [`offer_packet`]/[`offer_flow`] absorb a single event.
//! [`offer_packets`]/[`offer_flows`] validate a whole batch atomically,
//! then absorb its events in offer order through the same cell path —
//! no sorting, no run merging, no pre-sizing. Map-side combining lives
//! only on the sharded plane; its output is bit-identical to this one
//! because entropy finalization is a pure function of each histogram's
//! count multiset.
//!
//! [`advance_watermark`]: StreamingGridBuilder::advance_watermark
//! [`late_events`]: StreamingGridBuilder::late_events
//! [`offer_packet`]: StreamingGridBuilder::offer_packet
//! [`offer_flow`]: StreamingGridBuilder::offer_flow
//! [`offer_packets`]: StreamingGridBuilder::offer_packets
//! [`offer_flows`]: StreamingGridBuilder::offer_flows

use crate::accum::{BinAccumulator, BinSummary};
use crate::combine;
use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use entromine_net::flow::FlowRecord;
use entromine_net::packet::PacketHeader;
use std::collections::BTreeMap;
use std::fmt;

/// Configuration of the streaming ingest stage.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of OD flows `p` in the grid (fixed for a deployment).
    pub n_flows: usize,
    /// Seconds per time bin (the paper uses 5-minute bins).
    pub bin_secs: u64,
    /// Extra event-time slack, in seconds, a bin stays open after its
    /// closing boundary. 0 means a bin seals the instant the watermark
    /// touches the next bin.
    pub allowed_lateness: u64,
    /// Sanity horizon, in bins: an event more than this far ahead of the
    /// next unemitted bin is rejected as corrupt rather than opened, and
    /// one watermark advance emits at most this many bins. Real feeds
    /// deliver events near the present; a garbage timestamp (a classic
    /// corrupted-capture value like `u64::MAX`) would otherwise open a
    /// bin ~6·10¹⁶ and force an unbounded gap-fill — this bound is what
    /// makes the "memory stays bounded by open bins" promise hold against
    /// hostile input. Default: one week of 5-minute bins.
    pub horizon_bins: usize,
}

impl StreamConfig {
    /// Paper-shaped defaults: 5-minute bins, no lateness slack, a one-week
    /// horizon.
    pub fn new(n_flows: usize) -> Self {
        StreamConfig {
            n_flows,
            bin_secs: 300,
            allowed_lateness: 0,
            horizon_bins: 2016,
        }
    }

    /// Sets the lateness slack.
    pub fn with_lateness(mut self, secs: u64) -> Self {
        self.allowed_lateness = secs;
        self
    }

    /// Sets the sanity horizon.
    pub fn with_horizon(mut self, bins: usize) -> Self {
        self.horizon_bins = bins;
        self
    }

    /// The [`StreamError::BadConfig`] checks every grid builder runs
    /// before opening.
    pub(crate) fn validate(&self) -> Result<(), StreamError> {
        if self.n_flows == 0 {
            return Err(StreamError::BadConfig("grid needs at least one flow"));
        }
        if self.bin_secs == 0 {
            return Err(StreamError::BadConfig("bins must span at least 1 second"));
        }
        if self.horizon_bins == 0 {
            return Err(StreamError::BadConfig(
                "sanity horizon must allow at least 1 bin",
            ));
        }
        Ok(())
    }

    /// The admission rules for a builder whose next unemitted bin is
    /// `next_emit`.
    pub(crate) fn admission(&self, next_emit: usize) -> combine::Admission {
        combine::Admission {
            n_flows: self.n_flows,
            bin_secs: self.bin_secs,
            next_emit,
            horizon_bins: self.horizon_bins,
        }
    }
}

/// Errors from the streaming ingest stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An event named a flow index outside the configured grid.
    FlowOutOfRange {
        /// The offending flow index.
        flow: usize,
        /// Number of flows the builder was configured with.
        n_flows: usize,
    },
    /// An event's timestamp lands implausibly far past the next unemitted
    /// bin — a corrupt capture, not a fast clock.
    BeyondHorizon {
        /// The bin the timestamp maps to.
        bin: usize,
        /// The first bin the builder considers implausible.
        horizon_end: usize,
    },
    /// The configuration is unusable (zero flows, zero-length bins, or a
    /// zero-bin horizon).
    BadConfig(&'static str),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::FlowOutOfRange { flow, n_flows } => {
                write!(f, "flow index {flow} out of range for {n_flows} flows")
            }
            StreamError::BeyondHorizon { bin, horizon_end } => {
                write!(
                    f,
                    "event timestamp maps to bin {bin}, past the sanity horizon at bin \
                     {horizon_end} (corrupt timestamp?)"
                )
            }
            StreamError::BadConfig(what) => write!(f, "bad stream config: {what}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One sealed time bin: the per-flow summaries the detectors consume.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalizedBin {
    /// The time-bin index (`timestamp / bin_secs`).
    pub bin: usize,
    /// One summary per OD flow, dense in flow order. Flows with no
    /// traffic carry the all-zero summary.
    pub summaries: Vec<BinSummary>,
}

impl FinalizedBin {
    /// The raw unfolded entropy row of this bin, length `4p`, laid out
    /// exactly like [`EntropyTensor::unfolded_row`](crate::EntropyTensor::unfolded_row):
    /// `[srcIP(all flows) | srcPort | dstIP | dstPort]`.
    pub fn unfolded_entropy_row(&self) -> Vec<f64> {
        let p = self.summaries.len();
        let mut row = Vec::with_capacity(4 * p);
        for k in 0..4 {
            row.extend(self.summaries.iter().map(|s| s.entropy[k]));
        }
        row
    }

    /// Byte counts per flow (one row of the byte volume matrix).
    pub fn bytes_row(&self) -> Vec<f64> {
        self.summaries.iter().map(|s| s.bytes as f64).collect()
    }

    /// Packet counts per flow (one row of the packet volume matrix).
    pub fn packets_row(&self) -> Vec<f64> {
        self.summaries.iter().map(|s| s.packets as f64).collect()
    }

    /// [`unfolded_entropy_row`](Self::unfolded_entropy_row) into a caller
    /// scratch buffer (cleared first) — the allocation-free form the
    /// per-bin scoring hot path uses.
    pub fn unfolded_entropy_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(4 * self.summaries.len());
        for k in 0..4 {
            out.extend(self.summaries.iter().map(|s| s.entropy[k]));
        }
    }

    /// [`bytes_row`](Self::bytes_row) into a caller scratch buffer
    /// (cleared first).
    pub fn bytes_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.summaries.iter().map(|s| s.bytes as f64));
    }

    /// [`packets_row`](Self::packets_row) into a caller scratch buffer
    /// (cleared first).
    pub fn packets_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.summaries.iter().map(|s| s.packets as f64));
    }
}

/// Streaming grid builder: open-bin accumulators + event-time watermark.
///
/// ```
/// use entromine_entropy::stream::{StreamConfig, StreamingGridBuilder};
/// use entromine_net::{Ipv4, PacketHeader};
///
/// let mut b = StreamingGridBuilder::new(StreamConfig::new(2)).unwrap();
/// // Two packets in bin 0 (t < 300), on flows 0 and 1.
/// let p0 = PacketHeader::tcp(Ipv4(1), 10, Ipv4(2), 80, 100, 12);
/// let p1 = PacketHeader::tcp(Ipv4(3), 11, Ipv4(4), 443, 100, 290);
/// b.offer_packet(0, &p0).unwrap();
/// b.offer_packet(1, &p1).unwrap();
/// assert!(b.advance_watermark(290).is_empty(), "bin 0 still open");
/// // The watermark crossing t = 300 seals bin 0.
/// let sealed = b.advance_watermark(300);
/// assert_eq!(sealed.len(), 1);
/// assert_eq!(sealed[0].bin, 0);
/// assert_eq!(sealed[0].summaries[0].packets, 1);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingGridBuilder<D: DistributionAccumulator = FeatureHistogram> {
    config: StreamConfig,
    /// Store parameters applied to every cell this builder opens —
    /// `()` for the exact tier, the key budget for the sketched tier.
    params: D::Params,
    /// Accumulator grids for bins not yet sealed, keyed by bin index.
    /// A `BTreeMap` keeps drain order = time order for free.
    open: BTreeMap<usize, Vec<BinAccumulator<D>>>,
    /// Highest event time the caller has vouched for.
    watermark: u64,
    /// The next bin index to emit; every bin below it is sealed.
    next_emit: usize,
    /// Events dropped because their bin was already sealed.
    late_events: u64,
    /// Offers refused by the far-future horizon sanity bound (a refused
    /// batch counts once — nothing from it was absorbed).
    rejected_events: u64,
    /// Bins emitted so far.
    finalized_bins: u64,
}

impl StreamingGridBuilder {
    /// A builder with no open bins, starting at bin 0 with watermark 0.
    ///
    /// Implemented on the concrete exact-tier type (the default type
    /// parameter does not apply in expression position), so every
    /// pre-trait call site — `StreamingGridBuilder::new(cfg)` — keeps
    /// compiling and monomorphizing to exactly the code it always did.
    /// Other tiers construct via [`with_params`](Self::with_params).
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        Self::with_params(config, ())
    }
}

impl<D: DistributionAccumulator> StreamingGridBuilder<D> {
    /// A builder with no open bins whose cells are built from `params` —
    /// the tier-generic constructor behind [`new`].
    ///
    /// [`new`]: StreamingGridBuilder::new
    pub fn with_params(config: StreamConfig, params: D::Params) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(StreamingGridBuilder {
            config,
            params,
            open: BTreeMap::new(),
            watermark: 0,
            next_emit: 0,
            late_events: 0,
            rejected_events: 0,
            finalized_bins: 0,
        })
    }

    /// Skips ahead so emission starts at `bin` (a monitor attached to a
    /// live feed mid-epoch has no business emitting the epoch's past).
    pub fn starting_at(mut self, bin: usize) -> Self {
        self.next_emit = self.next_emit.max(bin);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The store parameters every cell is built from.
    pub fn params(&self) -> &D::Params {
        &self.params
    }

    /// Current event-time watermark, seconds.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of bins currently open (bounds the working set).
    pub fn open_bins(&self) -> usize {
        self.open.len()
    }

    /// Events dropped because they arrived after their bin sealed.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Offers refused because an event's timestamp lay beyond the
    /// far-future horizon sanity bound ([`StreamError::BeyondHorizon`]).
    /// A refused batch counts once: batch validation is atomic, so
    /// nothing from it was absorbed. Lets an operator distinguish a
    /// clock-skewed exporter (this counter climbing) from plain late
    /// arrivals ([`late_events`](Self::late_events)).
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

    /// Offers one packet observed on `flow` at its header timestamp.
    ///
    /// Packets for sealed bins are dropped (counted in
    /// [`late_events`](Self::late_events)); everything else lands in its
    /// bin's accumulator, opening the bin if needed.
    pub fn offer_packet(&mut self, flow: usize, pkt: &PacketHeader) -> Result<(), StreamError> {
        let Some(cell) = self.cell_for(flow, pkt.timestamp)? else {
            return Ok(());
        };
        cell.add_packet(pkt);
        Ok(())
    }

    /// Offers one aggregated flow record, binned by its first-packet
    /// timestamp (how flow collectors export, and how the paper bins).
    pub fn offer_flow(&mut self, flow: usize, rec: &FlowRecord) -> Result<(), StreamError> {
        let Some(cell) = self.cell_for(flow, rec.first)? else {
            return Ok(());
        };
        cell.add_flow(rec);
        Ok(())
    }

    /// Offers a batch of packets, all or nothing.
    ///
    /// The batch is validated **atomically**: any invalid event rejects
    /// the whole batch before anything is absorbed (a far-future refusal
    /// counts once in [`rejected_events`](Self::rejected_events)), and
    /// late events are dropped and counted. The admitted packets are then
    /// absorbed one by one, in offer order, into the same cells
    /// [`offer_packet`](Self::offer_packet) would fill.
    pub fn offer_packets(&mut self, batch: &[(usize, PacketHeader)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Offers a batch of aggregated flow records (binned by first-packet
    /// timestamp) with the same atomic validation and in-order absorption
    /// as [`offer_packets`](Self::offer_packets).
    pub fn offer_flows(&mut self, batch: &[(usize, FlowRecord)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Shared batch path: validate everything, then absorb per event.
    fn offer_batch<E: combine::IngestEvent>(
        &mut self,
        batch: &[(usize, E)],
    ) -> Result<(), StreamError> {
        let adm = self.config.admission(self.next_emit);
        let mut admitted = Vec::with_capacity(batch.len());
        let late = combine::validate_batch(batch, &adm, |idx, _, bin| admitted.push((idx, bin)))
            .map_err(|e| self.refuse(e))?;
        // The batch validated end to end: only now does any state change.
        self.late_events += late;
        for (idx, bin) in admitted {
            let (flow, ref ev) = batch[idx as usize];
            self.cell(bin, flow)
                .absorb_run(ev.tuple(), ev.weight(), ev.bytes());
        }
        Ok(())
    }

    /// Borrows (opening if necessary) the accumulator for `flow` at event
    /// time `timestamp`; `None` means the event is late.
    fn cell_for(
        &mut self,
        flow: usize,
        timestamp: u64,
    ) -> Result<Option<&mut BinAccumulator<D>>, StreamError> {
        match self.config.admission(self.next_emit).admit(flow, timestamp) {
            Err(e) => Err(self.refuse(e)),
            Ok(None) => {
                self.late_events += 1;
                Ok(None)
            }
            Ok(Some(bin)) => Ok(Some(self.cell(bin, flow))),
        }
    }

    /// Borrows (opening the bin if necessary) the accumulator of an
    /// admitted `(bin, flow)` cell.
    fn cell(&mut self, bin: usize, flow: usize) -> &mut BinAccumulator<D> {
        let (n_flows, params) = (self.config.n_flows, &self.params);
        &mut self
            .open
            .entry(bin)
            .or_insert_with(|| vec![BinAccumulator::from_params(params); n_flows])[flow]
    }

    /// Counts a far-future refusal (once per refused offer) and passes
    /// the error through.
    fn refuse(&mut self, e: StreamError) -> StreamError {
        if matches!(e, StreamError::BeyondHorizon { .. }) {
            self.rejected_events += 1;
        }
        e
    }

    /// Bytes of heap currently owned by the distribution stores of every
    /// open cell — the working-set number the memory-tier benches record.
    /// The sketched tier keeps this under
    /// `4 · open_cells · heap_ceiling(budget)` no matter how many distinct
    /// keys the feed carries; the exact tier grows with the key space.
    pub fn accumulator_heap_bytes(&self) -> usize {
        self.open
            .values()
            .flat_map(|row| row.iter().map(BinAccumulator::heap_bytes))
            .sum()
    }

    /// Advances the event-time watermark to `event_time` (monotone: lower
    /// values are ignored) and returns every newly sealed bin, in time
    /// order.
    ///
    /// A bin seals when the watermark reaches its closing boundary plus
    /// the lateness slack. Skipped bins with no traffic are emitted as
    /// all-zero rows so the grid downstream stays dense and aligned — but
    /// never more than [`StreamConfig::horizon_bins`] of them per call, so
    /// a corrupt far-future timestamp cannot force an unbounded gap-fill
    /// (call again to drain further if the jump was genuine).
    pub fn advance_watermark(&mut self, event_time: u64) -> Vec<FinalizedBin> {
        self.watermark = self.watermark.max(event_time);
        let sealed_below = (self.watermark.saturating_sub(self.config.allowed_lateness)
            / self.config.bin_secs) as usize;
        let capped = sealed_below.min(self.next_emit.saturating_add(self.config.horizon_bins));
        self.emit_through(capped)
    }

    /// Seals and returns every bin still open (plus zero rows for gaps),
    /// regardless of the watermark — the end-of-stream flush.
    pub fn finish(mut self) -> Vec<FinalizedBin> {
        match self.open.keys().next_back() {
            Some(&last) => self.emit_through(last + 1),
            None => Vec::new(),
        }
    }

    /// Emits bins `next_emit..upto` in order, draining their accumulators.
    fn emit_through(&mut self, upto: usize) -> Vec<FinalizedBin> {
        let mut out = Vec::new();
        while self.next_emit < upto {
            let bin = self.next_emit;
            let summaries = match self.open.remove(&bin) {
                Some(row) => row.iter().map(BinAccumulator::summarize).collect(),
                None => vec![BinSummary::default(); self.config.n_flows],
            };
            out.push(FinalizedBin { bin, summaries });
            self.finalized_bins += 1;
            self.next_emit += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::flow::aggregate_bin;
    use entromine_net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn builder(n_flows: usize) -> StreamingGridBuilder {
        StreamingGridBuilder::new(StreamConfig::new(n_flows)).unwrap()
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(StreamingGridBuilder::new(StreamConfig::new(0)).is_err());
        let mut cfg = StreamConfig::new(3);
        cfg.bin_secs = 0;
        assert!(StreamingGridBuilder::new(cfg).is_err());
        assert!(StreamingGridBuilder::new(StreamConfig::new(3).with_horizon(0)).is_err());
    }

    #[test]
    fn flow_index_validated() {
        let mut b = builder(2);
        assert_eq!(
            b.offer_packet(2, &pkt(1, 80, 0)),
            Err(StreamError::FlowOutOfRange {
                flow: 2,
                n_flows: 2
            })
        );
    }

    #[test]
    fn watermark_seals_bins_in_order() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        b.offer_packet(0, &pkt(2, 80, 400)).unwrap();
        // Watermark inside bin 0: nothing seals.
        assert!(b.advance_watermark(299).is_empty());
        assert_eq!(b.open_bins(), 2);
        // Crossing into bin 1 seals bin 0 only.
        let sealed = b.advance_watermark(300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].bin, 0);
        assert_eq!(sealed[0].summaries[0].packets, 1);
        assert_eq!(b.open_bins(), 1);
        // Watermark never regresses.
        assert!(b.advance_watermark(100).is_empty());
        assert_eq!(b.watermark(), 300);
    }

    #[test]
    fn lateness_slack_keeps_bins_open() {
        let cfg = StreamConfig::new(1).with_lateness(60);
        let mut b = StreamingGridBuilder::new(cfg).unwrap();
        b.offer_packet(0, &pkt(1, 80, 100)).unwrap();
        // Watermark past the boundary but within slack: bin 0 still open,
        // and a straggler for bin 0 is accepted.
        assert!(b.advance_watermark(330).is_empty());
        b.offer_packet(0, &pkt(2, 80, 250)).unwrap();
        assert_eq!(b.late_events(), 0);
        // Past boundary + slack: sealed, straggler now dropped.
        let sealed = b.advance_watermark(360);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0].packets, 2);
        b.offer_packet(0, &pkt(3, 80, 299)).unwrap();
        assert_eq!(b.late_events(), 1);
    }

    #[test]
    fn late_events_do_not_alter_emitted_bins() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        let sealed = b.advance_watermark(600);
        assert_eq!(sealed.len(), 2, "bins 0 and 1 seal");
        // Straggler for bin 0: dropped, and nothing new is emitted for it.
        b.offer_packet(0, &pkt(9, 80, 5)).unwrap();
        assert!(b.advance_watermark(900).iter().all(|fb| fb.bin == 2));
        assert_eq!(b.late_events(), 1);
    }

    #[test]
    fn gap_bins_emit_zero_rows() {
        let mut b = builder(2);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        b.offer_packet(1, &pkt(2, 80, 1000)).unwrap(); // bin 3
        let sealed = b.advance_watermark(1200);
        let bins: Vec<usize> = sealed.iter().map(|fb| fb.bin).collect();
        assert_eq!(bins, vec![0, 1, 2, 3]);
        // Bins 1 and 2 are all-zero.
        for fb in &sealed[1..3] {
            assert!(fb.summaries.iter().all(|s| s.packets == 0));
        }
        assert_eq!(sealed[3].summaries[1].packets, 1);
    }

    #[test]
    fn finish_flushes_everything_open() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 50)).unwrap();
        b.offer_packet(0, &pkt(2, 80, 700)).unwrap(); // bin 2
        let sealed = b.finish();
        let bins: Vec<usize> = sealed.iter().map(|fb| fb.bin).collect();
        assert_eq!(bins, vec![0, 1, 2]);
        let empty = builder(1).finish();
        assert!(empty.is_empty());
    }

    #[test]
    fn starting_at_skips_history() {
        let mut b = builder(1).starting_at(5);
        // An event from the skipped past is late by definition.
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        assert_eq!(b.late_events(), 1);
        b.offer_packet(0, &pkt(2, 80, 5 * 300 + 10)).unwrap();
        let sealed = b.advance_watermark(6 * 300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].bin, 5);
    }

    #[test]
    fn corrupt_far_future_timestamp_rejected() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        // A classic corrupted-capture value must not open bin ~6e16.
        assert!(matches!(
            b.offer_packet(0, &pkt(2, 80, u64::MAX)),
            Err(StreamError::BeyondHorizon { .. })
        ));
        assert_eq!(b.rejected_events(), 1);
        // The batch path counts a refused batch once.
        assert!(b.offer_packets(&[(0, pkt(3, 80, u64::MAX))]).is_err());
        assert_eq!(b.rejected_events(), 2);
        // Within the horizon is fine.
        b.offer_packet(0, &pkt(3, 80, 2015 * 300)).unwrap();
        assert_eq!(b.open_bins(), 2);
        assert_eq!(b.rejected_events(), 2);
    }

    #[test]
    fn watermark_jump_emits_at_most_one_horizon_per_call() {
        let cfg = StreamConfig::new(1).with_horizon(10);
        let mut b = StreamingGridBuilder::new(cfg).unwrap();
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        // A garbage watermark cannot force an unbounded gap-fill ...
        let first = b.advance_watermark(u64::MAX);
        assert_eq!(first.len(), 10);
        // ... but repeated calls keep draining, horizon by horizon.
        let second = b.advance_watermark(0);
        assert_eq!(second.len(), 10);
        assert_eq!(second[0].bin, 10);
    }

    #[test]
    fn unfolded_row_layout_matches_tensor_convention() {
        let fb = FinalizedBin {
            bin: 0,
            summaries: vec![
                BinSummary {
                    packets: 1,
                    bytes: 10,
                    entropy: [1.0, 2.0, 3.0, 4.0],
                },
                BinSummary {
                    packets: 2,
                    bytes: 20,
                    entropy: [10.0, 20.0, 30.0, 40.0],
                },
            ],
        };
        assert_eq!(
            fb.unfolded_entropy_row(),
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]
        );
        assert_eq!(fb.bytes_row(), vec![10.0, 20.0]);
        assert_eq!(fb.packets_row(), vec![1.0, 2.0]);
    }

    #[test]
    fn batch_offers_match_per_packet_offers_exactly() {
        // The batch path must be invisible in the output: the same
        // traffic via offer_packets (reversed, in chunks straddling bins)
        // finalizes bit-identically to per-packet offers.
        let packets: Vec<(usize, PacketHeader)> = (0..600)
            .map(|i| {
                (
                    i % 3,
                    pkt(i as u32 % 11, [80u16, 443, 53][i % 3], (i as u64 * 7) % 900),
                )
            })
            .collect();
        let mut serial = builder(3);
        for (flow, p) in &packets {
            serial.offer_packet(*flow, p).unwrap();
        }
        let serial_bins = serial.finish();

        let mut shuffled = packets.clone();
        shuffled.reverse();
        let mut batched = builder(3);
        for chunk in shuffled.chunks(101) {
            batched.offer_packets(chunk).unwrap();
        }
        let batched_bins = batched.finish();
        assert_eq!(serial_bins, batched_bins);
    }

    #[test]
    fn flow_record_batches_match_packet_batches() {
        let packets: Vec<PacketHeader> = (0..120)
            .map(|i| pkt(i % 5, [80u16, 443][i as usize % 2], 40 + (i as u64) % 260))
            .collect();
        let mut by_packet = builder(1);
        by_packet
            .offer_packets(&packets.iter().map(|p| (0usize, *p)).collect::<Vec<_>>())
            .unwrap();
        let a = by_packet.finish();

        let records: Vec<(usize, FlowRecord)> = aggregate_bin(&packets)
            .into_iter()
            .map(|r| (0usize, r))
            .collect();
        let mut by_record = builder(1);
        by_record.offer_flows(&records).unwrap();
        let b = by_record.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_is_validated_atomically() {
        let mut b = builder(2);
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
        let mut b = builder(1);
        b.offer_packets(&[(0, pkt(1, 80, 10))]).unwrap();
        assert_eq!(b.advance_watermark(600).len(), 2);
        b.offer_packets(&[(0, pkt(2, 80, 5)), (0, pkt(3, 80, 700))])
            .unwrap();
        assert_eq!(b.late_events(), 1);
        let sealed = b.advance_watermark(900);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0].packets, 1);
    }

    #[test]
    fn streamed_summaries_equal_batch_accumulation() {
        // The same packets offered as a stream (packets and flow records
        // mixed) must finalize to exactly the batch accumulator's summary.
        let packets: Vec<PacketHeader> = (0..40)
            .map(|i| pkt(i % 7, [80u16, 443, 53][i as usize % 3], 40 + i as u64))
            .collect();
        let mut batch = BinAccumulator::new();
        batch.add_packets(&packets);

        let mut b = builder(1);
        for p in &packets[..20] {
            b.offer_packet(0, p).unwrap();
        }
        for rec in aggregate_bin(&packets[20..]) {
            b.offer_flow(0, &rec).unwrap();
        }
        let sealed = b.advance_watermark(300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0], batch.summarize());
    }
}
