//! Per-(OD flow, time bin) accumulation of traffic views.
//!
//! The paper constructs, for every OD flow and 5-minute bin, six numbers:
//! byte count, packet count, and the sample entropy of the four traffic
//! features. [`BinAccumulator`] holds the working distribution stores for
//! one cell of that grid and collapses them into a [`BinSummary`]; the
//! stores can then be dropped, which is what keeps three weeks of
//! network-wide data in memory (the summaries are 48 bytes, the stores
//! are not).
//!
//! The accumulator is generic over the per-feature store
//! ([`DistributionAccumulator`]): the default, [`FeatureHistogram`], is
//! the exact tier, and [`SketchHistogram`](crate::SketchHistogram) is the
//! bounded-memory tier — one type parameter selects the whole cell's
//! memory/accuracy trade.

use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use entromine_net::flow::FlowRecord;
use entromine_net::packet::{Feature, PacketHeader, FEATURES};

/// Working state for one (OD flow, bin) cell: the four per-feature
/// distribution stores plus volume counters.
#[derive(Debug, Clone, Default)]
pub struct BinAccumulator<D: DistributionAccumulator = FeatureHistogram> {
    hists: [D; 4],
    packets: u64,
    bytes: u64,
}

impl BinAccumulator {
    /// An empty exact-tier accumulator.
    ///
    /// Implemented on the concrete default type (the default type
    /// parameter does not apply in expression position), so
    /// `BinAccumulator::new()` keeps inferring the exact tier at every
    /// pre-trait call site. Other tiers construct through
    /// [`from_params`](Self::from_params) /
    /// [`with_size_hints_in`](Self::with_size_hints_in) with the tier
    /// named in the target type.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty exact-tier accumulator whose stores are pre-sized to
    /// absorb the given number of distinct values per feature without
    /// growing. The sharded plane feeds this from the previous bin's
    /// observed cardinalities ([`size_hints`](Self::size_hints)): traffic
    /// composition is stable bin over bin, so the hint eliminates nearly
    /// all mid-bin rehashing. A zero hint allocates nothing.
    pub fn with_size_hints(hints: [usize; 4]) -> Self {
        Self::with_size_hints_in(hints, &())
    }
}

impl<D: DistributionAccumulator> BinAccumulator<D> {
    /// An empty accumulator whose stores are built from `params` with no
    /// capacity pre-sizing.
    pub fn from_params(params: &D::Params) -> Self {
        Self::with_size_hints_in([0; 4], params)
    }

    /// [`with_size_hints`](Self::with_size_hints) with explicit store
    /// parameters — the constructor the sharded plane uses.
    pub fn with_size_hints_in(hints: [usize; 4], params: &D::Params) -> Self {
        BinAccumulator {
            hists: std::array::from_fn(|i| D::with_params(params, hints[i])),
            packets: 0,
            bytes: 0,
        }
    }

    /// The number of distinct values currently held per feature — the
    /// sizing feedback for the next bin's
    /// [`with_size_hints`](Self::with_size_hints).
    pub fn size_hints(&self) -> [usize; 4] {
        [
            self.hists[0].size_hint(),
            self.hists[1].size_hint(),
            self.hists[2].size_hint(),
            self.hists[3].size_hint(),
        ]
    }

    /// Adds one packet observation.
    #[inline]
    pub fn add_packet(&mut self, pkt: &PacketHeader) {
        for f in FEATURES {
            self.hists[f.index()].offer(f.extract(pkt));
        }
        self.packets += 1;
        self.bytes += pkt.bytes as u64;
    }

    /// Adds every packet in a slice.
    pub fn add_packets(&mut self, packets: &[PacketHeader]) {
        for p in packets {
            self.add_packet(p);
        }
    }

    /// Adds an aggregated flow record: feature values are weighted by the
    /// record's packet count, exactly as if its packets had been offered
    /// individually (the paper computes entropy from packet counts).
    pub fn add_flow(&mut self, rec: &FlowRecord) {
        let n = rec.packets;
        self.hists[Feature::SrcIp.index()].offer_n(rec.key.src_ip.0, n);
        self.hists[Feature::SrcPort.index()].offer_n(rec.key.src_port as u32, n);
        self.hists[Feature::DstIp.index()].offer_n(rec.key.dst_ip.0, n);
        self.hists[Feature::DstPort.index()].offer_n(rec.key.dst_port as u32, n);
        self.packets += n;
        self.bytes += rec.bytes;
    }

    /// Absorbs one combined run of traffic sharing a single feature
    /// tuple — the batch ingest engine's per-run hot path. `values` holds
    /// the four extracted feature values in [`FEATURES`] order; `packets`
    /// weights every store update, exactly as if the run's packets had
    /// been offered individually (counts are exact integer sums and every
    /// derived metric is a function of the count multiset alone).
    #[inline]
    pub fn absorb_run(&mut self, values: [u32; 4], packets: u64, bytes: u64) {
        self.hists[0].offer_n(values[0], packets);
        self.hists[1].offer_n(values[1], packets);
        self.hists[2].offer_n(values[2], packets);
        self.hists[3].offer_n(values[3], packets);
        self.packets += packets;
        self.bytes += bytes;
    }

    /// Merges another accumulator into this one (used when anomaly traffic
    /// is superimposed on baseline traffic in a bin).
    pub fn merge(&mut self, other: &BinAccumulator<D>) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge_from(theirs);
        }
        self.packets += other.packets;
        self.bytes += other.bytes;
    }

    /// Packet count so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Byte count so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Borrow the distribution store of one feature.
    pub fn histogram(&self, feature: Feature) -> &D {
        &self.hists[feature.index()]
    }

    /// Bytes of heap the four stores currently own — what the per-tier
    /// memory ceilings are measured from.
    pub fn heap_bytes(&self) -> usize {
        self.hists.iter().map(D::heap_bytes).sum()
    }

    /// Collapses the stores into the six per-bin numbers.
    pub fn summarize(&self) -> BinSummary {
        let mut entropy = [0.0; 4];
        for f in FEATURES {
            entropy[f.index()] = self.hists[f.index()].entropy();
        }
        BinSummary {
            packets: self.packets,
            bytes: self.bytes,
            entropy,
        }
    }
}

/// The six numbers the paper keeps per (OD flow, bin): volume in packets
/// and bytes, and sample entropy of the four features (indexed in
/// [`FEATURES`] order: srcIP, srcPort, dstIP, dstPort).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BinSummary {
    /// Number of (sampled) packets observed in the bin.
    pub packets: u64,
    /// Total bytes across those packets.
    pub bytes: u64,
    /// Sample entropy of each feature, `FEATURES` order.
    pub entropy: [f64; 4],
}

impl BinSummary {
    /// Entropy of one feature.
    pub fn entropy_of(&self, feature: Feature) -> f64 {
        self.entropy[feature.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchHistogram, SketchParams};
    use entromine_net::flow::aggregate_bin;
    use entromine_net::Ipv4;

    fn pkt(src: u32, sport: u16, dst: u32, dport: u16) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), sport, Ipv4(dst), dport, 100, 0)
    }

    #[test]
    fn empty_summary_is_zero() {
        let acc = BinAccumulator::new();
        let s = acc.summarize();
        assert_eq!(s.packets, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.entropy, [0.0; 4]);
    }

    #[test]
    fn volumes_accumulate() {
        let mut acc = BinAccumulator::new();
        acc.add_packet(&pkt(1, 10, 2, 80));
        acc.add_packet(&pkt(1, 10, 2, 80));
        let s = acc.summarize();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 200);
    }

    #[test]
    fn entropy_reflects_feature_structure() {
        let mut acc = BinAccumulator::new();
        // Two sources, one destination: srcIP entropy 1 bit, dstIP 0 bits.
        acc.add_packet(&pkt(1, 10, 9, 80));
        acc.add_packet(&pkt(2, 10, 9, 80));
        let s = acc.summarize();
        assert!((s.entropy_of(Feature::SrcIp) - 1.0).abs() < 1e-12);
        assert_eq!(s.entropy_of(Feature::DstIp), 0.0);
        assert_eq!(s.entropy_of(Feature::SrcPort), 0.0);
        assert_eq!(s.entropy_of(Feature::DstPort), 0.0);
    }

    #[test]
    fn flow_records_weight_by_packet_count() {
        // Offering packets individually or as an aggregated record must
        // produce identical summaries.
        let packets = vec![
            pkt(1, 10, 2, 80),
            pkt(1, 10, 2, 80),
            pkt(1, 10, 2, 80),
            pkt(3, 33, 2, 80),
        ];
        let mut by_packet = BinAccumulator::new();
        by_packet.add_packets(&packets);

        let mut by_flow = BinAccumulator::new();
        for rec in aggregate_bin(&packets) {
            by_flow.add_flow(&rec);
        }

        let a = by_packet.summarize();
        let b = by_flow.summarize();
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.bytes, b.bytes);
        for f in FEATURES {
            assert!((a.entropy_of(f) - b.entropy_of(f)).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_equals_joint_accumulation() {
        let first = vec![pkt(1, 10, 2, 80), pkt(2, 20, 2, 80)];
        let second = vec![pkt(3, 30, 4, 443)];

        let mut joint = BinAccumulator::new();
        joint.add_packets(&first);
        joint.add_packets(&second);

        let mut a = BinAccumulator::new();
        a.add_packets(&first);
        let mut b = BinAccumulator::new();
        b.add_packets(&second);
        a.merge(&b);

        let sj = joint.summarize();
        let sm = a.summarize();
        assert_eq!(sj.packets, sm.packets);
        assert_eq!(sj.bytes, sm.bytes);
        for f in FEATURES {
            assert!((sj.entropy_of(f) - sm.entropy_of(f)).abs() < 1e-12);
        }
    }

    #[test]
    fn absorb_run_equals_per_packet_offers() {
        let packets = vec![
            pkt(1, 10, 2, 80),
            pkt(1, 10, 2, 80),
            pkt(3, 33, 2, 80),
            pkt(1, 10, 2, 80),
            pkt(3, 33, 4, 443),
        ];
        let mut by_packet = BinAccumulator::new();
        by_packet.add_packets(&packets);

        // The same traffic as combined runs, in a different order, into a
        // hint-pre-sized accumulator: every observable must match.
        let mut combined = BinAccumulator::with_size_hints([8, 8, 8, 8]);
        combined.absorb_run([3, 33, 4, 443], 1, 100);
        combined.absorb_run([1, 10, 2, 80], 3, 300);
        combined.absorb_run([3, 33, 2, 80], 1, 100);

        assert_eq!(by_packet.summarize(), combined.summarize());
        for f in FEATURES {
            assert_eq!(by_packet.histogram(f), combined.histogram(f));
        }
        assert_eq!(combined.size_hints(), [2, 2, 2, 2]);
    }

    #[test]
    fn histogram_access() {
        let mut acc = BinAccumulator::new();
        acc.add_packet(&pkt(1, 10, 2, 80));
        acc.add_packet(&pkt(1, 10, 2, 443));
        let dports = acc.histogram(Feature::DstPort);
        assert_eq!(dports.distinct(), 2);
        assert_eq!(dports.count(80), 1);
    }

    #[test]
    fn sketched_cell_mirrors_exact_cell_under_budget() {
        // A sketched accumulator that never exceeds its budget is the
        // exact accumulator, entropy bit for bit.
        let params = SketchParams { budget: 64 };
        let mut sketched: BinAccumulator<SketchHistogram> =
            BinAccumulator::with_size_hints_in([4; 4], &params);
        let mut exact = BinAccumulator::new();
        for i in 0..30u32 {
            let p = pkt(i % 5, (i % 3) as u16, 9, 80);
            sketched.add_packet(&p);
            exact.add_packet(&p);
        }
        assert_eq!(sketched.summarize(), exact.summarize());
        assert_eq!(sketched.histogram(Feature::SrcIp).level(), 0);
    }

    #[test]
    fn sketched_cell_heap_stays_under_ceiling() {
        let params = SketchParams { budget: 32 };
        let mut acc: BinAccumulator<SketchHistogram> = BinAccumulator::from_params(&params);
        for i in 0..20_000u32 {
            acc.add_packet(&pkt(i, (i % 40_000) as u16, i / 3, (i % 100) as u16));
        }
        assert!(acc.heap_bytes() <= 4 * SketchHistogram::heap_ceiling(32));
        assert_eq!(acc.packets(), 20_000);
    }
}
