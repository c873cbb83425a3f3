//! The three canonical workloads and their seeded event generators.
//!
//! Everything the program under test sees is produced here from
//! `(workload, seed)`: the synthetic backbone, the injected-anomaly
//! schedule, and — for the NetFlow workload — the burst sizes, in-bin
//! timestamps, shuffles and the held / too-late delivery plan. The
//! generator runs outside the timed calls; its cost is reported as
//! `synth.generate.*`.

use entromine::net::{FlowKey, FlowRecord, PacketHeader, Topology};
use entromine::synth::{DatasetConfig, InjectedAnomaly, Schedule, SyntheticNetwork};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seconds per time bin (the plane's default bin length).
pub const BIN_SECS: u64 = DatasetConfig::BIN_SECS;
/// Bins per week, the period of the synthetic rate model.
const BINS_PER_WEEK: usize = 7 * 288;
/// Seed of the backbone itself: per-flow base rates, service mixes and
/// address pools are a fixed property of a workload, like its topology.
/// `--seed` picks which week of that backbone's traffic is replayed (so
/// every packet differs between seeds), the anomaly schedule, and the
/// NetFlow delivery plan. Re-drawing the backbone per seed as well moves
/// the window covariance's eigen-gaps, and with them refit time, by
/// +-30 % between seeds — more than any bound this benchmark could set.
const BACKBONE_SEED: u64 = 1;
/// Sub-batches a NetFlow bin is delivered in (watermark advanced after each).
pub const SUB_BATCHES: usize = 4;
/// Lateness slack the NetFlow plane is opened with, seconds.
pub const NETFLOW_LATENESS: u64 = 60;
/// Every `VERIFY_STRIDE`-th bin is checked against the serial reference.
pub const VERIFY_STRIDE: usize = 48;
/// Mean packets a generated flow record stands for.
const MEAN_BURST: f64 = 8.0;
/// Share of records delivered one sub-batch late (inside the slack).
const HELD_SHARE: f64 = 0.02;
/// Share of records delivered after their bin sealed (must be dropped).
const LATE_SHARE: f64 = 0.001;

/// How a workload's events reach the ingest plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// One cell-grouped `offer_packets` batch per bin.
    Packets,
    /// Shuffled weighted records through `offer_flows`, four sub-batches
    /// per bin, some out of order and a few too late.
    Netflow,
}

/// One benchmark workload: backbone, traffic volume, monitor cadence.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (which layer it stresses); echoed in
    /// `BENCHMARK.json` and the README glossary.
    pub why: &'static str,
    pub topology: fn() -> Topology,
    pub sample_rate: u64,
    pub traffic_scale: f64,
    pub anonymize: bool,
    /// Bins of one rep (warm-up + scored).
    pub bins: usize,
    /// Anomalies `Schedule::paper_mix` spreads over `bins`.
    pub anomalies: usize,
    pub warmup_bins: usize,
    pub window_bins: usize,
    pub chunk_bins: usize,
    pub refit_interval: usize,
    pub feed: Feed,
}

/// The workload set, in the order reps are interleaved.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "abilene-packets",
        why: "per-packet ingest dominates (entropy layer >= 60% of busy time), refits are rare and cheap",
        topology: Topology::abilene,
        sample_rate: 100,
        traffic_scale: 0.2,
        anonymize: true,
        bins: 1152,
        anomalies: 32,
        warmup_bins: 576,
        window_bins: 648,
        chunk_bins: 72,
        refit_interval: 288,
        feed: Feed::Packets,
    },
    Workload {
        name: "geant-refit",
        why: "window refits at 1936 columns dominate (core.refit >= 60% of busy time), ingest is light",
        topology: Topology::geant,
        sample_rate: 1000,
        traffic_scale: 0.1,
        anonymize: false,
        bins: 800,
        anomalies: 24,
        warmup_bins: 576,
        window_bins: 648,
        chunk_bins: 72,
        refit_interval: 72,
        feed: Feed::Packets,
    },
    Workload {
        name: "abilene-netflow",
        why: "same entropy layer through weighted, shuffled, out-of-order flow records with several bins open",
        topology: Topology::abilene,
        sample_rate: 100,
        traffic_scale: 0.1,
        anonymize: true,
        bins: 1152,
        anomalies: 32,
        warmup_bins: 576,
        window_bins: 648,
        chunk_bins: 72,
        refit_interval: 288,
        feed: Feed::Netflow,
    },
];

/// Looks a workload up by its name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeded backbone and anomaly schedule of one `(workload, seed)`.
pub struct Source {
    net: SyntheticNetwork,
    truth: Vec<InjectedAnomaly>,
    /// First bin of the replayed week on the backbone's own timeline.
    offset: usize,
}

impl Source {
    /// Builds the network model and materializes the anomaly schedule.
    pub fn new(w: &Workload, seed: u64) -> Self {
        let config = DatasetConfig {
            seed: BACKBONE_SEED,
            n_bins: w.bins,
            sample_rate: w.sample_rate,
            traffic_scale: w.traffic_scale,
            rate_noise: 0.02,
            anonymize: w.anonymize,
        };
        let net = SyntheticNetwork::new((w.topology)(), config);
        // Whole weeks, so every seed sees the same diurnal and weekly phase.
        let offset = (seed % 100_000) as usize * BINS_PER_WEEK;
        let truth = Schedule::paper_mix(seed ^ 0x5EED, w.anomalies)
            .materialize(&net)
            .into_iter()
            .map(|mut event| {
                event.start_bin += offset;
                InjectedAnomaly { event }
            })
            .collect();
        Source { net, truth, offset }
    }

    /// Number of OD flows `p`.
    pub fn n_flows(&self) -> usize {
        self.net.indexer().n_flows()
    }

    /// Whether `bin` lies inside any injected anomaly's interval.
    pub fn is_truth_bin(&self, bin: usize) -> bool {
        self.truth
            .iter()
            .any(|t| t.bins().contains(&(self.offset + bin)))
    }

    /// Replaces `out` with every sampled packet of `bin`, cell by cell in
    /// flow order (the shape a per-bin capture replay has), stamped with
    /// the run's own clock: bin 0 starts at second 0.
    pub fn fill_packets(&self, bin: usize, out: &mut Vec<(usize, PacketHeader)>) {
        out.clear();
        let timestamp = bin as u64 * BIN_SECS;
        for flow in 0..self.n_flows() {
            let cell = self.net.cell_packets(self.offset + bin, flow, &self.truth);
            out.extend(cell.into_iter().map(|mut pkt| {
                pkt.timestamp = timestamp;
                (flow, pkt)
            }));
        }
    }
}

/// One delivery unit of the NetFlow feed.
#[derive(Debug, Default, Clone)]
pub struct SubBatch {
    pub records: Vec<(usize, FlowRecord)>,
    /// Packets the admitted (not too-late) records stand for.
    pub packets: u64,
    /// Records in this batch whose bin has already sealed.
    pub late: u64,
}

impl SubBatch {
    fn clear(&mut self) {
        self.records.clear();
        self.packets = 0;
        self.late = 0;
    }

    fn push(&mut self, flow: usize, rec: FlowRecord, late: bool) {
        self.records.push((flow, rec));
        if late {
            self.late += 1;
        } else {
            self.packets += rec.packets;
        }
    }
}

/// What the generator planned, to be matched by the plane's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowPlan {
    pub records: u64,
    pub on_time: u64,
    pub held: u64,
    pub late: u64,
    /// Packets all records stand for, too-late ones included.
    pub packets: u64,
}

/// Turns each bin's packets into weighted flow records and schedules
/// their delivery: `SUB_BATCHES` shuffled sub-batches per bin, a few
/// records held one sub-batch (still inside the lateness slack), fewer
/// held until their bin has sealed.
pub struct NetflowFeed {
    seed: u64,
    pub subs: [SubBatch; SUB_BATCHES],
    /// Held records of the previous bin's last sub-batch.
    carry: Vec<(usize, FlowRecord)>,
    /// Too-late records of the previous bin (delivered in sub-batch 1,
    /// right after the advance that sealed their bin).
    overdue: Vec<(usize, FlowRecord)>,
    /// The current bin's admitted records in generation order — the
    /// in-order delivery the shuffled one must be bitwise equal to.
    pub in_order: Vec<(usize, FlowRecord)>,
    pub plan: FlowPlan,
}

impl NetflowFeed {
    pub fn new(seed: u64) -> Self {
        NetflowFeed {
            seed,
            subs: Default::default(),
            carry: Vec::new(),
            overdue: Vec::new(),
            in_order: Vec::new(),
            plan: FlowPlan::default(),
        }
    }

    /// Builds the sub-batches delivered while `bin` is the newest bin.
    /// `packets` are that bin's generated packets (empty for the flush
    /// step after the last bin, which only delivers what was held).
    pub fn fill(&mut self, bin: usize, packets: &[(usize, PacketHeader)]) {
        for sub in &mut self.subs {
            sub.clear();
        }
        self.in_order.clear();
        for (flow, rec) in self.carry.drain(..) {
            self.subs[0].push(flow, rec, false);
        }
        for (flow, rec) in self.overdue.drain(..) {
            self.subs[1].push(flow, rec, true);
        }
        // `seed_from_u64` runs the value through SplitMix64, so nearby
        // (seed, bin) pairs still give unrelated streams.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xF10E ^ ((bin as u64) << 20));
        let start = bin as u64 * BIN_SECS;
        let quarter = BIN_SECS / SUB_BATCHES as u64;
        for &(flow, pkt) in packets {
            let burst = geometric(&mut rng, MEAN_BURST);
            let first = start + rng.random_range(0..BIN_SECS);
            let rec = FlowRecord {
                key: FlowKey {
                    src_ip: pkt.src_ip,
                    dst_ip: pkt.dst_ip,
                    src_port: pkt.src_port,
                    dst_port: pkt.dst_port,
                    proto: pkt.proto,
                },
                packets: burst,
                bytes: pkt.bytes as u64 * burst,
                first,
                last: first,
            };
            self.plan.records += 1;
            self.plan.packets += burst;
            let q = ((first - start) / quarter) as usize;
            let fate: f64 = rng.random();
            if fate < LATE_SHARE {
                self.plan.late += 1;
                self.overdue.push((flow, rec));
                continue;
            }
            self.in_order.push((flow, rec));
            if fate < LATE_SHARE + HELD_SHARE {
                self.plan.held += 1;
                match self.subs.get_mut(q + 1) {
                    Some(next) => next.push(flow, rec, false),
                    None => self.carry.push((flow, rec)),
                }
            } else {
                self.plan.on_time += 1;
                self.subs[q].push(flow, rec, false);
            }
        }
        for sub in &mut self.subs {
            shuffle(&mut sub.records, &mut rng);
        }
    }

    /// Whether anything is still waiting to be delivered after the last bin.
    pub fn has_pending(&self) -> bool {
        !self.carry.is_empty() || !self.overdue.is_empty()
    }
}

/// A geometric draw on `1, 2, ...` with the given mean.
fn geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    1 + (u.ln() / (1.0 - 1.0 / mean).ln()) as u64
}

/// Fisher–Yates shuffle (the `rand` shim has no `shuffle`).
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken Abilene workload so generator tests run in milliseconds.
    fn tiny() -> Workload {
        Workload {
            traffic_scale: 0.002,
            bins: 24,
            anomalies: 2,
            ..WORKLOADS[2]
        }
    }

    fn event_bytes(seed: u64) -> Vec<String> {
        let w = tiny();
        let source = Source::new(&w, seed);
        let mut feed = NetflowFeed::new(seed);
        let mut packets = Vec::new();
        let mut out = Vec::new();
        for bin in 0..3 {
            source.fill_packets(bin, &mut packets);
            out.push(format!("{packets:?}"));
            feed.fill(bin, &packets);
            out.push(format!("{:?}", feed.subs));
        }
        out
    }

    #[test]
    fn same_seed_same_events_different_seed_different() {
        assert_eq!(event_bytes(7), event_bytes(7));
        assert_ne!(event_bytes(7), event_bytes(8));
    }

    #[test]
    fn plan_counts_sum_to_events_generated() {
        let w = tiny();
        let source = Source::new(&w, 3);
        let mut feed = NetflowFeed::new(3);
        let mut packets = Vec::new();
        let (mut generated, mut delivered, mut late, mut represented) = (0u64, 0u64, 0u64, 0u64);
        for bin in 0..=w.bins {
            packets.clear();
            if bin < w.bins {
                source.fill_packets(bin, &mut packets);
            }
            generated += packets.len() as u64;
            feed.fill(bin, &packets);
            for sub in &feed.subs {
                delivered += sub.records.len() as u64;
                late += sub.late;
                represented += sub.packets;
            }
        }
        assert!(!feed.has_pending());
        let plan = feed.plan;
        assert_eq!(plan.records, generated);
        assert_eq!(plan.on_time + plan.held + plan.late, generated);
        assert_eq!(delivered, generated);
        assert_eq!(late, plan.late);
        assert!(plan.held > 0 && plan.late > 0, "{plan:?}");
        assert!(represented <= plan.packets && represented >= 4 * (generated - late));
    }

    #[test]
    fn geometric_mean_is_near_eight() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| geometric(&mut rng, MEAN_BURST)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - MEAN_BURST).abs() < 0.1, "mean burst {mean}");
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(by_name("nope").is_none());
    }
}
