//! End-to-end dataset construction.
//!
//! A [`Dataset`] is the synthetic analogue of "three weeks of sampled flow
//! data from every PoP": an entropy tensor `H(t, p, 4)`, byte/packet
//! volume matrices, and the ground-truth list of injected anomalies. The
//! generation pipeline per (bin, OD flow) cell is the paper's measurement
//! pipeline in miniature:
//!
//! 1. the [`RateModel`] gives the cell's
//!    sampled-packet rate (low-rank diurnal structure + noise);
//! 2. a Poisson draw fixes the packet count; outage events scale it down;
//! 3. baseline packets are drawn from the OD flow's service mixture;
//! 4. anomaly packets from any covering event are superimposed;
//! 5. the cell's four feature histograms are summarized into entropy and
//!    volume values and the histograms are dropped.
//!
//! Each cell has its own RNG stream derived from `(seed, bin, flow)`, so
//! any cell can be regenerated in isolation — that is what the
//! what-if injection API ([`Dataset::whatif_rows`]) uses to evaluate
//! thousands of candidate injections (Figures 5–6) without regenerating
//! whole datasets.

use crate::anomaly::{
    anomaly_packets, AnomalyEvent, AnomalyLabel, InjectedAnomaly, OUTAGE_RATE_FACTOR,
};
use crate::cell_seed;
use crate::distr::poisson;
use crate::eigenflow::{RateModel, BINS_PER_WEEK};
use crate::mix64;
use crate::services::{baseline_packet, EphemeralPool, HostPool, ServiceMix};
use entromine_entropy::{BinAccumulator, BinSummary, EntropyTensor, TensorBuilder, VolumeMatrix};
use entromine_net::{AddressPlan, OdIndexer, PacketHeader, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration of a synthetic network-wide dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Master seed; every artifact is a pure function of it.
    pub seed: u64,
    /// Number of 5-minute bins (2016 per week).
    pub n_bins: usize,
    /// 1-in-N packet sampling the "routers" apply (100 for Abilene,
    /// 1000 for Geant).
    pub sample_rate: u64,
    /// Global traffic scale relative to the paper's Abilene average of
    /// 2068 pps per OD flow. 1.0 (the Abilene default) reproduces the
    /// paper's volume and sensitivity; smaller values trade sensitivity
    /// for generation speed (useful in tests) while preserving every
    /// *ratio* the experiments report.
    pub traffic_scale: f64,
    /// Relative per-bin rate noise.
    pub rate_noise: f64,
    /// Whether addresses are anonymized before analysis (Abilene masks the
    /// low 11 bits; Geant does not).
    pub anonymize: bool,
}

impl DatasetConfig {
    /// Paper-average unsampled OD-flow intensity, packets per second.
    pub const PAPER_MEAN_PPS: f64 = 2068.0;
    /// Seconds per bin.
    pub const BIN_SECS: u64 = 300;

    /// Abilene-like defaults: 1 week, 1/100 sampling, anonymized,
    /// full paper-scale traffic (~6200 sampled packets per cell).
    pub fn abilene(seed: u64) -> Self {
        DatasetConfig {
            seed,
            n_bins: BINS_PER_WEEK,
            sample_rate: 100,
            traffic_scale: 1.0,
            rate_noise: 0.01,
            anonymize: true,
        }
    }

    /// Geant-like defaults: 1 week, 1/1000 sampling, not anonymized.
    ///
    /// Geant carries roughly twice Abilene's traffic but samples 10x
    /// coarser, so its per-cell sampled counts come out lower — as in the
    /// real archives.
    pub fn geant(seed: u64) -> Self {
        DatasetConfig {
            seed,
            n_bins: BINS_PER_WEEK,
            sample_rate: 1000,
            traffic_scale: 2.0,
            rate_noise: 0.01,
            anonymize: false,
        }
    }

    /// Shrinks or extends to `weeks` weeks.
    pub fn weeks(mut self, weeks: usize) -> Self {
        self.n_bins = BINS_PER_WEEK * weeks;
        self
    }

    /// Overrides the bin count directly (tests use small counts).
    pub fn bins(mut self, n: usize) -> Self {
        self.n_bins = n;
        self
    }

    /// Mean sampled packets per bin per OD flow under this configuration.
    pub fn mean_sampled_packets_per_bin(&self) -> f64 {
        Self::PAPER_MEAN_PPS * Self::BIN_SECS as f64 * self.traffic_scale / self.sample_rate as f64
    }
}

/// The static parts of a synthetic network: topology, address plan,
/// rate model, service mixtures and host pools.
#[derive(Debug, Clone)]
pub struct SyntheticNetwork {
    topology: Topology,
    plan: AddressPlan,
    indexer: OdIndexer,
    rates: RateModel,
    mixes: Vec<ServiceMix>,
    eph_pools: Vec<EphemeralPool>,
    pool: HostPool,
    config: DatasetConfig,
}

impl SyntheticNetwork {
    /// Builds the network model for a topology and configuration.
    pub fn new(topology: Topology, config: DatasetConfig) -> Self {
        let plan = AddressPlan::standard(&topology);
        let indexer = OdIndexer::new(topology.n_pops());
        let rates = RateModel::new(
            &topology,
            config.seed,
            config.mean_sampled_packets_per_bin(),
            config.rate_noise,
        );
        let mixes: Vec<ServiceMix> = (0..indexer.n_flows())
            .map(|f| ServiceMix::seeded(mix64(config.seed ^ (f as u64) << 17)))
            .collect();
        // Ephemeral pools sized by each flow's mean rate so baseline port
        // entropy is stable per flow (see services::EphemeralPool).
        let eph_pools: Vec<EphemeralPool> = (0..indexer.n_flows())
            .map(|f| {
                EphemeralPool::for_rate(
                    rates.base_rate(f),
                    mix64(config.seed ^ 0x9_0000 ^ (f as u64) << 23),
                )
            })
            .collect();
        SyntheticNetwork {
            topology,
            plan,
            indexer,
            rates,
            mixes,
            eph_pools,
            pool: HostPool::standard(),
            config,
        }
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The address plan (needed to build injection packets).
    pub fn plan(&self) -> &AddressPlan {
        &self.plan
    }

    /// The OD indexer.
    pub fn indexer(&self) -> &OdIndexer {
        &self.indexer
    }

    /// The dataset configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// The rate model.
    pub fn rates(&self) -> &RateModel {
        &self.rates
    }

    /// Deterministically regenerates the **baseline** accumulator of one
    /// cell (no anomaly events applied).
    pub fn baseline_cell(&self, bin: usize, flow: usize) -> BinAccumulator {
        let mut acc = BinAccumulator::new();
        self.visit_cell_packets(bin, flow, &[], |pkt| acc.add_packet(&pkt));
        acc
    }

    /// Deterministically regenerates every sampled packet of one cell —
    /// baseline traffic (scaled down by covering outage events) plus the
    /// packets of every covering injected anomaly, in generation order.
    ///
    /// This is the replay source for the streaming ingest stage: the same
    /// seeded draws produce the same packets the batch generator folded
    /// into its accumulators, so offering these packets to a
    /// `StreamingGridBuilder` reconstructs the batch grid cell exactly.
    pub fn cell_packets(
        &self,
        bin: usize,
        flow: usize,
        events: &[InjectedAnomaly],
    ) -> Vec<PacketHeader> {
        let mut out = Vec::new();
        self.visit_cell_packets(bin, flow, events, |pkt| out.push(pkt));
        out
    }

    /// Generates one cell's packets, feeding each to `sink`. Baseline and
    /// anomaly draws use the same per-cell seeded streams regardless of
    /// whether the caller accumulates or collects, which is what keeps
    /// batch generation and streaming replay bit-identical.
    fn visit_cell_packets(
        &self,
        bin: usize,
        flow: usize,
        events: &[InjectedAnomaly],
        mut sink: impl FnMut(PacketHeader),
    ) {
        // Outages multiply the baseline rate down.
        let mut factor = 1.0;
        for ev in events {
            if ev.event.label == AnomalyLabel::Outage && ev.covers(bin, flow) {
                factor *= OUTAGE_RATE_FACTOR;
            }
        }
        // SmallRng (xoshiro) keeps the per-packet draw loop cheap; streams
        // are still fully determined by the cell seed.
        let mut rng = SmallRng::seed_from_u64(cell_seed(self.config.seed, bin, flow));
        let rate = self.rates.noisy_rate(flow, bin, &mut rng) * factor;
        let n = poisson(&mut rng, rate);
        let od = self.indexer.pair(flow);
        let timestamp = bin as u64 * DatasetConfig::BIN_SECS;
        let day_weight = self.rates.day_weight(bin);
        for _ in 0..n {
            let mut pkt = baseline_packet(
                &self.plan,
                &self.pool,
                &self.mixes[flow],
                &self.eph_pools[flow],
                day_weight,
                od.origin,
                od.dest,
                timestamp,
                &mut rng,
            );
            if self.config.anonymize {
                pkt = pkt.anonymized();
            }
            sink(pkt);
        }
        // Packet-injecting events.
        for ev in events {
            if ev.event.label == AnomalyLabel::Outage || !ev.covers(bin, flow) {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(mix64(
                ev.event.seed ^ cell_seed(self.config.seed, bin, flow),
            ));
            let n = poisson(&mut rng, ev.event.packets_per_cell);
            for mut pkt in
                anomaly_packets(ev.event.label, &self.plan, od, n, timestamp, ev.event.seed)
            {
                if self.config.anonymize {
                    pkt = pkt.anonymized();
                }
                sink(pkt);
            }
        }
    }

    /// Summarizes a cell with optional anomaly events applied.
    fn cell_summary(&self, bin: usize, flow: usize, events: &[InjectedAnomaly]) -> BinSummary {
        let mut acc = BinAccumulator::new();
        self.visit_cell_packets(bin, flow, events, |pkt| acc.add_packet(&pkt));
        acc.summarize()
    }
}

/// A fully generated dataset: tensor + volumes + ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The network model that produced (and can regenerate) the data.
    pub net: SyntheticNetwork,
    /// The entropy tensor `H(t, p, 4)`.
    pub tensor: EntropyTensor,
    /// Byte and packet count matrices.
    pub volumes: VolumeMatrix,
    /// Ground-truth injected anomalies, in injection order.
    pub truth: Vec<InjectedAnomaly>,
}

impl Dataset {
    /// Generates a dataset with the given injected events.
    ///
    /// Uses scoped threads to parallelize over bins; output is identical
    /// regardless of thread count because every cell draws from its own
    /// seeded stream.
    pub fn generate(
        topology: Topology,
        config: DatasetConfig,
        events: Vec<AnomalyEvent>,
    ) -> Dataset {
        let net = SyntheticNetwork::new(topology, config);
        let truth: Vec<InjectedAnomaly> = events
            .into_iter()
            .map(|event| InjectedAnomaly { event })
            .collect();

        let n_bins = net.config.n_bins;
        let n_flows = net.indexer.n_flows();
        let mut builder = TensorBuilder::new(n_bins, n_flows);

        // Parallel fan-out over bins: each worker fills disjoint rows.
        let n_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        let mut rows: Vec<Vec<BinSummary>> = vec![Vec::new(); n_bins];
        {
            let net_ref = &net;
            let truth_ref = &truth;
            let chunks: Vec<(usize, &mut [Vec<BinSummary>])> = {
                let mut out = Vec::new();
                let mut rest: &mut [Vec<BinSummary>] = &mut rows;
                let chunk = n_bins.div_ceil(n_threads).max(1);
                let mut start = 0usize;
                while !rest.is_empty() {
                    let take = chunk.min(rest.len());
                    let (head, tail) = rest.split_at_mut(take);
                    out.push((start, head));
                    start += take;
                    rest = tail;
                }
                out
            };
            std::thread::scope(|s| {
                for (start, chunk) in chunks {
                    s.spawn(move || {
                        for (offset, row) in chunk.iter_mut().enumerate() {
                            let bin = start + offset;
                            *row = (0..n_flows)
                                .map(|flow| net_ref.cell_summary(bin, flow, truth_ref))
                                .collect();
                        }
                    });
                }
            });
        }
        for (bin, row) in rows.iter().enumerate() {
            for (flow, summary) in row.iter().enumerate() {
                builder.set(bin, flow, summary);
            }
        }
        let (tensor, volumes) = builder.finish();
        Dataset {
            net,
            tensor,
            volumes,
            truth,
        }
    }

    /// Convenience: a clean dataset (no injected anomalies).
    pub fn clean(topology: Topology, config: DatasetConfig) -> Dataset {
        Dataset::generate(topology, config, Vec::new())
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.tensor.n_bins()
    }

    /// Number of OD flows.
    pub fn n_flows(&self) -> usize {
        self.tensor.n_flows()
    }

    /// What-if injection: superimpose `packets[i]` onto cell
    /// `(bin, flows[i])` and return the modified unfolded entropy row plus
    /// the modified byte/packet volume rows — without mutating the
    /// dataset. This is the Figure 5/6 inner loop.
    pub fn whatif_rows(&self, bin: usize, injections: &[(usize, &[PacketHeader])]) -> WhatIfRow {
        let mut entropy_row = self.tensor.unfolded_row(bin);
        let mut bytes_row = self.volumes.bytes().row(bin).to_vec();
        let mut packets_row = self.volumes.packets().row(bin).to_vec();
        let p = self.n_flows();
        for &(flow, packets) in injections {
            let mut acc = self.net.baseline_cell(bin, flow);
            for pkt in packets {
                let pkt = if self.net.config.anonymize {
                    pkt.anonymized()
                } else {
                    *pkt
                };
                acc.add_packet(&pkt);
            }
            let s = acc.summarize();
            for (k, e) in s.entropy.iter().enumerate() {
                entropy_row[k * p + flow] = *e;
            }
            bytes_row[flow] = s.bytes as f64;
            packets_row[flow] = s.packets as f64;
        }
        WhatIfRow {
            entropy: entropy_row,
            bytes: bytes_row,
            packets: packets_row,
        }
    }
}

/// The modified rows produced by a what-if injection.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    /// Unfolded entropy row (length `4p`).
    pub entropy: Vec<f64>,
    /// Byte counts per flow.
    pub bytes: Vec<f64>,
    /// Packet counts per flow.
    pub packets: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::packet::Feature;

    fn tiny_config(seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed,
            n_bins: 24,
            sample_rate: 100,
            traffic_scale: 0.02, // ~124 packets per cell
            rate_noise: 0.05,
            anonymize: false,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::clean(Topology::line(3), tiny_config(5));
        let b = Dataset::clean(Topology::line(3), tiny_config(5));
        assert_eq!(a.tensor.unfold().as_slice(), b.tensor.unfold().as_slice());
        assert_eq!(
            a.volumes.packets().as_slice(),
            b.volumes.packets().as_slice()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::clean(Topology::line(3), tiny_config(5));
        let b = Dataset::clean(Topology::line(3), tiny_config(6));
        assert_ne!(
            a.volumes.packets().as_slice(),
            b.volumes.packets().as_slice()
        );
    }

    #[test]
    fn volumes_match_expected_scale() {
        // The configured mean is only realized once the diurnal basis
        // integrates out, so average over one full day; a fraction of a
        // day can sit arbitrarily close to the diurnal peak or trough
        // depending on the seeded phase. The 25% tolerance absorbs the
        // weekly pattern (<= 16% over a one-day window) plus noise.
        let cfg = tiny_config(7).bins(crate::eigenflow::BINS_PER_DAY);
        let expected = cfg.mean_sampled_packets_per_bin();
        let d = Dataset::clean(Topology::line(3), cfg);
        let total: f64 = d.volumes.packets().as_slice().iter().sum();
        let cells = (d.n_bins() * d.n_flows()) as f64;
        let mean = total / cells;
        assert!(
            (mean - expected).abs() / expected < 0.25,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn entropy_cells_are_populated() {
        let d = Dataset::clean(Topology::line(3), tiny_config(8));
        let mut nonzero = 0;
        for bin in 0..d.n_bins() {
            for flow in 0..d.n_flows() {
                if d.tensor.get(bin, flow, Feature::SrcIp) > 0.0 {
                    nonzero += 1;
                }
            }
        }
        let total = d.n_bins() * d.n_flows();
        // Heavy-tailed flow sizes leave the smallest flows near-empty at
        // this tiny test scale (as real sampled NetFlow does); the bulk of
        // cells must still carry entropy.
        assert!(
            nonzero * 2 > total,
            "only {nonzero}/{total} cells have entropy"
        );
    }

    #[test]
    fn baseline_cell_matches_generated_dataset() {
        // Regenerating a cell must agree with what generation stored.
        let d = Dataset::clean(Topology::line(3), tiny_config(9));
        let acc = d.net.baseline_cell(5, 2);
        let s = acc.summarize();
        assert_eq!(d.volumes.packets()[(5, 2)], s.packets as f64);
        assert_eq!(d.volumes.bytes()[(5, 2)], s.bytes as f64);
        for f in entromine_entropy::FEATURES {
            assert!(
                (d.tensor.get(5, 2, f) - s.entropy[f.index()]).abs() < 1e-12,
                "feature {f} mismatch"
            );
        }
    }

    #[test]
    fn cell_packets_replay_reconstructs_generated_cells() {
        // The streaming replay source must produce exactly the packets the
        // batch generator accumulated — anomaly events included.
        let ev = AnomalyEvent {
            label: AnomalyLabel::PortScan,
            start_bin: 6,
            duration: 2,
            flows: vec![1],
            packets_per_cell: 80.0,
            seed: 21,
        };
        let d = Dataset::generate(Topology::line(3), tiny_config(11), vec![ev]);
        for (bin, flow) in [(6, 1), (7, 1), (5, 1), (6, 0)] {
            let packets = d.net.cell_packets(bin, flow, &d.truth);
            let mut acc = BinAccumulator::new();
            for p in &packets {
                acc.add_packet(p);
            }
            let s = acc.summarize();
            assert_eq!(d.volumes.packets()[(bin, flow)], s.packets as f64);
            assert_eq!(d.volumes.bytes()[(bin, flow)], s.bytes as f64);
            for f in entromine_entropy::FEATURES {
                assert_eq!(
                    d.tensor.get(bin, flow, f),
                    s.entropy[f.index()],
                    "cell ({bin},{flow}) feature {f} diverged on replay"
                );
            }
            // Every replayed packet is stamped inside its bin.
            let t0 = bin as u64 * DatasetConfig::BIN_SECS;
            assert!(packets
                .iter()
                .all(|p| p.timestamp >= t0 && p.timestamp < t0 + DatasetConfig::BIN_SECS));
        }
    }

    #[test]
    fn outage_suppresses_traffic() {
        let ev = AnomalyEvent {
            label: AnomalyLabel::Outage,
            start_bin: 10,
            duration: 2,
            flows: vec![4],
            packets_per_cell: 0.0,
            seed: 77,
        };
        let with = Dataset::generate(Topology::line(3), tiny_config(10), vec![ev]);
        let without = Dataset::clean(Topology::line(3), tiny_config(10));
        let hit = with.volumes.packets()[(10, 4)];
        let normal = without.volumes.packets()[(10, 4)];
        assert!(
            hit < normal * 0.3,
            "outage failed to suppress: {hit} vs {normal}"
        );
        // Other cells untouched.
        assert_eq!(
            with.volumes.packets()[(9, 4)],
            without.volumes.packets()[(9, 4)]
        );
        assert_eq!(
            with.volumes.packets()[(10, 3)],
            without.volumes.packets()[(10, 3)]
        );
    }

    #[test]
    fn packet_injection_shifts_entropy() {
        let ev = AnomalyEvent {
            label: AnomalyLabel::PortScan,
            start_bin: 12,
            duration: 1,
            flows: vec![7],
            packets_per_cell: 400.0,
            seed: 3,
        };
        let with = Dataset::generate(Topology::line(3), tiny_config(11), vec![ev]);
        let without = Dataset::clean(Topology::line(3), tiny_config(11));
        // Port scan: dstPort entropy rises, dstIP entropy falls.
        let dport_with = with.tensor.get(12, 7, Feature::DstPort);
        let dport_without = without.tensor.get(12, 7, Feature::DstPort);
        assert!(
            dport_with > dport_without + 0.5,
            "dstPort entropy: {dport_without} -> {dport_with}"
        );
        let dip_with = with.tensor.get(12, 7, Feature::DstIp);
        let dip_without = without.tensor.get(12, 7, Feature::DstIp);
        assert!(
            dip_with < dip_without,
            "dstIP entropy: {dip_without} -> {dip_with}"
        );
    }

    #[test]
    fn whatif_matches_real_injection() {
        // whatif_rows on a clean dataset must equal actually generating the
        // dataset with the anomaly, for the affected row.
        let cfg = tiny_config(12);
        let clean = Dataset::clean(Topology::line(3), cfg.clone());
        let od = clean.net.indexer().pair(5);
        let packets = anomaly_packets(
            AnomalyLabel::NetworkScan,
            clean.net.plan(),
            od,
            300,
            8 * DatasetConfig::BIN_SECS,
            21,
        );
        let what = clean.whatif_rows(8, &[(5, &packets)]);

        // Direct construction of the same cell.
        let mut acc = clean.net.baseline_cell(8, 5);
        acc.add_packets(&packets);
        let s = acc.summarize();
        let p = clean.n_flows();
        for (k, e) in s.entropy.iter().enumerate() {
            assert!((what.entropy[k * p + 5] - e).abs() < 1e-12);
        }
        assert_eq!(what.packets[5], s.packets as f64);
        // Unaffected flows keep their stored values.
        assert_eq!(what.packets[4], clean.volumes.packets()[(8, 4)]);
    }

    #[test]
    fn anonymization_flag_masks_addresses() {
        let mut cfg = tiny_config(13);
        cfg.anonymize = true;
        let d = Dataset::clean(Topology::line(3), cfg);
        // Anonymized entropy is lower than raw entropy for srcIP (fewer
        // distinct values after masking).
        let mut cfg_raw = tiny_config(13);
        cfg_raw.anonymize = false;
        let raw = Dataset::clean(Topology::line(3), cfg_raw);
        let mut strictly_lower = 0;
        let mut total = 0;
        for bin in 0..d.n_bins() {
            for flow in 0..d.n_flows() {
                let a = d.tensor.get(bin, flow, Feature::SrcIp);
                let r = raw.tensor.get(bin, flow, Feature::SrcIp);
                // Masking is a function of the address, so it can only
                // merge histogram bins: entropy never increases.
                assert!(
                    a <= r + 1e-12,
                    "anonymization increased entropy at ({bin},{flow}): {r} -> {a}"
                );
                if a < r - 1e-9 {
                    strictly_lower += 1;
                }
                total += 1;
            }
        }
        // Hosts share /21 groups, so coarsening must actually bite in the
        // bulk of cells.
        assert!(
            strictly_lower * 2 > total,
            "anonymization reduced entropy in only {strictly_lower}/{total} cells"
        );
    }
}
