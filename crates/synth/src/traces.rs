//! The labelled attack traces of Table 4 and the §6.3.1 injection pipeline.
//!
//! The paper injects three documented real-world anomalies into its
//! Abilene data:
//!
//! | Trace             | Intensity        | Source                      |
//! |-------------------|------------------|-----------------------------|
//! | Single-source DOS | 3.47e5 pkts/sec  | Hussain et al. (Los Nettos) |
//! | Multi-source DDOS | 2.75e4 pkts/sec  | Hussain et al. (Los Nettos) |
//! | Worm scan         | 141 pkts/sec     | Schechter et al. (Utah ISP) |
//!
//! Those traces are not redistributable, so [`AttackTrace::generate`]
//! synthesizes traces with the documented intensities and the
//! distributional structure the papers describe (spoofed vs. real sources,
//! single victim, vulnerable-port scanning), mixed with background
//! traffic. The full §6.3.1 pipeline is then reproduced mechanically:
//!
//! 1. **extraction** of the anomaly packets (by victim address for the DOS
//!    traces; by the annotated scan port for the worm);
//! 2. **11-bit masking** to match Abilene's anonymization;
//! 3. **random remapping** of addresses onto the target network's
//!    customer space ([`remap_to_network`]);
//! 4. **thinning** by 1-in-N ([`entromine_net::sample::thin_periodic`]).
//!
//! The high-rate traces would materialize ~10^8 packets for a 5-minute
//! bin; [`sampled_attack_packets`] therefore provides the *fused* path
//! used by the large injection sweeps — drawing directly the packets that
//! survive thinning and 1/N flow sampling, which is statistically
//! equivalent for these i.i.d.-header floods and exact in expectation.
//! The multi-OD-flow experiments split an attack by drawing each of the
//! `k` origins' equal share through it.

use crate::mix64;
use entromine_net::{AddressPlan, Ipv4, OdPair, PacketHeader};
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Which documented trace (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Single-source bandwidth DOS attack.
    DosSingle,
    /// Multi-source distributed DOS attack.
    DosMulti,
    /// Worm scan for a vulnerable port.
    WormScan,
}

impl TraceKind {
    /// All three traces.
    pub const ALL: [TraceKind; 3] = [
        TraceKind::DosSingle,
        TraceKind::DosMulti,
        TraceKind::WormScan,
    ];

    /// The documented unthinned intensity in packets per second.
    pub const fn intensity_pps(self) -> f64 {
        match self {
            TraceKind::DosSingle => 3.47e5,
            TraceKind::DosMulti => 2.75e4,
            TraceKind::WormScan => 141.0,
        }
    }

    /// Table 4's label.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::DosSingle => "Single-Source DOS",
            TraceKind::DosMulti => "Multi-Source DDOS",
            TraceKind::WormScan => "Worm scan",
        }
    }

    /// Number of distinct attack sources in the synthesized trace.
    const fn n_sources(self) -> usize {
        match self {
            TraceKind::DosSingle => 1,
            TraceKind::DosMulti => 64,
            TraceKind::WormScan => 18,
        }
    }

    /// The attack's destination port.
    const fn target_port(self) -> u16 {
        match self {
            TraceKind::DosSingle => 80,
            TraceKind::DosMulti => 80,
            TraceKind::WormScan => 1433, // MS-SQL, as in the paper's data
        }
    }
}

/// A synthesized labelled attack trace (attack packets plus background).
#[derive(Debug, Clone)]
pub struct AttackTrace {
    /// Which documented trace this models.
    pub kind: TraceKind,
    /// All packets, attack and background interleaved in time order.
    pub packets: Vec<PacketHeader>,
    /// The victim address (for the DOS traces) used for extraction.
    pub victim: Ipv4,
    /// Duration covered, seconds.
    pub duration_secs: u64,
    /// True attack intensity represented, packets/second (the excerpt may
    /// be materialized at a reduced rate; this field records the real one).
    pub intensity_pps: f64,
}

/// Raw address space the traces live in before remapping (a /8 unrelated
/// to the backbone's customer space).
const TRACE_SPACE: u32 = 0x18_00_00_00; // 24.0.0.0/8

impl AttackTrace {
    /// Synthesizes a trace excerpt.
    ///
    /// At most `max_packets` attack packets are materialized; if the
    /// documented intensity over `duration_secs` exceeds that, the excerpt
    /// represents the full trace at reduced rate (recorded in
    /// [`intensity_pps`](Self::intensity_pps) — extraction, masking,
    /// remapping and thinning all operate identically on the excerpt).
    pub fn generate(kind: TraceKind, seed: u64, duration_secs: u64, max_packets: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x7247CE));
        let victim = Ipv4(TRACE_SPACE | rng.random_range(0..0x00FF_FFFF));
        let sources: Vec<Ipv4> = (0..kind.n_sources())
            .map(|_| Ipv4(TRACE_SPACE | rng.random_range(0..0x00FF_FFFF)))
            .collect();

        let want = (kind.intensity_pps() * duration_secs as f64) as usize;
        let n_attack = want.min(max_packets);
        // ~10% background packets mixed in, as captured traces have.
        let n_background = n_attack / 10;

        let mut packets = Vec::with_capacity(n_attack + n_background);
        for i in 0..n_attack {
            let ts = (i as u64 * duration_secs) / n_attack.max(1) as u64;
            let src = sources[rng.random_range(0..sources.len())];
            let pkt = match kind {
                TraceKind::DosSingle | TraceKind::DosMulti => PacketHeader::tcp(
                    src,
                    rng.random_range(1024..=65535),
                    victim,
                    kind.target_port(),
                    40,
                    ts,
                ),
                TraceKind::WormScan => PacketHeader::tcp(
                    src,
                    rng.random_range(1024..=65535),
                    // Worm sweeps the whole space; extraction is by port.
                    Ipv4(TRACE_SPACE | rng.random_range(0..0x00FF_FFFF)),
                    kind.target_port(),
                    404,
                    ts,
                ),
            };
            packets.push(pkt);
        }
        for _ in 0..n_background {
            let ts = rng.random_range(0..duration_secs.max(1));
            packets.push(PacketHeader::tcp(
                Ipv4(TRACE_SPACE | rng.random_range(0..0x00FF_FFFF)),
                rng.random_range(1024..=65535),
                Ipv4(TRACE_SPACE | rng.random_range(0..0x00FF_FFFF)),
                *[80u16, 443, 53, 25].get(rng.random_range(0..4)).unwrap(),
                576,
                ts,
            ));
        }
        packets.sort_by_key(|p| p.timestamp);

        AttackTrace {
            kind,
            packets,
            victim,
            duration_secs,
            intensity_pps: kind.intensity_pps(),
        }
    }

    /// Extracts the anomaly packets from the mixed trace, as §6.3.1 does:
    /// "by identifying the victim, and extracting all packets directed to
    /// that address" for the DOS traces; by the annotated scan port for the
    /// worm ("the worm scan trace was already annotated").
    pub fn extract_attack(&self) -> Vec<PacketHeader> {
        match self.kind {
            TraceKind::DosSingle | TraceKind::DosMulti => self
                .packets
                .iter()
                .copied()
                .filter(|p| p.dst_ip == self.victim)
                .collect(),
            TraceKind::WormScan => self
                .packets
                .iter()
                .copied()
                .filter(|p| p.dst_port == self.kind.target_port())
                .collect(),
        }
    }
}

/// Remaps extracted attack packets onto a target network's address space,
/// reproducing §6.3.1: "zeroing out the last 11 bits of the address fields
/// to match the Abilene anonymization, and then applying a random mapping
/// from the addresses ... seen in the attack trace to addresses ... seen
/// in the Abilene data".
///
/// Distinct (masked) source addresses map to distinct hosts of the
/// origin PoP; destinations to hosts of the destination PoP. Ports are
/// preserved (they already carry the attack's structure). Timestamps are
/// reset to `timestamp`.
pub fn remap_to_network(
    packets: &[PacketHeader],
    plan: &AddressPlan,
    od: OdPair,
    anonymize: bool,
    timestamp: u64,
    seed: u64,
) -> Vec<PacketHeader> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x2E3A9));
    let mut src_map: HashMap<Ipv4, Ipv4> = HashMap::new();
    let mut dst_map: HashMap<Ipv4, Ipv4> = HashMap::new();
    packets
        .iter()
        .map(|p| {
            let (raw_src, raw_dst) = if anonymize {
                (p.src_ip.anonymize(), p.dst_ip.anonymize())
            } else {
                (p.src_ip, p.dst_ip)
            };
            let src = *src_map
                .entry(raw_src)
                .or_insert_with(|| plan.host(od.origin, rng.random_range(0..100_000)));
            let dst = *dst_map
                .entry(raw_dst)
                .or_insert_with(|| plan.host(od.dest, rng.random_range(0..100_000)));
            PacketHeader {
                src_ip: src,
                dst_ip: dst,
                timestamp,
                ..*p
            }
        })
        .collect()
}

/// Mean number of packets that survive 1-in-`thinning` trace thinning
/// followed by 1-in-`sample_rate` flow sampling, for a bin of
/// `bin_secs` seconds, with the global `traffic_scale` applied.
pub fn sampled_count(
    kind: TraceKind,
    thinning: u64,
    sample_rate: u64,
    bin_secs: u64,
    traffic_scale: f64,
) -> f64 {
    let thin = thinning.max(1) as f64;
    kind.intensity_pps() * bin_secs as f64 * traffic_scale / (thin * sample_rate as f64)
}

/// Draws `n` attack packets directly in post-sampling space, remapped into
/// the given OD pair — the fused fast path for the Figure 5/6 sweeps.
///
/// Headers follow the same models as [`AttackTrace::generate`] +
/// [`remap_to_network`]: statistically equivalent to running the
/// mechanical pipeline, without materializing 10^8 raw packets.
pub fn sampled_attack_packets(
    kind: TraceKind,
    plan: &AddressPlan,
    od: OdPair,
    n: u64,
    timestamp: u64,
    seed: u64,
) -> Vec<PacketHeader> {
    let mut stable = StdRng::seed_from_u64(mix64(seed ^ 0x57AB1E));
    let victim = plan.host(od.dest, stable.random_range(0..100_000));
    let sources: Vec<Ipv4> = (0..kind.n_sources())
        .map(|_| plan.host(od.origin, stable.random_range(0..100_000)))
        .collect();
    let mut rng = SmallRng::seed_from_u64(mix64(seed ^ mix64(timestamp ^ 0xB0B)));
    let block = plan.pop_block(od.dest);
    (0..n)
        .map(|_| {
            let src = sources[rng.random_range(0..sources.len())];
            match kind {
                TraceKind::DosSingle | TraceKind::DosMulti => PacketHeader::tcp(
                    src,
                    rng.random_range(1024..=65535),
                    victim,
                    kind.target_port(),
                    40,
                    timestamp,
                ),
                TraceKind::WormScan => PacketHeader::tcp(
                    src,
                    rng.random_range(1024..=65535),
                    Ipv4(block.first().0 + rng.random_range(0..block.size()) as u32),
                    kind.target_port(),
                    404,
                    timestamp,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::sample::thin_periodic;
    use entromine_net::Topology;

    #[test]
    fn table4_intensities() {
        assert_eq!(TraceKind::DosSingle.intensity_pps(), 3.47e5);
        assert_eq!(TraceKind::DosMulti.intensity_pps(), 2.75e4);
        assert_eq!(TraceKind::WormScan.intensity_pps(), 141.0);
    }

    #[test]
    fn worm_trace_materializes_fully() {
        // 141 pps * 300 s = 42300 attack packets: small enough for the
        // full mechanical pipeline.
        let t = AttackTrace::generate(TraceKind::WormScan, 1, 300, 1_000_000);
        let attack = t.extract_attack();
        assert_eq!(attack.len(), 42_300);
        assert!(
            t.packets.len() > attack.len(),
            "background must be mixed in"
        );
    }

    #[test]
    fn dos_excerpt_caps_materialization() {
        let t = AttackTrace::generate(TraceKind::DosSingle, 2, 300, 50_000);
        assert_eq!(t.extract_attack().len(), 50_000);
        assert_eq!(t.intensity_pps, 3.47e5, "represented intensity preserved");
    }

    #[test]
    fn extraction_pulls_only_the_attack() {
        let t = AttackTrace::generate(TraceKind::DosMulti, 3, 60, 20_000);
        let attack = t.extract_attack();
        assert!(attack.iter().all(|p| p.dst_ip == t.victim));
        // Multi-source: many distinct sources.
        let srcs: std::collections::HashSet<Ipv4> = attack.iter().map(|p| p.src_ip).collect();
        assert!(srcs.len() > 30, "only {} sources", srcs.len());
    }

    #[test]
    fn remap_lands_in_od_pools_and_preserves_structure() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        let t = AttackTrace::generate(TraceKind::DosMulti, 4, 60, 10_000);
        let attack = t.extract_attack();
        let remapped = remap_to_network(&attack, &plan, OdPair::new(2, 7), true, 123, 9);
        assert_eq!(remapped.len(), attack.len());
        let mut dsts = std::collections::HashSet::new();
        for p in &remapped {
            assert_eq!(plan.resolve(p.src_ip), Some(2));
            assert_eq!(plan.resolve(p.dst_ip), Some(7));
            assert_eq!(p.timestamp, 123);
            dsts.insert(p.dst_ip);
        }
        // One victim → one remapped destination.
        assert_eq!(dsts.len(), 1);
        // Source count preserved (distinct masked sources stay distinct in
        // expectation; collisions after masking are allowed but rare).
        let orig_srcs: std::collections::HashSet<Ipv4> =
            attack.iter().map(|p| p.src_ip.anonymize()).collect();
        let new_srcs: std::collections::HashSet<Ipv4> = remapped.iter().map(|p| p.src_ip).collect();
        assert!(new_srcs.len() <= orig_srcs.len());
        assert!(new_srcs.len() >= orig_srcs.len() / 2);
    }

    #[test]
    fn thinning_composes_with_pipeline() {
        let t = AttackTrace::generate(TraceKind::WormScan, 5, 300, 1_000_000);
        let attack = t.extract_attack();
        let thinned = thin_periodic(&attack, 10);
        assert_eq!(thinned.len(), attack.len().div_ceil(10));
    }

    #[test]
    fn sampled_count_matches_table5() {
        // Table 5: single DOS at thinning 0 → 3.47e5 pps; at 1000 → 347.
        let c0 = sampled_count(TraceKind::DosSingle, 0, 100, 300, 1.0);
        let c1000 = sampled_count(TraceKind::DosSingle, 1000, 100, 300, 1.0);
        // Unthinned: 3.47e5 pps * 300 s / 100 sampling = 1.041e6 packets.
        assert!((c0 - 1.041e6).abs() < 1.0);
        // Thinned 1000x: 1041 packets (Table 5's 347 pps row / 100 * 300).
        assert!((c1000 - 1041.0).abs() < 1.0);
        assert!((c0 / c1000 - 1000.0).abs() < 1e-6);
        // Thinning factors 0 and 1 both mean "unthinned".
        assert_eq!(
            sampled_count(TraceKind::WormScan, 0, 100, 300, 1.0),
            sampled_count(TraceKind::WormScan, 1, 100, 300, 1.0)
        );
    }

    #[test]
    fn fused_path_matches_mechanical_distributions() {
        // The fused sampler and the mechanical pipeline must agree on the
        // structural signature: single victim, spoofed sources, one port.
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        let od = OdPair::new(1, 8);
        let fused = sampled_attack_packets(TraceKind::DosMulti, &plan, od, 5000, 0, 11);
        let srcs: std::collections::HashSet<Ipv4> = fused.iter().map(|p| p.src_ip).collect();
        let dsts: std::collections::HashSet<Ipv4> = fused.iter().map(|p| p.dst_ip).collect();
        assert_eq!(dsts.len(), 1);
        assert!(srcs.len() > 30);
        assert!(fused.iter().all(|p| p.dst_port == 80));
        for p in &fused {
            assert_eq!(plan.resolve(p.src_ip), Some(1));
            assert_eq!(plan.resolve(p.dst_ip), Some(8));
        }
    }

    #[test]
    fn worm_fused_path_sweeps_destinations() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        let pkts =
            sampled_attack_packets(TraceKind::WormScan, &plan, OdPair::new(0, 5), 3000, 0, 13);
        let dsts: std::collections::HashSet<Ipv4> = pkts.iter().map(|p| p.dst_ip).collect();
        assert!(
            dsts.len() > 1000,
            "worm must sweep addresses: {}",
            dsts.len()
        );
        assert!(pkts.iter().all(|p| p.dst_port == 1433));
    }
}
