//! Trace thinning.
//!
//! The injection methodology of §6.3 dilutes a labelled attack trace "by
//! selecting 1 out of every N packets" to sweep the anomaly intensity;
//! [`thin_periodic`] does that. Router sampling itself (Abilene: 1 in 100,
//! Geant: 1 in 1000) is not applied packet by packet: the synthetic
//! generator draws its rates as already-sampled packet counts.

use crate::packet::PacketHeader;

/// Thins a trace deterministically: keeps packets `0, n, 2n, ...`.
///
/// A thinning factor of 0 or 1 keeps the whole trace (matching the paper's
/// Table 5 where factor 0 denotes the unthinned trace).
pub fn thin_periodic(packets: &[PacketHeader], factor: u64) -> Vec<PacketHeader> {
    if factor <= 1 {
        return packets.to_vec();
    }
    packets
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| (*i as u64).is_multiple_of(factor))
        .map(|(_, p)| p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4;

    fn mk(n: usize) -> Vec<PacketHeader> {
        (0..n)
            .map(|i| PacketHeader::udp(Ipv4(i as u32), 53, Ipv4(99), 53, 100, i as u64))
            .collect()
    }

    #[test]
    fn periodic_exact_fraction() {
        let kept = thin_periodic(&mk(1000), 100);
        assert_eq!(kept.len(), 10);
        // Every 100th packet starting from the first.
        assert_eq!(kept[0].src_ip, Ipv4(0));
        assert_eq!(kept[1].src_ip, Ipv4(100));
    }

    #[test]
    fn thin_periodic_factors() {
        let packets = mk(100);
        assert_eq!(thin_periodic(&packets, 0).len(), 100);
        assert_eq!(thin_periodic(&packets, 1).len(), 100);
        assert_eq!(thin_periodic(&packets, 10).len(), 10);
        assert_eq!(thin_periodic(&packets, 100).len(), 1);
        assert_eq!(thin_periodic(&packets, 1000).len(), 1);
    }

    #[test]
    fn thinning_preserves_packet_contents() {
        let packets = mk(50);
        let kept = thin_periodic(&packets, 7);
        for p in &kept {
            assert!(packets.contains(p));
        }
    }
}
