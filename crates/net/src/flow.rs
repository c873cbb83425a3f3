//! Flow records.
//!
//! The paper's data source is *sampled flow data* exported by routers
//! (Cisco NetFlow / Juniper traffic sampling): packets sharing a five-tuple
//! are summarized as one [`FlowRecord`]. Records are built per 5-minute
//! bin, so the bin boundary delimits every flow and no router timeout is
//! modelled; [`aggregate_bin`] is the per-bin aggregator the entropy
//! layer's tests use as their reference.

use crate::ip::Ipv4;
use crate::packet::{PacketHeader, Protocol};
use std::collections::HashMap;

/// The five-tuple identifying an IP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src_ip: Ipv4,
    /// Destination address.
    pub dst_ip: Ipv4,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowKey {
    /// The five-tuple of a packet.
    pub fn of(pkt: &PacketHeader) -> Self {
        FlowKey {
            src_ip: pkt.src_ip,
            dst_ip: pkt.dst_ip,
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
            proto: pkt.proto,
        }
    }
}

/// An aggregated flow record, as a router would export it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// The five-tuple.
    pub key: FlowKey,
    /// Number of (sampled) packets in the flow.
    pub packets: u64,
    /// Total bytes across those packets.
    pub bytes: u64,
    /// Timestamp of the first packet (seconds).
    pub first: u64,
    /// Timestamp of the last packet (seconds).
    pub last: u64,
}

impl FlowRecord {
    fn from_packet(pkt: &PacketHeader) -> Self {
        FlowRecord {
            key: FlowKey::of(pkt),
            packets: 1,
            bytes: pkt.bytes as u64,
            first: pkt.timestamp,
            last: pkt.timestamp,
        }
    }

    fn absorb(&mut self, pkt: &PacketHeader) {
        self.packets += 1;
        self.bytes += pkt.bytes as u64;
        self.first = self.first.min(pkt.timestamp);
        self.last = self.last.max(pkt.timestamp);
    }
}

/// One-shot helper: aggregate a packet slice into flow records with no
/// timeout subtleties (each distinct five-tuple yields exactly one record).
///
/// This is what per-bin analysis uses, where flows are already delimited by
/// the 5-minute bin boundary.
pub fn aggregate_bin(packets: &[PacketHeader]) -> Vec<FlowRecord> {
    let mut map: HashMap<FlowKey, FlowRecord> = HashMap::with_capacity(packets.len() / 4 + 1);
    for pkt in packets {
        match map.get_mut(&FlowKey::of(pkt)) {
            Some(rec) => rec.absorb(pkt),
            None => {
                map.insert(FlowKey::of(pkt), FlowRecord::from_packet(pkt));
            }
        }
    }
    let mut records: Vec<FlowRecord> = map.into_values().collect();
    // Deterministic output order for reproducibility.
    records.sort_by_key(|r| {
        (
            r.key.src_ip,
            r.key.dst_ip,
            r.key.src_port,
            r.key.dst_port,
            r.key.proto.number(),
        )
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: u32, sport: u16, dst: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), sport, Ipv4(dst), dport, 100, ts)
    }

    #[test]
    fn same_five_tuple_aggregates() {
        let recs = aggregate_bin(&[
            pkt(1, 10, 2, 80, 5),
            pkt(1, 10, 2, 80, 0),
            pkt(1, 10, 2, 80, 9),
        ]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].packets, 3);
        assert_eq!(recs[0].bytes, 300);
        assert_eq!(recs[0].first, 0);
        assert_eq!(recs[0].last, 9);
    }

    #[test]
    fn different_tuples_do_not_merge() {
        let recs = aggregate_bin(&[
            pkt(1, 10, 2, 80, 0),
            pkt(1, 11, 2, 80, 0), // different src port
            pkt(3, 10, 2, 80, 0), // different src ip
        ]);
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn aggregate_bin_is_deterministic_and_complete() {
        let packets = vec![
            pkt(2, 10, 3, 80, 0),
            pkt(1, 10, 3, 80, 1),
            pkt(2, 10, 3, 80, 2),
            pkt(1, 10, 3, 80, 3),
        ];
        let recs = aggregate_bin(&packets);
        assert_eq!(recs.len(), 2);
        // Sorted by src ip.
        assert_eq!(recs[0].key.src_ip, Ipv4(1));
        assert_eq!(recs[1].key.src_ip, Ipv4(2));
        assert_eq!(recs[0].packets, 2);
        assert_eq!(recs[1].packets, 2);
        let total_bytes: u64 = recs.iter().map(|r| r.bytes).sum();
        assert_eq!(total_bytes, 400);
    }

    #[test]
    fn aggregate_empty_bin() {
        assert!(aggregate_bin(&[]).is_empty());
    }
}
