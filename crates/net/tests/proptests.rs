//! Property-based tests for the network substrate.

use entromine_net::sample::thin_periodic;
use entromine_net::{AddressPlan, Ipv4, OdIndexer, OdPair, PacketHeader, Prefix, Topology};
use proptest::prelude::*;

fn arb_ip() -> impl Strategy<Value = Ipv4> {
    any::<u32>().prop_map(Ipv4)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ipv4(addr), len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prefix_contains_its_bounds(p in arb_prefix()) {
        prop_assert!(p.contains(p.first()));
        prop_assert!(p.contains(p.last()));
    }

    #[test]
    fn anonymization_is_idempotent_and_coarsens(ip in arb_ip()) {
        let once = ip.anonymize();
        prop_assert_eq!(once.anonymize(), once);
        // Anonymized address shares the /21 of the original.
        let p21 = Prefix::new(ip, 21);
        prop_assert!(p21.contains(once));
    }

    #[test]
    fn plan_resolve_agrees_with_block_scan(
        raw in any::<u32>(),
        in_base in any::<bool>(),
        geant in any::<bool>(),
    ) {
        // Half the draws land inside the 10/8 base the blocks are cut from.
        let ip = if in_base { Ipv4((10 << 24) | (raw >> 8)) } else { Ipv4(raw) };
        let topo = if geant { Topology::geant() } else { Topology::abilene() };
        let plan = AddressPlan::standard(&topo);
        let expected = (0..topo.n_pops()).find(|&pop| plan.pop_block(pop).contains(ip));
        prop_assert_eq!(plan.resolve(ip), expected);
    }

    #[test]
    fn od_index_bijection(n in 1usize..30, o in 0usize..30, d in 0usize..30) {
        prop_assume!(o < n && d < n);
        let ix = OdIndexer::new(n);
        let idx = ix.index(OdPair::new(o, d));
        prop_assert!(idx < ix.n_flows());
        prop_assert_eq!(ix.pair(idx), OdPair::new(o, d));
    }

    #[test]
    fn periodic_sampler_count_is_exact(len in 0usize..5000, n in 1u64..500) {
        let packets: Vec<PacketHeader> = (0..len)
            .map(|i| PacketHeader::udp(Ipv4(i as u32), 1, Ipv4(2), 2, 10, i as u64))
            .collect();
        let kept = thin_periodic(&packets, n);
        // ceil(len / n) packets are kept.
        let expected = (len as u64).div_ceil(n);
        prop_assert_eq!(kept.len() as u64, expected);
    }

    #[test]
    fn thinning_never_grows(len in 0usize..2000, f in 0u64..50) {
        let packets: Vec<PacketHeader> = (0..len)
            .map(|i| PacketHeader::udp(Ipv4(i as u32), 1, Ipv4(2), 2, 10, i as u64))
            .collect();
        let thinned = thin_periodic(&packets, f);
        prop_assert!(thinned.len() <= packets.len());
        if f <= 1 {
            prop_assert_eq!(thinned.len(), packets.len());
        }
    }

    #[test]
    fn plan_hosts_always_resolve_home(pop in 0usize..11, i in 0u64..100_000) {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        prop_assert_eq!(plan.resolve(plan.host(pop, i)), Some(pop));
    }
}
