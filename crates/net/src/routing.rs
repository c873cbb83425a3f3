//! PoP address plans.
//!
//! The paper aggregates IP flows into OD flows by resolving, for every flow
//! sampled at an ingress PoP, the *egress* PoP it will leave the backbone
//! from; the authors do this with BGP and ISIS tables (Feldmann et al.).
//! Here an [`AddressPlan`] deterministically carves address space into
//! equal per-PoP customer blocks, so an address resolves to its PoP by
//! block arithmetic.

use crate::ip::{Ipv4, Prefix};
use crate::topology::{PopId, Topology};

/// A deterministic allocation of customer address space to PoPs.
///
/// Each PoP receives an equal-size block carved out of `base`.
#[derive(Debug, Clone)]
pub struct AddressPlan {
    base: Prefix,
    bits: u8,
    n_pops: usize,
}

impl AddressPlan {
    /// Builds a plan for `topology` out of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` cannot be split into enough per-PoP blocks.
    pub fn new(topology: &Topology, base: Prefix) -> Self {
        let n = topology.n_pops();
        // Smallest power of two >= n.
        let mut bits = 0u8;
        while (1usize << bits) < n {
            bits += 1;
        }
        assert!(
            base.len() + bits <= 24,
            "base prefix too small for {n} PoP blocks with room for hosts"
        );
        AddressPlan {
            base,
            bits,
            n_pops: n,
        }
    }

    /// The standard plan used throughout the workspace: per-PoP blocks out
    /// of `10.0.0.0/8`.
    pub fn standard(topology: &Topology) -> Self {
        AddressPlan::new(topology, Prefix::new(Ipv4::new(10, 0, 0, 0), 8))
    }

    /// The covering customer block of a PoP.
    pub fn pop_block(&self, pop: PopId) -> Prefix {
        assert!(pop < self.n_pops, "PoP out of range");
        self.base.subnet(self.bits, pop as u64)
    }

    /// A deterministic host address inside a PoP's block.
    ///
    /// Hosts come in groups of 8 sharing one /21 (the 11-bit
    /// anonymization granularity), with groups strided across the block.
    /// This mirrors real customer space — many hosts per anonymization
    /// bucket, buckets spread over the PoP's block — so that
    /// masking genuinely coarsens distributions (the §5 anonymization
    /// ablation depends on it) without collapsing them to one value.
    pub fn host(&self, pop: PopId, i: u64) -> Ipv4 {
        let block = self.pop_block(pop);
        let span = block.size();
        // 8 hosts per /21 group; groups strided by a prime > 2^11.
        let offset = (i % 8) + (i / 8) * 2657;
        block.host(offset % span)
    }

    /// Resolves the PoP whose block contains `ip`; `None` for addresses
    /// outside every block.
    pub fn resolve(&self, ip: Ipv4) -> Option<PopId> {
        if !self.base.contains(ip) {
            return None;
        }
        let block_width = 32 - u32::from(self.base.len() + self.bits);
        let pop = ((ip.0 - self.base.addr().0) >> block_width) as PopId;
        (pop < self.n_pops).then_some(pop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_blocks_are_disjoint_and_resolve() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        for pop in 0..topo.n_pops() {
            let block = plan.pop_block(pop);
            // Block resolves to its own PoP.
            assert_eq!(plan.resolve(block.first()), Some(pop));
            assert_eq!(plan.resolve(block.last()), Some(pop));
            // Hosts resolve to their PoP.
            for i in [0u64, 1, 17, 1000] {
                assert_eq!(plan.resolve(plan.host(pop, i)), Some(pop));
            }
            // Blocks of different PoPs are disjoint.
            for other in 0..topo.n_pops() {
                if other != pop {
                    assert!(!block.contains(plan.pop_block(other).first()));
                }
            }
        }
    }

    #[test]
    fn plan_works_for_geant_size() {
        let topo = Topology::geant();
        let plan = AddressPlan::standard(&topo);
        assert_eq!(topo.n_pops(), 22);
        for pop in 0..22 {
            assert_eq!(plan.resolve(plan.host(pop, 42)), Some(pop));
        }
    }

    #[test]
    fn hosts_group_within_and_spread_across_anonymization_buckets() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        // Hosts 0..8 share a /21: anonymization collapses them.
        let a = plan.host(0, 0).anonymize();
        let b = plan.host(0, 1).anonymize();
        assert_eq!(a, b, "same group must share an anonymization bucket");
        // Different groups land in different /21s: anonymized entropy is
        // coarsened, not destroyed.
        let c = plan.host(0, 8).anonymize();
        assert_ne!(a, c, "different groups must stay distinguishable");
        // Many groups: at least dozens of distinct anonymized values.
        let distinct: std::collections::HashSet<Ipv4> =
            (0..256).map(|i| plan.host(0, i).anonymize()).collect();
        assert!(distinct.len() >= 30, "only {} buckets", distinct.len());
    }

    #[test]
    fn external_hosts_are_off_net() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        // Outside the 10/8 base, and inside it past the last PoP block.
        assert_eq!(plan.resolve(Ipv4::new(172, 16, 0, 1)), None);
        assert_eq!(plan.resolve(Ipv4::new(9, 255, 255, 255)), None);
        assert_eq!(plan.resolve(Ipv4::new(11, 0, 0, 0)), None);
        assert_eq!(plan.resolve(Ipv4::new(10, 255, 255, 255)), None);
    }

    #[test]
    fn distinct_host_indices_give_distinct_addresses() {
        let topo = Topology::abilene();
        let plan = AddressPlan::standard(&topo);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(plan.host(3, i)), "host collision at {i}");
        }
    }
}
