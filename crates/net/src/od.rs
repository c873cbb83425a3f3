//! Origin–destination flow indexing.
//!
//! An OD flow is all traffic entering the backbone at one PoP (the origin)
//! and leaving at another (the destination). A `p`-PoP network has `p^2`
//! OD flows including self-pairs — 121 for Abilene, 484 for Geant, exactly
//! the `p` dimension of the paper's three-way matrix `H(t, p, k)`.

use crate::topology::PopId;

/// An origin–destination PoP pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OdPair {
    /// Ingress PoP.
    pub origin: PopId,
    /// Egress PoP.
    pub dest: PopId,
}

impl OdPair {
    /// Builds a pair.
    pub const fn new(origin: PopId, dest: PopId) -> Self {
        OdPair { origin, dest }
    }
}

impl std::fmt::Display for OdPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}", self.origin, self.dest)
    }
}

/// Maps between [`OdPair`]s and dense indices `0..p^2`.
///
/// The dense index is `origin * p + dest`; all matrices in the workspace
/// use this column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OdIndexer {
    n_pops: usize,
}

impl OdIndexer {
    /// An indexer for a `p`-PoP network.
    pub const fn new(n_pops: usize) -> Self {
        OdIndexer { n_pops }
    }

    /// Number of PoPs.
    pub const fn n_pops(&self) -> usize {
        self.n_pops
    }

    /// Number of OD flows (`p^2`).
    pub const fn n_flows(&self) -> usize {
        self.n_pops * self.n_pops
    }

    /// Dense index of a pair.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if either PoP is out of range.
    pub fn index(&self, od: OdPair) -> usize {
        debug_assert!(od.origin < self.n_pops && od.dest < self.n_pops);
        od.origin * self.n_pops + od.dest
    }

    /// The pair at a dense index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `idx >= p^2`.
    pub fn pair(&self, idx: usize) -> OdPair {
        debug_assert!(idx < self.n_flows());
        OdPair::new(idx / self.n_pops, idx % self.n_pops)
    }

    /// Iterates over all OD pairs in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = OdPair> + '_ {
        (0..self.n_flows()).map(move |i| self.pair(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let ix = OdIndexer::new(11);
        assert_eq!(ix.n_flows(), 121);
        for i in 0..121 {
            assert_eq!(ix.index(ix.pair(i)), i);
        }
        assert_eq!(ix.index(OdPair::new(0, 0)), 0);
        assert_eq!(ix.index(OdPair::new(10, 10)), 120);
        assert_eq!(ix.index(OdPair::new(1, 0)), 11);
    }

    #[test]
    fn iteration_covers_all_pairs_once() {
        let ix = OdIndexer::new(4);
        let pairs: Vec<OdPair> = ix.iter().collect();
        assert_eq!(pairs.len(), 16);
        let unique: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), 16);
        assert_eq!(pairs[0], OdPair::new(0, 0));
        assert_eq!(pairs[15], OdPair::new(3, 3));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(OdPair::new(3, 9).to_string(), "3->9");
    }
}
