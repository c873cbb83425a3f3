//! IPv4 addresses and prefixes.
//!
//! A thin `u32` wrapper keeps address arithmetic explicit and cheap; the
//! synthetic generator allocates customer address space to PoPs as
//! [`Prefix`] blocks, and the address plan resolves an address to its PoP
//! by block containment.
//!
//! The Abilene archives used by the paper anonymize addresses by masking
//! out their last 11 bits; [`Ipv4::anonymize`] reproduces that exactly so
//! the anonymization ablation (§5 of the paper) can be run.

use std::fmt;

/// Number of low-order bits Abilene's anonymization masks out.
pub const ABILENE_ANON_BITS: u32 = 11;

/// An IPv4 address.
///
/// Stored as the host-order `u32`; ordering and hashing follow numeric
/// order, which makes prefix arithmetic straightforward.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Masks out the lowest `bits` bits (sets them to zero).
    ///
    /// `mask_low_bits(11)` is exactly the Abilene anonymization transform.
    pub const fn mask_low_bits(self, bits: u32) -> Self {
        if bits >= 32 {
            Ipv4(0)
        } else {
            Ipv4(self.0 & (u32::MAX << bits))
        }
    }

    /// Applies the Abilene anonymization (mask the last 11 bits).
    pub const fn anonymize(self) -> Self {
        self.mask_low_bits(ABILENE_ANON_BITS)
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4({self})")
    }
}

/// An IPv4 prefix in CIDR form: a network address plus a mask length.
///
/// The network address is always kept in canonical form (host bits zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: Ipv4,
    len: u8,
}

impl Prefix {
    /// Builds a prefix, canonicalizing the address (host bits are cleared).
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        Prefix {
            addr: addr.mask_low_bits(32 - len as u32),
            len,
        }
    }

    /// The canonical network address.
    pub const fn addr(self) -> Ipv4 {
        self.addr
    }

    /// The mask length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` if `ip` falls inside this prefix.
    pub const fn contains(self, ip: Ipv4) -> bool {
        if self.len == 0 {
            return true;
        }
        let shift = 32 - self.len as u32;
        (ip.0 >> shift) == (self.addr.0 >> shift)
    }

    /// Number of addresses covered by the prefix.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The first address of the prefix (the network address itself).
    pub const fn first(self) -> Ipv4 {
        self.addr
    }

    /// The last address of the prefix.
    pub const fn last(self) -> Ipv4 {
        Ipv4(self.addr.0 + (self.size() - 1) as u32)
    }

    /// The `i`-th address inside the prefix (wrapping within the block).
    ///
    /// Useful for deterministically enumerating hosts of a customer block.
    pub const fn host(self, i: u64) -> Ipv4 {
        Ipv4(self.addr.0 + (i % self.size()) as u32)
    }

    /// Splits this prefix into `2^extra_bits` equal sub-prefixes and returns
    /// the `i`-th one.
    ///
    /// # Panics
    ///
    /// Panics if the resulting length would exceed 32 bits or `i` is out of
    /// range.
    pub fn subnet(self, extra_bits: u8, i: u64) -> Prefix {
        let new_len = self.len + extra_bits;
        assert!(new_len <= 32, "subnet length exceeds 32 bits");
        assert!(i < (1u64 << extra_bits), "subnet index out of range");
        let step = 1u64 << (32 - new_len as u32);
        Prefix::new(Ipv4(self.addr.0 + (i * step) as u32), new_len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({}/{})", self.addr, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_display_and_octets() {
        let ip = Ipv4::new(10, 1, 2, 3);
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
    }

    #[test]
    fn anonymize_masks_11_bits() {
        // 11 bits span the last octet and 3 bits of the third octet.
        let ip = Ipv4::new(192, 168, 0b0000_0111, 0xFF);
        let anon = ip.anonymize();
        assert_eq!(anon, Ipv4::new(192, 168, 0, 0));
        // Addresses in the same /21 anonymize identically.
        let a = Ipv4::new(10, 0, 0, 1).anonymize();
        let b = Ipv4::new(10, 0, 7, 250).anonymize();
        assert_eq!(a, b);
        // Addresses in different /21s stay distinct.
        let c = Ipv4::new(10, 0, 8, 1).anonymize();
        assert_ne!(a, c);
    }

    #[test]
    fn mask_low_bits_extremes() {
        let ip = Ipv4::new(255, 255, 255, 255);
        assert_eq!(ip.mask_low_bits(0), ip);
        assert_eq!(ip.mask_low_bits(32), Ipv4(0));
        assert_eq!(ip.mask_low_bits(33), Ipv4(0));
        assert_eq!(ip.mask_low_bits(8), Ipv4::new(255, 255, 255, 0));
    }

    #[test]
    fn prefix_canonicalizes() {
        let p = Prefix::new(Ipv4::new(10, 1, 2, 3), 16);
        assert_eq!(p.addr(), Ipv4::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Ipv4::new(10, 1, 0, 0), 16);
        assert!(p.contains(Ipv4::new(10, 1, 200, 7)));
        assert!(!p.contains(Ipv4::new(10, 2, 0, 0)));
        let default = Prefix::new(Ipv4(0), 0);
        assert!(default.contains(Ipv4::new(1, 2, 3, 4)));
        let host = Prefix::new(Ipv4::new(10, 1, 2, 3), 32);
        assert!(host.contains(Ipv4::new(10, 1, 2, 3)));
        assert!(!host.contains(Ipv4::new(10, 1, 2, 4)));
    }

    #[test]
    fn prefix_size_first_last() {
        let p = Prefix::new(Ipv4::new(10, 1, 2, 0), 24);
        assert_eq!(p.size(), 256);
        assert_eq!(p.first(), Ipv4::new(10, 1, 2, 0));
        assert_eq!(p.last(), Ipv4::new(10, 1, 2, 255));
        assert_eq!(p.host(5), Ipv4::new(10, 1, 2, 5));
        assert_eq!(p.host(256), Ipv4::new(10, 1, 2, 0)); // wraps
    }

    #[test]
    fn prefix_subnetting() {
        let p = Prefix::new(Ipv4::new(10, 0, 0, 0), 8);
        let s0 = p.subnet(4, 0);
        let s1 = p.subnet(4, 1);
        assert_eq!(s0.to_string(), "10.0.0.0/12");
        assert_eq!(s1.to_string(), "10.16.0.0/12");
        assert!(!s0.contains(s1.addr()));
    }

    #[test]
    #[should_panic(expected = "subnet index out of range")]
    fn prefix_subnet_index_checked() {
        let p = Prefix::new(Ipv4::new(10, 0, 0, 0), 8);
        let _ = p.subnet(2, 4);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Ipv4::new(10, 0, 0, 1) < Ipv4::new(10, 0, 0, 2));
        assert!(Ipv4::new(9, 255, 255, 255) < Ipv4::new(10, 0, 0, 0));
    }
}
