//! Key families for the histogram equivalence suite.

use entromine_net::ABILENE_ANON_BITS;

/// Maps a generated key into one of the families the flat table's slot
/// index must hold up on: as generated, or /21-masked (a fixed point of
/// `Ipv4::anonymize`, eleven zero low bits).
pub fn family_key(family: u8, raw: u32) -> u32 {
    match family {
        0 => raw,
        _ => raw << ABILENE_ANON_BITS,
    }
}
