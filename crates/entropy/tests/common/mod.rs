//! Key families shared by the histogram and sketch equivalence suites.

use entromine_entropy::{SketchHistogram, SketchParams};
use entromine_net::ABILENE_ANON_BITS;
use std::sync::OnceLock;

/// What a deep sketch of every /21-masked address retains — the keys a
/// sketched cell's own survivor table is made of.
fn sketch_survivors() -> &'static [u32] {
    static KEYS: OnceLock<Vec<u32>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut sketch = SketchHistogram::new(SketchParams { budget: 4096 });
        for block in 0..1u32 << (32 - ABILENE_ANON_BITS) {
            sketch.offer_n(block << ABILENE_ANON_BITS, 1);
        }
        assert!(sketch.level() >= 9, "the sketch must really sample");
        let mut keys: Vec<u32> = sketch.iter().map(|(v, _)| v).collect();
        keys.sort_unstable();
        keys
    })
}

/// Maps a generated key into one of the families the flat table's slot
/// index must hold up on: as generated, /21-masked (a fixed point of
/// `Ipv4::anonymize`, eleven zero low bits), or a sketch survivor of
/// masked addresses.
pub fn family_key(family: u8, raw: u32) -> u32 {
    match family % 3 {
        0 => raw,
        1 => raw << ABILENE_ANON_BITS,
        _ => {
            let survivors = sketch_survivors();
            survivors[raw as usize % survivors.len()]
        }
    }
}
