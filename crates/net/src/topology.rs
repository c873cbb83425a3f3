//! PoP-level backbone topologies.
//!
//! The paper evaluates on two networks: **Abilene**, the Internet2 backbone
//! (11 PoPs across the continental US), and **Geant**, the European research
//! network (22 PoPs, "twice as large as Abilene"). The OD-flow analysis
//! needs only the PoP count: it fixes the `p^2` OD flows (121 and 484) and
//! the per-PoP address blocks. The PoP tables keep the router codes so
//! reports can name an OD flow by its endpoints.

/// Index of a Point of Presence within a [`Topology`].
pub type PopId = usize;

/// A Point of Presence: one city-level router site of the backbone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pop {
    /// Short router code, e.g. `"IPLS"`.
    pub code: &'static str,
    /// City the PoP serves.
    pub city: &'static str,
}

/// A PoP-level backbone topology: its named PoPs.
#[derive(Debug, Clone)]
pub struct Topology {
    pops: Vec<Pop>,
}

impl Topology {
    /// Builds a topology from a PoP list.
    pub fn new(pops: Vec<Pop>) -> Self {
        Topology { pops }
    }

    /// Number of PoPs (`p` in the paper's notation).
    pub fn n_pops(&self) -> usize {
        self.pops.len()
    }

    /// The PoP records.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// The 2003-era Abilene backbone: 11 PoPs.
    pub fn abilene() -> Self {
        let pops = vec![
            Pop {
                code: "ATLA",
                city: "Atlanta",
            },
            Pop {
                code: "CHIN",
                city: "Chicago",
            },
            Pop {
                code: "DNVR",
                city: "Denver",
            },
            Pop {
                code: "HSTN",
                city: "Houston",
            },
            Pop {
                code: "IPLS",
                city: "Indianapolis",
            },
            Pop {
                code: "KSCY",
                city: "Kansas City",
            },
            Pop {
                code: "LOSA",
                city: "Los Angeles",
            },
            Pop {
                code: "NYCM",
                city: "New York",
            },
            Pop {
                code: "SNVA",
                city: "Sunnyvale",
            },
            Pop {
                code: "STTL",
                city: "Seattle",
            },
            Pop {
                code: "WASH",
                city: "Washington DC",
            },
        ];
        Topology::new(pops)
    }

    /// A 22-PoP model of the 2004-era Geant network.
    ///
    /// PoP set matches the national research networks Geant connected at the
    /// time (the paper's experiments depend only on the PoP count `p = 22`,
    /// giving `484` OD flows).
    pub fn geant() -> Self {
        let pops = vec![
            Pop {
                code: "AT",
                city: "Vienna",
            },
            Pop {
                code: "BE",
                city: "Brussels",
            },
            Pop {
                code: "CH",
                city: "Geneva",
            },
            Pop {
                code: "CZ",
                city: "Prague",
            },
            Pop {
                code: "DE",
                city: "Frankfurt",
            },
            Pop {
                code: "ES",
                city: "Madrid",
            },
            Pop {
                code: "FR",
                city: "Paris",
            },
            Pop {
                code: "GR",
                city: "Athens",
            },
            Pop {
                code: "HR",
                city: "Zagreb",
            },
            Pop {
                code: "HU",
                city: "Budapest",
            },
            Pop {
                code: "IE",
                city: "Dublin",
            },
            Pop {
                code: "IL",
                city: "Tel Aviv",
            },
            Pop {
                code: "IT",
                city: "Milan",
            },
            Pop {
                code: "LU",
                city: "Luxembourg",
            },
            Pop {
                code: "NL",
                city: "Amsterdam",
            },
            Pop {
                code: "PL",
                city: "Poznan",
            },
            Pop {
                code: "PT",
                city: "Lisbon",
            },
            Pop {
                code: "SE",
                city: "Stockholm",
            },
            Pop {
                code: "SI",
                city: "Ljubljana",
            },
            Pop {
                code: "SK",
                city: "Bratislava",
            },
            Pop {
                code: "UK",
                city: "London",
            },
            Pop {
                code: "RO",
                city: "Bucharest",
            },
        ];
        Topology::new(pops)
    }

    /// A tiny synthetic topology for tests: `n` PoPs named `P0..Pn-1`.
    pub fn line(n: usize) -> Self {
        const CODES: [&str; 8] = ["P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"];
        assert!(
            n >= 1 && n <= CODES.len(),
            "line topology supports 1..=8 PoPs"
        );
        let pops = (0..n)
            .map(|i| Pop {
                code: CODES[i],
                city: "testville",
            })
            .collect();
        Topology::new(pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_matches_paper_dimensions() {
        let t = Topology::abilene();
        assert_eq!(t.n_pops(), 11);
    }

    #[test]
    fn geant_matches_paper_dimensions() {
        let t = Topology::geant();
        assert_eq!(t.n_pops(), 22);
    }

    #[test]
    fn geant_is_twice_abilene() {
        // The paper: "twice as large as Abilene, with 22 PoPs".
        let a = Topology::abilene();
        let g = Topology::geant();
        assert_eq!(g.n_pops(), 2 * a.n_pops());
    }

    #[test]
    fn pop_lookup_by_code() {
        // Reports name an OD flow by its endpoints' router codes.
        let t = Topology::abilene();
        let ipls = t.pops().iter().position(|p| p.code == "IPLS").unwrap();
        assert_eq!(t.pops()[ipls].city, "Indianapolis");
        assert!(t.pops().iter().all(|p| p.code != "NOPE"));
    }

    #[test]
    fn line_topology() {
        let t = Topology::line(4);
        assert_eq!(t.n_pops(), 4);
        assert_eq!(t.pops()[3].code, "P3");
    }
}
