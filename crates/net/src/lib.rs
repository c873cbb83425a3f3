//! Network substrate for the `entromine` workspace.
//!
//! The paper's pipeline consumes *sampled flow data collected from all
//! access links of two backbone networks* (Abilene and Geant). This crate
//! holds the pieces of that measurement plane the synthetic generator and
//! the entropy layer read:
//!
//! * [`Ipv4`] / [`Prefix`] — address arithmetic, formatting, and the
//!   11-bit anonymization mask Abilene applied to its archives.
//! * [`PacketHeader`] — the four header fields the paper calls *traffic
//!   features* (addresses, ports) plus protocol, size and timestamp.
//! * [`FlowKey`] / [`FlowRecord`] — five-tuple flow records, and the
//!   per-bin aggregator [`flow::aggregate_bin`].
//! * [`Topology`] — the PoP tables of the Abilene (11 PoPs) and Geant
//!   (22 PoPs) backbones.
//! * [`AddressPlan`] — per-PoP customer address blocks; an address
//!   resolves to the PoP whose block contains it.
//! * [`OdPair`] / [`OdIndexer`] — origin–destination flow indexing
//!   (`p^2` OD flows for a `p`-PoP network; 121 for Abilene, 484 for Geant).
//! * [`sample::thin_periodic`] — 1-in-N trace thinning, used by the paper's
//!   §6.3 injection methodology.
//!
//! Everything here is deterministic and allocation-conscious; the synthetic
//! traffic generator in `entromine-synth` drives millions of packets through
//! these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod ip;
pub mod od;
pub mod packet;
pub mod routing;
pub mod sample;
pub mod topology;

pub use flow::{FlowKey, FlowRecord};
pub use ip::{Ipv4, Prefix, ABILENE_ANON_BITS};
pub use od::{OdIndexer, OdPair};
pub use packet::{PacketHeader, Protocol};
pub use routing::AddressPlan;
pub use topology::{PopId, Topology};
