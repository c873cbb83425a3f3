//! Run-time tier selection for the ingest accumulation plane.
//!
//! The sharded plane is compile-time generic over its distribution store
//! ([`DistributionAccumulator`](crate::DistributionAccumulator));
//! deployments, however, pick a tier from configuration.
//! [`AccumulatorPolicy`] is that configuration value, and
//! [`TierShardedBuilder`] is the enum facade that erases the type
//! parameter: each variant holds one monomorphized
//! [`ShardedGridBuilder`], so the exact tier keeps executing exactly the
//! pre-trait code while callers (the monitor, the bench harness, operator
//! tooling) switch tiers with a value instead of a type.
//!
//! ```
//! use entromine_entropy::{AccumulatorPolicy, StreamConfig};
//! use entromine_net::{Ipv4, PacketHeader};
//!
//! let policy = AccumulatorPolicy::Sketched { budget: 1024 };
//! let mut plane = policy.sharded(StreamConfig::new(2), 2).unwrap();
//! plane
//!     .offer_packets(&[(0, PacketHeader::tcp(Ipv4(1), 10, Ipv4(2), 80, 100, 12))])
//!     .unwrap();
//! let sealed = plane.advance_watermark(300);
//! assert_eq!(sealed[0].summaries[0].packets, 1);
//! ```

use crate::shard::ShardedGridBuilder;
use crate::sketch::{SketchHistogram, SketchParams, DEFAULT_BUDGET};
use crate::stream::{FinalizedBin, StreamConfig, StreamError};
use entromine_net::flow::FlowRecord;
use entromine_net::packet::PacketHeader;

/// Which distribution-store tier an ingest plane should run.
///
/// `Exact` is the default and reproduces the paper's measurement exactly;
/// `Sketched` bounds every cell's memory by a key budget at the price of
/// the documented entropy error bound (see [`crate::sketch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulatorPolicy {
    /// Exact flat histograms ([`FeatureHistogram`](crate::FeatureHistogram)):
    /// unbounded distinct-key memory, zero entropy error.
    #[default]
    Exact,
    /// Bounded-memory level-sampling sketches
    /// ([`SketchHistogram`](crate::SketchHistogram)): at most `budget`
    /// retained keys per feature store, entropy within the documented
    /// bound of exact.
    Sketched {
        /// Maximum retained distinct keys per feature store. Zero is
        /// clamped to one; [`DEFAULT_BUDGET`] is the conventional choice.
        budget: usize,
    },
}

impl AccumulatorPolicy {
    /// The sketched tier at its default budget.
    pub fn sketched_default() -> Self {
        AccumulatorPolicy::Sketched {
            budget: DEFAULT_BUDGET,
        }
    }

    /// Opens a sharded ingest plane of this tier.
    pub fn sharded(
        self,
        config: StreamConfig,
        shards: usize,
    ) -> Result<TierShardedBuilder, StreamError> {
        Ok(match self {
            AccumulatorPolicy::Exact => {
                TierShardedBuilder::Exact(ShardedGridBuilder::new(config, shards)?)
            }
            AccumulatorPolicy::Sketched { budget } => TierShardedBuilder::Sketched(
                ShardedGridBuilder::with_params(config, shards, SketchParams { budget })?,
            ),
        })
    }
}

/// Forwards a call to whichever tier's builder the facade holds.
macro_rules! delegate {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            Self::Exact($b) => $e,
            Self::Sketched($b) => $e,
        }
    };
}

/// A sharded ingest plane whose tier was chosen at run time by an
/// [`AccumulatorPolicy`]. Every method forwards to the underlying
/// [`ShardedGridBuilder`] monomorphization.
#[derive(Debug, Clone)]
pub enum TierShardedBuilder {
    /// The exact tier.
    Exact(ShardedGridBuilder),
    /// The bounded-memory sketched tier.
    Sketched(ShardedGridBuilder<SketchHistogram>),
}

impl TierShardedBuilder {
    /// The policy this plane was opened with.
    pub fn policy(&self) -> AccumulatorPolicy {
        match self {
            Self::Exact(_) => AccumulatorPolicy::Exact,
            Self::Sketched(b) => AccumulatorPolicy::Sketched {
                budget: b.params().budget,
            },
        }
    }

    /// Offers a packet batch through the combining path.
    pub fn offer_packets(&mut self, batch: &[(usize, PacketHeader)]) -> Result<(), StreamError> {
        delegate!(self, b => b.offer_packets(batch))
    }

    /// Offers a flow-record batch through the combining path.
    pub fn offer_flows(&mut self, batch: &[(usize, FlowRecord)]) -> Result<(), StreamError> {
        delegate!(self, b => b.offer_flows(batch))
    }

    /// Advances the event-time watermark, returning newly sealed bins.
    pub fn advance_watermark(&mut self, event_time: u64) -> Vec<FinalizedBin> {
        delegate!(self, b => b.advance_watermark(event_time))
    }

    /// Seals and returns everything still open — end-of-stream flush.
    pub fn finish(self) -> Vec<FinalizedBin> {
        delegate!(self, b => b.finish())
    }

    /// Number of bins currently open.
    pub fn open_bins(&self) -> usize {
        delegate!(self, b => b.open_bins())
    }

    /// Events dropped because their bin had sealed.
    pub fn late_events(&self) -> u64 {
        delegate!(self, b => b.late_events())
    }

    /// Offers refused for lying beyond the far-future horizon (a refused
    /// batch counts once).
    pub fn rejected_events(&self) -> u64 {
        delegate!(self, b => b.rejected_events())
    }

    /// Bytes of heap currently owned by the open cells' stores.
    pub fn accumulator_heap_bytes(&self) -> usize {
        delegate!(self, b => b.accumulator_heap_bytes())
    }

    /// Number of shards the flow space is partitioned into.
    pub fn shards(&self) -> usize {
        delegate!(self, b => b.shards())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    #[test]
    fn default_policy_is_exact() {
        assert_eq!(AccumulatorPolicy::default(), AccumulatorPolicy::Exact);
        assert_eq!(
            AccumulatorPolicy::sketched_default(),
            AccumulatorPolicy::Sketched {
                budget: DEFAULT_BUDGET
            }
        );
    }

    #[test]
    fn facade_round_trips_policy() {
        let cfg = StreamConfig::new(3);
        let exact = AccumulatorPolicy::Exact.sharded(cfg.clone(), 1).unwrap();
        assert_eq!(exact.policy(), AccumulatorPolicy::Exact);
        let sk = AccumulatorPolicy::Sketched { budget: 9 }
            .sharded(cfg, 2)
            .unwrap();
        assert_eq!(sk.policy(), AccumulatorPolicy::Sketched { budget: 9 });
        assert_eq!(sk.shards(), 2);
    }

    #[test]
    fn both_tiers_run_the_same_feed() {
        // A small feed under budget: both tiers must emit identical bins
        // through the facade (level 0 of the sketch is the exact plane).
        let batch: Vec<(usize, PacketHeader)> = (0..60)
            .map(|i| (i % 2, pkt(i as u32 % 7, 80, (i as u64 * 11) % 600)))
            .collect();
        let bins: Vec<Vec<FinalizedBin>> = BOTH_TIERS
            .iter()
            .map(|policy| {
                let mut plane = policy.sharded(StreamConfig::new(2), 2).unwrap();
                plane.offer_packets(&batch).unwrap();
                plane.finish()
            })
            .collect();
        assert!(!bins[0].is_empty());
        assert_eq!(bins[0], bins[1]);
    }

    /// A 4-bin horizon and a batch whose second packet lies far beyond
    /// it: the batch is refused whole and must count exactly once.
    fn beyond_horizon_fixture() -> (StreamConfig, [(usize, PacketHeader); 2]) {
        (
            StreamConfig::new(2).with_horizon(4),
            [(0, pkt(1, 80, 10)), (1, pkt(2, 80, 300 * 1000))],
        )
    }

    const BOTH_TIERS: [AccumulatorPolicy; 2] = [
        AccumulatorPolicy::Exact,
        AccumulatorPolicy::Sketched { budget: 64 },
    ];

    #[test]
    fn sharded_facade_forwards_far_future_refusals() {
        let (cfg, batch) = beyond_horizon_fixture();
        for policy in BOTH_TIERS {
            let mut plane = policy.sharded(cfg.clone(), 2).unwrap();
            assert!(matches!(
                plane.offer_packets(&batch),
                Err(StreamError::BeyondHorizon { .. })
            ));
            assert_eq!(plane.rejected_events(), 1, "{policy:?}");
            assert_eq!(plane.late_events(), 0);
        }
    }

    #[test]
    fn sketched_facade_reports_bounded_heap() {
        let mut plane = AccumulatorPolicy::Sketched { budget: 16 }
            .sharded(StreamConfig::new(1), 1)
            .unwrap();
        let batch: Vec<(usize, PacketHeader)> =
            (0..30_000u32).map(|i| (0, pkt(i, 80, 10))).collect();
        plane.offer_packets(&batch).unwrap();
        assert!(
            plane.accumulator_heap_bytes() <= 4 * crate::SketchHistogram::heap_ceiling(16),
            "one open cell must stay under 4 per-feature ceilings"
        );
    }
}
