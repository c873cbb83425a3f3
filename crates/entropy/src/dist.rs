//! The per-feature distribution store abstraction.
//!
//! Everything above a feature histogram — [`BinAccumulator`], the
//! combining engine, the serial and sharded grid builders, the monitor's
//! ingest plane — only ever *offers* weighted values, *merges* sibling
//! stores, asks for *size hints* to pre-size the next bin, and finally
//! collapses the store to an *entropy* number. [`DistributionAccumulator`]
//! names exactly that surface, so the whole ingest plane is generic over
//! how a distribution is represented:
//!
//! * [`FeatureHistogram`](crate::FeatureHistogram) — the **exact tier**:
//!   the flat open-addressing table holding every distinct value. This is
//!   the default type parameter everywhere, and the generic plane
//!   monomorphizes to exactly the code that existed before the trait:
//!   the exact tier's outputs are bit-identical to the concrete plane's.
//! * [`SketchHistogram`](crate::SketchHistogram) — the **bounded-memory
//!   tier**: hash-space level sampling over the same flat table, holding
//!   at most a budgeted number of surviving keys and estimating entropy
//!   by Horvitz–Thompson inverse-probability scaling, with a documented
//!   error bound (see [`crate::sketch`]).
//!
//! Code never picks a tier by naming the type: builders take the store's
//! [`Params`](DistributionAccumulator::Params) and the
//! [`AccumulatorPolicy`](crate::AccumulatorPolicy) facade selects a tier
//! at run time.
//!
//! # Laws
//!
//! Implementations must keep the ingest plane's order-independence
//! contract: the observable state (and therefore [`entropy`] and
//! [`size_hint`]) must be a **pure function of the offered multiset** `{(value, weight)}` for a fixed `Params` — never of
//! offer order, batch segmentation, merge shape, or capacity history.
//! This is what lets serial, batched, and sharded builders of the same
//! tier emit bit-identical rows.
//!
//! [`entropy`]: DistributionAccumulator::entropy
//! [`size_hint`]: DistributionAccumulator::size_hint

use crate::hist::FeatureHistogram;
use crate::metrics::sample_entropy;
use std::fmt::Debug;

/// A per-feature distribution store the ingest plane can drive: offer
/// weighted values, merge, report size hints, finalize to entropy.
///
/// See the module docs for the role this trait plays and the
/// order-independence laws implementations must uphold.
pub trait DistributionAccumulator: Clone + Debug + Default + PartialEq + Send + Sync {
    /// Per-store construction parameters, carried by the grid builders
    /// and applied to every cell they open: `()` for the exact tier, the
    /// key budget for the sketched tier.
    type Params: Clone + Debug + Default + PartialEq + Send + Sync;

    /// An empty store configured by `params`, pre-sized to absorb about
    /// `capacity_hint` distinct values without reallocating (0 = allocate
    /// nothing; the sharded plane feeds this from the previous bin's
    /// observed cardinality).
    fn with_params(params: &Self::Params, capacity_hint: usize) -> Self;

    /// Records one observation of `value`.
    #[inline]
    fn offer(&mut self, value: u32) {
        self.offer_n(value, 1);
    }

    /// Records `weight` observations of `value` (a combined run or an
    /// aggregated flow record). A zero weight is a no-op.
    fn offer_n(&mut self, value: u32, weight: u64);

    /// Merges another store of the same tier and parameters into this
    /// one, as if its offers had been replayed here.
    fn merge_from(&mut self, other: &Self);

    /// Total number of observations `S` offered so far. Exact in every
    /// tier (the sketched tier counts totals outside the sampled table).
    fn total(&self) -> u64;

    /// The sizing feedback for the next bin's [`with_params`] call: how
    /// many distinct values this store is currently tracking.
    ///
    /// [`with_params`]: Self::with_params
    fn size_hint(&self) -> usize;

    /// Collapses the store to sample entropy in bits — exact for the
    /// exact tier, the documented-error estimate for the sketched tier.
    fn entropy(&self) -> f64;

    /// Self-reported standard error of [`entropy`](Self::entropy)
    /// (0 for exact tiers).
    fn entropy_stderr(&self) -> f64 {
        0.0
    }

    /// Bytes of heap currently owned by the store — the number the
    /// memory-tier ceilings and benches account against.
    fn heap_bytes(&self) -> usize;
}

impl DistributionAccumulator for FeatureHistogram {
    type Params = ();

    #[inline]
    fn with_params(_params: &(), capacity_hint: usize) -> Self {
        FeatureHistogram::with_capacity(capacity_hint)
    }

    #[inline]
    fn offer(&mut self, value: u32) {
        self.add(value);
    }

    #[inline]
    fn offer_n(&mut self, value: u32, weight: u64) {
        self.add_n(value, weight);
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    #[inline]
    fn total(&self) -> u64 {
        FeatureHistogram::total(self)
    }

    #[inline]
    fn size_hint(&self) -> usize {
        self.distinct()
    }

    fn entropy(&self) -> f64 {
        sample_entropy(self)
    }

    fn heap_bytes(&self) -> usize {
        FeatureHistogram::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a store through the trait surface only, so both tiers can
    /// share the check.
    fn offer_some<D: DistributionAccumulator>(params: &D::Params) -> D {
        let mut d = D::with_params(params, 8);
        d.offer(5);
        d.offer_n(5, 2);
        d.offer_n(9, 4);
        d.offer_n(3, 0); // no-op
        let mut other = D::with_params(params, 0);
        other.offer(1);
        d.merge_from(&other);
        d
    }

    #[test]
    fn exact_tier_matches_inherent_api() {
        let via_trait: FeatureHistogram = offer_some(&());
        let mut direct = FeatureHistogram::with_capacity(8);
        direct.add(5);
        direct.add_n(5, 2);
        direct.add_n(9, 4);
        direct.add(1);
        assert_eq!(via_trait, direct);
        assert_eq!(via_trait.total(), 8);
        assert_eq!(DistributionAccumulator::size_hint(&via_trait), 3);
        assert_eq!(
            DistributionAccumulator::entropy(&via_trait),
            sample_entropy(&direct)
        );
        assert_eq!(via_trait.entropy_stderr(), 0.0);
    }

    #[test]
    fn exact_tier_heap_accounting_matches_columns() {
        let h: FeatureHistogram = (0..100u32).collect();
        // 12 bytes per slot, power-of-two slot count, load ≤ 1/2.
        assert_eq!(DistributionAccumulator::heap_bytes(&h) % 12, 0);
        assert!(DistributionAccumulator::heap_bytes(&h) >= 12 * 2 * 100);
        assert_eq!(
            DistributionAccumulator::heap_bytes(&FeatureHistogram::new()),
            0
        );
    }
}
