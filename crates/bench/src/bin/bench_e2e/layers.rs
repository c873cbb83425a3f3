//! The per-layer metrics, each declared once: name, unit, direction and
//! how its value is read off a finished rep. The harness output, the
//! native tables and the `BENCHMARK.json` registration are all derived
//! from this table.
//!
//! Layer names are the crate names, plus `synth` (the generator, outside
//! the system) and `trace` (the tracer itself). Shares are of scored-phase
//! traced busy time.

use crate::driver::{FINALIZE, OBSERVE, OFFER, REFIT};
use crate::metrics::Better::{self, Higher, Lower};
use crate::probes::{COVARIANCE, FIT_ROWS, GRAM, MOMENTS, PUSH, ROWS, SCORE, SYM_EIGEN};
use crate::recorder::Recorder;
use crate::stats::median;
use crate::trace::NameTotals;
use std::collections::BTreeMap;

/// What a row reads its value from: the rep's bookkeeping and, in a
/// traced rep, the scored-phase span totals by span name.
pub struct Ctx<'a> {
    pub rec: &'a Recorder,
    pub spans: &'a BTreeMap<&'static str, NameTotals>,
}

impl Ctx<'_> {
    fn span(&self, name: &str) -> NameTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Traced busy time: wall time inside the three real calls.
    fn busy_s(&self) -> f64 {
        self.span(OFFER).total_s + self.span(FINALIZE).total_s + self.span(OBSERVE).total_s
    }

    /// Mean duration of one span of `name`, in `1 / scale` seconds.
    fn per_span(&self, name: &str, scale: f64) -> f64 {
        let t = self.span(name);
        t.total_s * scale / t.count.max(1) as f64
    }
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only when `BENCHMARK.json` is rendered.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Whether the value needs spans or plane samples only a traced rep has.
    pub traced: bool,
    value: fn(&Ctx) -> f64,
}

/// A value every rep can report: a count the calls returned.
const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: fn(&Ctx) -> f64,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        traced: false,
        value,
    }
}

/// A value only the traced rep can report.
const fn traced(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: fn(&Ctx) -> f64,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        traced: true,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(1.0)
}

pub const PER_LAYER: [LayerDef; 44] = [
    // entropy: the ingest plane's two calls.
    traced("entropy.offer.busy_s", "s", Lower, |c| {
        c.span(OFFER).total_s
    }),
    traced("entropy.offer.calls", "count", Lower, |c| {
        c.span(OFFER).count as f64
    }),
    traced("entropy.offer.events", "count", Lower, |c| {
        c.rec.scored.events as f64
    }),
    traced("entropy.offer.ns_per_event", "ns", Lower, |c| {
        ratio(c.span(OFFER).total_s * 1e9, c.rec.scored.events as f64)
    }),
    traced("entropy.offer.share", "ratio", Lower, |c| {
        c.span(OFFER).total_s / c.busy_s()
    }),
    // Generator census on the verified bins: represented packets per
    // distinct (cell, tuple) run — how much the combining path can merge.
    count("entropy.offer.pkts_per_run", "packets", Higher, |c| {
        c.rec.pkts_per_run
    }),
    traced("entropy.finalize.busy_s", "s", Lower, |c| {
        c.span(FINALIZE).total_s
    }),
    traced("entropy.finalize.bins", "count", Lower, |c| {
        c.rec.scored.sealed as f64
    }),
    traced("entropy.finalize.us_per_bin", "us", Lower, |c| {
        ratio(c.span(FINALIZE).total_s * 1e6, c.rec.scored.sealed as f64)
    }),
    traced("entropy.finalize.share", "ratio", Lower, |c| {
        c.span(FINALIZE).total_s / c.busy_s()
    }),
    // Sampled before each advance (the walk over every open cell is not
    // free, so untraced reps skip it).
    traced("entropy.open_bins_max", "count", Lower, |c| {
        c.rec.open_bins_max as f64
    }),
    traced("entropy.accumulator_heap_peak_bytes", "bytes", Lower, |c| {
        c.rec.heap_peak as f64
    }),
    count("entropy.late_events", "count", Lower, |c| {
        c.rec.observed_late as f64
    }),
    // Offers refused with an `Err`, counted by the driver: a refused batch
    // counts once, as in the builders' own `rejected_events()`, which the
    // plane type `Monitor::ingest_plane` returns does not forward.
    count("entropy.rejected_events", "count", Lower, |c| {
        c.rec.rejected_offers as f64
    }),
    // core: observe_bin and what the shadow probes explain of it.
    traced("core.observe.busy_s", "s", Lower, |c| {
        c.span(OBSERVE).total_s
    }),
    traced("core.observe.self_s", "s", Lower, |c| {
        c.span(OBSERVE).self_s
    }),
    traced("core.observe.share", "ratio", Lower, |c| {
        c.span(OBSERVE).self_s / c.busy_s()
    }),
    // (rows + score + push) ÷ observe self, per typical bin (medians), so
    // one stretched call on a noisy host does not tip the ratio.
    traced("core.observe.closure", "ratio", Higher, |c| {
        (c.span(ROWS).median_self_s + c.span(SCORE).median_self_s + c.span(PUSH).median_self_s)
            / c.span(OBSERVE).median_self_s
    }),
    traced("core.rows.busy_s", "s", Lower, |c| c.span(ROWS).total_s),
    traced("core.window.push.busy_s", "s", Lower, |c| {
        c.span(PUSH).total_s
    }),
    traced("core.window.push.us_per_bin", "us", Lower, |c| {
        c.per_span(PUSH, 1e6)
    }),
    traced("core.refit.busy_s", "s", Lower, |c| c.span(REFIT).total_s),
    count("core.refit.count", "count", Lower, |c| {
        c.rec.refit_stall_ms.len() as f64
    }),
    count("core.refit.failed", "count", Lower, |c| {
        c.rec.refits_failed as f64
    }),
    traced("core.refit.share", "ratio", Lower, |c| {
        c.span(REFIT).total_s / c.busy_s()
    }),
    count("core.refit.rounds", "count", Lower, |c| {
        c.rec.round_ms.len() as f64
    }),
    count("core.refit.round_ms_p50", "ms", Lower, |c| {
        median(&c.rec.round_ms)
    }),
    count("core.refit.flagged_bins", "count", Lower, |c| {
        c.rec.flagged_bins as f64
    }),
    count("core.refit.warm_rounds", "count", Higher, |c| {
        c.rec.warm_rounds as f64
    }),
    count("core.refit.downdated_rounds", "count", Higher, |c| {
        c.rec.downdated_rounds as f64
    }),
    count("core.bins_scored", "count", Lower, |c| {
        c.rec.bins_scored as f64
    }),
    count("core.quarantined_bins", "count", Lower, |c| {
        c.rec.quarantined as f64
    }),
    // subspace
    traced("subspace.score.busy_s", "s", Lower, |c| {
        c.span(SCORE).total_s
    }),
    traced("subspace.score.us_per_bin", "us", Lower, |c| {
        c.per_span(SCORE, 1e6)
    }),
    traced("subspace.fit_rows.busy_ms", "ms", Lower, |c| {
        c.span(FIT_ROWS).total_s * 1e3
    }),
    // linalg
    count("linalg.eigen.cycles", "count", Lower, |c| {
        c.rec.cycles as f64
    }),
    count("linalg.eigen.cycles_per_round", "count", Lower, |c| {
        ratio(c.rec.cycles as f64, c.rec.round_ms.len() as f64)
    }),
    traced("linalg.moments.push.us_per_row", "us", Lower, |c| {
        c.per_span(MOMENTS, 1e6)
    }),
    traced("linalg.covariance.busy_ms", "ms", Lower, |c| {
        c.span(COVARIANCE).total_s * 1e3
    }),
    traced("linalg.gram.busy_ms", "ms", Lower, |c| {
        c.span(GRAM).total_s * 1e3
    }),
    traced("linalg.sym_eigen.busy_ms", "ms", Lower, |c| {
        c.span(SYM_EIGEN).total_s * 1e3
    }),
    // synth: the generator, outside the system.
    count("synth.generate.busy_s", "s", Lower, |c| {
        c.rec.generate.as_secs_f64()
    }),
    count("synth.generate.events_per_s", "1/s", Higher, |c| {
        c.rec.generated_events as f64 / c.rec.generate.as_secs_f64()
    }),
    // trace
    traced("trace.busy_s", "s", Lower, |c| c.busy_s()),
];

/// Looks a layer metric up by name.
pub fn by_name(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Every layer metric this rep can report: the counts always, the rest
/// when it was traced (`spans` is the scored phase's totals).
pub fn evaluate(
    rec: &Recorder,
    spans: Option<&BTreeMap<&'static str, NameTotals>>,
) -> Vec<(String, f64)> {
    let none = BTreeMap::new();
    let ctx = Ctx {
        rec,
        spans: spans.unwrap_or(&none),
    };
    PER_LAYER
        .iter()
        .filter(|d| !d.traced || spans.is_some())
        .map(|d| (d.name.to_string(), (d.value)(&ctx)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_carry_a_layer_prefix() {
        for (i, d) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|o| o.name != d.name));
            let layer = d.name.split('.').next().unwrap();
            assert!(
                ["entropy", "core", "subspace", "linalg", "synth", "trace"].contains(&layer),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn an_untraced_rep_reports_the_counts_only() {
        let rec = Recorder::default();
        let counts = evaluate(&rec, None);
        assert_eq!(counts.len(), PER_LAYER.iter().filter(|d| !d.traced).count());
        assert!(counts.iter().any(|(n, _)| n == "linalg.eigen.cycles"));
        let spans = BTreeMap::from([(
            OFFER,
            NameTotals {
                count: 2,
                total_s: 3.0,
                self_s: 3.0,
                median_self_s: 1.5,
            },
        )]);
        let all = evaluate(&rec, Some(&spans));
        assert_eq!(all.len(), PER_LAYER.len());
        let get = |name: &str| all.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("entropy.offer.busy_s"), 3.0);
        assert_eq!(get("entropy.offer.share"), 1.0);
        assert_eq!(get("trace.busy_s"), 3.0);
    }
}
