//! The nine end-to-end metrics, each declared once — name, unit,
//! direction, regression bound and how its value is read off a finished
//! rep — and how a set of reps is folded into medians, per-layer numbers
//! and problems.
//!
//! `END_TO_END` is the only bound table: `--check` gates against it and
//! the `BENCHMARK.json` registration is rendered from it.

use crate::layers;
use crate::recorder::{peak_rss_mb, Recorder, RepReport};
use crate::runner::WorkloadRuns;
use crate::stats::{median, percentile, summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric's median may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Relative(f64),
    /// The same for medians over several interleaved reps, which is what
    /// `--check` compares. One rep alone does not resolve the metric on
    /// the recording host — its quartile spread over ten single-rep runs
    /// exceeds 0.25, the widest bound a harness accepts — so
    /// `BENCHMARK.json` carries it without a bound.
    RepsOnly(f64),
    /// A function of `(workload, seed)` alone: must not move at all
    /// between runs of the same code.
    Exact,
}

impl Bound {
    /// The share of the baseline median `--check` allows, if any.
    pub fn share(self) -> Option<f64> {
        match self {
            Bound::Relative(share) | Bound::RepsOnly(share) => Some(share),
            Bound::Exact => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub value: fn(&Recorder) -> f64,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    value: fn(&Recorder) -> f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        value,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The end-to-end metrics, reported for every workload. The timing
/// bounds are what the recording host can resolve, not what one would
/// wish for: 0.25 is the widest a harness accepts, and ten-run sets
/// spread 0.04-0.25 there (README, "Why 25 %").
pub const END_TO_END: [MetricDef; 9] = [
    // Construction plus the warm-up phase's busy time, cold fit
    // included: time until the detector can score.
    def("setup_s", "s", Better::Lower, Bound::Relative(0.25), |r| {
        r.construct.as_secs_f64() + r.warmup.busy_s()
    }),
    def(
        "pkts_per_s",
        "packets/s",
        Better::Higher,
        Bound::Relative(0.25),
        |r| r.scored.packets as f64 / r.scored.busy_s(),
    ),
    // On `geant-refit` the typical seal -> verdict time is one 30 MB
    // co-moment update and follows the host's free memory bandwidth:
    // 0.20-0.31 quartile spread over ten single-rep runs.
    def(
        "verdict_ms_p50",
        "ms",
        Better::Lower,
        Bound::RepsOnly(0.25),
        |r| median(&r.verdict_ms),
    ),
    def(
        "verdict_ms_p95",
        "ms",
        Better::Lower,
        Bound::Relative(0.25),
        |r| percentile(&r.verdict_ms, 0.95),
    ),
    def(
        "refit_stall_ms",
        "ms",
        Better::Lower,
        Bound::Relative(0.25),
        |r| median(&r.refit_stall_ms),
    ),
    def(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        Bound::Relative(0.10),
        |_| peak_rss_mb(),
    ),
    def("detect_rate", "ratio", Better::Higher, Bound::Exact, |r| {
        ratio(r.truth_hits, r.truth_bins)
    }),
    def(
        "false_alarm_rate",
        "ratio",
        Better::Lower,
        Bound::Exact,
        |r| ratio(r.false_alarms, r.clean_bins),
    ),
    def("failed_share", "ratio", Better::Lower, Bound::Exact, |r| {
        ratio(r.failures.len() as u64, r.attempted())
    }),
];

/// Values that are a function of `(workload, seed)` alone and must
/// repeat exactly in every rep, traced or not.
pub const DETERMINISTIC: [&str; 8] = [
    "detect_rate",
    "false_alarm_rate",
    "failed_share",
    "linalg.eigen.cycles",
    "entropy.late_events",
    "core.bins_scored",
    "core.refit.count",
    "n.truth_bins",
];

/// One workload's folded results.
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    pub name: &'static str,
    pub why: &'static str,
    pub bins: usize,
    pub reps: usize,
    pub end_to_end: Vec<(MetricDef, Summary)>,
    /// `(name, value, unit)` from the traced rep; empty when none ran.
    pub per_layer: Vec<(String, f64, &'static str)>,
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Everything that makes the outputs wrong: rep failures, children
    /// that broke, values that should repeat exactly and did not.
    pub problems: Vec<String>,
}

impl WorkloadSummary {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn values(reps: &[&RepReport], name: &str) -> Vec<f64> {
    reps.iter().filter_map(|r| r.get(name)).collect()
}

/// Folds one workload's reps: medians over the untraced reps, layer
/// numbers from the traced one, determinism checked across all of them.
pub fn summarize_runs(runs: &WorkloadRuns) -> WorkloadSummary {
    let untraced: Vec<&RepReport> = runs.untraced.iter().collect();
    let all: Vec<&RepReport> = untraced
        .iter()
        .copied()
        .chain(runs.traced.as_ref())
        .collect();
    let mut problems = runs.broken.clone();
    for (i, rep) in all.iter().enumerate() {
        problems.extend(rep.failures.iter().map(|f| format!("rep {i}: {f}")));
    }
    for name in DETERMINISTIC {
        let v = values(&all, name);
        if v.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
            problems.push(format!("{name} differs across reps: {v:?}"));
        }
    }
    if all.windows(2).any(|w| w[0].fingerprint != w[1].fingerprint) {
        problems.push("verdict fingerprint differs across reps".to_string());
    }
    // End-to-end numbers are always measured untraced; a traced-only run
    // (per-layer numbers wanted, nothing else) still reports them so the
    // table is complete, flagged by `reps == 0`.
    let e2e_source = if untraced.is_empty() { &all } else { &untraced };
    let end_to_end = END_TO_END
        .iter()
        .map(|d| (*d, summarize(&values(e2e_source, d.name))))
        .collect();
    let mut per_layer: Vec<(String, f64, &'static str)> = runs
        .traced
        .iter()
        .flat_map(|t| t.metrics.iter())
        .filter_map(|(n, v)| layers::by_name(n).map(|d| (n.clone(), *v, d.unit)))
        .collect();
    if let (Some(traced), false) = (&runs.traced, untraced.is_empty()) {
        let base = median(&values(&untraced, "busy.scored_s"));
        if let Some(busy) = traced.get("busy.scored_s") {
            per_layer.push((
                "trace.overhead_share".to_string(),
                (busy - base) / base,
                "ratio",
            ));
        }
    }
    let total = |name: &str| values(&all, name).iter().sum::<f64>() as u64;
    WorkloadSummary {
        name: runs.workload.name,
        why: runs.workload.why,
        bins: runs.workload.bins,
        reps: untraced.len(),
        end_to_end,
        per_layer,
        fingerprint: all.first().map_or(0, |r| r.fingerprint),
        attempted: total("ops.attempted").max(1),
        failed: total("ops.failed") + runs.broken.len() as u64,
        problems,
    }
}

/// What `--check` concluded about one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// B's median is within the bound of A's (or identical, for `Exact`).
    Within,
    /// Within the bound, but the reps of a set spread wider than the
    /// bound: this host cannot resolve a regression of that size.
    Unresolved,
    Worse,
}

/// One row of the A/B table `--check` prints.
#[derive(Debug, Clone)]
pub struct CheckRow {
    pub workload: &'static str,
    pub def: MetricDef,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads, as a share of the median.
    pub spread: f64,
    pub agreement: Agreement,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        delta
    } else {
        delta / a.abs()
    }
}

/// Compares set B against set A metric by metric. Timings must stay
/// within their bound; the ratio metrics are deterministic per seed, so
/// for the same binary and seed they must be identical.
pub fn compare(a: &[WorkloadSummary], b: &[WorkloadSummary]) -> Vec<CheckRow> {
    let mut rows = Vec::new();
    for (wa, wb) in a.iter().zip(b) {
        for ((def, sa), (_, sb)) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let worse_by = worsening(def.better, sa.median, sb.median);
            let spread = sa.spread().max(sb.spread());
            let agreement = match def.bound.share() {
                None if sa.median.to_bits() == sb.median.to_bits() => Agreement::Within,
                Some(share) if worse_by <= share && spread <= share => Agreement::Within,
                Some(share) if worse_by <= share => Agreement::Unresolved,
                _ => Agreement::Worse,
            };
            rows.push(CheckRow {
                workload: wa.name,
                def: *def,
                a: sa.median,
                b: sb.median,
                worse_by,
                spread,
                agreement,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[(&str, [f64; 3])]) -> WorkloadSummary {
        WorkloadSummary {
            name: "w",
            why: "",
            bins: 0,
            reps: 3,
            end_to_end: END_TO_END
                .iter()
                .filter_map(|d| {
                    let v = values.iter().find(|(n, _)| *n == d.name)?;
                    Some((*d, summarize(&v.1)))
                })
                .collect(),
            per_layer: Vec::new(),
            fingerprint: 0,
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 10.5) - 0.05).abs() < 1e-12);
        assert!(
            (worsening(Better::Higher, 100.0, 80.0) - 0.20).abs() < 1e-12,
            "higher is better: a drop is worse"
        );
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn compare_gates_timings_by_bound_and_ratios_by_identity() {
        let a = summary(&[
            ("peak_rss_mb", [100.0, 100.0, 100.0]),
            ("setup_s", [8.0, 10.0, 12.0]),
            ("pkts_per_s", [100.0, 100.0, 100.0]),
            ("detect_rate", [0.75, 0.75, 0.75]),
            ("failed_share", [0.0, 0.0, 0.0]),
        ]);
        let b = summary(&[
            ("peak_rss_mb", [105.0, 105.0, 105.0]),
            ("setup_s", [8.0, 10.0, 12.0]),
            ("pkts_per_s", [60.0, 60.0, 60.0]),
            ("detect_rate", [0.8125, 0.8125, 0.8125]),
            ("failed_share", [0.0, 0.0, 0.0]),
        ]);
        let rows = compare(&[a], &[b]);
        let verdict = |name: &str| {
            rows.iter()
                .find(|r| r.def.name == name)
                .map(|r| r.agreement)
                .unwrap()
        };
        assert_eq!(verdict("peak_rss_mb"), Agreement::Within);
        assert_eq!(
            verdict("setup_s"),
            Agreement::Unresolved,
            "reps spread 40 % around the median, wider than the bound"
        );
        assert_eq!(verdict("pkts_per_s"), Agreement::Worse);
        assert_eq!(
            verdict("detect_rate"),
            Agreement::Worse,
            "a ratio that moved at all, even upward, is not the same run"
        );
        assert_eq!(verdict("failed_share"), Agreement::Within);
    }

    #[test]
    fn tables_are_consistent() {
        for (i, d) in END_TO_END.iter().enumerate() {
            assert!(END_TO_END[i + 1..].iter().all(|o| o.name != d.name));
            assert!(layers::by_name(d.name).is_none());
            if let Some(share) = d.bound.share() {
                assert!(share > 0.0 && share <= 0.25, "{}", d.name);
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        for name in DETERMINISTIC {
            let known = END_TO_END.iter().any(|d| d.name == name)
                || layers::by_name(name).is_some_and(|d| !d.traced)
                || name == "n.truth_bins";
            assert!(known, "{name} is not reported by every rep");
        }
    }
}
