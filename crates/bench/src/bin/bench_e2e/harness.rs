//! The harness contract behind the repo's `BENCHMARK.json`.
//!
//! `--workload NAME --seed S --seconds T --trace 0|1` measures one
//! workload and prints, as the last line of standard output, one JSON
//! object with exactly `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the bounded end-to-end ones, medians
//! over as many untraced reps as fit into `T` seconds (a rep is fixed
//! work, so at least one always runs); with `--trace 1` they are the
//! per-layer numbers of one traced rep. Nothing is appended to the
//! history file in this mode.
//!
//! `BENCHMARK.json` is rendered from the same tables the native report
//! uses (the `registration` test below pins the file to that rendering),
//! so there is one list of names, units and bounds.
//! A harness may bound only metrics that are never zero and whose
//! quartile spread over ten single-rep runs with different seeds stays
//! inside a bound of at most 0.25. Four of the nine cannot promise that
//! and are listed with the per-layer set, which has no bound:
//! `failed_share` is 0 on every good run (it is the object's `failed` /
//! `attempted` / `correct`); `detect_rate` and `false_alarm_rate` move in
//! whole bins between seeds (a handful of truth bins and false alarms per
//! run) and can be 0; `verdict_ms_p50` is `Bound::RepsOnly`.

use crate::layers::PER_LAYER;
use crate::metrics::{summarize_runs, Bound, MetricDef, WorkloadSummary, END_TO_END};
use crate::report::harness_line;
use crate::runner::{run_set, SetConfig};
use crate::workloads::Workload;
use std::path::Path;
use std::time::Duration;

/// No run starts more untraced reps than this, however long `--seconds`.
const MAX_REPS: usize = 9;

/// Whether `BENCHMARK.json` lists the metric under `end_to_end`, with its bound.
fn bounded(d: &MetricDef) -> Option<f64> {
    match d.bound {
        Bound::Relative(share) => Some(share),
        Bound::RepsOnly(_) | Bound::Exact => None,
    }
}

/// The end-to-end metrics without a harness bound, which a `--trace 1`
/// run prints after the layer table (`failed_share` is the result
/// object's own keys).
fn unbounded() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .filter(|d| bounded(d).is_none() && d.name != "failed_share")
}

/// The `(name, value, unit)` list one harness run prints.
pub fn harness_metrics(summary: &WorkloadSummary, traced: bool) -> Vec<(String, f64, String)> {
    let end_to_end = |d: &MetricDef| {
        let (_, s) = summary.end_to_end.iter().find(|(e, _)| e.name == d.name)?;
        Some((d.name.to_string(), s.median, d.unit.to_string()))
    };
    if !traced {
        return END_TO_END
            .iter()
            .filter(|d| bounded(d).is_some())
            .filter_map(end_to_end)
            .collect();
    }
    let layer = |name: &str| {
        let found = summary.per_layer.iter().find(|(n, _, _)| n == name);
        found.map_or(f64::NAN, |(_, v, _)| *v)
    };
    PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), layer(d.name), d.unit.to_string()))
        .chain(unbounded().filter_map(end_to_end))
        .collect()
}

/// Runs the workload once under the harness contract and prints the
/// result line. Returns whether the outputs were correct.
pub fn run(workload: &'static Workload, seed: u64, seconds: u64, traced: bool, out: &Path) -> bool {
    let cfg = SetConfig {
        seed,
        reps: if traced { 0 } else { MAX_REPS },
        traced,
        out_dir: out.to_path_buf(),
        budget: Some(Duration::from_secs(seconds)),
    };
    let runs = run_set(&[workload], &cfg);
    let summary = summarize_runs(&runs[0]);
    for p in &summary.problems {
        eprintln!("[bench_e2e] PROBLEM: {p}");
    }
    println!(
        "{}",
        harness_line(&summary, &harness_metrics(&summary, traced))
    );
    summary.correct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;
    use crate::report::{json_num, json_str};
    use crate::workloads::WORKLOADS;

    /// What `BENCHMARK.json` registers besides the metric tables.
    const COMMAND: [&str; 9] = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "-p",
        "entromine-bench",
        "--bin",
        "bench_e2e",
        "--",
    ];
    const PATHS: [&str; 2] = ["crates/bench/src/bin/bench_e2e", "results/e2e"];
    const RUN_SECONDS: u64 = 20;

    /// The text of `BENCHMARK.json`, rendered from the workload and metric tables.
    fn registration() -> String {
        let list = |items: &[&str]| {
            let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
            quoted.join(", ")
        };
        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = |name: &str, unit: &str, b: Better| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}",
                json_str(name),
                json_str(unit),
                json_str(better(b))
            )
        };
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .filter_map(|d| {
                let bound = json_num(bounded(d)?);
                Some(format!(
                    "    {}, \"bound\": {bound}}}",
                    entry(d.name, d.unit, d.better)
                ))
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit, d.better))
            .chain(unbounded().map(|d| (d.name, d.unit, d.better)))
            .map(|(name, unit, b)| format!("    {}}}", entry(name, unit, b)))
            .collect();
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            list(&COMMAND),
            list(&PATHS),
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n"),
        )
    }

    /// `BENCHMARK.json` is this rendering, byte for byte. After changing a
    /// table, replace the file with the text the failure prints.
    #[test]
    fn benchmark_json_is_rendered_from_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            // A checkout without the registration file has nothing to pin.
            return;
        };
        let expected = registration();
        assert!(
            text == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }

    #[test]
    fn registration_stays_inside_the_contract() {
        let text = registration();
        assert!(text.len() < 64 * 1024);
        let n_bounded = END_TO_END.iter().filter(|d| bounded(d).is_some()).count();
        assert!((1..=16).contains(&n_bounded));
        assert!(PER_LAYER.len() + unbounded().count() <= 128);
        assert_eq!(
            text.matches("\"bound\"").count(),
            n_bounded,
            "bounds come from END_TO_END alone"
        );
        assert!(!text.contains("failed_share") && !text.contains("trace.overhead_share"));
        for d in END_TO_END.iter().filter(|d| bounded(d).is_some()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
        }
    }
}
