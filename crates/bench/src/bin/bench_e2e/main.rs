//! `bench_e2e` — the canonical packet → verdict benchmark.
//!
//! Drives the real `Monitor` behind its real ingest plane over three
//! seeded synthetic workloads and reports nine end-to-end metrics plus a
//! per-layer breakdown from one traced rep. See `README.md` beside this
//! file for the glossary, the layer → end-to-end map and how to run it.
//!
//! ```sh
//! cargo run --release -p entromine-bench --bin bench_e2e -- \
//!     [--reps N] [--seed S] [--workload NAME] [--check] [--out DIR]
//! ```
//!
//! A benchmark harness calls the same binary as
//! `--workload NAME --seed S --seconds T --trace 0|1` and reads one JSON
//! object from the last line of standard output.

mod driver;
mod harness;
mod layers;
mod metrics;
mod probes;
mod recorder;
mod report;
mod runner;
mod stats;
mod trace;
mod verify;
mod workloads;

use metrics::{compare, summarize_runs, Agreement, WorkloadSummary};
use runner::SetConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Fewer reps than this give no quartiles worth the name.
const MIN_REPS: usize = 3;

struct Args {
    run_one: bool,
    reps: usize,
    seed: u64,
    workload: Option<&'static Workload>,
    check: bool,
    out: PathBuf,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        run_one: false,
        reps: 5,
        seed: 1,
        workload: None,
        check: false,
        out: PathBuf::from("results/e2e"),
        seconds: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("run-one") {
        args.run_one = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--reps" => args.reps = number()? as usize,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?),
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            "--workload" => {
                args.workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.reps < MIN_REPS {
        return Err(format!("--reps must be at least {MIN_REPS}"));
    }
    Ok(args)
}

fn run_set(args: &Args, workloads: &[&'static Workload]) -> Vec<WorkloadSummary> {
    let cfg = SetConfig {
        seed: args.seed,
        reps: args.reps,
        traced: true,
        out_dir: args.out.clone(),
        budget: None,
    };
    runner::run_set(workloads, &cfg)
        .iter()
        .map(summarize_runs)
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    if args.run_one {
        let workload = args.workload.ok_or("run-one needs --workload")?;
        let rep = driver::RepConfig {
            workload,
            seed: args.seed,
            traced: args.trace,
        };
        runner::run_one(&rep, &args.out)?;
        return Ok(true);
    }
    if let Some(seconds) = args.seconds {
        let workload = args.workload.ok_or("--seconds needs --workload")?;
        return Ok(harness::run(
            workload, args.seed, seconds, args.trace, &args.out,
        ));
    }
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let set_a = run_set(args, &workloads);
    report::print_set(&set_a);
    let mut ok = set_a.iter().all(WorkloadSummary::correct);
    if args.check {
        let set_b = run_set(args, &workloads);
        report::print_set(&set_b);
        ok &= set_b.iter().all(WorkloadSummary::correct);
        let rows = compare(&set_a, &set_b);
        report::print_check(&rows);
        ok &= rows.iter().all(|r| r.agreement != Agreement::Worse);
    }
    let line = report::history_line(&report::Provenance::detect(), args.seed, args.reps, &set_a);
    report::record(&args.out, &line).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!(
        "\n{}: appended to {}",
        if ok { "PASS" } else { "FAIL" },
        args.out.join("history.jsonl").display()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
