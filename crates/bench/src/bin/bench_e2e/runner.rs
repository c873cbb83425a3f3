//! Rep scheduling and child processes.
//!
//! Every `(workload, rep)` runs in a fresh child — this same executable
//! re-invoked in `run-one` mode — so `VmHWM` and allocator state are per
//! rep. Untraced reps are interleaved round-robin across workloads so
//! host drift spreads evenly over them; each workload's one traced rep
//! runs after all untraced ones.

use crate::driver::RepConfig;
use crate::recorder::RepReport;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One scheduled child run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Index into the workload list the schedule was built for.
    pub workload: usize,
    pub rep: usize,
    pub traced: bool,
}

/// `reps` untraced reps per workload, interleaved, then one traced rep each.
pub fn round_robin(n_workloads: usize, reps: usize, traced: bool) -> Vec<Job> {
    let job = |rep, traced| {
        move |workload| Job {
            workload,
            rep,
            traced,
        }
    };
    let mut jobs: Vec<Job> = (0..reps)
        .flat_map(|rep| (0..n_workloads).map(job(rep, false)))
        .collect();
    if traced {
        jobs.extend((0..n_workloads).map(job(reps, true)));
    }
    jobs
}

/// Everything measured for one workload in one set of reps.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    pub workload: &'static Workload,
    pub untraced: Vec<RepReport>,
    pub traced: Option<RepReport>,
    /// Children that died or printed something unparseable.
    pub broken: Vec<String>,
}

/// Where a set of reps comes from and where traces go.
#[derive(Debug, Clone)]
pub struct SetConfig {
    pub seed: u64,
    pub reps: usize,
    pub traced: bool,
    pub out_dir: PathBuf,
    /// Stop starting untraced reps of a workload once this much wall
    /// time has gone into it (at least one always runs).
    pub budget: Option<Duration>,
}

/// Runs one full set: every workload, `reps` untraced reps interleaved,
/// plus the traced rep when asked for.
pub fn run_set(workloads: &[&'static Workload], cfg: &SetConfig) -> Vec<WorkloadRuns> {
    let mut runs: Vec<WorkloadRuns> = workloads
        .iter()
        .map(|w| WorkloadRuns {
            workload: w,
            untraced: Vec::new(),
            traced: None,
            broken: Vec::new(),
        })
        .collect();
    let mut spent = vec![Duration::ZERO; workloads.len()];
    for job in round_robin(workloads.len(), cfg.reps, cfg.traced) {
        let run = &mut runs[job.workload];
        let spent = &mut spent[job.workload];
        if let Some(budget) = cfg.budget {
            // A rep is fixed work: start another only if one more of
            // the average length so far still fits the budget.
            let done = run.untraced.len() as u32;
            if !job.traced && done > 0 && *spent + *spent / done > budget {
                continue;
            }
        }
        let rep = RepConfig {
            workload: run.workload,
            seed: cfg.seed,
            traced: job.traced,
        };
        eprintln!(
            "[bench_e2e] {} rep {}{}",
            rep.workload.name,
            job.rep,
            if job.traced { " (traced)" } else { "" }
        );
        let started = Instant::now();
        match spawn_rep(&rep, &cfg.out_dir) {
            Ok(report) if job.traced => run.traced = Some(report),
            Ok(report) => run.untraced.push(report),
            Err(e) => run.broken.push(e),
        }
        *spent += started.elapsed();
    }
    runs
}

/// Runs one rep in a child process and parses what it prints.
fn spawn_rep(rep: &RepConfig, out_dir: &Path) -> Result<RepReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("run-one")
        .args(["--workload", rep.workload.name])
        .args(["--seed", &rep.seed.to_string()])
        .args(["--trace", if rep.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning rep: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} rep exited with {}",
            rep.workload.name, output.status
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| format!("rep output: {e}"))?;
    decode(&text)
}

/// Runs one rep in this process and prints it in the line format
/// `decode` reads; the span dump of a traced rep goes to `out_dir`.
pub fn run_one(rep: &RepConfig, out_dir: &Path) -> Result<(), String> {
    let report = crate::driver::run_rep(rep);
    if let Some(json) = &report.trace_json {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("trace-{}.json", rep.workload.name));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", encode(&report));
    Ok(())
}

/// `M name value` per metric, `F text` per failure, `P hex` for the
/// fingerprint, `END` last so a truncated output is noticed.
fn encode(report: &RepReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.metrics {
        out.push_str(&format!("M {name} {value:?}\n"));
    }
    for failure in &report.failures {
        out.push_str(&format!("F {}\n", failure.replace('\n', " ")));
    }
    out.push_str(&format!("P {:016x}\nEND\n", report.fingerprint));
    out
}

fn decode(text: &str) -> Result<RepReport, String> {
    let mut report = RepReport::default();
    let mut complete = false;
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "M" => {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad metric line: {line}"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|e| format!("bad metric value in `{line}`: {e}"))?;
                report.metrics.push((name.to_string(), value));
            }
            "F" => report.failures.push(rest.to_string()),
            "P" => {
                report.fingerprint = u64::from_str_radix(rest, 16)
                    .map_err(|e| format!("bad fingerprint `{rest}`: {e}"))?;
            }
            "END" => complete = true,
            _ => return Err(format!("unexpected rep output: {line}")),
        }
    }
    if !complete {
        return Err("rep output ended early".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_every_workload_rep_pair_once() {
        let jobs = round_robin(3, 5, true);
        assert_eq!(jobs.len(), 3 * 5 + 3);
        for workload in 0..3 {
            for rep in 0..5 {
                let hits = jobs
                    .iter()
                    .filter(|j| j.workload == workload && j.rep == rep && !j.traced)
                    .count();
                assert_eq!(hits, 1, "workload {workload} rep {rep}");
            }
            assert_eq!(
                jobs.iter()
                    .filter(|j| j.workload == workload && j.traced)
                    .count(),
                1
            );
        }
        // Interleaved: no workload runs two untraced reps back to back.
        let untraced: Vec<_> = jobs.iter().filter(|j| !j.traced).collect();
        assert!(untraced.windows(2).all(|w| w[0].workload != w[1].workload));
        // Traced reps come last.
        assert!(jobs[15..].iter().all(|j| j.traced));
        assert!(round_robin(2, 3, false).iter().all(|j| !j.traced));
    }

    #[test]
    fn rep_report_survives_the_line_protocol() {
        let report = RepReport {
            metrics: vec![
                ("setup_s".to_string(), 2.718281828459045e-3),
                ("pkts_per_s".to_string(), 1.0e7 / 3.0),
                ("detect_rate".to_string(), 0.8125),
            ],
            fingerprint: 0x0123_4567_89ab_cdef,
            failures: vec!["bin 48: sealed bin differs\nfrom reference".to_string()],
            trace_json: None,
        };
        let back = decode(&encode(&report)).unwrap();
        assert_eq!(
            back.metrics, report.metrics,
            "values round-trip bit for bit"
        );
        assert_eq!(back.fingerprint, report.fingerprint);
        assert_eq!(
            back.failures,
            vec!["bin 48: sealed bin differs from reference"]
        );
        assert!(decode("M setup_s 1.0\n").is_err(), "missing END");
        assert!(decode("M setup_s x\nEND\n").is_err());
    }
}
