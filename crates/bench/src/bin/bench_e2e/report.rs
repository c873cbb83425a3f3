//! Output: the metric tables printed to the terminal, the append-only
//! `history.jsonl`, and `latest.json` derived from its last line.
//!
//! JSON is written by hand (no serializer in the vendored dependency
//! set): numbers with Rust's shortest round-trip formatting, strings
//! restricted to what the benchmark itself produces, escaped anyway.

use crate::metrics::{Agreement, CheckRow, WorkloadSummary};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (a ratio with an empty denominator)
/// become `null` because JSON has no way to write them.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// What identifies the build and host a history line was recorded on.
pub struct Provenance {
    pub commit: String,
    pub dirty: bool,
    pub nproc: usize,
    pub cpu_features: Vec<&'static str>,
    pub unix_time: u64,
}

impl Provenance {
    pub fn detect() -> Self {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let mut cpu_features = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            for (name, on) in [
                ("sse2", std::arch::is_x86_feature_detected!("sse2")),
                ("avx2", std::arch::is_x86_feature_detected!("avx2")),
                ("fma", std::arch::is_x86_feature_detected!("fma")),
                ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ] {
                if on {
                    cpu_features.push(name);
                }
            }
        }
        Provenance {
            commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            dirty: git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// One history line: provenance, then per workload every end-to-end
/// metric as `{median,q1,q3,n,unit}` and the per-layer summary.
pub fn history_line(prov: &Provenance, seed: u64, reps: usize, set: &[WorkloadSummary]) -> String {
    let features: Vec<String> = prov.cpu_features.iter().map(|f| json_str(f)).collect();
    let mut out = format!(
        "{{\"commit\":{},\"dirty\":{},\"nproc\":{},\"cpu_features\":[{}],\"seed\":{seed},\"reps\":{reps},\"unix_time\":{},\"workloads\":{{",
        json_str(&prov.commit),
        prov.dirty,
        prov.nproc,
        features.join(","),
        prov.unix_time
    );
    for (i, w) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"bins\":{},\"reps\":{},\"correct\":{},\"fingerprint\":\"{:016x}\",\"end_to_end\":{{",
            json_str(w.name),
            w.bins,
            w.reps,
            w.correct(),
            w.fingerprint
        );
        for (j, (def, s)) in w.end_to_end.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":{}}}",
                json_str(def.name),
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n,
                json_str(def.unit)
            );
        }
        out.push_str("},\"per_layer\":{");
        for (j, (name, value, _)) in w.per_layer.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(name), json_num(*value));
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

/// Appends `line` to `history.jsonl` and regenerates `latest.json` from
/// the file's last line.
pub fn record(out_dir: &Path, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let history = out_dir.join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)?;
    writeln!(file, "{line}")?;
    file.flush()?;
    let text = std::fs::read_to_string(&history)?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("{}");
    std::fs::write(out_dir.join("latest.json"), indent_json(last))
}

/// Re-indents compact JSON (two spaces per level); string contents and
/// number spellings pass through untouched.
pub fn indent_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(chars.next().expect("peeked"));
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c if c.is_whitespace() => {}
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// Prints every metric of one set by name, with its unit.
pub fn print_set(set: &[WorkloadSummary]) {
    for w in set {
        println!(
            "\n== {} ({} bins, {} untraced reps, fingerprint {:016x})",
            w.name, w.bins, w.reps, w.fingerprint
        );
        println!("   why: {}", w.why);
        println!(
            "  {:<22} {:>14} {:>14} {:>14} {:>3} {:>7}  unit",
            "end-to-end", "median", "q1", "q3", "n", "spread"
        );
        for (def, s) in &w.end_to_end {
            println!(
                "  {:<22} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>7.4}  {}",
                def.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread(),
                def.unit
            );
        }
        if !w.per_layer.is_empty() {
            println!("  per-layer (traced rep)");
            for (name, value, unit) in &w.per_layer {
                println!("  {name:<40} {value:>16.4}  {unit}");
            }
        }
        for p in &w.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

/// Prints the A/B table of `--check`.
pub fn print_check(rows: &[CheckRow]) {
    println!(
        "\n{:<16} {:<18} {:>14} {:>14} {:>9} {:>9} {:>9}  agree",
        "workload", "metric", "A median", "B median", "worse by", "allowed", "spread"
    );
    for r in rows {
        let allowed = match r.def.bound.share() {
            Some(share) => format!("{share:.4}"),
            None => "exact".to_string(),
        };
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>9} {:>9.4}  {}",
            r.workload,
            r.def.name,
            r.a,
            r.b,
            r.worse_by,
            allowed,
            r.spread,
            match r.agreement {
                Agreement::Within => "yes",
                Agreement::Unresolved => "unresolved (spread > bound)",
                Agreement::Worse => "NO",
            }
        );
    }
}

/// The single result object a harness reads from the last stdout line:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn harness_line(w: &WorkloadSummary, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        w.correct(),
        w.attempted,
        w.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn indent_keeps_content_and_handles_empties() {
        let compact = r#"{"a":{"b":[1,2.5],"c":"x,{y}:\"z"},"d":{},"e":[]}"#;
        let pretty = indent_json(compact);
        let expected = "{\n  \"a\": {\n    \"b\": [\n      1,\n      2.5\n    ],\n    \"c\": \"x,{y}:\\\"z\"\n  },\n  \"d\": {},\n  \"e\": []\n}\n";
        assert_eq!(pretty, expected);
    }

    #[test]
    fn record_appends_and_latest_tracks_the_last_line() {
        // Beside the test executable, i.e. inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.with_file_name(format!("bench_e2e_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        record(&dir, r#"{"seed":1}"#).unwrap();
        record(&dir, r#"{"seed":2}"#).unwrap();
        let history = std::fs::read_to_string(dir.join("history.jsonl")).unwrap();
        assert_eq!(history, "{\"seed\":1}\n{\"seed\":2}\n");
        let latest = std::fs::read_to_string(dir.join("latest.json")).unwrap();
        assert_eq!(latest, "{\n  \"seed\": 2\n}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
