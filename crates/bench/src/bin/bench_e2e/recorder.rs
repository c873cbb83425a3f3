//! Bookkeeping of one rep: busy time per call and phase, per-bin verdict
//! latency, refit reports, alarm/truth counts, failures — and the flat
//! metric list the rep hands back.
//!
//! A rep has two phases. The **warm-up phase** runs until the first model
//! is live (it includes the cold warm-up fit); together with construction
//! it is `setup_s`. Everything after is the **scored phase**, and every
//! steady-state metric is taken over it alone.

use crate::driver::RepConfig;
use crate::layers;
use crate::metrics::END_TO_END;
use crate::stats::tail_supported;
use crate::trace::Tracer;
use crate::verify::{Fingerprint, Verifier};
use entromine::{MonitorStep, RefitOutcome, Verdict};
use std::time::{Duration, Instant};

/// Busy time and work counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub offer: Duration,
    pub finalize: Duration,
    pub observe: Duration,
    pub offers: u64,
    pub advances: u64,
    pub observes: u64,
    /// Events admitted (offered minus the planned too-late ones).
    pub events: u64,
    /// Packets the admitted events stand for.
    pub packets: u64,
    pub sealed: u64,
}

impl Phase {
    pub fn busy_s(&self) -> f64 {
        (self.offer + self.finalize + self.observe).as_secs_f64()
    }
}

/// What a rep returns to whoever spawned it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepReport {
    pub metrics: Vec<(String, f64)>,
    pub fingerprint: u64,
    pub failures: Vec<String>,
    /// The span dump of a traced rep.
    pub trace_json: Option<String>,
}

impl RepReport {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The rep's bookkeeping. Fields are public for the metric tables
/// (`metrics::END_TO_END`, `layers::PER_LAYER`), which read their values
/// off it once the rep is over.
#[derive(Default)]
pub struct Recorder {
    workload: &'static str,
    seed: u64,
    pub construct: Duration,
    pub warmup: Phase,
    pub scored: Phase,
    /// Set when the first successful fit lands; spans after it are scored-phase.
    scored_since: Option<Instant>,
    pub verdict_ms: Vec<f64>,
    pub refit_stall_ms: Vec<f64>,
    pub refits_failed: u64,
    pub round_ms: Vec<f64>,
    pub flagged_bins: u64,
    pub warm_rounds: u64,
    pub downdated_rounds: u64,
    pub cycles: u64,
    pub truth_bins: u64,
    pub truth_hits: u64,
    pub clean_bins: u64,
    pub false_alarms: u64,
    fingerprint: Fingerprint,
    pub failures: Vec<String>,
    pub generate: Duration,
    pub generated_events: u64,
    pub open_bins_max: usize,
    pub heap_peak: usize,
    /// Offers the plane refused with an `Err`; the plan is none.
    pub rejected_offers: u64,
    pub planned_late: u64,
    pub observed_late: u64,
    pub bins_scored: u64,
    pub quarantined: u64,
    /// The verifier's census, copied in when the rep finishes.
    pub pkts_per_run: f64,
}

impl Recorder {
    pub fn new(cfg: &RepConfig, construct: Duration) -> Self {
        Recorder {
            workload: cfg.workload.name,
            seed: cfg.seed,
            construct,
            ..Recorder::default()
        }
    }

    fn phase(&mut self) -> &mut Phase {
        match self.scored_since {
            Some(_) => &mut self.scored,
            None => &mut self.warmup,
        }
    }

    pub fn generated(&mut self, took: Duration, events: u64) {
        self.generate += took;
        self.generated_events += events;
    }

    pub fn sample_plane(&mut self, open_bins: usize, heap_bytes: usize) {
        self.open_bins_max = self.open_bins_max.max(open_bins);
        self.heap_peak = self.heap_peak.max(heap_bytes);
    }

    /// One `offer_*` call: `events` offered, of which `late` were planned
    /// to be dropped; the rest stand for `packets` packets.
    pub fn offered(
        &mut self,
        took: Duration,
        events: u64,
        packets: u64,
        late: u64,
        result: Result<(), String>,
    ) {
        let ph = self.phase();
        ph.offer += took;
        ph.offers += 1;
        match result {
            Ok(()) => {
                ph.events += events - late;
                ph.packets += packets;
            }
            Err(e) => {
                self.rejected_offers += 1;
                self.failures.push(format!("offer refused: {e}"));
            }
        }
    }

    pub fn advanced(&mut self, took: Duration, sealed: usize) {
        let ph = self.phase();
        ph.finalize += took;
        ph.advances += 1;
        ph.sealed += sealed as u64;
    }

    pub fn observe_failed(&mut self, took: Duration, what: String) {
        let ph = self.phase();
        ph.observe += took;
        ph.observes += 1;
        self.failures.push(what);
    }

    /// One `observe_bin` call that returned a step. `sealed_in` is the
    /// wall time of the `advance_watermark` call that sealed the bin.
    pub fn observed(
        &mut self,
        start: Instant,
        took: Duration,
        sealed_in: Duration,
        truth: bool,
        step: &MonitorStep,
    ) {
        let ph = self.phase();
        ph.observe += took;
        ph.observes += 1;
        let in_scored_phase = self.scored_since.is_some();
        let alarmed = match &step.verdict {
            Verdict::Warmup { .. } => None,
            Verdict::Clean => Some(false),
            Verdict::Anomalous(_) => Some(true),
            Verdict::Quarantined => {
                self.failures.push(format!("bin {}: quarantined", step.bin));
                None
            }
        };
        if let Some(alarmed) = alarmed {
            self.fingerprint.absorb(step.bin, &step.verdict);
            self.verdict_ms.push((sealed_in + took).as_secs_f64() * 1e3);
            if truth {
                self.truth_bins += 1;
                self.truth_hits += alarmed as u64;
            } else {
                self.clean_bins += 1;
                self.false_alarms += alarmed as u64;
            }
        }
        let Some(refit) = &step.refit else {
            return;
        };
        if let RefitOutcome::Failed(e) = &refit.outcome {
            self.failures
                .push(format!("bin {}: refit failed: {e}", step.bin));
            self.refits_failed += in_scored_phase as u64;
        } else if !in_scored_phase {
            // The detector can score from here on: set-up is over.
            self.scored_since = Some(start + took);
            return;
        }
        if in_scored_phase {
            self.refit_stall_ms.push(took.as_secs_f64() * 1e3);
            for round in &refit.trace.rounds {
                self.round_ms.push(round.ms);
                self.flagged_bins += round.flagged_bins as u64;
                self.warm_rounds += round.warm_start as u64;
                self.downdated_rounds += round.downdated as u64;
                self.cycles += round.cycles as u64;
            }
        }
    }

    /// Operations attempted: every offer, advance and observe of both
    /// phases, the scored-phase refits, and the run's verification.
    pub fn attempted(&self) -> u64 {
        let calls = |p: &Phase| p.offers + p.advances + p.observes;
        calls(&self.warmup) + calls(&self.scored) + self.refit_stall_ms.len() as u64 + 1
    }

    /// Closes the rep: folds verification results in and evaluates the
    /// metric tables.
    pub fn finish(
        mut self,
        verifier: Verifier,
        shadow_mismatches: Vec<String>,
        tracer: Option<Tracer>,
    ) -> RepReport {
        self.failures.extend(verifier.mismatches.iter().cloned());
        self.failures.extend(shadow_mismatches);
        if self.observed_late != self.planned_late {
            self.failures.push(format!(
                "late_events {} differs from the generator's plan {}",
                self.observed_late, self.planned_late
            ));
        }
        if self.scored_since.is_none() {
            self.failures.push("no model went live".to_string());
        }
        if !tail_supported(self.verdict_ms.len(), 0.95) {
            self.failures.push(format!(
                "p95 needs 10 samples beyond it; only {} scored bins",
                self.verdict_ms.len()
            ));
        }
        self.pkts_per_run = verifier.pkts_per_run();

        let mut m: Vec<(String, f64)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), (d.value)(&self)))
            .collect();
        // Sample counts behind them, and the raw operation counts.
        for (name, value) in [
            ("n.scored_bins", self.verdict_ms.len() as f64),
            ("n.refits", self.refit_stall_ms.len() as f64),
            ("n.truth_bins", self.truth_bins as f64),
            ("n.verified_bins", verifier.bins_checked as f64),
            ("ops.attempted", self.attempted() as f64),
            ("ops.failed", self.failures.len() as f64),
            ("busy.scored_s", self.scored.busy_s()),
        ] {
            m.push((name.to_string(), value));
        }
        let spans = tracer
            .as_ref()
            .zip(self.scored_since)
            .map(|(tr, since)| tr.totals(since));
        m.extend(layers::evaluate(&self, spans.as_ref()));
        RepReport {
            metrics: m,
            fingerprint: self.fingerprint.0,
            trace_json: tracer.map(|t| t.to_json(self.workload, self.seed)),
            failures: self.failures,
        }
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
