//! One rep: the closed loop that drives the real `Monitor` behind its
//! real ingest plane over one workload's generated events.
//!
//! Per bin: generate the bin's events into a reused buffer (not timed),
//! then `offer_*` → `advance_watermark` → `observe_bin` per sealed bin,
//! each call timed from outside. One client, one driver thread; the next
//! bin is offered only after the previous verdict is back.

use crate::probes::Shadow;
use crate::recorder::{Recorder, RepReport};
use crate::trace::{Kind, Tracer};
use crate::verify::Verifier;
use crate::workloads::{
    Feed, NetflowFeed, Source, Workload, BIN_SECS, NETFLOW_LATENESS, SUB_BATCHES,
};
use entromine::entropy::{FinalizedBin, StreamConfig};
use entromine::{DiagnoserConfig, Monitor, MonitorConfig, ThresholdPolicy};
use std::time::{Duration, Instant};

/// Ingest shards (= `nproc` on the recording host).
pub const SHARDS: usize = 2;

/// Span names of the real calls.
pub const GENERATE: &str = "synth.generate";
pub const OFFER: &str = "entropy.offer";
pub const FINALIZE: &str = "entropy.finalize";
pub const OBSERVE: &str = "core.observe";
pub const REFIT: &str = "core.refit";
pub const ROUND: &str = "core.refit.round";

/// What one rep runs.
#[derive(Debug, Clone, Copy)]
pub struct RepConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub traced: bool,
}

/// The Monitor configuration every workload shares: scheduled refits
/// only, so the refit count is fixed by configuration and not by which
/// bins happen to alarm.
fn monitor_config(w: &Workload) -> MonitorConfig {
    MonitorConfig {
        diagnoser: DiagnoserConfig {
            threshold_policy: ThresholdPolicy::Empirical,
            ..DiagnoserConfig::default()
        },
        warmup_bins: w.warmup_bins,
        window_bins: w.window_bins,
        chunk_bins: w.chunk_bins,
        refit_interval: Some(w.refit_interval),
        drift: None,
        staleness_budget: None,
        ..MonitorConfig::default()
    }
}

/// Runs one rep to completion and returns its flat metric list.
pub fn run_rep(cfg: &RepConfig) -> RepReport {
    let w = cfg.workload;
    let construct = Instant::now();
    let source = Source::new(w, cfg.seed);
    let p = source.n_flows();
    let mon_cfg = monitor_config(w);
    let mut monitor = Monitor::new(p, mon_cfg).expect("benchmark monitor config is valid");
    let stream = match w.feed {
        Feed::Packets => StreamConfig::new(p),
        Feed::Netflow => StreamConfig::new(p).with_lateness(NETFLOW_LATENESS),
    };
    let mut plane = monitor
        .ingest_plane(stream, SHARDS)
        .expect("benchmark stream config is valid");
    let construct_s = construct.elapsed();

    let mut rec = Recorder::new(cfg, construct_s);
    let mut tracer = cfg.traced.then(Tracer::new);
    let mut shadow = cfg
        .traced
        .then(|| Shadow::new(w, p, mon_cfg.diagnoser.alpha));
    let mut verifier = Verifier::new(p, w.feed);
    let mut feed = NetflowFeed::new(cfg.seed);
    let mut packets = Vec::new();

    // Samples the plane's working set (traced rep only: the walk over
    // every open cell is not free), advances the watermark, and hands
    // every sealed bin to the Monitor.
    macro_rules! advance {
        ($bin:expr, $to:expr) => {{
            if cfg.traced {
                rec.sample_plane(plane.open_bins(), plane.accumulator_heap_bytes());
            }
            let t = Instant::now();
            let sealed = plane.advance_watermark($to);
            let d = t.elapsed();
            rec.advanced(d, sealed.len());
            if let Some(tr) = tracer.as_mut() {
                tr.record(FINALIZE, Kind::Real, $bin, t, d);
            }
            for fb in &sealed {
                verifier.check(fb);
                observe(
                    &mut monitor,
                    &mut rec,
                    &mut tracer,
                    &mut shadow,
                    &source,
                    fb,
                    d,
                );
            }
        }};
    }
    macro_rules! offer {
        ($bin:expr, $call:expr, $events:expr, $packets:expr, $late:expr) => {{
            let t = Instant::now();
            let result = $call;
            let d = t.elapsed();
            rec.offered(
                d,
                $events,
                $packets,
                $late,
                result.map_err(|e| e.to_string()),
            );
            if let Some(tr) = tracer.as_mut() {
                tr.record(OFFER, Kind::Real, $bin, t, d);
            }
        }};
    }

    // The NetFlow feed needs one flush step after the last bin: it
    // delivers what was held and seals the final bin past the slack.
    let steps = match w.feed {
        Feed::Packets => w.bins,
        Feed::Netflow => w.bins + 1,
    };
    for bin in 0..steps {
        let g = Instant::now();
        if bin < w.bins {
            source.fill_packets(bin, &mut packets);
        } else {
            packets.clear();
        }
        if w.feed == Feed::Netflow {
            feed.fill(bin, &packets);
        }
        let gen = g.elapsed();
        rec.generated(gen, packets.len() as u64);
        if let Some(tr) = tracer.as_mut() {
            tr.record(GENERATE, Kind::Real, bin, g, gen);
        }
        let start = bin as u64 * BIN_SECS;
        match w.feed {
            Feed::Packets => {
                if verifier.wants(bin) {
                    verifier.keep_packets(bin, &packets);
                }
                let n = packets.len() as u64;
                offer!(bin, plane.offer_packets(&packets), n, n, 0);
                advance!(bin, start + BIN_SECS);
            }
            Feed::Netflow => {
                if bin < w.bins && verifier.wants(bin) {
                    verifier.keep_flows(bin, &feed.in_order);
                }
                // The flush step stops once the overdue records went out.
                let subs = if bin < w.bins { SUB_BATCHES } else { 2 };
                let quarter = BIN_SECS / SUB_BATCHES as u64;
                for (q, sub) in feed.subs.iter().take(subs).enumerate() {
                    let n = sub.records.len() as u64;
                    offer!(
                        bin,
                        plane.offer_flows(&sub.records),
                        n,
                        sub.packets,
                        sub.late
                    );
                    advance!(bin, start + quarter * (q as u64 + 1));
                }
            }
        }
    }
    verifier.finish();
    debug_assert!(!feed.has_pending());

    rec.planned_late = feed.plan.late;
    rec.observed_late = plane.late_events();
    let health = monitor.health();
    rec.bins_scored = health.bins_scored;
    rec.quarantined = health.quarantined_bins;
    if let (Some(tr), Some(sh)) = (tracer.as_mut(), shadow.as_mut()) {
        sh.post_run(tr);
    }
    let shadow_mismatches = shadow.map(|s| s.mismatches).unwrap_or_default();
    rec.finish(verifier, shadow_mismatches, tracer)
}

/// Observes one sealed bin, with the shadow probes around the real call
/// when the rep is traced.
fn observe(
    monitor: &mut Monitor,
    rec: &mut Recorder,
    tracer: &mut Option<Tracer>,
    shadow: &mut Option<Shadow>,
    source: &Source,
    fb: &FinalizedBin,
    sealed_in: Duration,
) {
    if let (Some(tr), Some(sh)) = (tracer.as_mut(), shadow.as_mut()) {
        sh.before_observe(tr, monitor, fb);
    }
    let t = Instant::now();
    let result = monitor.observe_bin(fb);
    let d = t.elapsed();
    let step = match result {
        Ok(step) => step,
        Err(e) => {
            rec.observe_failed(d, format!("bin {}: observe_bin: {e}", fb.bin));
            return;
        }
    };
    if let Some(tr) = tracer.as_mut() {
        let span = tr.record(OBSERVE, Kind::Real, fb.bin, t, d);
        if let Some(refit) = &step.refit {
            // Reported durations: the fit is the last thing observe_bin
            // does, and its rounds run back to back inside it.
            let fit = tr.record_reported(REFIT, span, refit.fit_ms, 0);
            let mut after_ms = 0.0;
            for round in refit.trace.rounds.iter().rev() {
                tr.record_reported(ROUND, fit, round.ms, (after_ms * 1e6) as u64);
                after_ms += round.ms;
            }
        }
        if let Some(sh) = shadow.as_mut() {
            sh.after_observe(tr, fb, &step);
        }
    }
    rec.observed(t, d, sealed_in, source.is_truth_bin(fb.bin), &step);
}
