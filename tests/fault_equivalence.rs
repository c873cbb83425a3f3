//! Fault injection — the no-fault bitwise pin and chaos recovery.
//!
//! Three contracts of the fault-injection harness and the monitor's
//! graceful-degradation layer:
//!
//! 1. **Invisibility.** Wrapping the feed in a [`FaultInjector`] with
//!    [`FaultPlan::none`] is *bitwise* a no-op: every delivery is an
//!    exact copy of its input, and the monitor's verdicts, thresholds,
//!    window contents, and counters are identical to the unwrapped run.
//! 2. **Containment.** Injected garbage (NaN/Inf rows) is quarantined at
//!    the door: the fitted model, its thresholds, and its detections are
//!    bit-identical to a run that never saw the garbage.
//! 3. **Recovery.** Under arbitrary seeded fault schedules — outages,
//!    duplicates, reordering, garbage storms, refit-poisoning huge
//!    values — the monitor never panics, never drops or double-scores a
//!    delivery, and always returns to `Fitted` once the faults stop. On
//!    the reference lifecycle config the two canonical storms recover in
//!    asserted time: a 20-bin NaN storm within one refit interval, a
//!    4-bin huge-finite poisoning after exactly 3 failed refits and 56
//!    bins.
//!
//! The chaos property runs 10 000 random schedules; failures reproduce
//! exactly from the reported inputs (the injector derives every payload
//! from the plan seed and bin index alone).

use entromine::{
    DiagnoserConfig, FaultInjector, FaultKind, FaultPlan, GarbageKind, Monitor, MonitorConfig,
    MonitorState, MonitorStep, RefitOutcome, RetryPolicy, Verdict,
};
use proptest::prelude::*;

/// Synthetic diurnal rows, identical in shape to the monitor unit-test
/// fixture: a shared seasonal mode plus deterministic per-flow jitter,
/// with `shift` displacing even-indexed flows into the residual subspace.
fn rows(p: usize, bin: usize, shift: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let phase = (bin as f64 / 48.0) * std::f64::consts::TAU;
    let jitter = |i: usize| ((bin * 31 + i * 17) % 101) as f64 / 101.0;
    let skew = |i: usize| if i.is_multiple_of(2) { shift } else { 0.0 };
    let bytes: Vec<f64> = (0..p)
        .map(|i| 1e5 * (1.0 + 0.1 * phase.sin()) * (1.0 + skew(i)) + 300.0 * jitter(i))
        .collect();
    let packets: Vec<f64> = bytes.iter().map(|b| b / 100.0).collect();
    let entropy: Vec<f64> = (0..4 * p)
        .map(|i| 2.0 + 0.2 * phase.cos() + 0.02 * jitter(i) + skew(i))
        .collect();
    (bytes, packets, entropy)
}

/// Small fast lifecycle: 8-bin warmup, 16-bin window in 4-bin chunks,
/// scheduled refits every 4 scored bins, 12-bin staleness budget.
fn tiny_config() -> MonitorConfig {
    MonitorConfig {
        diagnoser: DiagnoserConfig {
            dim: entromine::subspace::DimSelection::Fixed(2),
            refit_rounds: 0,
            ..Default::default()
        },
        warmup_bins: 8,
        window_bins: 16,
        chunk_bins: 4,
        refit_interval: Some(4),
        drift: None,
        retry: RetryPolicy::default(),
        staleness_budget: Some(12),
    }
}

/// Collapses a step to comparable bits: bin, verdict discriminant, the
/// verdict's float payloads as raw bits, the staleness flag, and whether
/// a refit ran.
fn fingerprint(step: &MonitorStep) -> (usize, u8, Vec<u64>, bool, bool) {
    let (tag, bits) = match &step.verdict {
        Verdict::Warmup { remaining } => (0u8, vec![*remaining as u64]),
        Verdict::Clean => (1, Vec::new()),
        Verdict::Anomalous(d) => (
            2,
            vec![
                d.entropy_spe.to_bits(),
                d.bytes_spe.to_bits(),
                d.packets_spe.to_bits(),
            ],
        ),
        Verdict::Quarantined => (3, Vec::new()),
    };
    (step.bin, tag, bits, step.stale, step.refit.is_some())
}

fn threshold_bits(m: &Monitor) -> [u64; 3] {
    let (a, b, c) = m.thresholds();
    [a.to_bits(), b.to_bits(), c.to_bits()]
}

#[test]
fn empty_fault_plan_is_bitwise_invisible() {
    let config = tiny_config();
    let mut direct = Monitor::new(4, config).expect("monitor");
    let mut injected = Monitor::new(4, config).expect("monitor");
    let mut inj = FaultInjector::new(&FaultPlan::none());
    for bin in 0..64 {
        // One displaced bin so the anomalous verdict arm is exercised.
        let shift = if bin == 40 { 0.8 } else { 0.0 };
        let (b, p, e) = rows(4, bin, shift);
        let direct_step = direct.observe_rows(bin, &b, &p, &e).expect("observe");
        let deliveries = inj.deliver_rows(bin, &b, &p, &e);
        assert_eq!(deliveries.len(), 1, "no-fault plan must deliver 1:1");
        let d = &deliveries[0];
        assert!(!d.faulted);
        assert_eq!(d.bin, bin);
        assert_eq!(d.bytes, b);
        assert_eq!(d.packets, p);
        assert_eq!(d.entropy, e);
        let injected_step = injected
            .observe_rows(d.bin, &d.bytes, &d.packets, &d.entropy)
            .expect("observe");
        assert_eq!(fingerprint(&direct_step), fingerprint(&injected_step));
    }
    let (held_rows, held_batches) = inj.flush();
    assert!(held_rows.is_empty() && held_batches.is_empty());
    assert_eq!(*inj.stats(), Default::default());
    // The monitors ended bit-identical, not just verdict-identical.
    assert_eq!(threshold_bits(&direct), threshold_bits(&injected));
    assert_eq!(direct.window().bins(), injected.window().bins());
    assert_eq!(direct.bins_scored(), injected.bins_scored());
    assert_eq!(direct.refits(), injected.refits());
    assert_eq!(direct.state(), injected.state());
    assert!(
        direct.detections() >= 1,
        "fixture must detect something for the pin to cover the anomalous arm"
    );
}

#[test]
fn injected_garbage_cannot_flip_the_fitted_model() {
    // The poisoned feed interleaves a NaN-corrupted copy of every bin
    // (odd upstream indices) with the real bin (even indices). Since
    // quarantine keeps garbage out of the training window, the poisoned
    // monitor must end with the *same model* as one that never saw it.
    let config = tiny_config();
    let mut clean = Monitor::new(4, config).expect("monitor");
    let mut poisoned = Monitor::new(4, config).expect("monitor");
    let n_bins = 32;
    let mut plan = FaultPlan {
        seed: 9,
        events: Vec::new(),
    };
    for bin in 0..n_bins {
        plan = plan.with(2 * bin + 1, FaultKind::GarbageRows(GarbageKind::Nan));
    }
    let mut inj = FaultInjector::new(&plan);
    for bin in 0..n_bins {
        let (b, p, e) = rows(4, bin, 0.0);
        let clean_step = clean.observe_rows(bin, &b, &p, &e).expect("observe");
        for d in inj.deliver_rows(2 * bin, &b, &p, &e) {
            let step = poisoned
                .observe_rows(bin, &d.bytes, &d.packets, &d.entropy)
                .expect("observe");
            assert_eq!(fingerprint(&step).1, fingerprint(&clean_step).1);
        }
        for d in inj.deliver_rows(2 * bin + 1, &b, &p, &e) {
            let step = poisoned
                .observe_rows(bin, &d.bytes, &d.packets, &d.entropy)
                .expect("observe");
            assert!(matches!(step.verdict, Verdict::Quarantined));
        }
    }
    assert_eq!(inj.stats().corrupted, n_bins as u64);
    assert_eq!(poisoned.quarantined_bins(), n_bins as u64);
    assert_eq!(poisoned.bins_scored(), clean.bins_scored());
    assert_eq!(poisoned.detections(), clean.detections());
    assert_eq!(poisoned.refits(), clean.refits());
    // Bit-identical thresholds: the garbage never touched the model.
    assert_eq!(threshold_bits(&poisoned), threshold_bits(&clean));
    assert_eq!(poisoned.window().bins(), clean.window().bins());
}

/// Scheduled-refit cadence of the storm lifecycle, in scored bins.
const STORM_REFIT_INTERVAL: usize = 8;

/// Drives 200 bins of the 16-flow fixture through the reference lifecycle
/// the recovery latencies are recorded on (24-bin warmup, 48-bin window in
/// 8-bin chunks, scheduled refits every 8 scored bins, 16-bin staleness
/// budget), with `kind` garbage on the `storm` bins. `after_bin` sees each
/// upstream bin's steps and the monitor after them.
fn run_storm(
    storm: std::ops::Range<usize>,
    kind: GarbageKind,
    mut after_bin: impl FnMut(usize, &[MonitorStep], &Monitor),
) -> Monitor {
    let p = 16;
    let config = MonitorConfig {
        diagnoser: DiagnoserConfig {
            dim: entromine::subspace::DimSelection::Fixed(4),
            refit_rounds: 0,
            ..Default::default()
        },
        warmup_bins: 24,
        window_bins: 48,
        chunk_bins: 8,
        refit_interval: Some(STORM_REFIT_INTERVAL),
        drift: None,
        retry: RetryPolicy::default(),
        staleness_budget: Some(16),
    };
    let plan = storm.fold(FaultPlan::default(), |plan, bin| {
        plan.with(bin, FaultKind::GarbageRows(kind))
    });
    let mut inj = FaultInjector::new(&plan);
    let mut m = Monitor::new(p, config).expect("monitor");
    for bin in 0..200 {
        let (b, pk, e) = rows(p, bin, 0.0);
        let steps: Vec<MonitorStep> = inj
            .deliver_rows(bin, &b, &pk, &e)
            .into_iter()
            .map(|d| {
                m.observe_rows(d.bin, &d.bytes, &d.packets, &d.entropy)
                    .expect("observe")
            })
            .collect();
        after_bin(bin, &steps, &m);
    }
    m
}

#[test]
fn nan_storm_degrades_then_recovers_within_one_refit_interval() {
    // 20 consecutive NaN bins outlive the staleness budget: every one is
    // quarantined, the serving model ages into Degraded, and clean data
    // brings back a Fitted model within one refit interval.
    let storm = 60..80usize;
    let mut degraded_bins = 0usize;
    let mut refitted_at = None;
    let m = run_storm(storm.clone(), GarbageKind::Nan, |bin, steps, m| {
        for step in steps {
            assert_eq!(
                matches!(step.verdict, Verdict::Quarantined),
                storm.contains(&bin)
            );
        }
        if m.state() == MonitorState::Degraded {
            degraded_bins += 1;
        }
        if bin >= storm.end && refitted_at.is_none() && m.state() == MonitorState::Fitted {
            refitted_at = Some(bin);
        }
    });
    assert_eq!(m.quarantined_bins(), storm.len() as u64);
    assert_eq!(m.state(), MonitorState::Fitted);
    assert!(degraded_bins > 0, "a 20-bin storm must outlive the budget");
    let recovery = refitted_at.expect("storm recovery") - storm.end;
    assert!(
        recovery <= STORM_REFIT_INTERVAL,
        "degraded serving must end within one refit interval of clean data, took {recovery}"
    );
}

#[test]
fn huge_finite_poisoning_heals_at_its_recorded_latency() {
    // Four huge-but-finite bins pass every finiteness gate, enter the
    // window and overflow every refit until the poisoned chunks roll out.
    // The failed-refit count and the heal latency are deterministic
    // properties of the lifecycle config; a magnitude gate at the window
    // would move them on purpose.
    let poison = 60..64usize;
    let mut healed_at = None;
    let m = run_storm(poison.clone(), GarbageKind::HugeFinite, |bin, steps, _| {
        let swapped = steps.iter().any(|step| {
            step.refit
                .as_ref()
                .is_some_and(|r| matches!(r.outcome, RefitOutcome::Swapped))
        });
        if bin >= poison.end && healed_at.is_none() && swapped {
            healed_at = Some(bin);
        }
    });
    let health = m.health();
    assert_eq!(health.state, MonitorState::Fitted);
    assert_eq!(health.consecutive_refit_failures, 0);
    assert_eq!(
        health.failed_refits, 3,
        "failed refits along the backoff chain"
    );
    let heal = healed_at.expect("poison recovery") - (poison.end - 1);
    assert_eq!(
        heal, 56,
        "bins from the last poisoned bin to the healing swap"
    );
}

/// Upstream length of every chaos run. Faults are confined to bins
/// 8..24; the clean tail is sized past the worst recovery chain — poison
/// delayed to ~bin 27 takes ≤ 20 pushes to roll fully out of the 16-bin
/// window, and the last failed retry then backs off ≤ 16 bins (the
/// exponential cap) before the healing refit — with slack on top.
const CHAOS_BINS: usize = 80;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn chaos_schedules_never_panic_and_always_recover(
        seed in 0u64..1_000_000,
        faults in proptest::collection::vec((8usize..24, 0usize..7, 1usize..4), 1..6),
    ) {
        let mut plan = FaultPlan { seed, events: Vec::new() };
        for &(bin, kind_ix, param) in &faults {
            let kind = match kind_ix {
                0 => FaultKind::DropBin,
                1 => FaultKind::DuplicateBin,
                2 => FaultKind::DelayBin { by: param },
                3 => FaultKind::GarbageRows(GarbageKind::Nan),
                4 => FaultKind::GarbageRows(GarbageKind::Infinite),
                5 => FaultKind::GarbageRows(GarbageKind::HugeFinite),
                _ => FaultKind::GarbageRows(GarbageKind::Constant),
            };
            plan = plan.with(bin, kind);
        }
        let mut inj = FaultInjector::new(&plan);
        let mut m = Monitor::new(4, tiny_config()).expect("monitor");
        let mut delivered = 0u64;
        let mut expect_quarantined = 0u64;
        for bin in 0..CHAOS_BINS {
            let (b, p, e) = rows(4, bin, 0.0);
            let mut deliveries = inj.deliver_rows(bin, &b, &p, &e);
            if bin + 1 == CHAOS_BINS {
                let (held, _) = inj.flush();
                deliveries.extend(held);
            }
            for d in deliveries {
                delivered += 1;
                let finite = d
                    .bytes
                    .iter()
                    .chain(&d.packets)
                    .chain(&d.entropy)
                    .all(|v| v.is_finite());
                if !finite {
                    expect_quarantined += 1;
                }
                // The no-panic, no-error core of the property: whatever
                // the schedule delivers, observing it must succeed.
                let step = match m.observe_rows(d.bin, &d.bytes, &d.packets, &d.entropy) {
                    Ok(step) => step,
                    Err(e) => return Err(format!("observe failed on bin {}: {e}", d.bin)),
                };
                // Exactly one step per delivery, tracking its bin.
                prop_assert_eq!(step.bin, d.bin);
                prop_assert_eq!(
                    matches!(step.verdict, Verdict::Quarantined),
                    !finite,
                    "quarantine must fire exactly on non-finite deliveries"
                );
            }
        }
        // Accounting: no delivery dropped or double-counted.
        prop_assert_eq!(m.bins_observed(), delivered);
        prop_assert_eq!(m.quarantined_bins(), expect_quarantined);
        // Recovery: faults stopped by bin 24 and the tail is clean, so
        // the monitor must be serving a fresh model again.
        let health = m.health();
        prop_assert_eq!(
            health.state,
            MonitorState::Fitted,
            "monitor stuck in {:?} after the faults stopped (plan {:?})",
            health.state,
            plan
        );
        prop_assert!(!health.degraded);
        prop_assert_eq!(health.consecutive_refit_failures, 0);
        prop_assert_eq!(health.backoff_remaining_bins, 0);
    }
}
