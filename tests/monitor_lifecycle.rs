//! Monitor lifecycle — rolling refits without drops, double-scores, or
//! drift from the offline fit.
//!
//! Three contracts of the lifecycle-managed monitor:
//!
//! 1. **Accounting.** Every observed bin yields exactly one verdict:
//!    warmup bins are absorbed (never silently dropped), every post-fit
//!    bin is scored exactly once, and automatic refits fire on schedule
//!    against a window that has genuinely slid (oldest chunks rolled out).
//! 2. **Auditability.** A refit is a pure function of the push history:
//!    replaying the same bins into a fresh [`TrainingWindow`] offline and
//!    fitting it reproduces the online model **bit for bit** — the
//!    detections the live monitor emitted after its refit are exactly the
//!    detections the offline model produces on the same bins.
//! 3. **Plane-independence.** Feeding the monitor from the sharded
//!    ingest plane (packets → `ShardedGridBuilder` → `FinalizedBin`)
//!    yields bit-identical steps to feeding it the dataset's stored rows
//!    directly.

use entromine::entropy::shard::ShardedGridBuilder;
use entromine::entropy::sketch::SketchHistogram;
use entromine::entropy::{AccumulatorPolicy, StreamConfig};
use entromine::net::Topology;
use entromine::synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};
use entromine::{
    DiagnoserConfig, Monitor, MonitorConfig, MonitorState, MonitorStep, RefitOutcome, RefitTrigger,
    TrainingWindow, Verdict,
};

const BIN_SECS: u64 = DatasetConfig::BIN_SECS;

fn dataset(seed: u64, n_bins: usize) -> Dataset {
    let config = DatasetConfig {
        seed,
        n_bins,
        sample_rate: 100,
        traffic_scale: 0.03,
        rate_noise: 0.03,
        anonymize: false,
    };
    let events = vec![
        AnomalyEvent {
            label: AnomalyLabel::PortScan,
            start_bin: 70,
            duration: 1,
            flows: vec![2],
            packets_per_cell: 220.0,
            seed: 5,
        },
        AnomalyEvent {
            label: AnomalyLabel::AlphaFlow,
            start_bin: 125,
            duration: 2,
            flows: vec![6],
            packets_per_cell: 420.0,
            seed: 6,
        },
    ];
    Dataset::generate(Topology::line(3), config, events)
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        diagnoser: DiagnoserConfig {
            refit_rounds: 1,
            ..Default::default()
        },
        warmup_bins: 40,
        window_bins: 80,
        chunk_bins: 20,
        refit_interval: Some(40),
        // Clean traffic: isolate the scheduled trigger so refit bins are
        // deterministic for the offline replication below.
        drift: None,
        ..Default::default()
    }
}

/// Runs a monitor over the dataset's stored rows, returning every step.
fn run_monitor_direct(d: &Dataset, config: MonitorConfig) -> (Monitor, Vec<MonitorStep>) {
    let mut m = Monitor::new(d.n_flows(), config).expect("monitor");
    let mut steps = Vec::new();
    for bin in 0..d.n_bins() {
        let step = m
            .observe_rows(
                bin,
                d.volumes.bytes().row(bin),
                d.volumes.packets().row(bin),
                &d.tensor.unfolded_row(bin),
            )
            .expect("observe");
        steps.push(step);
    }
    (m, steps)
}

#[test]
fn no_bin_dropped_or_double_scored_and_window_refits_fire() {
    let d = dataset(11, 160);
    let (m, steps) = run_monitor_direct(&d, monitor_config());

    // Exactly one step per bin, in order.
    assert_eq!(steps.len(), 160);
    for (bin, step) in steps.iter().enumerate() {
        assert_eq!(step.bin, bin, "steps must track bins one-to-one");
    }
    // Warmup bins absorbed, everything after scored exactly once.
    for (bin, step) in steps.iter().enumerate() {
        match &step.verdict {
            Verdict::Warmup { .. } => assert!(bin < 40, "bin {bin} unscored after warmup"),
            _ => assert!(bin >= 40, "bin {bin} scored during warmup"),
        }
    }
    assert_eq!(m.bins_observed(), 160);
    assert_eq!(m.bins_scored(), 120);
    assert_eq!(m.state(), MonitorState::Fitted);

    // The warmup fit plus scheduled refits at the 40-scored-bin cadence.
    let refit_bins: Vec<(usize, RefitTrigger)> = steps
        .iter()
        .filter_map(|s| s.refit.as_ref().map(|r| (s.bin, r.trigger)))
        .collect();
    assert_eq!(
        refit_bins,
        vec![
            (39, RefitTrigger::Warmup),
            (79, RefitTrigger::Scheduled),
            (119, RefitTrigger::Scheduled),
            (159, RefitTrigger::Scheduled),
        ]
    );
    for step in &steps {
        if let Some(r) = &step.refit {
            assert!(matches!(r.outcome, RefitOutcome::Swapped));
        }
    }
    assert_eq!(m.refits(), 4);
    // The bin-119 refit trained on a window that had genuinely slid: 80
    // bins of capacity over 120 pushed bins.
    let late_refit = steps[119].refit.as_ref().unwrap();
    assert!(late_refit.window_bins <= 80);
    // Both injected anomalies were scored (the second lands after the
    // slid-window refit).
    assert!(steps[70].diagnosis().is_some(), "port scan missed");
    assert!(
        steps[125].diagnosis().is_some() || steps[126].diagnosis().is_some(),
        "alpha flow missed"
    );
}

#[test]
fn online_refit_is_bit_identical_to_offline_window_fit() {
    let d = dataset(11, 160);
    let config = monitor_config();
    let (_, steps) = run_monitor_direct(&d, config);

    // Reproduce the bin-119 refit offline: replay the same push history
    // into a fresh window (same capacity, same chunking — the state is a
    // pure function of the pushes) and fit it with the same config.
    let mut window =
        TrainingWindow::new(d.n_flows(), config.window_bins, config.chunk_bins).expect("window");
    for bin in 0..=119 {
        window
            .push_bin(
                bin,
                d.volumes.bytes().row(bin),
                d.volumes.packets().row(bin),
                &d.tensor.unfolded_row(bin),
            )
            .expect("push");
    }
    let (offline, _trace) = window.fit(&config.diagnoser).expect("offline fit");
    let mut scorer = offline
        .streaming(config.diagnoser.alpha)
        .expect("offline scorer");

    // Bins 120..159 were scored live by the model from the bin-119 refit
    // (the bin-159 refit lands after the last score). The offline model
    // must reproduce every verdict bit for bit.
    let mut compared = 0;
    for (bin, step) in steps.iter().enumerate().take(160).skip(120) {
        let offline_diag = scorer
            .score_rows(
                bin,
                d.volumes.bytes().row(bin),
                d.volumes.packets().row(bin),
                &d.tensor.unfolded_row(bin),
            )
            .expect("offline score");
        let live_diag = step.diagnosis();
        match (live_diag, &offline_diag) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.methods, b.methods, "methods at bin {bin}");
                assert_eq!(a.entropy_spe, b.entropy_spe, "entropy SPE at bin {bin}");
                assert_eq!(a.bytes_spe, b.bytes_spe, "bytes SPE at bin {bin}");
                assert_eq!(a.packets_spe, b.packets_spe, "packets SPE at bin {bin}");
                assert_eq!(
                    a.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
                    b.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
                    "blamed flows at bin {bin}"
                );
                assert_eq!(a.point, b.point, "entropy-space point at bin {bin}");
            }
            (a, b) => panic!("bin {bin}: live {a:?} vs offline {b:?}"),
        }
        compared += 1;
    }
    assert_eq!(compared, 40);
    assert!(
        (120..160).any(|bin| steps[bin].diagnosis().is_some()),
        "fixture must detect something post-refit for the test to bite"
    );
}

#[test]
fn sharded_ingest_feed_matches_direct_rows_feed() {
    let d = dataset(23, 120);
    let mut config = monitor_config();
    config.warmup_bins = 30;
    config.window_bins = 60;
    config.refit_interval = Some(30);
    let p = d.n_flows();

    let (_, direct_steps) = run_monitor_direct(&d, config);

    // The same dataset streamed as packets through the sharded plane.
    let mut grid = ShardedGridBuilder::new(StreamConfig::new(p), 4).expect("grid");
    let mut m = Monitor::new(p, config).expect("monitor");
    let mut sharded_steps = Vec::new();
    for bin in 0..d.n_bins() {
        let mut batch = Vec::new();
        for flow in 0..p {
            for pkt in d.net.cell_packets(bin, flow, &d.truth) {
                batch.push((flow, pkt));
            }
        }
        grid.offer_packets(&batch).expect("offer");
        for sealed in grid.advance_watermark((bin + 1) as u64 * BIN_SECS) {
            sharded_steps.push(m.observe_bin(&sealed).expect("observe"));
        }
    }
    assert_eq!(grid.late_events(), 0);
    assert_eq!(direct_steps.len(), sharded_steps.len());
    for (a, b) in direct_steps.iter().zip(&sharded_steps) {
        assert_eq!(a.bin, b.bin);
        match (&a.verdict, &b.verdict) {
            (Verdict::Warmup { remaining: ra }, Verdict::Warmup { remaining: rb }) => {
                assert_eq!(ra, rb)
            }
            (Verdict::Clean, Verdict::Clean) => {}
            (Verdict::Anomalous(da), Verdict::Anomalous(db)) => {
                assert_eq!(da.methods, db.methods, "methods at bin {}", a.bin);
                assert_eq!(da.entropy_spe, db.entropy_spe, "SPE at bin {}", a.bin);
                assert_eq!(da.point, db.point, "point at bin {}", a.bin);
            }
            (va, vb) => panic!("bin {}: {va:?} vs {vb:?}", a.bin),
        }
        assert_eq!(
            a.refit.is_some(),
            b.refit.is_some(),
            "refit at bin {}",
            a.bin
        );
    }
}

#[test]
fn sketched_ingest_plane_runs_the_lifecycle_under_a_memory_ceiling() {
    let d = dataset(23, 120);
    let mut config = monitor_config();
    config.warmup_bins = 30;
    config.window_bins = 60;
    config.refit_interval = Some(30);
    let p = d.n_flows();

    let (_, direct_steps) = run_monitor_direct(&d, config);

    // Generous budget: every cell store stays under budget, the sketch
    // never raises its sampling level, and the plane the monitor opens
    // from its own DiagnoserConfig is bit-identical to the exact tier.
    let budget = entromine::entropy::DEFAULT_BUDGET;
    config.diagnoser.accumulator = AccumulatorPolicy::Sketched { budget };
    let mut m = Monitor::new(p, config).expect("monitor");
    let mut plane = m
        .ingest_plane(StreamConfig::new(1), 4)
        .expect("sketched plane");
    assert_eq!(plane.policy(), AccumulatorPolicy::Sketched { budget });

    // Per-store ceiling, summed over every open (bin, flow, feature)
    // store the plane can hold at once. Each flow lives on exactly one
    // shard, so an open bin holds at most `p · 4` stores; a plane that
    // duplicated cells across shards would overrun this.
    let ceiling = SketchHistogram::heap_ceiling(budget);
    let mut peak = 0usize;
    let mut sketched_steps = Vec::new();
    for bin in 0..d.n_bins() {
        let mut batch = Vec::new();
        for flow in 0..p {
            for pkt in d.net.cell_packets(bin, flow, &d.truth) {
                batch.push((flow, pkt));
            }
        }
        plane.offer_packets(&batch).expect("offer");
        peak = peak.max(plane.accumulator_heap_bytes());
        assert!(
            plane.accumulator_heap_bytes() <= plane.open_bins() * p * 4 * ceiling,
            "bin {bin}: sketched plane exceeded its accumulator ceiling"
        );
        for sealed in plane.advance_watermark((bin + 1) as u64 * BIN_SECS) {
            sketched_steps.push(m.observe_bin(&sealed).expect("observe"));
        }
    }
    assert!(peak > 0, "heap gauge must have registered the open stores");
    assert_eq!(plane.late_events(), 0);

    // Lifecycle contracts hold on the sketched feed: one step per bin and
    // at this budget every verdict matches the direct-rows feed exactly.
    assert_eq!(sketched_steps.len(), direct_steps.len());
    assert_eq!(m.bins_observed(), d.n_bins() as u64);
    assert_eq!(m.state(), MonitorState::Fitted);
    for (a, b) in direct_steps.iter().zip(&sketched_steps) {
        assert_eq!(a.bin, b.bin);
        match (&a.verdict, &b.verdict) {
            (Verdict::Warmup { remaining: ra }, Verdict::Warmup { remaining: rb }) => {
                assert_eq!(ra, rb)
            }
            (Verdict::Clean, Verdict::Clean) => {}
            (Verdict::Anomalous(da), Verdict::Anomalous(db)) => {
                assert_eq!(da.methods, db.methods, "methods at bin {}", a.bin);
                assert_eq!(da.entropy_spe, db.entropy_spe, "SPE at bin {}", a.bin);
                assert_eq!(da.point, db.point, "point at bin {}", a.bin);
            }
            (va, vb) => panic!("bin {}: {va:?} vs {vb:?}", a.bin),
        }
    }

    // Tight budget: the sketch genuinely subsamples, yet the lifecycle
    // still completes with one verdict per bin, refits on schedule, and
    // the injected port scan is still caught.
    config.diagnoser.accumulator = AccumulatorPolicy::Sketched { budget: 64 };
    let mut m = Monitor::new(p, config).expect("monitor");
    let mut plane = m
        .ingest_plane(StreamConfig::new(1), 4)
        .expect("tight plane");
    let tight_ceiling = SketchHistogram::heap_ceiling(64);
    let mut steps = Vec::new();
    for bin in 0..d.n_bins() {
        let mut batch = Vec::new();
        for flow in 0..p {
            for pkt in d.net.cell_packets(bin, flow, &d.truth) {
                batch.push((flow, pkt));
            }
        }
        plane.offer_packets(&batch).expect("offer");
        assert!(
            plane.accumulator_heap_bytes() <= plane.open_bins() * p * 4 * tight_ceiling,
            "bin {bin}: tight plane exceeded its accumulator ceiling"
        );
        for sealed in plane.advance_watermark((bin + 1) as u64 * BIN_SECS) {
            steps.push(m.observe_bin(&sealed).expect("observe"));
        }
    }
    assert_eq!(steps.len(), d.n_bins());
    for (bin, step) in steps.iter().enumerate() {
        assert_eq!(step.bin, bin);
        match &step.verdict {
            Verdict::Warmup { .. } => assert!(bin < 30, "bin {bin} unscored after warmup"),
            _ => assert!(bin >= 30, "bin {bin} scored during warmup"),
        }
    }
    assert_eq!(m.refits(), 4, "warmup fit plus three scheduled refits");
    assert!(
        steps[70].diagnosis().is_some() || steps[71].diagnosis().is_some(),
        "port scan missed on the tight-budget sketched plane"
    );
}
