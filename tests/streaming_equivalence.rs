//! Batch vs. streaming equivalence — the contract of the fit/score split.
//!
//! The streaming engine is only admissible if it is *invisible* in the
//! results: replaying a dataset's packets through the watermark-driven
//! ingest stage (`StreamingGridBuilder`) and scoring each finalized bin
//! online (`StreamingDiagnoser`) must produce exactly the `Diagnosis` set
//! the batch pipeline reports on the same data. Not "statistically
//! similar" — identical bins, identical methods, bit-identical residual
//! magnitudes, identical blamed flows.
//!
//! The fixed-seed test pins one richly anomalous dataset; the proptest
//! sweeps random seeds, topology sizes, and anomaly placements.

use entromine::entropy::{StreamConfig, StreamingGridBuilder, FEATURES};
use entromine::net::Topology;
use entromine::synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};
use entromine::{Diagnoser, DiagnoserConfig, Diagnosis, ThresholdPolicy};
use proptest::prelude::*;

const BIN_SECS: u64 = DatasetConfig::BIN_SECS;

fn config(seed: u64, n_bins: usize) -> DatasetConfig {
    DatasetConfig {
        seed,
        n_bins,
        sample_rate: 100,
        traffic_scale: 0.03,
        rate_noise: 0.03,
        anonymize: false,
    }
}

/// Streams every packet of `dataset` through the ingest stage and the
/// online scorer, returning the diagnoses in emission order.
fn stream_diagnoses(
    dataset: &Dataset,
    fitted: &entromine::FittedDiagnoser,
    alpha: f64,
) -> Vec<Diagnosis> {
    let p = dataset.n_flows();
    let mut grid = StreamingGridBuilder::new(StreamConfig::new(p)).expect("grid");
    let mut monitor = fitted.streaming(alpha).expect("scorer");
    let mut out = Vec::new();
    for bin in 0..dataset.n_bins() {
        for flow in 0..p {
            for pkt in dataset.net.cell_packets(bin, flow, &dataset.truth) {
                grid.offer_packet(flow, &pkt).expect("offer");
            }
        }
        for sealed in grid.advance_watermark((bin + 1) as u64 * BIN_SECS) {
            // The ingest stage must reconstruct the batch grid exactly.
            for (flow, summary) in sealed.summaries.iter().enumerate() {
                assert_eq!(
                    dataset.volumes.packets()[(sealed.bin, flow)],
                    summary.packets as f64
                );
                assert_eq!(
                    dataset.volumes.bytes()[(sealed.bin, flow)],
                    summary.bytes as f64
                );
                for f in FEATURES {
                    assert_eq!(
                        dataset.tensor.get(sealed.bin, flow, f),
                        summary.entropy[f.index()],
                        "entropy diverged at bin {} flow {flow} feature {f}",
                        sealed.bin
                    );
                }
            }
            if let Some(diag) = monitor.score_bin(&sealed).expect("score") {
                out.push(diag);
            }
        }
    }
    assert_eq!(grid.late_events(), 0, "replay must not generate stragglers");
    out
}

/// Asserts two diagnosis sets are exactly the same detections.
fn assert_identical(batch: &[Diagnosis], streamed: &[Diagnosis]) {
    assert_eq!(
        batch.iter().map(|d| d.bin).collect::<Vec<_>>(),
        streamed.iter().map(|d| d.bin).collect::<Vec<_>>(),
        "batch and streaming flagged different bins"
    );
    for (a, b) in batch.iter().zip(streamed) {
        assert_eq!(a.methods, b.methods, "methods diverged at bin {}", a.bin);
        // Bit-identical, not approximately equal: both paths run the same
        // score code on the same rows.
        assert_eq!(a.entropy_spe, b.entropy_spe, "entropy SPE at bin {}", a.bin);
        assert_eq!(a.bytes_spe, b.bytes_spe, "bytes SPE at bin {}", a.bin);
        assert_eq!(a.packets_spe, b.packets_spe, "packets SPE at bin {}", a.bin);
        assert_eq!(
            a.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
            b.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
            "blamed flows diverged at bin {}",
            a.bin
        );
        assert_eq!(a.point, b.point, "entropy-space point at bin {}", a.bin);
    }
}

#[test]
fn streaming_engine_reproduces_batch_diagnoses() {
    let events = vec![
        AnomalyEvent {
            label: AnomalyLabel::PortScan,
            start_bin: 30,
            duration: 1,
            flows: vec![2],
            packets_per_cell: 150.0,
            seed: 5,
        },
        AnomalyEvent {
            label: AnomalyLabel::AlphaFlow,
            start_bin: 55,
            duration: 2,
            flows: vec![6],
            packets_per_cell: 400.0,
            seed: 6,
        },
        AnomalyEvent {
            label: AnomalyLabel::Outage,
            start_bin: 70,
            duration: 1,
            flows: vec![1],
            packets_per_cell: 0.0,
            seed: 7,
        },
    ];
    let dataset = Dataset::generate(Topology::line(3), config(42, 90), events);
    let diagnoser = Diagnoser::new(DiagnoserConfig::default());
    let fitted = diagnoser.fit(&dataset).expect("fit");
    let alpha = fitted.config().alpha;
    let batch = fitted.diagnose(&dataset).expect("batch diagnose");
    let streamed = stream_diagnoses(&dataset, &fitted, alpha);
    assert_identical(&batch.diagnoses, &streamed);
    assert!(
        !batch.diagnoses.is_empty(),
        "fixture must actually detect something for the test to mean anything"
    );
}

#[test]
fn late_packets_are_dropped_not_misfiled() {
    // A straggler arriving after its bin sealed must not perturb any
    // later bin's summary.
    let dataset = Dataset::clean(Topology::line(2), config(7, 12));
    let p = dataset.n_flows();
    let mut grid = StreamingGridBuilder::new(StreamConfig::new(p)).expect("grid");
    let mut straggler = None;
    for bin in 0..dataset.n_bins() {
        for flow in 0..p {
            for pkt in dataset.net.cell_packets(bin, flow, &[]) {
                if bin == 0 && straggler.is_none() {
                    straggler = Some(pkt);
                    continue; // withhold one packet of bin 0
                }
                grid.offer_packet(flow, &pkt).expect("offer");
            }
        }
        if bin == 2 {
            // Replay the withheld bin-0 packet long after bin 0 sealed.
            grid.offer_packet(0, &straggler.unwrap()).expect("offer");
        }
        let _ = grid.advance_watermark((bin + 1) as u64 * BIN_SECS);
    }
    assert_eq!(grid.late_events(), 1);
}

#[test]
fn streaming_equals_batch_under_every_threshold_policy() {
    // The fit/score split means equivalence must be independent of how
    // alpha became a threshold. One dataset, both threshold policies.
    let event = AnomalyEvent {
        label: AnomalyLabel::PortScan,
        start_bin: 25,
        duration: 1,
        flows: vec![3],
        packets_per_cell: 200.0,
        seed: 11,
    };
    let dataset = Dataset::generate(Topology::line(3), config(77, 60), vec![event]);
    for policy in [
        ThresholdPolicy::JacksonMudholkar,
        ThresholdPolicy::Empirical,
    ] {
        let diagnoser = Diagnoser::new(DiagnoserConfig {
            threshold_policy: policy,
            ..Default::default()
        });
        let fitted = diagnoser.fit(&dataset).expect("fit");
        let batch = fitted.diagnose(&dataset).expect("diagnose");
        let streamed = stream_diagnoses(&dataset, &fitted, fitted.config().alpha);
        assert_identical(&batch.diagnoses, &streamed);
    }
}

proptest! {
    // Dataset generation dominates runtime; a handful of random cases at
    // small scale still covers seeds × topology × placement.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_equals_batch_on_random_datasets(
        seed in 0u64..1_000,
        pops in 2usize..4,
        anomaly_bin in 10usize..35,
        anomaly_flow in 0usize..4,
        intensity in 50.0f64..300.0,
        label_idx in 0usize..3,
        anonymize in any::<bool>(),
    ) {
        let label = [
            AnomalyLabel::PortScan,
            AnomalyLabel::NetworkScan,
            AnomalyLabel::AlphaFlow,
        ][label_idx];
        let n_flows = pops * pops;
        let event = AnomalyEvent {
            label,
            start_bin: anomaly_bin,
            duration: 1,
            flows: vec![anomaly_flow % n_flows],
            packets_per_cell: intensity,
            seed: seed ^ 0x77,
        };
        // Abilene's traces arrive with the last 11 address bits masked.
        let config = DatasetConfig { anonymize, ..config(seed, 40) };
        let dataset = Dataset::generate(Topology::line(pops), config, vec![event]);
        let fitted = Diagnoser::new(DiagnoserConfig {
            // One refit round keeps runtime bounded; correctness is
            // independent of the training details since both paths share
            // the trained models.
            refit_rounds: 1,
            ..Default::default()
        }).fit(&dataset).expect("fit");
        let batch = fitted.diagnose(&dataset).expect("diagnose");
        let streamed = stream_diagnoses(&dataset, &fitted, fitted.config().alpha);
        assert_identical(&batch.diagnoses, &streamed);
    }
}
