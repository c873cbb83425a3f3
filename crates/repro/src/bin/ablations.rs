//! Ablations: the design choices DESIGN.md §7 calls out, quantified.
//!
//! 1. **Normal-subspace dimension** m ∈ {5, 10, 15}: detection counts and
//!    injected-anomaly recall (the paper fixes m = 10 at the variance
//!    knee).
//! 2. **Dispersion metric**: sample entropy vs Simpson index vs distinct
//!    count as the per-feature summary (the paper: "entropy is not the
//!    only metric ... we find that entropy works well in practice").
//! 3. **Unit-energy normalization** on/off (§4.2: "so that no one feature
//!    dominates our analysis").
//! 4. **HAC linkage** and **k-means seeding** on recovery of known
//!    anomaly-type clusters.

use entromine::cluster::{agglomerative, KMeans, Linkage, Seeding};
use entromine::entropy::{
    distinct_count, sample_entropy, simpson_index, BinSummary, TensorBuilder,
};
use entromine::linalg::Mat;
use entromine::net::Topology;
use entromine::subspace::{DimSelection, MultiwayModel};
use entromine::synth::{Dataset, Schedule, SyntheticNetwork};
use entromine::{match_truth, Diagnoser, DiagnoserConfig, MatchOutcome};
use entromine_repro::{abilene_config, banner, csv, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablations — design-choice sensitivity",
        "DESIGN.md §7",
        scale,
    );

    let mut config = abilene_config(99, scale);
    config.n_bins = config.n_bins.min(2 * 288);
    eprintln!("generating the shared ablation dataset ...");
    let net = SyntheticNetwork::new(Topology::abilene(), config.clone());
    let events = Schedule::paper_mix(0xAB1A, 40).materialize(&net);
    let n_events = events.len();
    let dataset = Dataset::generate(Topology::abilene(), config.clone(), events);

    let mut out = csv::create("ablations.csv");
    csv::row(&mut out, &["ablation,setting,metric,value".into()]);

    // ---- 1. Normal subspace dimension.
    println!("\n== ablation 1: normal-subspace dimension m (paper: 10)");
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>13}",
        "m", "detections", "recall", "false alarms", "expl. var."
    );
    for m in [5usize, 10, 15] {
        let cfg = DiagnoserConfig {
            dim: DimSelection::Fixed(m),
            ..Default::default()
        };
        let fitted = Diagnoser::new(cfg).fit(&dataset).expect("fit");
        let report = fitted.diagnose(&dataset).expect("diagnose");
        let outcomes = match_truth(&report, &dataset.truth);
        let matched_events: std::collections::HashSet<usize> = outcomes
            .iter()
            .filter_map(|o| match o {
                MatchOutcome::Truth(i) => Some(*i),
                _ => None,
            })
            .collect();
        let fas = outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::FalseAlarm))
            .count();
        let recall = matched_events.len() as f64 / n_events as f64;
        println!(
            "{:>4} {:>12} {:>11.0}% {:>14} {:>12.1}%",
            m,
            report.total(),
            100.0 * recall,
            fas,
            100.0 * fitted.entropy_model().inner().explained_variance()
        );
        csv::row(&mut out, &[format!("dimension,m={m},recall,{recall:.4}")]);
        csv::row(&mut out, &[format!("dimension,m={m},false_alarms,{fas}")]);
    }

    // ---- 2. Dispersion metric. Rebuild the tensor under each metric and
    // compare how well each separates the injected anomaly bins.
    println!("\n== ablation 2: dispersion metric (paper: sample entropy)");
    println!("{:>16} {:>12} {:>14}", "metric", "recall", "false alarms");
    type Metric = (
        &'static str,
        fn(&entromine::entropy::FeatureHistogram) -> f64,
    );
    let metrics: [Metric; 3] = [
        ("entropy", sample_entropy),
        ("simpson", simpson_index),
        ("distinct", distinct_count),
    ];
    let truth_bins: std::collections::HashSet<usize> =
        dataset.truth.iter().flat_map(|ev| ev.bins()).collect();
    for (name, metric) in metrics {
        // Rebuild a tensor whose "entropy" slots hold the chosen metric.
        let mut builder = TensorBuilder::new(dataset.n_bins(), dataset.n_flows());
        for bin in 0..dataset.n_bins() {
            for flow in 0..dataset.n_flows() {
                // Regenerate the cell's histograms with events applied via
                // baseline + stored volumes. Rebuilding exactly (with
                // anomaly packets) would need event replay; the baseline
                // regeneration plus stored entropy for volume suffices for
                // the metric comparison on *clean* cells, so instead we
                // replay through the generator's cell accumulator when the
                // cell is covered by an event.
                let acc = dataset.net.baseline_cell(bin, flow);
                let mut summary = BinSummary {
                    packets: acc.packets(),
                    bytes: acc.bytes(),
                    entropy: [0.0; 4],
                };
                for f in entromine::entropy::FEATURES {
                    summary.entropy[f.index()] = metric(acc.histogram(f));
                }
                builder.set(bin, flow, &summary);
            }
        }
        // Overwrite covered cells from the real (anomaly-carrying) tensor
        // is impossible for non-entropy metrics, so instead: score each
        // metric on how anomalous the *injected* rows look relative to the
        // clean baseline distribution it produces. We approximate by
        // fitting on the rebuilt clean tensor and scoring the dataset's
        // true rows — for entropy they coincide with the real pipeline.
        let (tensor, _) = builder.finish();
        let model = match MultiwayModel::fit(&tensor, DimSelection::Fixed(10)) {
            Ok(m) => m,
            Err(e) => {
                println!("{:>16} {:>12} {:>14}  (fit failed: {e})", name, "-", "-");
                continue;
            }
        };
        let model = model.inner();
        let threshold = model.threshold(0.999).expect("threshold");
        // Score the dataset's actual tensor rows (which carry anomalies).
        let mut hits = 0usize;
        let mut fas = 0usize;
        let mut detected_bins = std::collections::HashSet::new();
        for bin in 0..dataset.n_bins() {
            // The dataset tensor holds sample entropy; only the entropy
            // metric can consume it directly. For the others we recompute
            // the metric over the anomalous cells.
            let spe = if name == "entropy" {
                model.spe(&dataset.tensor.unfolded_row(bin)).expect("spe")
            } else {
                let mut row = tensor.unfolded_row(bin);
                if truth_bins.contains(&bin) {
                    // Replay anomaly cells through the generator.
                    for ev in &dataset.truth {
                        if !ev.bins().contains(&bin) {
                            continue;
                        }
                        for &flow in &ev.event.flows {
                            let mut acc = dataset.net.baseline_cell(bin, flow);
                            let od = dataset.net.indexer().pair(flow);
                            let n = ev.event.packets_per_cell as u64;
                            let pkts = entromine::synth::anomaly::anomaly_packets(
                                ev.event.label,
                                dataset.net.plan(),
                                od,
                                n,
                                bin as u64 * 300,
                                ev.event.seed,
                            );
                            acc.add_packets(&pkts);
                            let p = dataset.n_flows();
                            for f in entromine::entropy::FEATURES {
                                row[f.index() * p + flow] = metric(acc.histogram(f));
                            }
                        }
                    }
                }
                model.spe(&row).expect("spe")
            };
            if spe > threshold {
                if truth_bins.contains(&bin) {
                    hits += 1;
                    detected_bins.insert(bin);
                } else {
                    fas += 1;
                }
            }
        }
        let recall = detected_bins.len() as f64 / truth_bins.len().max(1) as f64;
        println!("{:>16} {:>11.0}% {:>14}", name, 100.0 * recall, fas);
        csv::row(&mut out, &[format!("metric,{name},recall,{recall:.4}")]);
        csv::row(&mut out, &[format!("metric,{name},false_alarms,{fas}")]);
        let _ = hits;
    }

    // ---- 3. Unit-energy normalization on/off.
    println!("\n== ablation 3: unit-energy normalization (paper: on)");
    {
        let with = MultiwayModel::fit(&dataset.tensor, DimSelection::Fixed(10)).expect("fit");
        // "Off" = fit the plain subspace model on the raw unfolding.
        let raw = dataset.tensor.unfold();
        let without =
            entromine::subspace::SubspaceModel::fit(&raw, DimSelection::Fixed(10)).expect("fit");
        // Compare how much of the residual energy lives in each feature
        // block: without normalization one feature can dominate.
        let p = dataset.n_flows();
        let mut with_energy = [0.0f64; 4];
        let mut without_energy = [0.0f64; 4];
        for bin in 0..dataset.n_bins() {
            let row = dataset.tensor.unfolded_row(bin);
            let rw = with.inner().residual(&row).expect("residual");
            let ro = without.residual(&row).expect("residual");
            for k in 0..4 {
                with_energy[k] += rw[k * p..(k + 1) * p].iter().map(|v| v * v).sum::<f64>();
                without_energy[k] += ro[k * p..(k + 1) * p].iter().map(|v| v * v).sum::<f64>();
            }
        }
        let share = |e: &[f64; 4]| -> Vec<f64> {
            let total: f64 = e.iter().sum();
            e.iter().map(|v| v / total.max(1e-300)).collect()
        };
        let sw = share(&with_energy);
        let so = share(&without_energy);
        println!("residual energy share per feature [srcIP srcPort dstIP dstPort]:");
        println!(
            "  normalized  : [{:.2} {:.2} {:.2} {:.2}]  (max share {:.2})",
            sw[0],
            sw[1],
            sw[2],
            sw[3],
            sw.iter().cloned().fold(0.0, f64::max)
        );
        println!(
            "  raw         : [{:.2} {:.2} {:.2} {:.2}]  (max share {:.2})",
            so[0],
            so[1],
            so[2],
            so[3],
            so.iter().cloned().fold(0.0, f64::max)
        );
        csv::row(
            &mut out,
            &[format!(
                "normalization,on,max_feature_share,{:.4}",
                sw.iter().cloned().fold(0.0, f64::max)
            )],
        );
        csv::row(
            &mut out,
            &[format!(
                "normalization,off,max_feature_share,{:.4}",
                so.iter().cloned().fold(0.0, f64::max)
            )],
        );
    }

    // ---- 4. Clustering algorithm choices on synthetic archetypes.
    println!("\n== ablation 4: clustering choices (paper: results insensitive)");
    let archetypes = [
        [-0.5f64, -0.5, -0.5, -0.5],
        [0.0, 0.9, 0.3, -0.3],
        [-0.3, 0.0, -0.4, 0.85],
        [0.9, -0.2, -0.35, -0.1],
    ];
    let mut rng_state = 0x5EEDu64;
    let mut next_noise = move || {
        // xorshift for a tiny deterministic jitter stream
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state % 1000) as f64 / 1000.0 - 0.5
    };
    let n_per = 40;
    let mut pts = Mat::zeros(archetypes.len() * n_per, 4);
    let mut truth_type = Vec::new();
    for (a, arch) in archetypes.iter().enumerate() {
        for i in 0..n_per {
            for j in 0..4 {
                pts[(a * n_per + i, j)] = arch[j] + 0.08 * next_noise();
            }
            truth_type.push(a);
        }
    }
    let rand_index = |assignments: &[usize]| -> f64 {
        let n = assignments.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if (assignments[i] == assignments[j]) == (truth_type[i] == truth_type[j]) {
                    agree += 1;
                }
                total += 1;
            }
        }
        agree as f64 / total as f64
    };
    println!("{:>28} {:>12}", "algorithm", "Rand index");
    for (name, assignments) in [
        (
            "HAC single",
            agglomerative(&pts, 4, Linkage::Single).assignments,
        ),
        (
            "HAC complete",
            agglomerative(&pts, 4, Linkage::Complete).assignments,
        ),
        (
            "HAC average",
            agglomerative(&pts, 4, Linkage::Average).assignments,
        ),
        (
            "k-means random",
            KMeans::new(4).with_seed(5).fit(&pts).assignments,
        ),
        (
            "k-means random (8 restarts)",
            KMeans::new(4)
                .with_seed(5)
                .fit_restarts(&pts, 8)
                .assignments,
        ),
        (
            "k-means++",
            KMeans::new(4)
                .with_seed(5)
                .with_seeding(Seeding::PlusPlus)
                .fit(&pts)
                .assignments,
        ),
    ] {
        let ri = rand_index(&assignments);
        println!("{:>28} {:>12.4}", name, ri);
        csv::row(&mut out, &[format!("clustering,{name},rand_index,{ri:.4}")]);
    }
    println!(
        "\n(paper §4.3: 'our results are not sensitive to the choice of\n\
         algorithm used' — every variant should score near 1.0)\n\
         wrote results/ablations.csv"
    );
}
