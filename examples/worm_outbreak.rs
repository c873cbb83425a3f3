//! Worm outbreak: sensitivity of entropy detection to attack intensity.
//!
//! A miniature of the paper's Figure 5(c): the Table 4 worm-scan trace
//! (141 packets/sec, port 1433) is injected into OD flows at increasing
//! thinning factors, and the detection rate of volume-only vs
//! volume+entropy detection is reported per factor. Entropy keeps
//! detecting the worm well after it has become invisible in volume.
//!
//! ```sh
//! cargo run --release --example worm_outbreak -- [--seed N] [--flows N]
//! ```

use entromine::net::{OdPair, Topology};
use entromine::synth::distr::poisson;
use entromine::synth::traces::{sampled_attack_packets, sampled_count};
use entromine::synth::{Dataset, DatasetConfig, TraceKind};
use entromine::Diagnoser;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut seed = 3u64;
    let mut flows_to_try = 30usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--seed" => seed = val.parse().expect("u64"),
            "--flows" => flows_to_try = val.parse().expect("count"),
            other => panic!("unknown flag {other}"),
        }
    }

    let config = DatasetConfig {
        seed,
        n_bins: 288,
        sample_rate: 100,
        traffic_scale: 1.0,
        rate_noise: 0.01,
        anonymize: true,
    };
    println!("generating one clean day of Abilene-shaped traffic ...");
    let dataset = Dataset::clean(Topology::abilene(), config);
    let fitted = Diagnoser::default().fit(&dataset).expect("fit");
    let report = fitted.diagnose(&dataset).expect("diagnose");
    let (t_bytes, t_packets, t_entropy) = report.thresholds;

    let kind = TraceKind::WormScan;
    let bin = 150usize;
    let cfg = dataset.net.config();
    println!(
        "injecting the {} trace ({} pkts/s raw) into {} OD flows per thinning factor\n",
        kind.name(),
        kind.intensity_pps(),
        flows_to_try
    );
    println!(
        "{:>9} {:>14} {:>12} {:>16} {:>18}",
        "thinning", "pkts/bin", "% of flow", "volume detects", "vol+entropy detects"
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x3013);
    for thinning in [1u64, 5, 10, 50, 100, 500] {
        let mean_inject = sampled_count(kind, thinning, cfg.sample_rate, 300, cfg.traffic_scale);
        let mut vol_hits = 0usize;
        let mut any_hits = 0usize;
        for flow in 0..flows_to_try.min(dataset.n_flows()) {
            let od: OdPair = dataset.net.indexer().pair(flow);
            let n = poisson(&mut rng, mean_inject);
            let pkts = sampled_attack_packets(
                kind,
                dataset.net.plan(),
                od,
                n,
                bin as u64 * 300,
                seed ^ (flow as u64) << 8 ^ thinning,
            );
            let what = dataset.whatif_rows(bin, &[(flow, &pkts)]);
            let vol = fitted.bytes_model().spe(&what.bytes).expect("spe") > t_bytes
                || fitted.packets_model().spe(&what.packets).expect("spe") > t_packets;
            let ent = fitted
                .entropy_model()
                .inner()
                .spe(&what.entropy)
                .expect("spe")
                > t_entropy;
            if vol {
                vol_hits += 1;
            }
            if vol || ent {
                any_hits += 1;
            }
        }
        let tried = flows_to_try.min(dataset.n_flows());
        let pct_of_flow = 100.0 * mean_inject / cfg.mean_sampled_packets_per_bin();
        println!(
            "{:>9} {:>14.1} {:>11.2}% {:>15.0}% {:>17.0}%",
            thinning,
            mean_inject,
            pct_of_flow,
            100.0 * vol_hits as f64 / tried as f64,
            100.0 * any_hits as f64 / tried as f64
        );
    }
    println!(
        "\n(the entropy detector keeps finding the worm after thinning has made it\n\
         a fraction of a percent of flow traffic — the paper's Figure 5c shape)"
    );
}
