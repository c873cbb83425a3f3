//! Shared harness for the reproduction binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` that regenerates it from synthetic data (see DESIGN.md §6
//! for the experiment index). This library holds what they share:
//!
//! * [`Scale`] — quick (default) vs full (`--full`)
//!   experiment sizing; quick keeps every binary in the minutes range on a
//!   laptop-class machine, full matches the paper's three-week windows.
//! * [`abilene_config`] / [`geant_config`] — the canonical dataset
//!   configurations.
//! * [`InjectionBench`] — the Figure 5/6 injection harness: fits on a
//!   clean dataset once, caches the target bin's baseline histograms, and
//!   evaluates thousands of what-if injections cheaply.
//! * [`csv`] — tiny CSV writers for `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use entromine::entropy::BinAccumulator;
use entromine::net::{PacketHeader, Topology};
use entromine::synth::{Dataset, DatasetConfig};
use entromine::FittedDiagnoser;
use std::io::Write;
use std::path::PathBuf;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Two-day windows: every binary finishes in minutes on two cores.
    Quick,
    /// Paper-faithful three-week windows.
    Full,
}

impl Scale {
    /// Parses `--full` from argv; defaults to [`Scale::Quick`].
    pub fn from_env() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Number of 5-minute bins for this scale.
    pub fn bins(self) -> usize {
        match self {
            Scale::Quick => 2 * 288,
            Scale::Full => 3 * 7 * 288,
        }
    }

    /// Human-readable description for banners.
    pub fn describe(self) -> &'static str {
        match self {
            Scale::Quick => "quick (2 days; pass --full for the paper's 3 weeks)",
            Scale::Full => "full (3 weeks, paper-faithful)",
        }
    }
}

/// The canonical Abilene-like dataset configuration.
pub fn abilene_config(seed: u64, scale: Scale) -> DatasetConfig {
    let mut cfg = DatasetConfig::abilene(seed);
    cfg.n_bins = scale.bins();
    cfg
}

/// The canonical Geant-like dataset configuration.
pub fn geant_config(seed: u64, scale: Scale) -> DatasetConfig {
    let mut cfg = DatasetConfig::geant(seed);
    cfg.n_bins = scale.bins();
    cfg
}

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, paper_ref: &str, scale: Scale) {
    println!("================================================================");
    println!("entromine reproduction: {experiment}");
    println!("paper reference: {paper_ref}");
    println!("scale: {}", scale.describe());
    println!("================================================================");
}

/// Injection harness: a clean fitted model plus cached baseline
/// histograms for one target bin, so what-if injections cost only the
/// anomaly packets and one SPE evaluation each.
pub struct InjectionBench {
    /// The clean dataset.
    pub dataset: Dataset,
    /// The model fitted on it.
    pub fitted: FittedDiagnoser,
    /// The target bin all injections land in.
    pub bin: usize,
    baseline: Vec<BinAccumulator>,
}

impl InjectionBench {
    /// Generates a clean dataset, fits, and caches bin `bin`'s baselines.
    pub fn new(topology: Topology, config: DatasetConfig, bin: usize) -> Self {
        let dataset = Dataset::clean(topology, config);
        let fitted = entromine::Diagnoser::default()
            .fit(&dataset)
            .expect("fit clean dataset");
        let baseline = (0..dataset.n_flows())
            .map(|flow| dataset.net.baseline_cell(bin, flow))
            .collect();
        InjectionBench {
            dataset,
            fitted,
            bin,
            baseline,
        }
    }

    /// Evaluates one multi-flow injection: packets per target flow are
    /// merged into clones of the cached baselines, and the three detector
    /// statistics of the modified row are returned as
    /// `(bytes_spe, packets_spe, entropy_spe)`.
    pub fn evaluate(&self, injections: &[(usize, &[PacketHeader])]) -> (f64, f64, f64) {
        let p = self.dataset.n_flows();
        let mut entropy_row = self.dataset.tensor.unfolded_row(self.bin);
        let mut bytes_row = self.dataset.volumes.bytes().row(self.bin).to_vec();
        let mut packets_row = self.dataset.volumes.packets().row(self.bin).to_vec();
        for &(flow, packets) in injections {
            let mut acc = self.baseline[flow].clone();
            let anonymize = self.dataset.net.config().anonymize;
            for pkt in packets {
                let pkt = if anonymize { pkt.anonymized() } else { *pkt };
                acc.add_packet(&pkt);
            }
            let s = acc.summarize();
            for (k, e) in s.entropy.iter().enumerate() {
                entropy_row[k * p + flow] = *e;
            }
            bytes_row[flow] = s.bytes as f64;
            packets_row[flow] = s.packets as f64;
        }
        let b = self
            .fitted
            .bytes_model()
            .spe(&bytes_row)
            .expect("bytes spe");
        let pk = self
            .fitted
            .packets_model()
            .spe(&packets_row)
            .expect("packets spe");
        let e = self
            .fitted
            .entropy_model()
            .inner()
            .spe(&entropy_row)
            .expect("entropy spe");
        (b, pk, e)
    }

    /// The three detection thresholds at `alpha`, under the pipeline's
    /// configured threshold policy.
    pub fn thresholds(&self, alpha: f64) -> (f64, f64, f64) {
        self.fitted
            .streaming(alpha)
            .expect("thresholds")
            .thresholds()
    }
}

/// Generates a dataset carrying a Table 3-style anomaly population.
///
/// The event count scales with the window length so quick and full runs
/// have comparable anomaly densities.
pub fn scheduled_dataset(topology: Topology, config: DatasetConfig, seed: u64) -> Dataset {
    use entromine::synth::{Schedule, SyntheticNetwork};
    let net = SyntheticNetwork::new(topology.clone(), config.clone());
    // The paper found 444 anomalies in 3 weeks of Abilene: ~21 per day.
    let days = config.n_bins as f64 / 288.0;
    let total = (21.0 * days).round() as usize;
    let events = Schedule::paper_mix(seed ^ 0xC0FFEE, total).materialize(&net);
    Dataset::generate(topology, config, events)
}

/// Fits the default diagnoser and produces the report, with progress
/// output.
pub fn diagnose(dataset: &Dataset) -> (entromine::FittedDiagnoser, entromine::DiagnosisReport) {
    eprintln!(
        "  fitting subspace models on {} bins x {} flows ...",
        dataset.n_bins(),
        dataset.n_flows()
    );
    let fitted = entromine::Diagnoser::default()
        .fit(dataset)
        .expect("fit dataset");
    let report = fitted.diagnose(dataset).expect("diagnose dataset");
    (fitted, report)
}

/// Ground-truth label for each diagnosis (None = unmatched false alarm).
pub fn truth_labels(
    report: &entromine::DiagnosisReport,
    dataset: &Dataset,
) -> Vec<Option<entromine::synth::AnomalyLabel>> {
    entromine::match_truth(report, &dataset.truth)
        .into_iter()
        .map(|o| match o {
            entromine::MatchOutcome::Truth(i) => Some(dataset.truth[i].event.label),
            entromine::MatchOutcome::FalseAlarm => None,
        })
        .collect()
}

/// Minimal CSV output under `results/`.
pub mod csv {
    use super::*;

    /// Opens `results/<name>` for writing (creating the directory).
    pub fn create(name: &str) -> std::io::BufWriter<std::fs::File> {
        let mut path = PathBuf::from("results");
        std::fs::create_dir_all(&path).expect("create results dir");
        path.push(name);
        std::io::BufWriter::new(std::fs::File::create(&path).expect("create results file"))
    }

    /// Writes one CSV row from string-ish cells.
    pub fn row<W: Write>(w: &mut W, cells: &[String]) {
        let line = cells.join(",");
        writeln!(w, "{line}").expect("write csv row");
    }

    /// Convenience for homogeneous float rows.
    pub fn float_row<W: Write>(w: &mut W, cells: &[f64]) {
        let strings: Vec<String> = cells.iter().map(|c| format!("{c}")).collect();
        row(w, &strings);
    }
}

/// `n choose k` over small arguments (Figure 6 sweeps combinations of
/// origin PoPs).
pub fn choose(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num = 1usize;
    let mut den = 1usize;
    for i in 0..k {
        num *= n - i;
        den *= i + 1;
    }
    num / den
}

/// Iterates over all `k`-subsets of `0..n` in lexicographic order, calling
/// `f` with each subset; if `cap` is hit, stops early and returns how many
/// were visited.
pub fn for_each_combination(n: usize, k: usize, cap: usize, mut f: impl FnMut(&[usize])) -> usize {
    if k == 0 || k > n {
        return 0;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    let mut visited = 0usize;
    loop {
        f(&idx);
        visited += 1;
        if visited >= cap {
            return visited;
        }
        // Find the rightmost index that can still advance.
        let mut i = k;
        let mut advanced = false;
        while i > 0 {
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in (i + 1)..k {
                    idx[j] = idx[j - 1] + 1;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            return visited;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_values() {
        assert_eq!(choose(11, 2), 55);
        assert_eq!(choose(11, 11), 1);
        assert_eq!(choose(11, 0), 1);
        assert_eq!(choose(5, 6), 0);
        assert_eq!(choose(11, 5), 462);
    }

    #[test]
    fn combinations_enumerate_fully() {
        let mut seen = Vec::new();
        let n = for_each_combination(5, 3, usize::MAX, |c| seen.push(c.to_vec()));
        assert_eq!(n, 10);
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[9], vec![2, 3, 4]);
        let set: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn combinations_respect_cap() {
        let mut count = 0;
        let n = for_each_combination(10, 4, 7, |_| count += 1);
        assert_eq!(n, 7);
        assert_eq!(count, 7);
    }

    #[test]
    fn combination_edge_cases() {
        assert_eq!(for_each_combination(3, 0, 10, |_| {}), 0);
        assert_eq!(for_each_combination(3, 4, 10, |_| {}), 0);
        let mut seen = 0;
        for_each_combination(4, 4, 10, |c| {
            assert_eq!(c, &[0, 1, 2, 3]);
            seen += 1;
        });
        assert_eq!(seen, 1);
    }
}
