//! **entromine** — mining anomalies using traffic feature distributions.
//!
//! A from-scratch Rust implementation of the anomaly diagnosis framework of
//! Lakhina, Crovella & Diot, *Mining Anomalies Using Traffic Feature
//! Distributions* (SIGCOMM 2005): network-wide anomaly **detection** via
//! the multiway subspace method over feature-entropy timeseries,
//! **identification** of the responsible OD flows, and unsupervised
//! **classification** of anomalies by clustering in entropy space.
//!
//! # The pipeline
//!
//! 1. Per OD flow and 5-minute bin, compute the sample entropy of four
//!    packet-header features: source/destination address and port
//!    (`entromine-entropy`).
//! 2. Unfold the resulting `t x p x 4` tensor into a `t x 4p` matrix, fit
//!    PCA, and split observations into a normal and a residual component;
//!    bins whose squared residual exceeds the Jackson–Mudholkar Q-statistic
//!    threshold are detections (`entromine-subspace`).
//! 3. Greedily identify the OD flow(s) whose 4-feature displacement
//!    explains each detection.
//! 4. Represent each anomaly as its unit-norm residual entropy 4-vector and
//!    cluster those points (k-means / hierarchical agglomerative) into
//!    semantically meaningful classes (`entromine-cluster`).
//!
//! # Quickstart
//!
//! ```
//! use entromine::{Diagnoser, DiagnoserConfig};
//! use entromine::synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};
//! use entromine::net::Topology;
//!
//! // A small synthetic network with one injected port scan.
//! let event = AnomalyEvent {
//!     label: AnomalyLabel::PortScan,
//!     start_bin: 40,
//!     duration: 1,
//!     flows: vec![7],
//!     packets_per_cell: 600.0,
//!     seed: 9,
//! };
//! let config = DatasetConfig {
//!     seed: 1,
//!     n_bins: 72,
//!     sample_rate: 100,
//!     traffic_scale: 0.02,
//!     rate_noise: 0.04,
//!     anonymize: false,
//! };
//! let dataset = Dataset::generate(Topology::abilene(), config, vec![event]);
//!
//! // Fit the diagnoser and inspect what it found.
//! let diagnoser = Diagnoser::new(DiagnoserConfig::default());
//! let fitted = diagnoser.fit(&dataset).unwrap();
//! let report = fitted.diagnose(&dataset).unwrap();
//!
//! assert!(report.diagnoses.iter().any(|d| d.bin == 40));
//! let hit = report.diagnoses.iter().find(|d| d.bin == 40).unwrap();
//! assert!(hit.methods.entropy, "port scans are entropy-detected");
//! assert_eq!(hit.flows.first().map(|f| f.flow), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod error;
mod fault;
mod monitor;
mod pipeline;
mod report;
mod stream;
mod window;

pub use classify::{anomaly_point_matrix, ClassifierConfig, ClusterAlgorithm};
pub use error::DiagnosisError;
pub use fault::{
    BatchDelivery, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultStats, GarbageKind,
    RowDelivery,
};
pub use monitor::{
    DriftPolicy, HealthReport, Monitor, MonitorConfig, MonitorState, MonitorStep, RefitOutcome,
    RefitReport, RefitTrigger, RetryPolicy, Verdict,
};
pub use pipeline::{
    DetectionMethods, Diagnoser, DiagnoserConfig, Diagnosis, DiagnosisReport, FittedDiagnoser,
    RefitTrace, RoundTrace,
};
pub use report::{cluster_rows, label_breakdown, match_truth, ClusterRow, LabelRow, MatchOutcome};
pub use stream::StreamingDiagnoser;
pub use window::TrainingWindow;

/// Re-exports of the subspace types pipeline callers name — the
/// [`DiagnoserConfig`] threshold knob, the sharpness warning, and the fit
/// engine a model reports — so they need not reach into the subspace
/// crate.
pub use entromine_subspace::{EmpiricalSharpness, FitStrategy, ThresholdPolicy};

/// Re-export of the clustering layer.
pub use entromine_cluster as cluster;
/// Re-export of the entropy layer.
pub use entromine_entropy as entropy;
/// Re-export of the linear-algebra substrate.
pub use entromine_linalg as linalg;
/// Re-export of the network substrate.
pub use entromine_net as net;
/// Re-export of the subspace method.
pub use entromine_subspace as subspace;
/// Re-export of the synthetic-traffic layer.
pub use entromine_synth as synth;

/// Rescales an anomaly's residual entropy 4-vector to unit norm, as §7.1
/// prescribes ("we rescale each point to unit norm to focus on the
/// relationship between entropies rather than their absolute values").
/// Zero vectors are returned unchanged.
pub fn unit_norm(v: [f64; 4]) -> [f64; 4] {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm <= 0.0 {
        return v;
    }
    [v[0] / norm, v[1] / norm, v[2] / norm, v[3] / norm]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_norm_normalizes() {
        let v = unit_norm([3.0, 0.0, 4.0, 0.0]);
        assert!((v[0] - 0.6).abs() < 1e-12);
        assert!((v[2] - 0.8).abs() < 1e-12);
        let n: f64 = v.iter().map(|x| x * x).sum();
        assert!((n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_norm_zero_vector_unchanged() {
        assert_eq!(unit_norm([0.0; 4]), [0.0; 4]);
    }

    #[test]
    fn unit_norm_preserves_direction() {
        let v = unit_norm([-1.0, 2.0, -3.0, 0.5]);
        assert!(v[0] < 0.0 && v[1] > 0.0 && v[2] < 0.0 && v[3] > 0.0);
    }
}
