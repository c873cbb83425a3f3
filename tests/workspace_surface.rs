//! Smoke test for the workspace surface: every re-export the umbrella
//! `entromine` crate promises must resolve and stay importable. This file
//! compiling *is* most of the test; the assertions below pin the handful
//! of cross-crate aliases that regressed historically (paths moving
//! between `entromine_net::packet` and the `entropy` re-export, the
//! `synth::distr` samplers, and the four-feature vocabulary).

#![allow(unused_imports)]

// The pipeline surface of the core crate.
use entromine::{
    anomaly_point_matrix, cluster_rows, label_breakdown, match_truth, unit_norm, ClassifierConfig,
    ClusterAlgorithm, ClusterRow, DetectionMethods, Diagnoser, DiagnoserConfig, Diagnosis,
    DiagnosisError, DiagnosisReport, FitStrategy, FittedDiagnoser, LabelRow, MatchOutcome,
    ThresholdPolicy,
};

// Layer re-exports: each substrate is reachable through the umbrella.
use entromine::cluster::{agglomerative, variation_curve, AxisSign, KMeans, Linkage, Seeding};
use entromine::entropy::{
    normalized_entropy, sample_entropy, BinAccumulator, BinSummary, EntropyTensor, Feature,
    FeatureHistogram, VolumeMatrix, FEATURES,
};
use entromine::linalg::{
    stats, sym_eigen, Mat, MomentAccumulator, Pca, ResidualPowerSums, Spectrum,
};
use entromine::net::{
    AddressPlan, FlowCache, FlowKey, Ipv4, OdIndexer, OdPair, PacketHeader, Prefix, PrefixTable,
    Protocol, Topology, ABILENE_ANON_BITS,
};
use entromine::subspace::{
    empirical_quantile, q_statistic_threshold, q_threshold_from_power_sums, Detection,
    DimSelection, MultiwayModel, SubspaceModel,
};
use entromine::synth::distr::{poisson, standard_normal, zipf_weights, AliasTable};
use entromine::synth::{
    mix64, AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig, InjectedAnomaly, Schedule,
    SyntheticNetwork, TraceKind,
};

#[test]
fn feature_vocabulary_is_shared_across_layers() {
    // `entropy::Feature` must be *the same type* as `net::packet::Feature`
    // (a re-export, not a parallel definition): assignability proves it.
    let f: entromine::entropy::Feature = entromine::net::packet::Feature::SrcIp;
    assert_eq!(f, FEATURES[0]);
    assert_eq!(FEATURES.len(), 4);
}

#[test]
fn umbrella_layers_interoperate() {
    // Types from different re-exported layers flow through one another:
    // net topology -> synth dataset -> entropy tensor dimensions.
    let topo = Topology::abilene();
    assert_eq!(topo.n_pops(), 11);
    let indexer = OdIndexer::new(topo.n_pops());
    assert_eq!(indexer.n_flows(), 121);
}

#[test]
fn unit_norm_is_reachable_and_correct() {
    let v = unit_norm([2.0, 0.0, 0.0, 0.0]);
    assert_eq!(v, [1.0, 0.0, 0.0, 0.0]);
}

#[test]
fn spectral_engine_knobs_are_on_the_default_config() {
    // The core re-exports and the subspace originals are the same types,
    // and the defaults are the documented ones.
    let config = DiagnoserConfig::default();
    assert_eq!(
        config.threshold_policy,
        entromine::subspace::ThresholdPolicy::JacksonMudholkar
    );
    assert_eq!(FitStrategy::default(), FitStrategy::Auto);
    // One dimension choice, defined in linalg and re-exported by subspace.
    let dim: DimSelection = entromine::linalg::DimSelection::Fixed(10);
    assert_eq!(dim, DimSelection::default());
    assert_eq!(config.dim, dim);
    assert_eq!(
        ThresholdPolicy::default(),
        ThresholdPolicy::JacksonMudholkar
    );
}
