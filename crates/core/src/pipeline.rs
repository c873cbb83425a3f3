//! The end-to-end diagnosis pipeline.
//!
//! [`Diagnoser`] bundles the three detectors the paper compares:
//!
//! * the **volume** subspace detectors over the byte and packet count
//!   matrices (the SIGCOMM 2004 baseline — "any anomaly that was detected
//!   in either case was considered a volume-detected anomaly");
//! * the **entropy** multiway subspace detector over the unfolded tensor.
//!
//! Every flagged bin becomes a [`Diagnosis`] carrying which methods fired,
//! the identified OD flows, and the anomaly's position in entropy space
//! (the unit-norm residual 4-vector used for classification in §7).

use crate::stream::StreamingDiagnoser;
use crate::DiagnosisError;
use entromine_entropy::AccumulatorPolicy;
use entromine_linalg::Mat;
use entromine_subspace::{
    DimSelection, FitStrategy, FlowContribution, MultiwayModel, SubspaceModel, ThresholdPolicy,
};
use entromine_synth::Dataset;
use std::time::Instant;

/// Configuration of the diagnosis pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DiagnoserConfig {
    /// Normal-subspace dimension selection (paper: m = 10).
    pub dim: DimSelection,
    /// Confidence level for the Q-statistic threshold (paper: 0.999, with
    /// 0.995 in the sensitivity experiments).
    pub alpha: f64,
    /// Recursion cap for multi-attribute identification.
    pub max_ident_flows: usize,
    /// Clean-training rounds: after each round, bins flagged by any
    /// detector are excluded and the models refit. This prevents a strong
    /// anomaly from being absorbed *into* the normal subspace — a known
    /// failure mode of PCA detectors on short training windows (the paper
    /// sidesteps it with three-week archives whose top components are
    /// dominated by genuine traffic structure). 0 disables refitting.
    pub refit_rounds: usize,
    /// Refit safety valve: if a round flags more than this fraction of
    /// bins, the exclusion is considered implausible and refitting stops
    /// with the current models.
    pub max_excluded_fraction: f64,
    /// How `alpha` becomes an SPE threshold:
    /// [`ThresholdPolicy::JacksonMudholkar`] (the paper's analytic
    /// threshold, exact for Gaussian residuals) or
    /// [`ThresholdPolicy::Empirical`] (training-SPE order statistics —
    /// prefer it at small traffic scales, where heteroskedastic entropy
    /// noise makes the Gaussian threshold under-cover).
    pub threshold_policy: ThresholdPolicy,
    /// Which distribution-store tier ingest planes opened for this
    /// deployment run ([`Monitor::ingest_plane`](crate::Monitor::ingest_plane)):
    /// exact histograms (the default — the paper's measurement, unbounded
    /// distinct-key memory) or bounded-memory sketches with a documented
    /// entropy error bound. Detection and diagnosis always consume
    /// whatever entropy rows the plane emits; the policy only changes how
    /// those rows are accumulated.
    pub accumulator: AccumulatorPolicy,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            dim: DimSelection::Fixed(10),
            alpha: 0.999,
            max_ident_flows: 5,
            refit_rounds: 1,
            max_excluded_fraction: 0.25,
            threshold_policy: ThresholdPolicy::JacksonMudholkar,
            accumulator: AccumulatorPolicy::Exact,
        }
    }
}

impl DiagnoserConfig {
    /// The configured dimension selection, capped below `cols` so small
    /// networks fit with the default config.
    fn capped_dim(&self, cols: usize) -> DimSelection {
        match self.dim {
            DimSelection::Fixed(m) => DimSelection::Fixed(m.min(cols.saturating_sub(1)).max(1)),
            other => other,
        }
    }

    /// Rejects a non-finite or out-of-`(0, 1)` alpha — the shared
    /// validation of the fit path and the monitor's constructor.
    pub(crate) fn validate_alpha(&self) -> Result<(), DiagnosisError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha >= 1.0 {
            return Err(DiagnosisError::BadConfig(
                "alpha must be finite and lie strictly inside (0, 1)",
            ));
        }
        Ok(())
    }
}

/// Which detectors flagged a bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionMethods {
    /// Byte-count subspace detector.
    pub bytes: bool,
    /// Packet-count subspace detector.
    pub packets: bool,
    /// Entropy multiway subspace detector.
    pub entropy: bool,
}

impl DetectionMethods {
    /// Volume detection = bytes or packets (the paper's definition).
    pub fn volume(&self) -> bool {
        self.bytes || self.packets
    }

    /// Detected by volume but not entropy.
    pub fn volume_only(&self) -> bool {
        self.volume() && !self.entropy
    }

    /// Detected by entropy but not volume.
    pub fn entropy_only(&self) -> bool {
        self.entropy && !self.volume()
    }

    /// Detected by both families.
    pub fn both(&self) -> bool {
        self.entropy && self.volume()
    }
}

/// One diagnosed anomalous bin.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The anomalous time bin.
    pub bin: usize,
    /// Which detectors fired.
    pub methods: DetectionMethods,
    /// Entropy-residual magnitude (squared) at this bin.
    pub entropy_spe: f64,
    /// Byte-residual magnitude (squared).
    pub bytes_spe: f64,
    /// Packet-residual magnitude (squared).
    pub packets_spe: f64,
    /// OD flows blamed by multi-attribute identification, in blame order
    /// (empty when only volume fired and the entropy residual is typical).
    pub flows: Vec<FlowContribution>,
    /// The anomaly's unit-norm residual entropy 4-vector
    /// `[H̃(srcIP), H̃(srcPort), H̃(dstIP), H̃(dstPort)]`, taken at the
    /// first identified flow. `None` when no flow was identified.
    pub point: Option<[f64; 4]>,
}

/// The full report over a dataset.
#[derive(Debug, Clone)]
pub struct DiagnosisReport {
    /// Diagnoses in time order.
    pub diagnoses: Vec<Diagnosis>,
    /// Q-statistic thresholds used, for reference: (bytes, packets, entropy).
    pub thresholds: (f64, f64, f64),
}

impl DiagnosisReport {
    /// Number of bins detected by volume only (Table 2's first column).
    pub fn volume_only(&self) -> usize {
        self.diagnoses
            .iter()
            .filter(|d| d.methods.volume_only())
            .count()
    }

    /// Number detected by entropy only (Table 2's second column).
    pub fn entropy_only(&self) -> usize {
        self.diagnoses
            .iter()
            .filter(|d| d.methods.entropy_only())
            .count()
    }

    /// Number detected by both (Table 2's third column).
    pub fn both(&self) -> usize {
        self.diagnoses.iter().filter(|d| d.methods.both()).count()
    }

    /// Total diagnoses.
    pub fn total(&self) -> usize {
        self.diagnoses.len()
    }
}

/// An unfitted diagnosis pipeline.
#[derive(Debug, Clone, Default)]
pub struct Diagnoser {
    config: DiagnoserConfig,
}

impl Diagnoser {
    /// A diagnoser with the given configuration.
    pub fn new(config: DiagnoserConfig) -> Self {
        Diagnoser { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DiagnoserConfig {
        &self.config
    }

    /// Fits the three subspace models to a dataset, with clean-training
    /// refits per [`DiagnoserConfig::refit_rounds`].
    ///
    /// The normal-subspace dimension is capped below each matrix's column
    /// count, so small test networks fit with the default config.
    ///
    /// Configuration is validated here, at fit time: `alpha` must be
    /// finite and strictly inside `(0, 1)` (the subspace layer likewise
    /// rejects a non-finite or out-of-range variance fraction), so a
    /// misconfigured pipeline fails loudly before any model exists rather
    /// than misbehaving bin by bin.
    pub fn fit(&self, dataset: &Dataset) -> Result<FittedDiagnoser, DiagnosisError> {
        fit_rounds(
            &self.config,
            dataset.volumes.bytes(),
            dataset.volumes.packets(),
            &dataset.tensor.unfold(),
        )
        .map(|(fitted, _)| fitted)
    }
}

/// Diagnostics for one round of a fit: how many rows it trained on, how
/// many the previous round's suspicion gate excluded, and what the round
/// cost. Purely observational — the fitted models are a
/// function of the training rows and the config alone, never of these
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrace {
    /// Rows the round trained on.
    pub training_bins: usize,
    /// Rows the previous round's suspicion gate excluded (0 in round 0).
    pub flagged_bins: usize,
    /// Always `false`: the warm-started eigensolve is gone. The field
    /// survives only because the frozen `bench_e2e` recorder reads it;
    /// the next benchmark PR removes it together with that read.
    pub warm_start: bool,
    /// Always `false`: moment downdating is gone. Kept for the same
    /// reason as [`warm_start`](Self::warm_start).
    pub downdated: bool,
    /// Always `0`: no fit engine iterates any more. Kept for the same
    /// reason as [`warm_start`](Self::warm_start).
    pub cycles: usize,
    /// Wall-clock of the round (trimming scan included), milliseconds.
    /// Timing only — it never feeds back into the fit.
    pub ms: f64,
}

/// Per-round trace of one window fit, surfaced to operators through
/// [`RefitReport`](crate::RefitReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefitTrace {
    /// One entry per executed fit round, in order (round 0 first).
    pub rounds: Vec<RoundTrace>,
}

impl RefitTrace {
    /// Total wall-clock across all rounds, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.ms).sum()
    }

    fn record(&mut self, training_bins: usize, flagged_bins: usize, start: Instant) {
        self.rounds.push(RoundTrace {
            training_bins,
            flagged_bins,
            warm_start: false,
            downdated: false,
            cycles: 0,
            ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
}

/// **The** "training rows → fitted pipeline" algorithm, shared by the
/// batch [`Diagnoser::fit`] (rows of a [`Dataset`]) and the rolling
/// [`TrainingWindow::fit`](crate::TrainingWindow::fit) (rows the window
/// retained): a round-0 fit on every row, then up to
/// [`refit_rounds`](DiagnoserConfig::refit_rounds) clean-training rounds
/// that drop the rows the current models find suspicious and refit on the
/// rest, one [`RoundTrace`] per executed round.
///
/// `bytes` and `packets` are `t × p`, `entropy_raw` is the raw unfolded
/// `t × 4p` matrix, all over the same `t` bins. Every round fits through
/// [`SubspaceModel::fit`] / [`MultiwayModel::fit_unfolded`], so the
/// engine follows the round's shape under [`FitStrategy::Auto`] — Gram
/// when the round has fewer rows than columns, the dense covariance
/// solve otherwise — and every model is calibrated on its own training rows.
/// The result is a pure function of the three matrices and the config.
///
/// # Errors
///
/// `BadConfig` on an invalid `alpha`; `BadDataset` with fewer than 4 rows
/// or fewer than 2 flows; any fit or scoring error from the subspace
/// layer.
pub(crate) fn fit_rounds(
    config: &DiagnoserConfig,
    bytes: &Mat,
    packets: &Mat,
    entropy_raw: &Mat,
) -> Result<(FittedDiagnoser, RefitTrace), DiagnosisError> {
    config.validate_alpha()?;
    let n_bins = bytes.rows();
    if n_bins < 4 {
        return Err(DiagnosisError::BadDataset(
            "need at least 4 bins to model variation",
        ));
    }
    let p = bytes.cols();
    if p < 2 {
        // The subspace method models correlation across an ensemble of
        // OD flows; one flow has no ensemble (and the volume matrices
        // would have no residual dimensions).
        return Err(DiagnosisError::BadDataset(
            "need at least 2 OD flows for ensemble modeling",
        ));
    }
    let fit_on = |rows: &[usize]| -> Result<FittedDiagnoser, DiagnosisError> {
        Ok(FittedDiagnoser {
            config: *config,
            bytes_model: SubspaceModel::fit(&bytes.select_rows(rows), config.capped_dim(p))?,
            packets_model: SubspaceModel::fit(&packets.select_rows(rows), config.capped_dim(p))?,
            entropy_model: MultiwayModel::fit_unfolded(
                entropy_raw.select_rows(rows),
                config.capped_dim(4 * p),
                FitStrategy::Auto,
            )?,
        })
    };

    let mut trace = RefitTrace::default();
    let round_start = Instant::now();
    let mut rows: Vec<usize> = (0..n_bins).collect();
    let mut fitted = fit_on(&rows)?;
    trace.record(rows.len(), 0, round_start);

    for _ in 0..config.refit_rounds {
        let round_start = Instant::now();
        // Flag suspicious bins with the current models, then refit
        // without them. Every round re-judges *all* bins, so a bin
        // excluded by one round can return in the next.
        let flags = fitted.suspicion_flags(bytes, packets, entropy_raw)?;
        let clean: Vec<usize> = (0..n_bins).filter(|&bin| !flags[bin]).collect();
        let flagged = n_bins - clean.len();
        if flagged == 0 {
            break;
        }
        if flagged as f64 > config.max_excluded_fraction * n_bins as f64 {
            // Implausibly many exclusions: trust the current fit.
            break;
        }
        if clean.len() == rows.len() || clean.len() < 4 {
            break;
        }
        rows = clean;
        fitted = fit_on(&rows)?;
        trace.record(rows.len(), flagged, round_start);
    }
    Ok((fitted, trace))
}

/// A fitted pipeline, ready to score bins.
#[derive(Debug, Clone)]
pub struct FittedDiagnoser {
    config: DiagnoserConfig,
    bytes_model: SubspaceModel,
    packets_model: SubspaceModel,
    entropy_model: MultiwayModel,
}

impl FittedDiagnoser {
    /// The configuration the pipeline was built with.
    pub fn config(&self) -> &DiagnoserConfig {
        &self.config
    }

    /// One flag per bin: whether it looks suspicious under SPE *or*
    /// Hotelling's T² for any of the three detectors, at the configured
    /// `alpha` and threshold policy — the row test the clean-training
    /// rounds of [`fit_rounds`] exclude on. SPE is the paper's detection
    /// test; an anomaly strong enough to have been absorbed as a principal
    /// axis is invisible to it but has an extreme score along that axis,
    /// which T² exposes. Each model scans its rows in one batched
    /// single-pass `(SPE, T²)` sweep ([`SubspaceModel::spe_t2_batch`]).
    fn suspicion_flags(
        &self,
        bytes: &Mat,
        packets: &Mat,
        entropy_raw: &Mat,
    ) -> Result<Vec<bool>, DiagnosisError> {
        let alpha = self.config.alpha;
        let policy = self.config.threshold_policy;
        let mut flags = vec![false; bytes.rows()];
        let mut pairs = Vec::with_capacity(bytes.rows());
        for (model, x) in self
            .detectors()
            .into_iter()
            .zip([bytes, packets, entropy_raw])
        {
            let t_spe = model.threshold_with(alpha, policy)?;
            model.spe_t2_batch(x.row_iter(), &mut pairs)?;
            let t_t2 = model.t2_threshold(alpha);
            for (flag, &(spe, t2)) in flags.iter_mut().zip(&pairs) {
                *flag |= spe > t_spe || t2 > t_t2;
            }
        }
        Ok(flags)
    }

    /// Structured empirical-threshold sharpness warnings at confidence
    /// `alpha`, one per under-resolved detector (tagged `"bytes"`,
    /// `"packets"`, `"entropy"`). Empty unless the configured policy is
    /// [`ThresholdPolicy::Empirical`] — the analytic threshold has no
    /// sample to be under-resolved.
    pub fn sharpness_warnings(
        &self,
        alpha: f64,
    ) -> Vec<(&'static str, entromine_subspace::EmpiricalSharpness)> {
        if self.config.threshold_policy != ThresholdPolicy::Empirical {
            return Vec::new();
        }
        ["bytes", "packets", "entropy"]
            .into_iter()
            .zip(self.detectors())
            .filter_map(|(name, model)| Some((name, model.empirical_sharpness(alpha)?)))
            .collect()
    }

    /// The three detectors `[bytes, packets, entropy]`, one type: the
    /// entropy detector is the multiway model's inner model, which takes
    /// raw unfolded rows.
    pub(crate) fn detectors(&self) -> [&SubspaceModel; 3] {
        [
            &self.bytes_model,
            &self.packets_model,
            self.entropy_model.inner(),
        ]
    }

    /// The fitted multiway entropy model.
    pub fn entropy_model(&self) -> &MultiwayModel {
        &self.entropy_model
    }

    /// The fitted byte-count model.
    pub fn bytes_model(&self) -> &SubspaceModel {
        &self.bytes_model
    }

    /// The fitted packet-count model.
    pub fn packets_model(&self) -> &SubspaceModel {
        &self.packets_model
    }

    /// The online scoring head over these trained models, with thresholds
    /// precomputed at confidence `alpha`: the entry point of the
    /// streaming score phase.
    pub fn streaming(&self, alpha: f64) -> Result<StreamingDiagnoser<'_>, DiagnosisError> {
        StreamingDiagnoser::new(self, alpha)
    }

    /// Scores every bin of `dataset` and assembles the report.
    pub fn diagnose(&self, dataset: &Dataset) -> Result<DiagnosisReport, DiagnosisError> {
        self.diagnose_at(dataset, self.config.alpha)
    }

    /// Like [`diagnose`](Self::diagnose) but at an explicit confidence
    /// level (the sensitivity experiments sweep alpha).
    ///
    /// Batch diagnosis **is** the streaming path replayed over stored
    /// rows: every bin goes through the same
    /// [`StreamingDiagnoser::score_rows`] call a live monitor uses, which
    /// is what makes the batch/streaming equivalence hold by construction.
    pub fn diagnose_at(
        &self,
        dataset: &Dataset,
        alpha: f64,
    ) -> Result<DiagnosisReport, DiagnosisError> {
        let mut scorer = self.streaming(alpha)?;
        let mut diagnoses = Vec::new();
        for bin in 0..dataset.n_bins() {
            if let Some(diagnosis) = scorer.score_rows(
                bin,
                dataset.volumes.bytes().row(bin),
                dataset.volumes.packets().row(bin),
                &dataset.tensor.unfolded_row(bin),
            )? {
                diagnoses.push(diagnosis);
            }
        }
        Ok(DiagnosisReport {
            diagnoses,
            thresholds: scorer.thresholds(),
        })
    }

    /// The residual-magnitude series of all three detectors — the axes of
    /// the paper's Figure 4 scatter plots. Returns `(bytes, packets,
    /// entropy)` SPE per bin.
    #[allow(clippy::type_complexity)] // three parallel per-bin series, not a structure
    pub fn spe_series(
        &self,
        dataset: &Dataset,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>), DiagnosisError> {
        let unfolded = dataset.tensor.unfold();
        let rows = [
            dataset.volumes.bytes(),
            dataset.volumes.packets(),
            &unfolded,
        ];
        let detectors = self.detectors();
        let [b, p, e] = [0, 1, 2].map(|i| detectors[i].spe_series(rows[i]));
        Ok((b?, p?, e?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::Topology;
    use entromine_synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};

    /// Paper-scale traffic (~6200 sampled packets per cell) over a short
    /// window; anomaly sizes below are calibrated fractions of a cell.
    fn cfg(seed: u64, bins: usize) -> DatasetConfig {
        DatasetConfig {
            seed,
            n_bins: bins,
            sample_rate: 100,
            traffic_scale: 1.0,
            rate_noise: 0.01,
            anonymize: false,
        }
    }

    fn event(label: AnomalyLabel, bin: usize, flow: usize, pkts: f64, seed: u64) -> AnomalyEvent {
        AnomalyEvent {
            label,
            start_bin: bin,
            duration: 1,
            flows: vec![flow],
            packets_per_cell: pkts,
            seed,
        }
    }

    #[test]
    fn clean_dataset_mostly_clean() {
        let d = Dataset::clean(Topology::abilene(), cfg(1, 100));
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let report = fitted.diagnose(&d).unwrap();
        // Residuals are heteroskedastic (Poisson noise scales with rate),
        // so a few percent of bins exceed the Gaussian Q-threshold — the
        // paper likewise reports ~10% of its detections as false alarms.
        assert!(
            report.total() <= 8,
            "too many false alarms on clean data: {}",
            report.total()
        );
    }

    #[test]
    fn port_scan_detected_by_entropy_not_volume() {
        // The paper's key claim: anomalies that are "severely dwarfed in
        // individual flows" — tiny in absolute volume — still stand out in
        // entropy because they reshape a small flow's feature
        // distributions. Scan a *small* OD flow at ~60% of its own rate:
        // a large relative composition change, a negligible packet count.
        let config = cfg(2, 120);
        let net = entromine_synth::SyntheticNetwork::new(Topology::abilene(), config.clone());
        // Pick the flow whose base rate is closest to 800 sampled
        // packets/bin (an eighth of the network mean): the scan's entropy
        // displacement is a shape change and does not shrink with flow
        // size, while its absolute packet count stays under the volume
        // detectors' noise floor (~900 packets network-wide here).
        let flow = (0..net.indexer().n_flows())
            .min_by_key(|&f| (net.rates().base_rate(f) - 800.0).abs() as u64)
            .unwrap();
        let scan_pkts = 0.6 * net.rates().base_rate(flow);
        let ev = event(AnomalyLabel::PortScan, 50, flow, scan_pkts, 3);
        let d = Dataset::generate(Topology::abilene(), config, vec![ev]);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let report = fitted.diagnose(&d).unwrap();
        let hit = report
            .diagnoses
            .iter()
            .find(|x| x.bin == 50)
            .expect("port scan must be detected");
        assert!(hit.methods.entropy);
        // Under a thousand extra 40-byte packets network-wide: the volume
        // detectors have nothing to see.
        assert!(
            !hit.methods.volume(),
            "low-volume port scan should not be a volume detection"
        );
        assert_eq!(hit.flows.first().map(|f| f.flow), Some(flow));
        // The point must lie on the unit sphere.
        let pt = hit.point.expect("identified anomaly has a point");
        let n: f64 = pt.iter().map(|x| x * x).sum();
        assert!((n - 1.0).abs() < 1e-9);
        // Port scan shape: dstPort residual up, dstIP down.
        assert!(pt[3] > 0.0, "dstPort residual should be positive: {pt:?}");
        assert!(pt[2] < 0.0, "dstIP residual should be negative: {pt:?}");
    }

    #[test]
    fn alpha_flow_detected_by_volume() {
        // A very large point-to-point flow: ~100% of a cell's mean packets
        // at 1500 bytes each — a bandwidth event.
        let ev = event(AnomalyLabel::AlphaFlow, 60, 40, 6200.0, 4);
        let d = Dataset::generate(Topology::abilene(), cfg(3, 120), vec![ev]);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let report = fitted.diagnose(&d).unwrap();
        let hit = report
            .diagnoses
            .iter()
            .find(|x| x.bin == 60)
            .expect("alpha flow must be detected");
        assert!(hit.methods.volume(), "alpha flows are volume anomalies");
    }

    #[test]
    fn table2_counters_are_consistent() {
        // Anomaly sizes relative to their target flows (flow sizes are
        // heavy-tailed, so absolute counts would be meaningless).
        let config = cfg(5, 120);
        let net = entromine_synth::SyntheticNetwork::new(Topology::abilene(), config.clone());
        let pick = |target: f64| {
            (0..net.indexer().n_flows())
                .min_by_key(|&f| (net.rates().base_rate(f) - target).abs() as u64)
                .unwrap()
        };
        let (small_a, small_b, big) = (pick(900.0), pick(1800.0), pick(9000.0));
        let events = vec![
            event(
                AnomalyLabel::PortScan,
                30,
                small_a,
                0.7 * net.rates().base_rate(small_a),
                10,
            ),
            event(
                AnomalyLabel::NetworkScan,
                60,
                small_b,
                0.7 * net.rates().base_rate(small_b),
                11,
            ),
            event(
                AnomalyLabel::AlphaFlow,
                90,
                big,
                1.2 * net.rates().base_rate(big),
                12,
            ),
        ];
        let d = Dataset::generate(Topology::abilene(), config, events);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let report = fitted.diagnose(&d).unwrap();
        assert_eq!(
            report.volume_only() + report.entropy_only() + report.both(),
            report.total()
        );
        assert!(report.total() >= 3, "all three injections should be found");
    }

    #[test]
    fn alpha_sweep_monotone_detections() {
        // Lower alpha -> lower threshold -> at least as many detections.
        let ev = event(AnomalyLabel::Worm, 40, 8, 745.0, 13);
        let d = Dataset::generate(Topology::abilene(), cfg(6, 100), vec![ev]);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let hi = fitted.diagnose_at(&d, 0.999).unwrap();
        let lo = fitted.diagnose_at(&d, 0.99).unwrap();
        assert!(lo.total() >= hi.total());
    }

    #[test]
    fn spe_series_shapes() {
        let d = Dataset::clean(Topology::line(3), cfg(7, 40));
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let (b, p, e) = fitted.spe_series(&d).unwrap();
        assert_eq!(b.len(), 40);
        assert_eq!(p.len(), 40);
        assert_eq!(e.len(), 40);
    }

    #[test]
    fn tiny_dataset_rejected() {
        let d = Dataset::clean(Topology::line(2), cfg(8, 2));
        assert!(matches!(
            Diagnoser::default().fit(&d),
            Err(DiagnosisError::BadDataset(_))
        ));
    }

    #[test]
    fn empirical_policy_closes_the_small_scale_calibration_gap() {
        // At small traffic scales the entropy residuals are strongly
        // heteroskedastic (Poisson noise scales with rate) and the
        // Gaussian Jackson–Mudholkar threshold under-covers: a clean
        // window alarms on a sizable fraction of its own training bins.
        // The empirical policy calibrates on the same SPE distribution it
        // will score, so its training self-alarm rate is ~(1 - alpha) by
        // construction.
        let config = DatasetConfig {
            seed: 31,
            n_bins: 300,
            sample_rate: 100,
            traffic_scale: 0.05,
            rate_noise: 0.02,
            anonymize: false,
        };
        let d = Dataset::clean(Topology::abilene(), config);
        let base = DiagnoserConfig {
            refit_rounds: 0,
            ..Default::default()
        };
        let jm = Diagnoser::new(base).fit(&d).unwrap().diagnose(&d).unwrap();
        let empirical = Diagnoser::new(DiagnoserConfig {
            threshold_policy: entromine_subspace::ThresholdPolicy::Empirical,
            ..base
        })
        .fit(&d)
        .unwrap()
        .diagnose(&d)
        .unwrap();
        assert!(
            jm.total() >= 5,
            "fixture must exhibit the JM under-coverage ({} self-alarms)",
            jm.total()
        );
        // 300 bins at alpha = 0.999: each detector's empirical quantile
        // interpolates just below its training maximum, so the worst case
        // is one self-alarm per detector — the designed (1 - alpha)
        // coverage, not the heteroskedasticity-driven excess above.
        assert!(
            empirical.total() <= 3,
            "empirical policy self-alarms on {} of 300 clean bins",
            empirical.total()
        );
        assert!(
            jm.total() > empirical.total(),
            "empirical ({}) must improve on JM ({})",
            empirical.total(),
            jm.total()
        );
    }

    #[test]
    fn default_dim_capped_for_small_networks() {
        // line(2) has p^2 = 4 flows; Fixed(10) must be capped, not fail.
        let d = Dataset::clean(Topology::line(2), cfg(9, 60));
        let fitted = Diagnoser::default().fit(&d).unwrap();
        assert!(fitted.bytes_model().normal_dim() < 4);
        let report = fitted.diagnose(&d).unwrap();
        assert!(report.total() < 12);
    }
}
