//! Online diagnosis over a stream of finalized bins.
//!
//! The batch pipeline is *train on a window, then replay*: [`Diagnoser`]
//! fits the three subspace models over an archived dataset and
//! [`FittedDiagnoser::diagnose`] walks the stored bins. A live deployment
//! inverts the second half — bins arrive one at a time from the ingest
//! stage ([`StreamingGridBuilder`]) and each must be judged the moment it
//! finalizes.
//!
//! [`StreamingDiagnoser`] is that judge. It wraps already-trained models
//! with their Q-statistic thresholds precomputed at a chosen confidence
//! level; each [`score_bin`] call costs three `O(n·m)` projections (bytes,
//! packets, entropy) plus identification for the rare bin that fires.
//! There is no refitting and no other per-bin state, so the monitor's
//! working set is the model, full stop.
//!
//! Crucially, the batch path is **reimplemented on top of this one**:
//! `diagnose_at` constructs a `StreamingDiagnoser` and replays the stored
//! bins through [`score_rows`]. One code path means batch and streaming
//! cannot drift apart — the equivalence test in `tests/` holds by
//! construction and guards the seam.
//!
//! [`Diagnoser`]: crate::Diagnoser
//! [`FittedDiagnoser::diagnose`]: crate::FittedDiagnoser::diagnose
//! [`StreamingGridBuilder`]: entromine_entropy::StreamingGridBuilder
//! [`score_bin`]: StreamingDiagnoser::score_bin
//! [`score_rows`]: StreamingDiagnoser::score_rows

use crate::pipeline::{DetectionMethods, Diagnosis, FittedDiagnoser};
use crate::{unit_norm, DiagnosisError};
use entromine_entropy::FinalizedBin;

/// The three Q-thresholds `(bytes, packets, entropy)` of a model set at
/// confidence `alpha`, honoring the configured [`ThresholdPolicy`]: the
/// shared threshold computation of every scoring head (the frozen
/// [`StreamingDiagnoser`] and the rolling [`Monitor`](crate::Monitor)).
pub(crate) fn thresholds_for(
    fitted: &FittedDiagnoser,
    alpha: f64,
) -> Result<(f64, f64, f64), DiagnosisError> {
    let policy = fitted.config().threshold_policy;
    let [b, p, e] = fitted
        .detectors()
        .map(|model| model.threshold_with(alpha, policy));
    Ok((b?, p?, e?))
}

/// Scores one bin's measurement rows against a model set and its
/// precomputed thresholds.
///
/// This free function is **the** scoring code path of the whole pipeline:
/// [`StreamingDiagnoser::score_rows`] wraps it, batch diagnosis replays
/// stored rows through that wrapper, and the rolling
/// [`Monitor`](crate::Monitor) calls it against whichever model is live —
/// one body, so none of the three can drift apart.
///
/// Non-finite rows are refused with [`DiagnosisError::NonFiniteInput`]:
/// a NaN anywhere in a row makes every SPE comparison false, so the bin
/// would otherwise score *Clean* — the worst possible answer for corrupt
/// input. (The rolling monitor quarantines such bins before ever calling
/// this; the frozen scorer surfaces the error to its caller.)
pub(crate) fn score_rows_against(
    fitted: &FittedDiagnoser,
    thresholds: (f64, f64, f64),
    bin: usize,
    bytes_row: &[f64],
    packets_row: &[f64],
    entropy_raw: &[f64],
) -> Result<Option<Diagnosis>, DiagnosisError> {
    let rows = [bytes_row, packets_row, entropy_raw];
    if !rows.iter().all(|row| row.iter().all(|v| v.is_finite())) {
        return Err(DiagnosisError::NonFiniteInput(
            "measurement rows must be finite to score",
        ));
    }
    let (t_bytes, t_packets, t_entropy) = thresholds;
    let mut spes = [0.0; 3];
    for ((spe, model), row) in spes.iter_mut().zip(fitted.detectors()).zip(rows) {
        *spe = model.spe(row)?;
    }
    let [bytes_spe, packets_spe, entropy_spe] = spes;

    let methods = DetectionMethods {
        bytes: bytes_spe > t_bytes,
        packets: packets_spe > t_packets,
        entropy: entropy_spe > t_entropy,
    };
    if !(methods.volume() || methods.entropy) {
        return Ok(None);
    }

    // Identification runs on the entropy residual whenever it is above
    // threshold, and stops at that same threshold; volume-only detections
    // carry no blamed flows.
    let flows = if methods.entropy {
        fitted
            .entropy_model()
            .identify(entropy_raw, t_entropy, fitted.config().max_ident_flows)?
    } else {
        Vec::new()
    };
    let point = match flows.first() {
        Some(first) => {
            let v = fitted
                .entropy_model()
                .anomaly_vector(entropy_raw, first.flow)?;
            Some(unit_norm(v))
        }
        None => None,
    };
    Ok(Some(Diagnosis {
        bin,
        methods,
        entropy_spe,
        bytes_spe,
        packets_spe,
        flows,
        point,
    }))
}

/// Online scoring head over a [`FittedDiagnoser`]: trained models plus
/// precomputed thresholds, consuming finalized bins and emitting
/// [`Diagnosis`] values as they happen.
#[derive(Debug, Clone)]
pub struct StreamingDiagnoser<'a> {
    fitted: &'a FittedDiagnoser,
    alpha: f64,
    t_bytes: f64,
    t_packets: f64,
    t_entropy: f64,
    bins_scored: u64,
    detections: u64,
    /// Row scratch recycled across [`score_bin`](Self::score_bin) calls:
    /// `(bytes, packets, unfolded entropy)` — no per-bin allocations.
    scratch: (Vec<f64>, Vec<f64>, Vec<f64>),
}

impl<'a> StreamingDiagnoser<'a> {
    pub(crate) fn new(fitted: &'a FittedDiagnoser, alpha: f64) -> Result<Self, DiagnosisError> {
        // Thresholds honor the configured policy: the analytic
        // Jackson–Mudholkar formula by default, training-SPE order
        // statistics under `ThresholdPolicy::Empirical`.
        let (t_bytes, t_packets, t_entropy) = thresholds_for(fitted, alpha)?;
        Ok(StreamingDiagnoser {
            fitted,
            alpha,
            t_bytes,
            t_packets,
            t_entropy,
            bins_scored: 0,
            detections: 0,
            scratch: (Vec::new(), Vec::new(), Vec::new()),
        })
    }

    /// The trained models being scored against.
    pub fn fitted(&self) -> &FittedDiagnoser {
        self.fitted
    }

    /// The confidence level the thresholds were computed at.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Precomputed Q-thresholds: `(bytes, packets, entropy)`.
    pub fn thresholds(&self) -> (f64, f64, f64) {
        (self.t_bytes, self.t_packets, self.t_entropy)
    }

    /// Bins scored so far.
    pub fn bins_scored(&self) -> u64 {
        self.bins_scored
    }

    /// Diagnoses emitted so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Scores one finalized bin from the streaming ingest stage. The
    /// three measurement rows are materialized into recycled scratch
    /// buffers, so a warm diagnoser scores bins without allocating.
    pub fn score_bin(&mut self, bin: &FinalizedBin) -> Result<Option<Diagnosis>, DiagnosisError> {
        let (mut bytes, mut packets, mut entropy) = std::mem::take(&mut self.scratch);
        bin.bytes_row_into(&mut bytes);
        bin.packets_row_into(&mut packets);
        bin.unfolded_entropy_row_into(&mut entropy);
        let out = self.score_rows(bin.bin, &bytes, &packets, &entropy);
        self.scratch = (bytes, packets, entropy);
        out
    }

    /// Scores one bin given its three measurement rows: byte counts and
    /// packet counts per flow (length `p`) and the raw unfolded entropy
    /// row (length `4p`).
    ///
    /// This is the single scoring code path of the whole pipeline — batch
    /// diagnosis replays stored rows through it.
    pub fn score_rows(
        &mut self,
        bin: usize,
        bytes_row: &[f64],
        packets_row: &[f64],
        entropy_raw: &[f64],
    ) -> Result<Option<Diagnosis>, DiagnosisError> {
        self.bins_scored += 1;
        let diagnosis = score_rows_against(
            self.fitted,
            (self.t_bytes, self.t_packets, self.t_entropy),
            bin,
            bytes_row,
            packets_row,
            entropy_raw,
        )?;
        if diagnosis.is_some() {
            self.detections += 1;
        }
        Ok(diagnosis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnoser;
    use entromine_entropy::BinSummary;
    use entromine_net::Topology;
    use entromine_synth::{AnomalyEvent, AnomalyLabel, Dataset, DatasetConfig};

    fn dataset_with_scan(seed: u64) -> Dataset {
        let config = DatasetConfig {
            seed,
            n_bins: 80,
            sample_rate: 100,
            traffic_scale: 0.05,
            rate_noise: 0.02,
            anonymize: false,
        };
        let ev = AnomalyEvent {
            label: AnomalyLabel::PortScan,
            start_bin: 40,
            duration: 1,
            flows: vec![3],
            packets_per_cell: 400.0,
            seed: 7,
        };
        Dataset::generate(Topology::line(3), config, vec![ev])
    }

    #[test]
    fn streaming_replay_equals_batch_diagnosis() {
        let d = dataset_with_scan(1);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let batch = fitted.diagnose(&d).unwrap();

        let mut streaming = fitted.streaming(fitted.config().alpha).unwrap();
        let mut online = Vec::new();
        for bin in 0..d.n_bins() {
            let fb = FinalizedBin {
                bin,
                summaries: (0..d.n_flows())
                    .map(|flow| BinSummary {
                        packets: d.volumes.packets()[(bin, flow)] as u64,
                        bytes: d.volumes.bytes()[(bin, flow)] as u64,
                        entropy: [
                            d.tensor.get(bin, flow, entromine_entropy::FEATURES[0]),
                            d.tensor.get(bin, flow, entromine_entropy::FEATURES[1]),
                            d.tensor.get(bin, flow, entromine_entropy::FEATURES[2]),
                            d.tensor.get(bin, flow, entromine_entropy::FEATURES[3]),
                        ],
                    })
                    .collect(),
            };
            if let Some(diag) = streaming.score_bin(&fb).unwrap() {
                online.push(diag);
            }
        }
        assert_eq!(batch.diagnoses.len(), online.len());
        for (a, b) in batch.diagnoses.iter().zip(&online) {
            assert_eq!(a.bin, b.bin);
            assert_eq!(a.methods, b.methods);
            assert_eq!(a.entropy_spe, b.entropy_spe);
            assert_eq!(a.bytes_spe, b.bytes_spe);
            assert_eq!(a.packets_spe, b.packets_spe);
            assert_eq!(
                a.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
                b.flows.iter().map(|f| f.flow).collect::<Vec<_>>()
            );
            assert_eq!(a.point, b.point);
        }
        assert_eq!(streaming.bins_scored(), 80);
        assert_eq!(streaming.detections(), online.len() as u64);
        assert_eq!(batch.thresholds, streaming.thresholds());
    }

    #[test]
    fn clean_bin_scores_to_none() {
        let d = dataset_with_scan(2);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let mut streaming = fitted.streaming(0.999).unwrap();
        // A bin identical to the training mean cannot be an anomaly.
        let p = d.n_flows();
        let mean_bytes: Vec<f64> = fitted.bytes_model().pca().mean().to_vec();
        let mean_packets: Vec<f64> = fitted.packets_model().pca().mean().to_vec();
        // Raw entropy row whose normalized form equals the entropy mean.
        let mut raw_entropy = fitted.entropy_model().inner().pca().mean().to_vec();
        let div = fitted.entropy_model().divisors();
        for (k, &dv) in div.iter().enumerate() {
            for v in &mut raw_entropy[k * p..(k + 1) * p] {
                *v *= dv;
            }
        }
        let out = streaming
            .score_rows(0, &mean_bytes, &mean_packets, &raw_entropy)
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn non_finite_rows_error_instead_of_scoring_clean() {
        // A NaN in any row makes every `spe > threshold` comparison
        // false, so a corrupt bin would silently score Clean — the
        // scorer must refuse it instead.
        let d = dataset_with_scan(4);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        let mut streaming = fitted.streaming(0.999).unwrap();
        let p = d.n_flows();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut bytes = vec![1.0; p];
            bytes[0] = bad;
            assert!(matches!(
                streaming.score_rows(0, &bytes, &vec![1.0; p], &vec![1.0; 4 * p]),
                Err(DiagnosisError::NonFiniteInput(_))
            ));
        }
    }

    #[test]
    fn identification_stops_at_the_detection_threshold_in_force() {
        // Under the empirical policy the entropy alarm fires against a
        // threshold above the Jackson–Mudholkar one; identification must
        // stop at the threshold the alarm fired against, so every blamed
        // flow was blamed while the residual still exceeded it.
        let config = DatasetConfig {
            seed: 1,
            n_bins: 400,
            sample_rate: 100,
            traffic_scale: 1.0,
            rate_noise: 0.02,
            anonymize: false,
        };
        let events = (0..8)
            .map(|i| AnomalyEvent {
                label: if i % 2 == 0 {
                    AnomalyLabel::PortScan
                } else {
                    AnomalyLabel::DosSingle
                },
                start_bin: 40 * (i + 1),
                duration: 1,
                flows: vec![(7 * i + 3) % 121],
                packets_per_cell: 3000.0,
                seed: i as u64,
            })
            .collect();
        let d = Dataset::generate(Topology::abilene(), config, events);
        let fitted = Diagnoser::new(crate::DiagnoserConfig {
            threshold_policy: crate::ThresholdPolicy::Empirical,
            ..Default::default()
        })
        .fit(&d)
        .unwrap();
        let report = fitted.diagnose(&d).unwrap();
        let t_entropy = report.thresholds.2;
        let entropy_alarms: Vec<&Diagnosis> = report
            .diagnoses
            .iter()
            .filter(|d| d.methods.entropy)
            .collect();
        assert!(!entropy_alarms.is_empty());
        for diagnosis in entropy_alarms {
            assert!(!diagnosis.flows.is_empty(), "bin {}", diagnosis.bin);
            for flow in &diagnosis.flows {
                assert!(
                    flow.spe_before > t_entropy,
                    "bin {}: flow {} blamed at SPE {} <= {t_entropy}",
                    diagnosis.bin,
                    flow.flow,
                    flow.spe_before
                );
            }
        }
    }

    #[test]
    fn bad_alpha_rejected_when_building_the_scorer() {
        let d = dataset_with_scan(3);
        let fitted = Diagnoser::default().fit(&d).unwrap();
        for bad in [0.0, 1.0, -1.0, 2.0, f64::NAN] {
            assert!(fitted.streaming(bad).is_err(), "alpha {bad} must fail");
        }
    }
}
