//! The (multiway) subspace method for network-wide anomaly detection.
//!
//! This crate implements §4.1–4.2 of the paper:
//!
//! * [`SubspaceModel`] — the single-way subspace method of Lakhina et al.
//!   (SIGCOMM 2004), originally from statistical process control: PCA over a
//!   `t x p` measurement matrix splits each observation into a component in
//!   the low-dimensional **normal subspace** (typical variation shared by
//!   the ensemble of OD flows) and a **residual**; the squared residual norm
//!   (SPE) flags anomalies when it exceeds the **Q-statistic** threshold at
//!   confidence `1 - alpha` ([`q_statistic_threshold`], Jackson & Mudholkar
//!   1979).
//! * [`MultiwayModel`] — the paper's extension: the three-way entropy
//!   tensor `H(t, p, 4)` is unfolded into `t x 4p` (submatrices per feature
//!   normalized to unit energy so no feature dominates) and the subspace
//!   method is applied to the merged matrix, detecting correlated
//!   distributional changes across features *and* across OD flows.
//! * [`MultiwayModel::identify`] — multi-attribute identification: a greedy
//!   search for the OD flow(s) whose 4-feature contribution `θ_k f_k` best
//!   explains the residual displacement, recursing until the state drops
//!   below the detection threshold.
//!
//! The detector is deliberately split into a **fit phase** and a **score
//! phase**:
//!
//! * Fit once — from the training rows ([`SubspaceModel::fit_with`];
//!   [`MultiwayModel::fit_unfolded`] for raw unfolded entropy rows, which
//!   the tensor entry points delegate to).
//! * Score cheaply — all three detectors (bytes, packets, and the entropy
//!   model's [`MultiwayModel::inner`]) are [`SubspaceModel`]s serving rows
//!   in their caller's units through [`SubspaceModel::spe`],
//!   [`SubspaceModel::spe_batch`] and [`SubspaceModel::spe_t2_batch`]: one
//!   `O(n·m)` pass per row against a threshold computed once. Batch
//!   detection ([`SubspaceModel::detect`]) replays the same per-row
//!   arithmetic over stored rows, so the two modes cannot disagree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod error;
mod ident;
mod multiway;
mod qstat;

pub use detector::{Detection, SubspaceModel};
pub use error::SubspaceError;
pub use ident::FlowContribution;
pub use multiway::MultiwayModel;
pub use qstat::{
    empirical_quantile, empirical_sharpness, q_statistic_threshold, q_threshold_from_power_sums,
    EmpiricalSharpness, ThresholdPolicy,
};

/// Re-exports of the fit-engine selector and the normal-subspace
/// dimension choice threaded through every fit path.
pub use entromine_linalg::{DimSelection, FitStrategy};
