//! Multi-attribute anomaly identification (paper §4.2).
//!
//! Detection says *when*; identification says *which OD flow(s)*. The
//! paper models the anomalous state vector as `h = h* + θ_k f_k`, where the
//! binary matrix `θ_k` selects the four feature columns of flow `k` and
//! `f_k` is the entropy displacement the anomaly caused. The flow blamed is
//!
//! ```text
//! ℓ = argmin_k  min_{f_k} || h - θ_k f_k ||
//! ```
//!
//! and the method is re-applied "recursively until the resulting state
//! vector is below the detection threshold" — catching anomalies that span
//! multiple OD flows.
//!
//! # How the math reduces
//!
//! Working in the residual subspace (residual `r = C̃ h`, `C̃ = I - P Pᵀ`):
//! removing hypothesis `θ_k f` changes the residual to `r - C̃ θ_k f`, so
//! the best `f` solves the 4x4 normal equations `G f = b` with
//!
//! * `b = (C̃ θ_k)ᵀ r = θ_kᵀ r` (because `Pᵀ r = 0`): simply the residual
//!   at flow `k`'s four columns;
//! * `G = θ_kᵀ C̃ θ_k = I₄ - P_k P_kᵀ`, where `P_k` is the 4 x m block of
//!   the principal-axis matrix at those rows (using `Pᵀ P = I`).
//!
//! The SPE drop achieved by blaming flow `k` is `bᵀ f`. This makes each
//! identification round `O(p · m)` instead of `O(p · (4p) · m)`.

use crate::SubspaceError;
use entromine_linalg::{solve_regularized, Mat};

/// One identified flow: its index, the fitted 4-feature entropy
/// displacement, and how much of the squared residual it explained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowContribution {
    /// The blamed OD flow (dense index).
    pub flow: usize,
    /// Fitted displacement `f_k` in normalized entropy units,
    /// `[srcIP, srcPort, dstIP, dstPort]` order.
    pub f: [f64; 4],
    /// Squared residual norm before this flow was removed.
    pub spe_before: f64,
    /// Drop in squared residual achieved by removing this flow.
    pub spe_drop: f64,
}

/// Ridge added to the 4x4 normal equations; guards against flows whose
/// feature columns lie (numerically) inside the normal subspace.
const RIDGE: f64 = 1e-12;

/// Greedy multi-flow identification over a residual vector.
///
/// * `residual` — `r = C̃ h`, length `4p`.
/// * `components` — the principal-axis matrix (columns are axes; a fit
///   carries the leading `m`, which is all this reads).
/// * `m` — normal subspace dimension (first `m` columns of `components`).
/// * `threshold` — stop once the remaining SPE is at or below this.
/// * `max_flows` — hard cap on the recursion (guards pathological inputs).
pub(crate) fn identify_greedy(
    residual: &[f64],
    components: &Mat,
    m: usize,
    n_flows: usize,
    threshold: f64,
    max_flows: usize,
) -> Result<Vec<FlowContribution>, SubspaceError> {
    if residual.len() != 4 * n_flows {
        return Err(SubspaceError::BadInput("residual length must be 4p"));
    }
    let mut r = residual.to_vec();
    let mut out = Vec::new();
    let mut spe: f64 = r.iter().map(|v| v * v).sum();

    while spe > threshold && out.len() < max_flows {
        // Score every not-yet-blamed flow.
        let mut best: Option<(usize, [f64; 4], f64)> = None;
        for flow in 0..n_flows {
            if out.iter().any(|c: &FlowContribution| c.flow == flow) {
                continue;
            }
            let cols = flow_columns(flow, n_flows);
            let b = [r[cols[0]], r[cols[1]], r[cols[2]], r[cols[3]]];
            let g = normal_equations(components, m, &cols);
            let f = match solve_regularized(&g, &b, RIDGE) {
                Ok(f) => f,
                Err(_) => continue, // degenerate flow; skip
            };
            let drop: f64 = b.iter().zip(&f).map(|(bi, fi)| bi * fi).sum();
            if drop <= 0.0 {
                continue;
            }
            if best.is_none_or(|(_, _, d)| drop > d) {
                best = Some((flow, [f[0], f[1], f[2], f[3]], drop));
            }
        }
        let Some((flow, f, drop)) = best else {
            break; // nothing explains any residual — stop rather than loop
        };

        out.push(FlowContribution {
            flow,
            f,
            spe_before: spe,
            spe_drop: drop,
        });

        // r <- r - C̃ θ_k f  =  r - θ_k f + P (P_kᵀ f).
        let cols = flow_columns(flow, n_flows);
        for (j, &col) in cols.iter().enumerate() {
            r[col] -= f[j];
        }
        // pkt_f = P_kᵀ f  (m-vector).
        let mut pkt_f = vec![0.0; m];
        for (j, &col) in cols.iter().enumerate() {
            for (i, slot) in pkt_f.iter_mut().enumerate() {
                *slot += components[(col, i)] * f[j];
            }
        }
        // r += P · pkt_f.
        for row in 0..r.len() {
            let mut acc = 0.0;
            for (i, &pf) in pkt_f.iter().enumerate() {
                acc += components[(row, i)] * pf;
            }
            r[row] += acc;
        }
        spe = r.iter().map(|v| v * v).sum();
    }
    Ok(out)
}

/// The four unfolded column indices of a flow.
fn flow_columns(flow: usize, n_flows: usize) -> [usize; 4] {
    [flow, n_flows + flow, 2 * n_flows + flow, 3 * n_flows + flow]
}

/// `G = I₄ - P_k P_kᵀ` for the four rows `cols` of the axis matrix.
fn normal_equations(components: &Mat, m: usize, cols: &[usize; 4]) -> Mat {
    let mut g = Mat::identity(4);
    for a in 0..4 {
        for b in 0..4 {
            let mut dot = 0.0;
            for i in 0..m {
                dot += components[(cols[a], i)] * components[(cols[b], i)];
            }
            g[(a, b)] -= dot;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DimSelection, SubspaceModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a model over correlated data and returns (model, clean row).
    fn fitted_model(p: usize, seed: u64) -> (SubspaceModel, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4 * p;
        let t = 400;
        let gains: Vec<f64> = (0..n).map(|_| 1.0 + rng.random::<f64>()).collect();
        let x = Mat::from_fn(t, n, |i, j| {
            let phase = i as f64 / 100.0 * std::f64::consts::TAU;
            gains[j] * (5.0 + phase.sin()) + 0.05 * (rng.random::<f64>() - 0.5)
        });
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        (model, x.row(17).to_vec())
    }

    #[test]
    fn injected_flow_is_identified() {
        let p = 9;
        let (model, mut row) = fitted_model(p, 1);
        // Displace flow 3 across its four features.
        let cols = flow_columns(3, p);
        for (j, &c) in cols.iter().enumerate() {
            row[c] += [2.0, -1.5, 1.0, 2.5][j];
        }
        let residual = model.residual(&row).unwrap();
        let found = identify_greedy(
            &residual,
            model.pca().components(),
            model.normal_dim(),
            p,
            model.threshold(0.999).unwrap(),
            4,
        )
        .unwrap();
        assert!(!found.is_empty());
        assert_eq!(found[0].flow, 3);
        assert!(found[0].spe_drop > 0.0);
        assert!(found[0].spe_before >= found[0].spe_drop);
    }

    #[test]
    fn two_colluding_flows_both_identified() {
        let p = 9;
        let (model, mut row) = fitted_model(p, 2);
        for flow in [2usize, 6] {
            let cols = flow_columns(flow, p);
            for &c in &cols {
                row[c] += 2.0;
            }
        }
        let residual = model.residual(&row).unwrap();
        let found = identify_greedy(
            &residual,
            model.pca().components(),
            model.normal_dim(),
            p,
            model.threshold(0.999).unwrap(),
            5,
        )
        .unwrap();
        let flows: Vec<usize> = found.iter().map(|c| c.flow).collect();
        assert!(flows.contains(&2), "flows blamed: {flows:?}");
        assert!(flows.contains(&6), "flows blamed: {flows:?}");
    }

    #[test]
    fn clean_row_identifies_nothing() {
        let p = 6;
        let (model, row) = fitted_model(p, 3);
        let residual = model.residual(&row).unwrap();
        let found = identify_greedy(
            &residual,
            model.pca().components(),
            model.normal_dim(),
            p,
            model.threshold(0.995).unwrap(),
            4,
        )
        .unwrap();
        assert!(found.is_empty(), "clean row blamed flows: {found:?}");
    }

    #[test]
    fn recursion_respects_max_flows() {
        let p = 8;
        let (model, mut row) = fitted_model(p, 4);
        for flow in 0..p {
            let cols = flow_columns(flow, p);
            for &c in &cols {
                row[c] += 3.0;
            }
        }
        let residual = model.residual(&row).unwrap();
        let found = identify_greedy(
            &residual,
            model.pca().components(),
            model.normal_dim(),
            p,
            0.0, // impossible threshold: only max_flows stops it
            3,
        )
        .unwrap();
        assert_eq!(found.len(), 3);
        // Each round must strictly reduce the SPE.
        for w in found.windows(2) {
            assert!(w[1].spe_before < w[0].spe_before);
        }
    }

    #[test]
    fn residual_length_validated() {
        let p = 4;
        let (model, _) = fitted_model(p, 5);
        let bad = vec![0.0; 7];
        assert!(identify_greedy(
            &bad,
            model.pca().components(),
            model.normal_dim(),
            p,
            0.1,
            2
        )
        .is_err());
    }

    #[test]
    fn normal_equations_match_brute_force() {
        let p = 5;
        let (model, _) = fitted_model(p, 6);
        let comp = model.pca().components();
        let m = model.normal_dim();
        let n = 4 * p;
        let cols = flow_columns(2, p);

        // Brute force: build C = I - P Pᵀ and compute θᵀ C θ.
        let mut c = Mat::identity(n);
        for i in 0..n {
            for j in 0..n {
                let mut dot = 0.0;
                for k in 0..m {
                    dot += comp[(i, k)] * comp[(j, k)];
                }
                c[(i, j)] -= dot;
            }
        }
        let brute = Mat::from_fn(4, 4, |a, b| c[(cols[a], cols[b])]);
        let fast = normal_equations(comp, m, &cols);
        assert!(brute.max_abs_diff(&fast).unwrap() < 1e-10);
    }
}
