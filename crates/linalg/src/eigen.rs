//! Symmetric eigendecomposition.
//!
//! Two solvers are provided:
//!
//! * [`sym_eigen`] — the production full-spectrum path: blocked (panel-
//!   deferred, LAPACK `latrd`-style) Householder tridiagonalization, QL
//!   iteration on the tridiagonal matrix for the eigenvalues only, shifted
//!   tridiagonal inverse iteration for the eigenvectors, and a reflector
//!   back-transform — every hot loop running on the dispatched kernel tier
//!   ([`crate::kernel`]). Any quality-gate failure (inverse iteration is
//!   the one numerically delicate stage) falls back to the QL reference
//!   below, so robustness is never traded for speed.
//! * [`sym_eigen_ql`] — the classic dense path: unblocked Householder
//!   reduction followed by implicit-shift QL iteration with accumulated
//!   rotations (the `tred2`/`tqli` pair of Numerical Recipes, re-derived
//!   here). Retained as the executable spec: `sym_eigen` is
//!   tolerance-pinned against it in the proptest suites, and it is the
//!   fallback engine for inputs the fast path declines.
//!
//! Both operate on the sample covariance (or Gram) matrices produced by
//! [`Mat::covariance`](crate::Mat::covariance) and
//! [`Mat::gram`](crate::Mat::gram), which are symmetric positive
//! semi-definite by construction.

use crate::matrix::norm2;
use crate::{LinalgError, Mat};

/// Result of a symmetric eigendecomposition.
///
/// Eigenvalues are sorted in descending order; column `j` of [`vectors`]
/// is the unit-norm eigenvector for `values[j]`.
///
/// [`vectors`]: SymEigen::vectors
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, aligned with `values`.
    pub vectors: Mat,
}

/// Full eigendecomposition of a symmetric matrix — the production path,
/// and the "every vector" case of [`sym_eigen_leading`].
///
/// Below `TRIDIAG_MIN_N` rows this is exactly the QL reference
/// ([`sym_eigen_ql`]); above it, the core is the blocked tridiagonal
/// pipeline (panel-deferred Householder reduction, eigenvalue-only QL,
/// shifted inverse iteration, reflector back-transform) with a residual
/// quality gate on every computed eigenvector. Gate failures — which are
/// rare, inverse iteration being the one delicate stage — silently fall
/// back to the QL reference, so the result contract is identical on every
/// input. The input must be square and symmetric to within `1e-8` relative
/// to its largest entry.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::NotSymmetric`] on bad input.
/// * [`LinalgError::NoConvergence`] if the QL fallback itself needs more
///   than 50 sweeps for some eigenvalue (does not happen for PSD covariance
///   matrices in practice).
pub fn sym_eigen(a: &Mat) -> Result<SymEigen, LinalgError> {
    sym_eigen_leading(a, |values| values.len())
}

/// Every eigenvalue of a symmetric matrix, and the eigenvectors of the
/// leading `k` only: `vectors` comes back `n × k`, aligned with
/// `values[..k]`.
///
/// `k_of` picks `k` (clamped to `n`) from the complete descending
/// spectrum, which is known before the first vector is computed — so a
/// caller whose `k` depends on the spectrum (the PCA Gram engine stops at
/// the numerical rank) pays for exactly those. The pipeline is [`sym_eigen`]'s; only the inverse
/// iteration, the reflector back-transform and the final transpose run
/// over `k` rows instead of `n`. `k_of` runs a second time, on the QL
/// reference's eigenvalues, when the blocked pipeline declines an input.
///
/// # Errors
///
/// As for [`sym_eigen`].
pub fn sym_eigen_leading(
    a: &Mat,
    mut k_of: impl FnMut(&[f64]) -> usize,
) -> Result<SymEigen, LinalgError> {
    validate_symmetric(a)?;
    let n = a.rows();
    if n >= TRIDIAG_MIN_N {
        if let Some(result) = tridiag_eigen(a, &mut k_of) {
            return Ok(result);
        }
    }
    let mut full = ql_core(a)?;
    let k = k_of(&full.values).min(n);
    if k < n {
        full.vectors = full.vectors.select_cols(&(0..k).collect::<Vec<_>>());
    }
    Ok(full)
}

/// Full eigendecomposition by unblocked Householder reduction plus
/// implicit-shift QL with accumulated rotations — the executable spec.
///
/// This is the solver [`sym_eigen`] used to be; it is retained verbatim as
/// the reference the new tridiagonal pipeline is tolerance-pinned against
/// (proptests, threshold equivalence) and as its robustness fallback. Same
/// input contract and error behavior as [`sym_eigen`].
///
/// # Errors
///
/// As for [`sym_eigen`].
pub fn sym_eigen_ql(a: &Mat) -> Result<SymEigen, LinalgError> {
    validate_symmetric(a)?;
    ql_core(a)
}

/// Shared input validation for the full-spectrum solvers.
fn validate_symmetric(a: &Mat) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.rows() == 0 {
        return Err(LinalgError::Empty {
            what: "eigendecomposition of 0x0 matrix",
        });
    }
    // Scale the symmetry tolerance with the magnitude of the matrix.
    let scale = a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if !a.is_symmetric(1e-8 * scale.max(1.0)) {
        return Err(LinalgError::NotSymmetric);
    }
    Ok(())
}

/// The `tred2`/`tqli` engine behind both full solvers (input already
/// validated).
fn ql_core(a: &Mat) -> Result<SymEigen, LinalgError> {
    let n = a.rows();
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut z, &mut d, &mut e);
    tqli(&mut d, &mut e, &mut z)?;

    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("eigenvalues are finite"));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = z.select_cols(&order);
    Ok(SymEigen { values, vectors })
}

/// Householder reduction of a real symmetric matrix to tridiagonal form.
///
/// On return `z` holds the accumulated orthogonal transform `Q` (so that
/// `Q^T A Q` is tridiagonal), `d` the diagonal and `e` the sub-diagonal
/// (with `e[0] == 0`).
fn tred2(z: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let mut f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f += e[j] * z[(i, j)];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` holds the diagonal (eigenvalues on return), `e` the sub-diagonal
/// (destroyed), and `z` the transform accumulated so far (eigenvectors in
/// its columns on return).
fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find the first index m >= l where the sub-diagonal is
            // negligible, splitting the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tqli",
                    iterations: 50,
                });
            }
            // Wilkinson-style shift from the leading 2x2 block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Apply the rotation to the accumulated eigenvector matrix.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Below this order the blocked pipeline's panel machinery costs more than
/// it saves and [`sym_eigen`] routes straight to the QL core.
const TRIDIAG_MIN_N: usize = 32;

/// Householder panel width for the blocked tridiagonalization: rank-2
/// updates are deferred and applied to the trailing square `NB` reflectors
/// at a time, turning the update into long contiguous kernel `axpy`s.
const NB: usize = 32;

/// Rows of `z` that [`apply_q`] back-transforms per kernel call. A row's
/// low bits depend on whether it rides a full group or the remainder, so
/// [`tridiag_eigenvectors`] starts its block on a multiple of this: the
/// leading vectors then come out the same whatever `k` is.
const APPLY_ROWS: usize = 8;

/// The fast core: blocked Householder tridiagonalization, eigenvalue-only
/// QL, shifted inverse iteration for the leading `k_of(values)`
/// eigenvectors, and the reflector back-transform. Returns `None` whenever
/// any stage declines (QL non-convergence, an eigenvector failing its
/// residual gate), letting the caller fall back to the reference solver.
fn tridiag_eigen(a: &Mat, k_of: &mut dyn FnMut(&[f64]) -> usize) -> Option<SymEigen> {
    let n = a.rows();
    let (d, e, taus, vtails) = blocked_tridiag(a);

    let mut vals = d.clone();
    let mut off = e.clone();
    tql_values(&mut vals, &mut off).ok()?;
    if vals.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut vals_asc = vals;
    vals_asc.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
    let values: Vec<f64> = vals_asc.iter().rev().copied().collect();
    let k = k_of(&values).min(n);

    // `sub[i]` couples tridiagonal rows i and i+1.
    let sub: Vec<f64> = e[1..].to_vec();
    // The last row of `z` is the eigenvector for vals_asc[n-1], the one
    // above it for vals_asc[n-2], …: the row layout keeps every
    // inverse-iteration and back-transform access contiguous. Rows above
    // the leading `k` are alignment and cluster extras, dropped below.
    let mut z = tridiag_eigenvectors(&d, &sub, &vals_asc, k)?;
    apply_q(&taus, &vtails, &mut z);

    // Transpose rows-ascending into columns-descending, in 8×8 tiles so
    // both sides stay within a handful of cache lines per tile (the naive
    // column-major write pattern touches a fresh line per element).
    let mut vectors = Mat::zeros(n, k);
    {
        let zdata = z.as_slice();
        let vdata = vectors.as_mut_slice();
        const TB: usize = 8;
        for rb in (0..n).step_by(TB) {
            let rend = (rb + TB).min(n);
            for cb in (0..k).step_by(TB) {
                let cend = (cb + TB).min(k);
                for r in rb..rend {
                    let dst = &mut vdata[r * k..(r + 1) * k];
                    for c in cb..cend {
                        // Output column c holds the c-th row of z from
                        // the end: descending eigenvalue order.
                        dst[c] = zdata[(z.rows() - 1 - c) * n + r];
                    }
                }
            }
        }
    }
    Some(SymEigen { values, vectors })
}

/// Blocked (panel-deferred, LAPACK `latrd`-style) Householder reduction of
/// a symmetric matrix to tridiagonal form.
///
/// Returns the tridiagonal `(d, e)` (with `e[0] == 0` and `e[i]` coupling
/// rows `i-1, i`), plus the reflectors `H_c = I − τ_c v_c v_cᵀ`
/// (`taus[c]`, `vtails[c]` over rows `c+1..n`, leading entry 1) such that
/// `H_{n-2}ᵀ⋯H_0ᵀ · A · H_0⋯H_{n-2}` is tridiagonal.
///
/// Within a panel only the pivot *row* is brought up to date (a handful of
/// kernel `axpy`s); the O(n²)-per-panel rank-`2·NB` update of the trailing
/// square is applied once per panel as long contiguous `axpy`s, which is
/// where the blocking pays: the matvec-dominated inner loop reads the
/// trailing square exactly once per reflector and the bulk update streams
/// it once per panel instead of once per reflector.
fn blocked_tridiag(a: &Mat) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let n = a.rows();
    let mut t = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut taus = vec![0.0; n.saturating_sub(1)];
    let mut vtails: Vec<Vec<f64>> = Vec::with_capacity(n.saturating_sub(1));
    // Full-length panel workspaces: V/W columns are zero outside their
    // support, which keeps every slice below a plain contiguous range.
    let mut vbuf = vec![vec![0.0f64; n]; NB];
    let mut wbuf = vec![vec![0.0f64; n]; NB];

    let mut k0 = 0;
    while k0 + 1 < n {
        let nb_eff = NB.min(n - 1 - k0);
        for j in 0..nb_eff {
            let c = k0 + j;
            // Bring row c up to date with this panel's deferred updates:
            // row[c..] −= Σ_{p<j} (W_p[c]·V_p[c..] + V_p[c]·W_p[c..]).
            if j > 0 {
                let row = &mut t.row_mut(c)[c..];
                let mut coeffs = [0.0f64; 2 * NB];
                let mut srcs: Vec<&[f64]> = Vec::with_capacity(2 * j);
                for p in 0..j {
                    coeffs[2 * p] = -wbuf[p][c];
                    coeffs[2 * p + 1] = -vbuf[p][c];
                    srcs.push(&vbuf[p][c..]);
                    srcs.push(&wbuf[p][c..]);
                }
                crate::kernel::axpy_multi_fused(row, &coeffs[..2 * j], &srcs);
            }
            d[c] = t[(c, c)];

            // Reflector from the (now current) off-diagonal row part; the
            // normalized v overwrites it in place.
            let (tau, beta) = make_reflector(&mut t.row_mut(c)[c + 1..]);
            e[c + 1] = beta;
            taus[c] = tau;
            vbuf[j].fill(0.0);
            wbuf[j].fill(0.0);
            if tau != 0.0 {
                vbuf[j][c + 1..].copy_from_slice(&t.row(c)[c + 1..]);
            }
            vtails.push(vbuf[j][c + 1..].to_vec());

            if tau == 0.0 {
                // H is the identity: zero V/W columns keep the panel
                // algebra uniform with nothing to subtract.
                continue;
            }

            // w = τ·(A_panel·v) − ½τ·(wᵀv)·v, where A_panel·v corrects the
            // panel-start trailing square with the deferred V/W terms.
            let mut w = std::mem::take(&mut wbuf[j]);
            {
                let v = &vbuf[j];
                // Symmetric matvec reading only the upper triangle of the
                // trailing square (half the memory traffic of full rows):
                // row r contributes dot(t[r, r..], v[r..]) to w[r] and,
                // by symmetry, v[r]·t[r, r+1..] to w[r+1..] — both from
                // one fused pass, so the trailing square (far bigger than
                // cache) streams through once per reflector, not twice.
                for r in c + 1..n {
                    let row = t.row(r);
                    let (wr, wrest) = w.split_at_mut(r + 1);
                    let off = crate::kernel::symv_fused(&row[r + 1..], &v[r + 1..], wrest, v[r]);
                    wr[r] += row[r] * v[r] + off;
                }
                // w −= (Wᵀv)·V + (Vᵀv)·W over the deferred columns. Every
                // dot is against the same constant `v`, so they batch four
                // at a time; the subtractions then land in one pass.
                if j > 0 {
                    let mut coeffs = [0.0f64; 2 * NB];
                    let mut p = 0;
                    while p + 2 <= j {
                        let d4 = crate::kernel::dot4_fused_x4(
                            [
                                &wbuf[p][c + 1..],
                                &vbuf[p][c + 1..],
                                &wbuf[p + 1][c + 1..],
                                &vbuf[p + 1][c + 1..],
                            ],
                            &v[c + 1..],
                        );
                        for (slot, dot) in coeffs[2 * p..2 * p + 4].iter_mut().zip(d4) {
                            *slot = -dot;
                        }
                        p += 2;
                    }
                    if p < j {
                        coeffs[2 * p] = -crate::kernel::dot4_fused(&wbuf[p][c + 1..], &v[c + 1..]);
                        coeffs[2 * p + 1] =
                            -crate::kernel::dot4_fused(&vbuf[p][c + 1..], &v[c + 1..]);
                    }
                    let mut srcs: Vec<&[f64]> = Vec::with_capacity(2 * j);
                    for p in 0..j {
                        srcs.push(&vbuf[p][c + 1..]);
                        srcs.push(&wbuf[p][c + 1..]);
                    }
                    crate::kernel::axpy_multi_fused(&mut w[c + 1..], &coeffs[..2 * j], &srcs);
                }
                for x in &mut w[c + 1..] {
                    *x *= tau;
                }
                let wv = crate::kernel::dot4_fused(&w[c + 1..], &v[c + 1..]);
                crate::kernel::axpy_fused(&mut w[c + 1..], -0.5 * tau * wv, &v[c + 1..]);
            }
            wbuf[j] = w;
        }

        // Deferred rank-2·NB update of the trailing square (both triangles,
        // keeping the full symmetric storage consistent for the next
        // panel's row reads and matvecs). Every V/W column of the panel is
        // folded into each output row in a single pass (four rows at a
        // time), so each row of T is loaded and stored exactly once per
        // panel instead of once per reflector.
        let s = k0 + nb_eff;
        {
            let active: Vec<usize> = (0..nb_eff).filter(|&p| taus[k0 + p] != 0.0).collect();
            let mut srcs: Vec<&[f64]> = Vec::with_capacity(2 * active.len());
            for &p in &active {
                srcs.push(&vbuf[p][s..]);
                srcs.push(&wbuf[p][s..]);
            }
            let nsrc = srcs.len();
            let data = t.as_mut_slice();
            let mut rows: Vec<&mut [f64]> = data[s * n..].chunks_exact_mut(n).collect();
            let mut cbuf = [[0.0f64; 2 * NB]; 4];
            for (qi, quad) in rows.chunks_mut(4).enumerate() {
                let base = s + 4 * qi;
                if let [r0, r1, r2, r3] = quad {
                    // Coefficient layout mirrors `srcs`: v_p is scaled by
                    // −w_p[row] and w_p by −v_p[row].
                    for (i, row_c) in cbuf.iter_mut().enumerate() {
                        for (ai, &p) in active.iter().enumerate() {
                            row_c[2 * ai] = -wbuf[p][base + i];
                            row_c[2 * ai + 1] = -vbuf[p][base + i];
                        }
                    }
                    crate::kernel::axpy_multi_fused_x4(
                        [&mut r0[s..], &mut r1[s..], &mut r2[s..], &mut r3[s..]],
                        [
                            &cbuf[0][..nsrc],
                            &cbuf[1][..nsrc],
                            &cbuf[2][..nsrc],
                            &cbuf[3][..nsrc],
                        ],
                        &srcs,
                    );
                } else {
                    for (i, row) in quad.iter_mut().enumerate() {
                        let r = base + i;
                        let row = &mut row[s..];
                        for p in 0..nb_eff {
                            let vp_r = vbuf[p][r];
                            let wp_r = wbuf[p][r];
                            if wp_r != 0.0 {
                                crate::kernel::axpy_fused(row, -wp_r, &vbuf[p][s..]);
                            }
                            if vp_r != 0.0 {
                                crate::kernel::axpy_fused(row, -vp_r, &wbuf[p][s..]);
                            }
                        }
                    }
                }
            }
        }
        k0 = s;
    }
    if n > 0 {
        d[n - 1] = t[(n - 1, n - 1)];
    }
    (d, e, taus, vtails)
}

/// Generates an elementary reflector `H = I − τ v vᵀ` (LAPACK `dlarfg`
/// convention) annihilating `x[1..]`: on return `x` holds `v` with
/// `v[0] == 1`, and `H·x_original = (β, 0, …)ᵀ`. A zero tail returns
/// `τ = 0` (identity) with `β = x[0]` and `x` untouched.
fn make_reflector(x: &mut [f64]) -> (f64, f64) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let alpha = x[0];
    let tail_norm = norm2(&x[1..]);
    if tail_norm == 0.0 {
        return (0.0, alpha);
    }
    // β gets the sign opposite to α so v[0] = α − β never cancels.
    let beta = -alpha.signum() * alpha.hypot(tail_norm);
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in &mut x[1..] {
        *v *= scale;
    }
    x[0] = 1.0;
    (tau, beta)
}

/// `√(a² + b²)` without the libm `hypot` call that dominates the rotation
/// loop's cost. Squares of entries beyond ~1e154 overflow to infinity; the
/// caller's finiteness gate then routes the whole input to the QL
/// fallback, so the fast form is safe here (unlike in [`tqli`], which
/// keeps `hypot` because it *is* the fallback).
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    (a * a + b * b).sqrt()
}

/// Implicit-shift QL for the *eigenvalues only* of a symmetric tridiagonal
/// matrix: [`tqli`] minus the accumulated rotations, making it O(n²)
/// total. `d` is the diagonal (eigenvalues on return, unordered), `e` the
/// sub-diagonal with `e[0] == 0` (destroyed).
fn tql_values(d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tql_values",
                    iterations: 50,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                // One divide per rotation instead of two; the divide is on
                // the loop's critical path, so this is measurable.
                let inv_r = 1.0 / r;
                s = f * inv_r;
                c = g * inv_r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// LU factorization of a shifted symmetric tridiagonal matrix `T − σI`
/// with partial pivoting (row swaps introduce a second superdiagonal).
/// Zero pivots are replaced by a tiny floor so inverse iteration sees the
/// enormous solution growth it wants instead of a division by zero.
struct TridiagLu {
    /// Reciprocal of the main diagonal of U (the diagonal is floored away
    /// from zero, so the reciprocal is always finite). Stored inverted
    /// because the back-substitution divides by `u0` once per row per
    /// sweep, and a multiply is an order of magnitude cheaper than a
    /// divide on that critical path.
    inv_u0: Vec<f64>,
    /// First superdiagonal of U.
    u1: Vec<f64>,
    /// Second superdiagonal of U (nonzero only where rows were swapped).
    u2: Vec<f64>,
    /// Elimination multipliers.
    l: Vec<f64>,
    /// Whether rows `i` and `i+1` were swapped at step `i`.
    swap: Vec<bool>,
}

impl TridiagLu {
    /// Factors `T − σI` for the tridiagonal `(d, sub)` (`sub[i]` couples
    /// rows `i` and `i+1`).
    fn factor(d: &[f64], sub: &[f64], sigma: f64, pivot_floor: f64) -> TridiagLu {
        let n = d.len();
        // Floors a pivot's magnitude (preserving sign; +0.0 floors
        // positive) so the stored reciprocal stays finite and bounded.
        let floor_pivot = |p: f64| {
            if p.abs() < pivot_floor {
                pivot_floor.copysign(p)
            } else {
                p
            }
        };
        let mut inv_u0 = vec![0.0; n];
        let mut u1 = vec![0.0; n];
        let mut u2 = vec![0.0; n];
        let mut l = vec![0.0; n];
        let mut swap = vec![false; n];
        // Working row i spans columns (i, i+1, i+2).
        let mut w0 = d[0] - sigma;
        let mut w1 = if n > 1 { sub[0] } else { 0.0 };
        let mut w2 = 0.0;
        for i in 0..n.saturating_sub(1) {
            // Pristine row i+1 over the same columns.
            let b0 = sub[i];
            let b1 = d[i + 1] - sigma;
            let b2 = if i + 1 < n - 1 { sub[i + 1] } else { 0.0 };
            // One divide per row: the elimination multiplier reuses the
            // pivot reciprocal (the divide sits on the sequential
            // elimination chain, so halving them shortens the factor's
            // critical path).
            let (inv, r1, r2);
            if b0.abs() > w0.abs() {
                swap[i] = true;
                inv = 1.0 / floor_pivot(b0);
                u1[i] = b1;
                u2[i] = b2;
                l[i] = w0 * inv;
                r1 = w1;
                r2 = w2;
            } else {
                inv = 1.0 / floor_pivot(w0);
                u1[i] = w1;
                u2[i] = w2;
                l[i] = b0 * inv;
                r1 = b1;
                r2 = b2;
            }
            inv_u0[i] = inv;
            w0 = r1 - l[i] * u1[i];
            w1 = r2 - l[i] * u2[i];
            w2 = 0.0;
        }
        inv_u0[n - 1] = 1.0 / floor_pivot(w0);
        TridiagLu {
            inv_u0,
            u1,
            u2,
            l,
            swap,
        }
    }

    /// Solves `(T − σI)·x = b`.
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y = b.to_vec();
        for i in 0..n.saturating_sub(1) {
            if self.swap[i] {
                y.swap(i, i + 1);
            }
            y[i + 1] -= self.l[i] * y[i];
        }
        for i in (0..n).rev() {
            let mut v = y[i];
            if i + 1 < n {
                v -= self.u1[i] * y[i + 1];
            }
            if i + 2 < n {
                v -= self.u2[i] * y[i + 2];
            }
            y[i] = v * self.inv_u0[i];
        }
        y
    }
}

/// `‖T x − λ x‖₂` for the tridiagonal `(d, sub)`.
fn tridiag_residual(d: &[f64], sub: &[f64], lambda: f64, x: &[f64]) -> f64 {
    let n = d.len();
    let mut acc = 0.0;
    for i in 0..n {
        let mut r = (d[i] - lambda) * x[i];
        if i > 0 {
            r += sub[i - 1] * x[i - 1];
        }
        if i + 1 < n {
            r += sub[i] * x[i + 1];
        }
        acc += r * r;
    }
    acc.sqrt()
}

/// Deterministic pseudo-random unit-free start vector for inverse
/// iteration (xorshift64*; no global RNG state, so results are
/// reproducible across runs and restarts just vary the seed).
fn seed_vector(n: usize, seed: usize) -> Vec<f64> {
    let mut state = (seed as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03)
        | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Eigenvectors of a symmetric tridiagonal matrix by shifted inverse
/// iteration, for the largest `k` of its eigenvalues (given complete, in
/// ascending order). Returns the vectors as the trailing `k` *rows* of a
/// matrix of row length `n` (same order) — the row layout keeps every
/// Gram–Schmidt and back-transform access contiguous — or `None` if any
/// vector fails its growth or residual gate, in which case the caller
/// falls back to the QL reference.
///
/// Eigenvalues within `10⁻⁷·‖T‖` of each other are treated as clustered:
/// their shifts are spread a couple of ulps apart and each vector is
/// Gram–Schmidt orthogonalized against the previously accepted vectors
/// whose eigenvalues sit inside that window (for genuinely repeated
/// eigenvalues any orthonormal basis of the invariant subspace is
/// correct). Any pair *not* explicitly orthogonalized is separated by a
/// gap of at least the window tolerance, so its inverse-iteration cross-
/// contamination is ≤ ε·‖T‖/gap ≈ 2·10⁻⁹ — inside the 10⁻⁸
/// orthonormality pin. Two things keep this stage from degenerating into
/// an O(n·n²) Gram–Schmidt on smoothly decaying spectra (traffic
/// covariances: consecutive tail gaps tiny, tail span wide): the window
/// is anchored at the *current* eigenvalue rather than transitively
/// chained (the pairwise guarantee never needed the chain), and the
/// projections run four basis rows at a time through the fused
/// multi-source kernels. Each accepted vector must pass
/// `‖T x − λ x‖ ≤ window_span + 10⁻¹⁰·‖T‖`.
///
/// The iteration starts at the head of the window of the `k`-th largest
/// eigenvalue, not at the eigenvalue itself: which basis a cluster's
/// invariant subspace gets depends on where in the cluster the
/// orthogonalization starts, and starting where a full solve's window
/// does keeps the leading `k` vectors the full solve's when the cut falls
/// inside a repeated eigenvalue. Those extra rows, and zero rows padding
/// the block's start down to a multiple of [`APPLY_ROWS`], sit above the
/// leading `k` in the returned matrix.
fn tridiag_eigenvectors(d: &[f64], sub: &[f64], vals_asc: &[f64], k: usize) -> Option<Mat> {
    let n = d.len();
    if k == 0 {
        return Some(Mat::zeros(0, n));
    }
    let mut norm_t = 0.0f64;
    for i in 0..n {
        let mut row = d[i].abs();
        if i > 0 {
            row += sub[i - 1].abs();
        }
        if i + 1 < n {
            row += sub[i].abs();
        }
        norm_t = norm_t.max(row);
    }
    let cluster_tol = 1e-7 * norm_t;
    let mut first = n - k;
    while first > 0 && vals_asc[n - k] - vals_asc[first - 1] <= cluster_tol {
        first -= 1;
    }
    // Row `idx - base` of `z` holds the vector of vals_asc[idx].
    let base = first - first % APPLY_ROWS;
    if norm_t == 0.0 {
        return Some(Mat::from_fn(n - base, n, |r, c| f64::from(r + base == c)));
    }

    let eps = f64::EPSILON;
    let pert = 2.0 * eps * norm_t;
    // A normalized RHS must blow up to at least this norm for the solve to
    // count as having hit the eigenvalue.
    let growth_floor = 0.01 / ((n as f64).sqrt() * eps * norm_t);
    let pivot_floor = eps * norm_t;

    let mut z = Mat::zeros(n - base, n);
    let mut prev_shift = f64::NEG_INFINITY;
    for idx in first..n {
        let lambda = vals_asc[idx];
        // Previously accepted vectors whose eigenvalues are within the
        // cluster window of this one (vals_asc ascending, so a suffix).
        let mut win_start = idx;
        while win_start > first && lambda - vals_asc[win_start - 1] <= cluster_tol {
            win_start -= 1;
        }
        let mut shift = lambda;
        if idx > win_start {
            // Identical shifts would reproduce the same solution; spread
            // them by a couple of ulps of the matrix norm.
            shift = shift.max(prev_shift + pert);
        }
        prev_shift = shift;
        let lu = TridiagLu::factor(d, sub, shift, pivot_floor);

        let mut accepted: Option<Vec<f64>> = None;
        'attempts: for attempt in 0..5usize {
            let b = seed_vector(n, idx + 1 + 131 * attempt);
            let nb = norm2(&b);
            if nb == 0.0 {
                continue;
            }
            let mut x: Vec<f64> = b.iter().map(|v| v / nb).collect();
            let mut grew = false;
            for _sweep in 0..3usize {
                let y = lu.solve(&x);
                let ny = norm2(&y);
                if !ny.is_finite() || ny == 0.0 {
                    continue 'attempts;
                }
                x = y.iter().map(|v| v / ny).collect();
                if ny >= growth_floor {
                    grew = true;
                    break;
                }
            }
            if !grew {
                continue;
            }
            // Orthogonalize within the window, four basis rows per pass
            // (the rows are orthonormal, so the four projections are
            // independent and one joint subtraction equals the one-row-
            // at-a-time form to round-off); a collapse means this start
            // vector pointed along an already-claimed direction.
            let mut j = win_start;
            while j + 4 <= idx {
                let at = j - base;
                let rows = [z.row(at), z.row(at + 1), z.row(at + 2), z.row(at + 3)];
                let p = crate::kernel::dot4_fused_x4(rows, &x);
                crate::kernel::axpy_multi_fused(&mut x, &[-p[0], -p[1], -p[2], -p[3]], &rows);
                j += 4;
            }
            for jr in j..idx {
                let prev = z.row(jr - base);
                let proj = crate::kernel::dot4_fused(&x, prev);
                crate::kernel::axpy_fused(&mut x, -proj, prev);
            }
            let nx = norm2(&x);
            if nx < 1e-2 {
                continue;
            }
            for v in &mut x {
                *v /= nx;
            }
            let span = vals_asc[idx] - vals_asc[win_start];
            if tridiag_residual(d, sub, lambda, &x) <= span + 1e-10 * norm_t {
                accepted = Some(x);
                break;
            }
        }
        z.row_mut(idx - base).copy_from_slice(&accepted?);
    }
    Some(z)
}

/// Applies the accumulated Householder transform `Q = H_0⋯H_{n-2}` to the
/// *rows* of `z` in place (`z ← z·Qᵀ`, i.e. each row `x` becomes `Q·x`),
/// turning tridiagonal eigenvectors into eigenvectors of the original
/// matrix.
///
/// Reflectors are consumed in compact-WY panels of [`NB`]: each panel's
/// product `H_hi⋯H_lo = I − V T Vᵀ` is accumulated once (`T` upper
/// triangular, O(NB²·n) — noise), and the panel is applied as
/// `z ← z − (z·V)·T·Vᵀ`, streaming `z` twice per *panel* instead of twice
/// per *reflector*. Same 2n³ flops as the one-at-a-time form, 1/NB of the
/// memory traffic — this stage is bandwidth-bound, so that is the whole
/// win.
fn apply_q(taus: &[f64], vtails: &[Vec<f64>], z: &mut Mat) {
    let n = z.cols();
    let nref = taus.len();
    let data = z.as_mut_slice();
    let mut rows: Vec<&mut [f64]> = data.chunks_exact_mut(n).collect();
    let mut hi = nref;
    while hi > 0 {
        let lo = hi.saturating_sub(NB);
        // Application order within the panel: c = hi-1 down to lo, so the
        // accumulated product is H_{hi-1}·…·H_lo.
        let cols: Vec<usize> = (lo..hi).rev().collect();
        let k = cols.len();
        // T is k×k upper triangular in application order: appending H_c
        // to a product P = I − V T Vᵀ extends T by the column
        // (−τ·T·(Vᵀv), τ).
        let mut t = vec![0.0f64; k * k];
        let mut svec = vec![0.0f64; k];
        for (a, &ca) in cols.iter().enumerate() {
            let tau_a = taus[ca];
            let va = &vtails[ca];
            if tau_a != 0.0 {
                for p in 0..a {
                    let cp = cols[p];
                    // Overlap of supports: rows cp+1.. (cp > ca).
                    svec[p] = crate::kernel::dot4_fused(&vtails[cp], &va[cp - ca..]);
                }
                // Column a of T: −τ_a·T·(Vᵀv_a) over the strict upper part.
                for p in 0..a {
                    let mut acc = 0.0;
                    for q in p..a {
                        acc += t[p * k + q] * svec[q];
                    }
                    t[p * k + a] = -tau_a * acc;
                }
            }
            t[a * k + a] = tau_a;
        }
        // Dense, zero-padded panel: row `a` holds reflector `cols[a]`
        // over the panel's uniform support `[lo+1, n)` (leading zeros
        // where the reflector starts later). Padding buys uniform slice
        // lengths, which is what lets the multi-source kernel below fold
        // the whole panel into each z row in a single pass; the few extra
        // multiplies against zeros are noise.
        let m = n - lo - 1;
        let mut vdense = vec![0.0f64; k * m];
        for (a, &ca) in cols.iter().enumerate() {
            if taus[ca] != 0.0 {
                vdense[a * m + (ca - lo)..(a + 1) * m].copy_from_slice(&vtails[ca]);
            }
        }
        let vrows: Vec<&[f64]> = vdense.chunks_exact(m).collect();
        // z ← z − (z·V)·T·Vᵀ, eight contiguous rows at a time so each
        // reflector column streams once per eight rows of z.
        for quad in rows.chunks_mut(APPLY_ROWS) {
            if let [r0, r1, r2, r3, r4, r5, r6, r7] = quad {
                let mut y8 = [[0.0f64; NB]; 8]; // per-row z·V panel images
                for (a, &ca) in cols.iter().enumerate() {
                    if taus[ca] != 0.0 {
                        let d = crate::kernel::dot4_fused_x8(
                            [
                                &r0[lo + 1..],
                                &r1[lo + 1..],
                                &r2[lo + 1..],
                                &r3[lo + 1..],
                                &r4[lo + 1..],
                                &r5[lo + 1..],
                                &r6[lo + 1..],
                                &r7[lo + 1..],
                            ],
                            vrows[a],
                        );
                        for i in 0..8 {
                            y8[i][a] = d[i];
                        }
                    }
                }
                // m = −(y·T) per row (negated so the values feed the
                // accumulation kernel directly), accumulated row-of-T at
                // a time: `t[q*k + q..]` is contiguous, the per-`a`
                // accumulators are independent (no add-latency chain),
                // and the compiler vectorizes the inner loop.
                let mut m8 = [[0.0f64; NB]; 8];
                for i in 0..8 {
                    for q in 0..k {
                        let yq = y8[i][q];
                        if yq != 0.0 {
                            let trow = &t[q * k + q..q * k + k];
                            for (slot, &tv) in m8[i][q..k].iter_mut().zip(trow) {
                                *slot -= yq * tv;
                            }
                        }
                    }
                }
                crate::kernel::axpy_multi_fused_x4(
                    [
                        &mut r0[lo + 1..],
                        &mut r1[lo + 1..],
                        &mut r2[lo + 1..],
                        &mut r3[lo + 1..],
                    ],
                    [&m8[0][..k], &m8[1][..k], &m8[2][..k], &m8[3][..k]],
                    &vrows,
                );
                crate::kernel::axpy_multi_fused_x4(
                    [
                        &mut r4[lo + 1..],
                        &mut r5[lo + 1..],
                        &mut r6[lo + 1..],
                        &mut r7[lo + 1..],
                    ],
                    [&m8[4][..k], &m8[5][..k], &m8[6][..k], &m8[7][..k]],
                    &vrows,
                );
            } else {
                for row in quad.iter_mut() {
                    let mut y = [0.0f64; NB];
                    for (a, &ca) in cols.iter().enumerate() {
                        if taus[ca] != 0.0 {
                            y[a] = crate::kernel::dot4_fused(&row[ca + 1..], &vtails[ca]);
                        }
                    }
                    let mut m = [0.0f64; NB];
                    for q in 0..k {
                        let yq = y[q];
                        if yq != 0.0 {
                            let trow = &t[q * k + q..q * k + k];
                            for (slot, &tv) in m[q..k].iter_mut().zip(trow) {
                                *slot += yq * tv;
                            }
                        }
                    }
                    for (a, &ca) in cols.iter().enumerate() {
                        if m[a] != 0.0 {
                            crate::kernel::axpy_fused(&mut row[ca + 1..], -m[a], &vtails[ca]);
                        }
                    }
                }
            }
        }
        hi = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Mat::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        assert_close(e.values[0], 3.0, 1e-12);
        assert_close(e.values[1], 2.0, 1e-12);
        assert_close(e.values[2], 1.0, 1e-12);
    }

    #[test]
    fn eigen_of_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2, (1,-1)/sqrt2.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        assert_close(e.values[0], 3.0, 1e-12);
        assert_close(e.values[1], 1.0, 1e-12);
        let v0 = e.vectors.col(0);
        assert_close(v0[0].abs(), 1.0 / 2f64.sqrt(), 1e-10);
        assert_close(v0[1].abs(), 1.0 / 2f64.sqrt(), 1e-10);
        assert_close(v0[0] * v0[1], 0.5, 1e-10); // same sign
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        // A = V diag(values) V^T must reproduce the input.
        let a = Mat::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 2.0, 0.3],
            &[0.0, 0.1, 0.3, 1.0],
        ]);
        let e = sym_eigen(&a).unwrap();
        let n = 4;
        let mut lam = Mat::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let recon = e
            .vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(recon.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Mat::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Mat::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn eigen_rejects_bad_input() {
        assert!(matches!(
            sym_eigen(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let asym = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(matches!(sym_eigen(&asym), Err(LinalgError::NotSymmetric)));
        assert!(sym_eigen(&Mat::zeros(0, 0)).is_err());
    }

    #[test]
    fn eigen_of_1x1() {
        let a = Mat::from_rows(&[&[7.0]]);
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values, vec![7.0]);
        assert_close(e.vectors[(0, 0)].abs(), 1.0, 1e-15);
    }

    #[test]
    fn eigen_handles_zero_matrix() {
        let e = sym_eigen(&Mat::zeros(3, 3)).unwrap();
        assert!(e.values.iter().all(|&v| v.abs() < 1e-15));
        // Eigenvectors still orthonormal.
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Mat::identity(3)).unwrap() < 1e-12);
    }

    #[test]
    fn eigen_with_repeated_eigenvalues() {
        // 2*I has eigenvalue 2 with multiplicity 3.
        let mut a = Mat::identity(3);
        a.scale(2.0);
        let e = sym_eigen(&a).unwrap();
        for v in &e.values {
            assert_close(*v, 2.0, 1e-12);
        }
    }

    #[test]
    fn large_random_psd_eigen_properties() {
        // 60x60 PSD matrix: all eigenvalues >= 0, trace preserved.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 60;
        let b = Mat::from_fn(n, 30, |_, _| rng.random::<f64>() - 0.5);
        let a = b.matmul(&b.transpose()).unwrap();
        let e = sym_eigen(&a).unwrap();
        for v in &e.values {
            assert!(*v > -1e-9, "PSD matrix produced negative eigenvalue {v}");
        }
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        assert_close(e.values.iter().sum(), trace, 1e-8 * trace.abs().max(1.0));
        // Rank is at most 30, so eigenvalues past 30 are ~0.
        for v in &e.values[30..] {
            assert!(v.abs() < 1e-8);
        }
    }
}
