//! AVX2 (256-bit) kernel variants.
//!
//! Two tiers live here. [`axpy`]/[`dot4`]/[`dot4_tile`] are
//! bitwise-pinned to [`super::scalar`]: the scalar references round the
//! multiply and the add separately, so those kernels never contract —
//! every multiply-add is an explicit `_mm256_mul_pd` + `_mm256_add_pd`.
//! The `_fused` variants are the throughput tier: FMA-contracted,
//! tolerance-pinned only, reserved for callers (the blocked eigensolver)
//! whose own contracts are tolerance-based.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

/// `acc[i] += x * ys[i]`; lanes are independent elements so the result is
/// bitwise identical to the scalar reference.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 (runtime-detected by the
/// dispatcher) and that `acc.len() == ys.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn axpy(acc: &mut [f64], x: f64, ys: &[f64]) {
    let n = acc.len();
    let xv = _mm256_set1_pd(x);
    let chunks = n / 4;
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n, and f64 slices have no alignment
        // requirement for the unaligned load/store intrinsics.
        unsafe {
            let a = _mm256_loadu_pd(acc.as_ptr().add(4 * k));
            let y = _mm256_loadu_pd(ys.as_ptr().add(4 * k));
            let r = _mm256_add_pd(a, _mm256_mul_pd(xv, y));
            _mm256_storeu_pd(acc.as_mut_ptr().add(4 * k), r);
        }
    }
    for i in 4 * chunks..n {
        acc[i] += x * ys[i];
    }
}

/// [`axpy`] with FMA contraction — the throughput variant for
/// tolerance-pinned callers (the blocked eigensolver). One rounding per
/// element instead of two, so results differ from the scalar reference in
/// the last ulp; never use this behind a bitwise contract.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA (runtime-detected
/// by the dispatcher) and that `acc.len() == ys.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy_fused(acc: &mut [f64], x: f64, ys: &[f64]) {
    let n = acc.len();
    let xv = _mm256_set1_pd(x);
    let chunks = n / 4;
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n; unaligned load/store intrinsics carry no
        // alignment requirement.
        unsafe {
            let a = _mm256_loadu_pd(acc.as_ptr().add(4 * k));
            let y = _mm256_loadu_pd(ys.as_ptr().add(4 * k));
            _mm256_storeu_pd(acc.as_mut_ptr().add(4 * k), _mm256_fmadd_pd(xv, y, a));
        }
    }
    for i in 4 * chunks..n {
        acc[i] = x.mul_add(ys[i], acc[i]);
    }
}

/// [`dot4`] with FMA contraction and *eight* accumulator lanes — the
/// throughput variant for tolerance-pinned callers. Lane count and
/// contraction both change the rounding, so this is never bitwise against
/// the scalar reference; it is pinned by tolerance instead.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA (runtime-detected
/// by the dispatcher) and that `a.len() == b.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot4_fused(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let chunks = n / 8;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    for k in 0..chunks {
        // SAFETY: 8*k + 8 <= n; unaligned loads carry no alignment
        // requirement.
        unsafe {
            let a0 = _mm256_loadu_pd(a.as_ptr().add(8 * k));
            let b0 = _mm256_loadu_pd(b.as_ptr().add(8 * k));
            acc0 = _mm256_fmadd_pd(a0, b0, acc0);
            let a1 = _mm256_loadu_pd(a.as_ptr().add(8 * k + 4));
            let b1 = _mm256_loadu_pd(b.as_ptr().add(8 * k + 4));
            acc1 = _mm256_fmadd_pd(a1, b1, acc1);
        }
    }
    let sum = _mm256_add_pd(acc0, acc1);
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is 4 f64s; the unaligned store writes exactly 32 bytes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    let mut tail = 0.0f64;
    for i in 8 * chunks..n {
        tail = a[i].mul_add(b[i], tail);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Four simultaneous FMA dot products sharing one `b` stream: row `i` of
/// the result is `Σ a[i][j]·b[j]`. Streaming `b` once for four rows is
/// the point — it quarters both the call overhead and the `b` traffic of
/// four separate [`dot4_fused`] calls. Tolerance-pinned only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA and that all five
/// slices have equal length.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot4_fused_x4(a: [&[f64]; 4], b: &[f64]) -> [f64; 4] {
    let n = b.len();
    let chunks = n / 4;
    let mut acc = [_mm256_setzero_pd(); 4];
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n and every slice has length n.
        unsafe {
            let bv = _mm256_loadu_pd(b.as_ptr().add(4 * k));
            for i in 0..4 {
                let av = _mm256_loadu_pd(a[i].as_ptr().add(4 * k));
                acc[i] = _mm256_fmadd_pd(av, bv, acc[i]);
            }
        }
    }
    let mut out = [0.0f64; 4];
    for i in 0..4 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is 4 f64s; the store writes exactly 32 bytes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc[i]) };
        let mut tail = 0.0f64;
        for j in 4 * chunks..n {
            tail = a[i][j].mul_add(b[j], tail);
        }
        out[i] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
    }
    out
}

/// Eight simultaneous FMA dot products sharing one `b` stream — the
/// widest profitable tile: 8 accumulators + the shared `b` register still
/// fit the 16 `ymm` registers. Tolerance-pinned only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA and that all nine
/// slices have equal length.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot4_fused_x8(a: [&[f64]; 8], b: &[f64]) -> [f64; 8] {
    let n = b.len();
    let chunks = n / 4;
    let mut acc = [_mm256_setzero_pd(); 8];
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n and every slice has length n.
        unsafe {
            let bv = _mm256_loadu_pd(b.as_ptr().add(4 * k));
            for i in 0..8 {
                let av = _mm256_loadu_pd(a[i].as_ptr().add(4 * k));
                acc[i] = _mm256_fmadd_pd(av, bv, acc[i]);
            }
        }
    }
    let mut out = [0.0f64; 8];
    for i in 0..8 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is 4 f64s; the store writes exactly 32 bytes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc[i]) };
        let mut tail = 0.0f64;
        for j in 4 * chunks..n {
            tail = a[i][j].mul_add(b[j], tail);
        }
        out[i] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
    }
    out
}

/// Multi-source accumulation into four rows:
/// `rows[i][j] += Σ_p coeffs[i][p]·srcs[p][j]` in **one pass** over each
/// row — the per-source axpy form re-loads and re-stores the row once per
/// source, which makes rank-`k` updates store-port-bound. Eight
/// accumulator registers (two per row) hold 8 row elements across the
/// whole source scan, so each row element is loaded and stored exactly
/// once per call. Tolerance-pinned only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA, that every row,
/// every source, and every `coeffs[i]` have consistent lengths
/// (`rows[i].len() == srcs[p].len()`, `coeffs[i].len() == srcs.len()`).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy_multi_fused_x4(rows: [&mut [f64]; 4], coeffs: [&[f64]; 4], srcs: &[&[f64]]) {
    let n = rows[0].len();
    let chunks = n / 8;
    for k in 0..chunks {
        let o = 8 * k;
        // SAFETY: o + 8 <= n and all slices have length n; the four rows
        // are disjoint by the borrow rules of the signature.
        unsafe {
            let mut acc = [_mm256_setzero_pd(); 8];
            for i in 0..4 {
                let p = rows[i].as_ptr().add(o);
                acc[2 * i] = _mm256_loadu_pd(p);
                acc[2 * i + 1] = _mm256_loadu_pd(p.add(4));
            }
            for (p, src) in srcs.iter().enumerate() {
                let s0 = _mm256_loadu_pd(src.as_ptr().add(o));
                let s1 = _mm256_loadu_pd(src.as_ptr().add(o + 4));
                for i in 0..4 {
                    let c = _mm256_set1_pd(*coeffs[i].get_unchecked(p));
                    acc[2 * i] = _mm256_fmadd_pd(c, s0, acc[2 * i]);
                    acc[2 * i + 1] = _mm256_fmadd_pd(c, s1, acc[2 * i + 1]);
                }
            }
            for i in 0..4 {
                let p = rows[i].as_mut_ptr().add(o);
                _mm256_storeu_pd(p, acc[2 * i]);
                _mm256_storeu_pd(p.add(4), acc[2 * i + 1]);
            }
        }
    }
    for j in 8 * chunks..n {
        for i in 0..4 {
            let mut v = rows[i][j];
            for (p, src) in srcs.iter().enumerate() {
                v = coeffs[i][p].mul_add(src[j], v);
            }
            rows[i][j] = v;
        }
    }
}

/// Single-row variant of [`axpy_multi_fused_x4`]:
/// `row[j] += Σ_p coeffs[p]·srcs[p][j]` with each 8-element block of
/// `row` held in two registers across the whole source scan, so the row
/// is loaded and stored once per call instead of once per source.
/// Tolerance-pinned only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA, that every source
/// is at least as long as `row`, and that `coeffs.len() == srcs.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy_multi_fused(row: &mut [f64], coeffs: &[f64], srcs: &[&[f64]]) {
    let n = row.len();
    let chunks = n / 8;
    for k in 0..chunks {
        let o = 8 * k;
        // SAFETY: o + 8 <= n, every source has length >= n, and
        // `coeffs[p]` exists for every source index by the caller's
        // length contract.
        unsafe {
            let rp = row.as_mut_ptr().add(o);
            let mut a0 = _mm256_loadu_pd(rp);
            let mut a1 = _mm256_loadu_pd(rp.add(4));
            for (p, src) in srcs.iter().enumerate() {
                let c = _mm256_set1_pd(*coeffs.get_unchecked(p));
                a0 = _mm256_fmadd_pd(c, _mm256_loadu_pd(src.as_ptr().add(o)), a0);
                a1 = _mm256_fmadd_pd(c, _mm256_loadu_pd(src.as_ptr().add(o + 4)), a1);
            }
            _mm256_storeu_pd(rp, a0);
            _mm256_storeu_pd(rp.add(4), a1);
        }
    }
    for j in 8 * chunks..n {
        let mut v = row[j];
        for (p, src) in srcs.iter().enumerate() {
            v = coeffs[p].mul_add(src[j], v);
        }
        row[j] = v;
    }
}

/// One fused pass of the symmetric matvec: returns `Σ row[j]·v[j]` and
/// performs `w[j] += vr·row[j]` while `row` is in registers — the
/// unfused dot-then-axpy form streams `row` (the trailing square of the
/// tridiagonalization, far bigger than cache) twice. Tolerance-pinned
/// only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 *and* FMA and that `row`,
/// `v`, and `w` have equal length.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn symv_fused(row: &[f64], v: &[f64], w: &mut [f64], vr: f64) -> f64 {
    let n = row.len();
    let chunks = n / 8;
    let vrv = _mm256_set1_pd(vr);
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    for k in 0..chunks {
        // SAFETY: 8*k + 8 <= n and the three slices have equal length.
        unsafe {
            let r0 = _mm256_loadu_pd(row.as_ptr().add(8 * k));
            let v0 = _mm256_loadu_pd(v.as_ptr().add(8 * k));
            let w0 = _mm256_loadu_pd(w.as_ptr().add(8 * k));
            acc0 = _mm256_fmadd_pd(r0, v0, acc0);
            _mm256_storeu_pd(w.as_mut_ptr().add(8 * k), _mm256_fmadd_pd(vrv, r0, w0));
            let r1 = _mm256_loadu_pd(row.as_ptr().add(8 * k + 4));
            let v1 = _mm256_loadu_pd(v.as_ptr().add(8 * k + 4));
            let w1 = _mm256_loadu_pd(w.as_ptr().add(8 * k + 4));
            acc1 = _mm256_fmadd_pd(r1, v1, acc1);
            _mm256_storeu_pd(w.as_mut_ptr().add(8 * k + 4), _mm256_fmadd_pd(vrv, r1, w1));
        }
    }
    let sum = _mm256_add_pd(acc0, acc1);
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is 4 f64s; the store writes exactly 32 bytes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    let mut tail = 0.0f64;
    for j in 8 * chunks..n {
        tail = row[j].mul_add(v[j], tail);
        w[j] = vr.mul_add(row[j], w[j]);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Four-lane dot product; the register lanes reproduce the scalar
/// reference's four accumulators exactly, and the reduction order
/// `(l0 + l1) + (l2 + l3) + tail` is replayed scalar, so the value is
/// bitwise identical to [`super::scalar::dot4`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 (runtime-detected by the
/// dispatcher) and that `a.len() == b.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let chunks = n / 4;
    let mut acc = _mm256_setzero_pd();
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n; unaligned loads carry no alignment
        // requirement.
        unsafe {
            let av = _mm256_loadu_pd(a.as_ptr().add(4 * k));
            let bv = _mm256_loadu_pd(b.as_ptr().add(4 * k));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is 4 f64s; the unaligned store writes exactly 32 bytes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f64;
    for i in 4 * chunks..n {
        tail += a[i] * b[i];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// `out[i][j] = dot4(a[i], b[j])` over a 4 × 2 tile. Each entry owns one
/// accumulator register running exactly [`dot4`]'s lane sequence and
/// reduction, so every entry is bitwise identical to the per-pair call;
/// the eight chains are independent, so the adds no longer wait on each
/// other, and each loaded row feeds two (`a`) or four (`b`) products.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 (runtime-detected by the
/// dispatcher) and that all six slices have equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn dot4_tile(a: [&[f64]; 4], b: [&[f64]; 2]) -> [[f64; 2]; 4] {
    let n = b[0].len();
    let chunks = n / 4;
    let mut acc = [[_mm256_setzero_pd(); 2]; 4];
    for k in 0..chunks {
        // SAFETY: 4*k + 4 <= n and every slice has length n.
        unsafe {
            let b0 = _mm256_loadu_pd(b[0].as_ptr().add(4 * k));
            let b1 = _mm256_loadu_pd(b[1].as_ptr().add(4 * k));
            for i in 0..4 {
                let av = _mm256_loadu_pd(a[i].as_ptr().add(4 * k));
                acc[i][0] = _mm256_add_pd(acc[i][0], _mm256_mul_pd(av, b0));
                acc[i][1] = _mm256_add_pd(acc[i][1], _mm256_mul_pd(av, b1));
            }
        }
    }
    let mut out = [[0.0f64; 2]; 4];
    for i in 0..4 {
        for j in 0..2 {
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is 4 f64s; the store writes exactly 32 bytes.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc[i][j]) };
            let mut tail = 0.0f64;
            for l in 4 * chunks..n {
                tail += a[i][l] * b[j][l];
            }
            out[i][j] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
        }
    }
    out
}
