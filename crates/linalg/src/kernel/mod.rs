//! Runtime-dispatched SIMD kernel tier.
//!
//! Every accelerated op in this module ships as a family: a **pinned
//! scalar reference** (the `scalar` submodule) plus one explicit-SIMD
//! variant (`std::arch` AVX2), selected once per process by runtime CPU
//! feature detection: AVX2 where the CPU reports it, scalar everywhere
//! else (including every non-x86 target). The public entry points
//! ([`axpy`], [`dot4`], [`dot4_tile`]) dispatch through
//! [`active_backend`]; the `*_on` variants take an explicit [`Backend`]
//! so tests can pit every available implementation against the scalar
//! reference in one process.
//!
//! # Dispatch contract
//!
//! * The backend is detected **once** (first use) and latched for the
//!   life of the process, so every kernel call in a run sees the same
//!   arithmetic. Setting the `ENTROMINE_FORCE_SCALAR` environment
//!   variable (to anything but `0`/empty) pins the process to the scalar
//!   reference — that is the seam CI uses to check SIMD-vs-scalar
//!   equivalence on any host.
//! * [`axpy`] is **bitwise-pinned**: every output element performs the
//!   same single multiply-add in the same order under every backend
//!   (lanes are independent elements; no FMA contraction, no
//!   reassociation), so kernels built on it — the covariance panels, the
//!   Gram engine's back-projection — keep their bit-identity contracts
//!   under SIMD.
//! * [`dot4`] is **bitwise-pinned to the 4-lane scalar reference**: the
//!   four independent accumulator lanes of the scalar version map lane-
//!   for-lane onto one AVX2 register, and the final reduction order is
//!   identical, so the value is the same bit pattern under both backends.
//! * [`dot4_tile`] is **bitwise-pinned to per-pair [`dot4`]**: a 4 × 2
//!   block of products whose AVX2 body keeps eight independent
//!   accumulators, one per entry, each with `dot4`'s lanes and reduction;
//!   the scalar backend literally makes the eight `dot4` calls. It
//!   carries the Gram product.
//! * [`axpy_fused`]/[`dot4_fused`] are the **throughput tier**:
//!   FMA-contracted on hosts with AVX2+FMA, falling back to the bitwise
//!   kernels elsewhere. They are tolerance-pinned only and are reserved
//!   for the blocked eigensolver, whose acceptance contract is itself a
//!   tolerance pin against the QL reference.
//!
//! The entropy finalization's `Σ n·log2 n` kernel lives in
//! `entromine-entropy::kernel` and shares this module's backend
//! selection, so one process always runs one backend across the whole
//! pipeline.

// The only unsafe in this module is the pair of feature-gated SIMD call
// sites in the dispatchers, each justified by runtime detection.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::OnceLock;

/// Which implementation family a kernel call runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The pinned scalar reference (always available).
    Scalar,
    /// 256-bit `std::arch` AVX2.
    Avx2,
}

impl Backend {
    /// Lower-case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// The CPU features backend selection reads.
#[derive(Debug, Clone, Copy)]
pub struct CpuFeatures {
    /// AVX2.
    pub avx2: bool,
    /// Fused multiply-add. The bitwise-pinned kernels never contract, but
    /// the throughput tier ([`axpy_fused`], [`dot4_fused`]) uses FMA when
    /// this is set.
    pub fma: bool,
}

/// Detects CPU features (all `false` off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
        }
    }
}

/// `true` when `ENTROMINE_FORCE_SCALAR` pins this process to the scalar
/// reference implementations.
pub fn forced_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("ENTROMINE_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// The backend every auto-dispatched kernel call uses, detected on first
/// use and latched for the life of the process.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if forced_scalar() {
            return Backend::Scalar;
        }
        if cpu_features().avx2 {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    })
}

/// Every backend this host can run, scalar first. Tests iterate this to
/// pin each SIMD implementation against the scalar reference regardless
/// of which backend the process latched.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if cpu_features().avx2 {
        v.push(Backend::Avx2);
    }
    v
}

/// `acc[i] += x * ys[i]` over equal-length slices, dispatched.
///
/// Lanes are independent output elements performing one multiply and one
/// add each (never FMA-contracted), so the result is **bitwise identical**
/// under every backend — this is the primitive behind the covariance
/// panel accumulation and the Gram engine's back-projection, whose
/// bit-identity pins must keep holding under SIMD.
#[inline]
pub fn axpy(acc: &mut [f64], x: f64, ys: &[f64]) {
    axpy_on(active_backend(), acc, x, ys);
}

/// [`axpy`] on an explicit backend (test seam).
///
/// Falls back to the scalar reference if the requested SIMD backend is
/// not compiled for this architecture.
#[inline]
pub fn axpy_on(backend: Backend, acc: &mut [f64], x: f64, ys: &[f64]) {
    debug_assert_eq!(acc.len(), ys.len());
    match backend {
        Backend::Scalar => scalar::axpy(acc, x, ys),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only reachable through
        // `active_backend`/`available_backends`, which gate it on
        // runtime feature detection.
        Backend::Avx2 => unsafe { avx2::axpy(acc, x, ys) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::axpy(acc, x, ys),
    }
}

/// Dot product accumulated into four independent lanes, dispatched.
///
/// The lane structure is part of the contract: lane `i` sums
/// `a[4k+i]·b[4k+i]` in index order, the tail runs strictly
/// left-to-right, and the final reduction is
/// `(l0 + l1) + (l2 + l3) + tail`. Both backends implement exactly this
/// sequence (AVX2 holds the lanes in one 256-bit register), so the value
/// is **bitwise identical** across backends — which keeps the Gram panels
/// deterministic per input no matter where they run.
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    dot4_on(active_backend(), a, b)
}

/// [`dot4`] on an explicit backend (test seam).
#[inline]
pub fn dot4_on(backend: Backend, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match backend {
        Backend::Scalar => scalar::dot4(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `axpy_on` — `Backend::Avx2` is feature-gated by
        // the detection in `active_backend`/`available_backends`.
        Backend::Avx2 => unsafe { avx2::dot4(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dot4(a, b),
    }
}

/// A 4 × 2 tile of [`dot4`] products, `out[i][j] = dot4(a[i], b[j])`,
/// dispatched.
///
/// Each of the eight entries keeps its own four lanes and the same
/// `(l0 + l1) + (l2 + l3) + tail` reduction, so the tile is **bitwise
/// identical** to eight per-pair [`dot4`] calls under every backend. The
/// point is latency: one `dot4` is a single chain of dependent vector
/// adds, while the AVX2 tile runs eight independent chains and loads each
/// row once for two (or four) products. This carries the Gram product.
///
/// # Panics
///
/// Panics if the six slices do not all have the same length.
#[inline]
pub fn dot4_tile(a: [&[f64]; 4], b: [&[f64]; 2]) -> [[f64; 2]; 4] {
    dot4_tile_on(active_backend(), a, b)
}

/// [`dot4_tile`] on an explicit backend (test seam). The scalar
/// backend runs eight [`dot4_on`] calls, which is the reference the AVX2
/// tile is pinned against.
#[inline]
pub fn dot4_tile_on(backend: Backend, a: [&[f64]; 4], b: [&[f64]; 2]) -> [[f64; 2]; 4] {
    let n = b[0].len();
    assert!(
        a.iter().chain(&b).all(|r| r.len() == n),
        "dot4_tile needs six rows of one length"
    );
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 {
        // SAFETY: `Backend::Avx2` is only reachable through runtime
        // feature detection (see `axpy_on`); lengths are asserted above.
        return unsafe { avx2::dot4_tile(a, b) };
    }
    a.map(|row| b.map(|col| dot4_on(backend, row, col)))
}

/// `true` when the FMA-contracted throughput kernels are active: AVX2+FMA
/// detected and the process is not pinned to scalar. Latched once, like
/// [`active_backend`].
pub fn fused_active() -> bool {
    static FUSED: OnceLock<bool> = OnceLock::new();
    *FUSED.get_or_init(|| {
        if forced_scalar() {
            return false;
        }
        let f = cpu_features();
        f.avx2 && f.fma
    })
}

/// Throughput variant of [`axpy`]: FMA-contracted where the host supports
/// it, otherwise exactly [`axpy`]. **Tolerance-pinned only** — contraction
/// changes the last ulp, so this must never back a bitwise contract. Used
/// by the blocked eigensolver, whose results are pinned against the QL
/// reference by tolerance.
#[inline]
pub fn axpy_fused(acc: &mut [f64], x: f64, ys: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert_eq!(acc.len(), ys.len());
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        unsafe { avx2::axpy_fused(acc, x, ys) };
        return;
    }
    axpy(acc, x, ys);
}

/// Throughput variant of [`dot4`]: eight FMA-contracted lanes where the
/// host supports it, otherwise exactly [`dot4`]. **Tolerance-pinned
/// only** — both the lane count and the contraction change the rounding.
#[inline]
pub fn dot4_fused(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        return unsafe { avx2::dot4_fused(a, b) };
    }
    dot4(a, b)
}

/// Four dot products sharing one `b` stream (`out[i] = Σ a[i][j]·b[j]`),
/// FMA-contracted where available; otherwise four [`dot4_fused`] calls.
/// **Tolerance-pinned only.** All five slices must have equal length.
#[inline]
pub fn dot4_fused_x4(a: [&[f64]; 4], b: &[f64]) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert!(a.iter().all(|r| r.len() == b.len()));
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        return unsafe { avx2::dot4_fused_x4(a, b) };
    }
    [
        dot4_fused(a[0], b),
        dot4_fused(a[1], b),
        dot4_fused(a[2], b),
        dot4_fused(a[3], b),
    ]
}

/// Four axpys sharing one `ys` stream (`acc[i][j] += xs[i]·ys[j]`),
/// FMA-contracted where available; otherwise four [`axpy_fused`] calls.
/// **Tolerance-pinned only.** All five slices must have equal length.
#[inline]
pub fn axpy_fused_x4(acc: [&mut [f64]; 4], xs: [f64; 4], ys: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert!(acc.iter().all(|r| r.len() == ys.len()));
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        unsafe { avx2::axpy_fused_x4(acc, xs, ys) };
        return;
    }
    for (row, &x) in acc.into_iter().zip(&xs) {
        axpy_fused(row, x, ys);
    }
}

/// Eight dot products sharing one `b` stream — [`dot4_fused_x4`] doubled;
/// otherwise eight [`dot4_fused`] calls. **Tolerance-pinned only.** All
/// nine slices must have equal length.
#[inline]
pub fn dot4_fused_x8(a: [&[f64]; 8], b: &[f64]) -> [f64; 8] {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert!(a.iter().all(|r| r.len() == b.len()));
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        return unsafe { avx2::dot4_fused_x8(a, b) };
    }
    let mut out = [0.0f64; 8];
    for (slot, row) in out.iter_mut().zip(a) {
        *slot = dot4_fused(row, b);
    }
    out
}

/// Eight axpys sharing one `ys` stream — [`axpy_fused_x4`] doubled;
/// otherwise eight [`axpy_fused`] calls. **Tolerance-pinned only.** All
/// nine slices must have equal length.
#[inline]
pub fn axpy_fused_x8(acc: [&mut [f64]; 8], xs: [f64; 8], ys: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert!(acc.iter().all(|r| r.len() == ys.len()));
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        unsafe { avx2::axpy_fused_x8(acc, xs, ys) };
        return;
    }
    for (row, &x) in acc.into_iter().zip(&xs) {
        axpy_fused(row, x, ys);
    }
}

/// Multi-source accumulation into four rows:
/// `rows[i][j] += Σ_p coeffs[i][p]·srcs[p][j]`, one pass per row where
/// the host supports AVX2+FMA (see the rationale on the AVX2 kernel);
/// otherwise per-source [`axpy_fused`] calls. **Tolerance-pinned only.**
/// Every row and source must share one length, and each `coeffs[i]` must
/// have `srcs.len()` entries.
#[inline]
pub fn axpy_multi_fused_x4(rows: [&mut [f64]; 4], coeffs: [&[f64]; 4], srcs: &[&[f64]]) {
    for c in &coeffs {
        assert_eq!(c.len(), srcs.len(), "one coefficient per source");
    }
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert!(srcs.iter().all(|s| s.len() == rows[0].len()));
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection, and
        // the coefficient lengths are asserted above.
        unsafe { avx2::axpy_multi_fused_x4(rows, coeffs, srcs) };
        return;
    }
    for (row, cs) in rows.into_iter().zip(coeffs) {
        for (&c, src) in cs.iter().zip(srcs) {
            axpy_fused(row, c, src);
        }
    }
}

/// Single-row multi-source accumulation
/// (`row[j] += Σ_p coeffs[p]·srcs[p][j]`) in one pass over `row`,
/// FMA-contracted where available; otherwise one [`axpy_fused`] per
/// source. **Tolerance-pinned only.** Sources must be at least as long
/// as `row`, with one coefficient per source.
#[inline]
pub fn axpy_multi_fused(row: &mut [f64], coeffs: &[f64], srcs: &[&[f64]]) {
    assert_eq!(coeffs.len(), srcs.len(), "one coefficient per source");
    assert!(
        srcs.iter().all(|s| s.len() >= row.len()),
        "every source must cover the row"
    );
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection, and
        // the length contracts are asserted above.
        unsafe { avx2::axpy_multi_fused(row, coeffs, srcs) };
        return;
    }
    let n = row.len();
    for (&c, src) in coeffs.iter().zip(srcs) {
        axpy_fused(row, c, &src[..n]);
    }
}

/// One pass of the blocked tridiagonalization's symmetric matvec:
/// returns `Σ row[j]·v[j]` and performs `w[j] += vr·row[j]` in the same
/// sweep over `row`, so the trailing square streams through memory once
/// instead of twice. FMA-contracted where available, plain scalar
/// otherwise. **Tolerance-pinned only.** The three slices must have equal
/// length.
#[inline]
pub fn symv_fused(row: &[f64], v: &[f64], w: &mut [f64], vr: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if fused_active() {
        debug_assert_eq!(row.len(), v.len());
        debug_assert_eq!(row.len(), w.len());
        // SAFETY: `fused_active` gates on runtime AVX2+FMA detection.
        return unsafe { avx2::symv_fused(row, v, w, vr) };
    }
    let mut acc = 0.0f64;
    for j in 0..row.len() {
        acc += row[j] * v[j];
        w[j] += vr * row[j];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn available_backends_start_with_scalar() {
        let all = available_backends();
        assert_eq!(all[0], Backend::Scalar);
        assert!(all.contains(&active_backend()) || forced_scalar());
    }

    #[test]
    fn axpy_bitwise_identical_across_backends() {
        let ys: Vec<f64> = (0..67).map(|i| (i as f64).sin() * 1e3).collect();
        for backend in available_backends() {
            let mut acc: Vec<f64> = (0..67).map(|i| (i as f64).cos() / 7.0).collect();
            let mut reference = acc.clone();
            axpy_on(backend, &mut acc, std::f64::consts::PI, &ys);
            scalar::axpy(&mut reference, std::f64::consts::PI, &ys);
            assert_eq!(acc, reference, "backend {backend:?}");
        }
    }

    #[test]
    fn dot4_bitwise_identical_across_backends() {
        for len in [0usize, 1, 3, 4, 5, 8, 17, 64, 129] {
            let a: Vec<f64> = (0..len).map(|i| ((i * 37 + 1) as f64).sqrt()).collect();
            let b: Vec<f64> = (0..len).map(|i| ((i * 11 + 3) as f64).ln()).collect();
            let reference = scalar::dot4(&a, &b);
            for backend in available_backends() {
                let got = dot4_on(backend, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "len {len} backend {backend:?}"
                );
            }
        }
    }
}
