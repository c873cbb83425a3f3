//! The one SIMD kernel in this crate, dispatched through the shared
//! backend selection in [`entromine_linalg::kernel`] (one process always
//! runs one backend across the whole pipeline, and the
//! `ENTROMINE_FORCE_SCALAR` override pins everything at once).
//!
//! [`term_sum`] is the `Σ multiplicity · (c · log2 c)` reduction behind
//! every entropy finalization. The AVX2 variant runs four independent
//! Neumaier-compensated accumulator lanes (branchless magnitude
//! comparison), which breaks the serial dependency chain of the scalar
//! reference. Compensated reductions are reassociated across lanes, so
//! this kernel is **tolerance-pinned** (each path is within an ulp or
//! so of the exact sum; the equivalence suite pins them to 1e-13
//! relative), while any *fixed* backend remains a deterministic pure
//! function of the group sequence — merge-order independence within a
//! run is untouched.
//!
//! The flat histogram's probe walk is not here: it is a scalar loop
//! inlined in `hist.rs`. A dispatched multi-lane probe only pays off on
//! long collision runs, the slot index keeps probes at one or two slots,
//! and at that length the dispatched AVX2 walk measured 0.53x of the
//! inlined scalar one (33.2 vs 17.6 ns per event, four probes each).
//!
//! [`term_sum_on`] takes an explicit [`Backend`] so the equivalence
//! suite can pit every implementation the host supports
//! ([`available_backends`]) against the scalar reference in one process.

// The unsafe here is confined to the feature-gated SIMD bodies and their
// call sites, each justified by runtime detection at the dispatcher.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::metrics::{count_term, neumaier};
use entromine_linalg::kernel::active_backend;
pub use entromine_linalg::kernel::{available_backends, Backend};

/// How many weighted terms are buffered before each SIMD reduction pass.
const CHUNK: usize = 256;

/// `Σ multiplicity · (c · log2 c)` over `(count, multiplicity)` groups on
/// the process-wide backend. Singleton counts (`c <= 1`) contribute
/// exactly zero on every path.
#[inline]
pub fn term_sum(groups: impl Iterator<Item = (u64, u64)>) -> f64 {
    term_sum_on(active_backend(), groups)
}

/// [`term_sum`] on an explicit backend (the equivalence-test seam).
pub fn term_sum_on(backend: Backend, groups: impl Iterator<Item = (u64, u64)>) -> f64 {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2_term_sum(groups),
        _ => scalar_term_sum(groups),
    }
}

/// The pinned scalar reference: sequential Neumaier compensation in
/// group order (this is byte-for-byte the reduction the crate used
/// before the kernel tier existed).
fn scalar_term_sum(groups: impl Iterator<Item = (u64, u64)>) -> f64 {
    let mut sum = 0.0;
    let mut comp = 0.0;
    for (c, multiplicity) in groups {
        if c > 1 {
            neumaier(&mut sum, &mut comp, multiplicity as f64 * count_term(c));
        }
    }
    sum + comp
}

/// AVX2 `term_sum`: terms are buffered [`CHUNK`] at a time (the term
/// products themselves are one L1 table load and a multiply — the serial
/// bottleneck is the compensated add chain), then reduced on four
/// independent Neumaier lanes. Lane and remainder accumulators are
/// merged with one final scalar compensation pass.
#[cfg(target_arch = "x86_64")]
fn avx2_term_sum(groups: impl Iterator<Item = (u64, u64)>) -> f64 {
    let mut terms = [0.0f64; CHUNK];
    let mut sum4 = [0.0f64; 4];
    let mut comp4 = [0.0f64; 4];
    // Scalar accumulator for the final sub-lane-width tail.
    let mut rsum = 0.0;
    let mut rcomp = 0.0;
    let mut filled = 0;
    for (c, multiplicity) in groups {
        if c <= 1 {
            continue;
        }
        terms[filled] = multiplicity as f64 * count_term(c);
        filled += 1;
        if filled == CHUNK {
            // SAFETY: this path is only dispatched on hosts where AVX2
            // was runtime-detected.
            unsafe { avx2_neumaier_lanes(&terms, &mut sum4, &mut comp4) };
            filled = 0;
        }
    }
    let quads = filled - filled % 4;
    // SAFETY: as above — AVX2 is runtime-detected on this path.
    unsafe { avx2_neumaier_lanes(&terms[..quads], &mut sum4, &mut comp4) };
    for &t in &terms[quads..filled] {
        neumaier(&mut rsum, &mut rcomp, t);
    }
    let mut sum = 0.0;
    let mut comp = 0.0;
    for (s, c) in sum4.into_iter().zip(comp4) {
        neumaier(&mut sum, &mut comp, s);
        comp += c;
    }
    neumaier(&mut sum, &mut comp, rsum);
    comp += rcomp;
    sum + comp
}

/// Folds `terms` (length a multiple of four) into four running Neumaier
/// lanes. The compensation branch is computed branchlessly: the operands
/// are ordered by magnitude with a compare-and-blend, after which the
/// error term is always `(big − total) + small`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, and `terms.len() % 4 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_neumaier_lanes(terms: &[f64], sum4: &mut [f64; 4], comp4: &mut [f64; 4]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(terms.len() % 4, 0);
    // SAFETY: the `[f64; 4]` accumulators are exactly one vector wide,
    // and every load below stays within `terms` (length a multiple of
    // four by the caller's contract).
    unsafe {
        let mut s = _mm256_loadu_pd(sum4.as_ptr());
        let mut comp = _mm256_loadu_pd(comp4.as_ptr());
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
        for quad in terms.chunks_exact(4) {
            let t = _mm256_loadu_pd(quad.as_ptr());
            let total = _mm256_add_pd(s, t);
            let swap =
                _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(s, abs_mask), _mm256_and_pd(t, abs_mask));
            let big = _mm256_blendv_pd(s, t, swap);
            let small = _mm256_blendv_pd(t, s, swap);
            let err = _mm256_add_pd(_mm256_sub_pd(big, total), small);
            comp = _mm256_add_pd(comp, err);
            s = total;
        }
        _mm256_storeu_pd(sum4.as_mut_ptr(), s);
        _mm256_storeu_pd(comp4.as_mut_ptr(), comp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_sum_matches_scalar_small() {
        let groups: Vec<(u64, u64)> = vec![(1, 100), (2, 3), (7, 1), (1024, 2), (5000, 1)];
        let reference = scalar_term_sum(groups.iter().copied());
        for backend in available_backends() {
            let got = term_sum_on(backend, groups.iter().copied());
            let rel = (got - reference).abs() / reference.abs().max(1.0);
            assert!(rel <= 1e-13, "backend {backend:?}: {got} vs {reference}");
        }
    }
}
