//! AVX microkernel behind the `simd` cargo feature.
//!
//! One 8-float lane per output column: each output element's `k`-chain is
//! a sequential run of `_mm256_mul_ps` + `_mm256_add_ps` in its own lane,
//! never FMA and never a horizontal reduction, so the bits match the
//! scalar microkernel exactly (see the bit-identity contract in
//! [`crate::gemm`]). Zero-padded panel lanes accumulate garbage that is
//! never stored back: the store path only writes the `n_eff` live
//! columns of the `m_eff` live rows.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};
use std::sync::OnceLock;

use crate::gemm::{MR, NR};

/// True when the running CPU supports AVX (detected once, cached).
pub(crate) fn avx_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| std::is_x86_feature_detected!("avx"))
}

/// AVX `MR×NR` microkernel over one packed panel pair; same contract as
/// `gemm::kernel_scalar` (load live rows from `c`, ascending-`k`
/// accumulation, store live lanes back), same bits.
#[target_feature(enable = "avx")]
// SAFETY: callers must have confirmed AVX support via `avx_available()`
// before entering; every memory access below is bounds-checked slice
// indexing or a load/store within `c`'s checked row slices.
pub(crate) unsafe fn kernel_avx<const SKIP: bool>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    m_eff: usize,
    n_eff: usize,
    c: &mut [f32],
    stride: usize,
) {
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    debug_assert!(m_eff <= MR && n_eff <= NR);
    if m_eff == MR && n_eff == NR {
        full_tile::<SKIP>(pa, pb, kc, c, stride);
    } else {
        edge_tile::<SKIP>(pa, pb, kc, m_eff, n_eff, c, stride);
    }
}

/// Full `MR×NR` tile: all eight accumulators live in registers and the
/// loads/stores hit `c` directly.
#[target_feature(enable = "avx")]
// SAFETY: same preconditions as `kernel_avx`, which is the only caller.
unsafe fn full_tile<const SKIP: bool>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    stride: usize,
) {
    let mut acc = [_mm256_setzero_ps(); MR];
    for (ir, slot) in acc.iter_mut().enumerate() {
        *slot = load8(&c[ir * stride..ir * stride + NR]);
    }
    for kk in 0..kc {
        let bv = load8(&pb[kk * NR..(kk + 1) * NR]);
        let arow = &pa[kk * MR..(kk + 1) * MR];
        for (slot, &a) in acc.iter_mut().zip(arow) {
            // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
            if SKIP && a == 0.0 {
                continue;
            }
            *slot = _mm256_add_ps(*slot, _mm256_mul_ps(_mm256_set1_ps(a), bv));
        }
    }
    for (ir, slot) in acc.iter().enumerate() {
        store8(*slot, &mut c[ir * stride..ir * stride + NR]);
    }
}

/// Partial tile: rows load through a stack staging array so partial
/// columns read/write only the `n_eff` live lanes. Covers the hot `m = 1`
/// dense taps with full 8-lane vectorization.
#[target_feature(enable = "avx")]
// SAFETY: same preconditions as `kernel_avx`, which is the only caller.
unsafe fn edge_tile<const SKIP: bool>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    m_eff: usize,
    n_eff: usize,
    c: &mut [f32],
    stride: usize,
) {
    let mut acc = [_mm256_setzero_ps(); MR];
    let mut tmp = [0.0f32; NR];
    for (ir, slot) in acc.iter_mut().enumerate().take(m_eff) {
        tmp = [0.0; NR];
        tmp[..n_eff].copy_from_slice(&c[ir * stride..ir * stride + n_eff]);
        *slot = load8(&tmp);
    }
    for kk in 0..kc {
        let bv = load8(&pb[kk * NR..(kk + 1) * NR]);
        let arow = &pa[kk * MR..kk * MR + m_eff];
        for (slot, &a) in acc.iter_mut().zip(arow) {
            // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
            if SKIP && a == 0.0 {
                continue;
            }
            *slot = _mm256_add_ps(*slot, _mm256_mul_ps(_mm256_set1_ps(a), bv));
        }
    }
    for (ir, slot) in acc.iter().enumerate().take(m_eff) {
        store8(*slot, &mut tmp);
        c[ir * stride..ir * stride + n_eff].copy_from_slice(&tmp[..n_eff]);
    }
}

/// Small-path `C += A · B` for row-major operands (see
/// `gemm::small_rows`): the i-k nest runs inside one `target_feature`
/// call, with the rank-1 row update on AVX lanes. Each output element's
/// chain is element-wise and ascending-`k`, so the bits match the scalar
/// nest exactly; the tail past the last full 8-lane chunk runs scalar.
#[target_feature(enable = "avx")]
// SAFETY: callers must have confirmed AVX support via `avx_available()`
// before entering; all memory access is bounds-checked slice indexing or
// loads/stores within length-checked 8-float chunks.
pub(crate) unsafe fn small_rows_avx<const SKIP: bool>(
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &av) in arow.iter().enumerate() {
            // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
            if SKIP && av == 0.0 {
                continue;
            }
            axpy_row(av, &bd[kk * n..(kk + 1) * n], orow);
        }
    }
}

/// Convolution step (see `gemm::col_update`): rank-1 update of every
/// output row with weight column `kk` and one gathered row of the column
/// matrix, all rows inside one `target_feature` call.
#[target_feature(enable = "avx")]
// SAFETY: callers must have confirmed AVX support via `avx_available()`
// before entering; all memory access is bounds-checked slice indexing or
// loads/stores within length-checked 8-float chunks.
pub(crate) unsafe fn col_update_avx<const SKIP: bool>(
    ad: &[f32],
    k: usize,
    kk: usize,
    brow: &[f32],
    out: &mut [f32],
    n: usize,
) {
    for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let av = arow[kk];
        // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
        if SKIP && av == 0.0 {
            continue;
        }
        axpy_row(av, brow, orow);
    }
}

/// Rank-1 row update `c[j] += a * b[j]` on AVX lanes with a scalar tail.
/// Element-wise, so per-element chains (and therefore bits) are the same
/// as the scalar loop.
#[target_feature(enable = "avx")]
// SAFETY: same precondition as its callers (AVX confirmed at runtime);
// only length-checked slice loads/stores.
unsafe fn axpy_row(a: f32, b: &[f32], c: &mut [f32]) {
    let n = c.len();
    debug_assert!(b.len() >= n);
    let va = _mm256_set1_ps(a);
    let mut j = 0;
    while j + NR <= n {
        let sum = _mm256_add_ps(
            load8(&c[j..j + NR]),
            _mm256_mul_ps(va, load8(&b[j..j + NR])),
        );
        store8(sum, &mut c[j..j + NR]);
        j += NR;
    }
    for (x, &bv) in c[j..].iter_mut().zip(&b[j..n]) {
        *x += a * bv;
    }
}

/// Loads exactly eight floats from a length-checked slice.
#[target_feature(enable = "avx")]
// SAFETY: the length assert guarantees the 32-byte unaligned load stays
// inside `src`.
unsafe fn load8(src: &[f32]) -> __m256 {
    assert!(src.len() >= NR);
    _mm256_loadu_ps(src.as_ptr())
}

/// Stores exactly eight floats into a length-checked slice.
#[target_feature(enable = "avx")]
// SAFETY: the length assert guarantees the 32-byte unaligned store stays
// inside `dst`.
unsafe fn store8(v: __m256, dst: &mut [f32]) {
    assert!(dst.len() >= NR);
    _mm256_storeu_ps(dst.as_mut_ptr(), v);
}
