//! AVX kernels, compiled on every x86_64 build and entered only after
//! runtime detection ([`avx_available`]): the packed GEMM microkernel,
//! the small-product nest and the convolution register tile.
//!
//! One 8-float lane per output column: each output element's `k`-chain is
//! a sequential run of `_mm256_mul_ps` + `_mm256_add_ps` in its own lane,
//! never FMA and never a horizontal reduction, so the bits match the
//! scalar kernels exactly (see the bit-identity contract in
//! [`crate::gemm`]). Zero-padded lanes accumulate garbage that is never
//! stored back: the store paths write only live rows and columns.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};
use std::ops::Range;
use std::sync::OnceLock;

use crate::gemm::{MR, NR};

/// Output channels per convolution register tile.
const CONV_CH: usize = 4;

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

/// One band of the convolution forward (see `gemm::conv2d_into`): for
/// every `CONV_CH`-channel block, `CONV_CH × 16`-pixel register tiles
/// (and one `CONV_CH × 8` tile for the rest) read the gathered patch
/// rows in place. `panel` holds the band's `k` patch rows at `stride`
/// floats apart (a multiple of `NR`, `np` live pixels each, the tail
/// zero-padded); the results land in `out[c * n + p0 ..][..np]` for every
/// channel `c`. Each output keeps its ascending-`k` chain from `+0.0`.
/// The tile has no zero test, so a block that holds an exact-zero weight,
/// and every channel past the last whole block, runs the scalar chain,
/// which skips those weights.
///
/// # Safety
///
/// The CPU must support AVX (`avx_available()`). Every memory access is
/// bounds-checked slice indexing or a length-checked 8-float load/store.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx")]
// SAFETY: callers must have confirmed AVX support via `avx_available()`
// before entering; all memory access is bounds-checked slice indexing or
// loads/stores within length-checked 8-float chunks.
pub(crate) unsafe fn conv_band_avx(
    weight: &[f32],
    k: usize,
    panel: &[f32],
    stride: usize,
    np: usize,
    out: &mut [f32],
    n: usize,
    p0: usize,
) {
    debug_assert!(stride.is_multiple_of(NR) && np <= stride && stride < np + NR);
    let oc = out.len() / n;
    let blocks_end = oc - oc % CONV_CH;
    let chain = |out: &mut [f32], channels: Range<usize>| {
        for c in channels {
            let orow = &mut out[c * n + p0..c * n + p0 + np];
            for (kk, &a) in weight[c * k..(c + 1) * k].iter().enumerate() {
                // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
                if a == 0.0 {
                    continue;
                }
                for (x, &bv) in orow.iter_mut().zip(&panel[kk * stride..kk * stride + np]) {
                    *x += a * bv;
                }
            }
        }
    };
    for c0 in (0..blocks_end).step_by(CONV_CH) {
        let w = &weight[c0 * k..(c0 + CONV_CH) * k];
        // dv-lint: allow(float-eq, reason = "structural sparsity skip: only a block without an exact stored zero may run the tile, which has no skip test")
        if w.iter().all(|&x| x != 0.0) {
            let mut j = 0;
            while j < stride {
                let (bj, live) = (&panel[j..], np - j);
                let o = &mut out[c0 * n + p0 + j..];
                if j + 2 * NR <= stride {
                    conv_tile::<2>(w, k, bj, stride, o, n, live);
                    j += 2 * NR;
                } else {
                    conv_tile::<1>(w, k, bj, stride, o, n, live);
                    j += NR;
                }
            }
        } else {
            chain(out, c0..c0 + CONV_CH);
        }
    }
    chain(out, blocks_end..oc);
}

/// One `CONV_CH × 8V`-pixel register tile: `CONV_CH * V` accumulators from
/// `+0.0`; per tap, in ascending `kk`, `V` patch vectors read from row
/// `kk` of `b` (rows `stride` apart) and one broadcast weight per channel
/// (`w` is the block's `[CONV_CH, k]` weights, none an exact zero), `mul`
/// then `add`. Stores the first `live` pixels (`live >= 1`) of channel row
/// `ci` at `o[ci * n ..]`, the last vector through a stack copy when
/// partial.
///
/// # Safety
///
/// The CPU must support AVX. Every memory access is bounds-checked.
#[target_feature(enable = "avx")]
#[inline]
// SAFETY: same precondition as `conv_band_avx`, the only caller; all
// memory access is bounds-checked slice indexing or loads/stores within
// length-checked 8-float chunks.
unsafe fn conv_tile<const V: usize>(
    w: &[f32],
    k: usize,
    b: &[f32],
    stride: usize,
    o: &mut [f32],
    n: usize,
    live: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); V]; CONV_CH];
    for (kk, brow) in b.chunks(stride).take(k).enumerate() {
        let brow = &brow[..V * NR];
        let mut bv = [_mm256_setzero_ps(); V];
        for (v, lane) in bv.iter_mut().enumerate() {
            *lane = load8(&brow[v * NR..]);
        }
        for (ci, lanes) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(w[ci * k + kk]);
            for (x, &bl) in lanes.iter_mut().zip(&bv) {
                *x = _mm256_add_ps(*x, _mm256_mul_ps(av, bl));
            }
        }
    }
    for (ci, lanes) in acc.iter().enumerate() {
        for (v, &x) in lanes.iter().enumerate() {
            let q = v * NR;
            if q + NR <= live {
                store8(x, &mut o[ci * n + q..]);
            } else if q < live {
                let mut tmp = [0.0f32; NR];
                store8(x, &mut tmp);
                o[ci * n + q..ci * n + live].copy_from_slice(&tmp[..live - q]);
            }
        }
    }
}

/// Rank-1 row update `c[j] += a * b[j]` on AVX lanes with a scalar tail.
/// Element-wise, so per-element chains (and therefore bits) are the same
/// as the scalar loop.
#[target_feature(enable = "avx")]
// SAFETY: same precondition as its caller (AVX confirmed at runtime);
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
