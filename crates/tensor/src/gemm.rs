//! The one packed, register-tiled GEMM microkernel behind every matrix
//! product, and the direct convolution forward beside it.
//!
//! Every dense matrix product in the workspace — `matmul` and the
//! transposed variants — is a thin layout adapter over [`gemm`]:
//! operands are described by [`PackA`]/[`PackB`] pack sources, packed
//! into cache-blocked panels (`MC×KC` for A, `KC×NC` for B), and driven
//! through a single `MR×NR` register-tile microkernel. The convolution
//! forward ([`conv2d_into`]) never materializes its whole column matrix:
//! on AVX it gathers bands of patch rows and runs a register tile over
//! them in place, and otherwise it gathers one patch row at a time and
//! applies it as a rank-1 update of the output — the same per-element
//! chains as the explicit product either way.
//!
//! # Bit-identity contract
//!
//! Each output element accumulates its `k` terms in ascending order, in a
//! single sequential chain: the output is zeroed once, every `KC` block
//! loads the partial sum back from the output tile, adds its terms in
//! order, and stores it back. That reproduces the pre-refactor kernels'
//! chains exactly, so results are bit-identical to the historical loop
//! nests at any thread count, on either kernel arm. The AVX kernels
//! (compiled on every x86_64 build, used when the CPU has AVX and
//! [`force_scalar_kernels`] is off) vectorize across output *columns* —
//! one lane per output element, each lane still a sequential k-chain of
//! `mul`+`add` (never FMA) — so they produce the same bits as the scalar
//! kernels, which every other CPU runs.
//!
//! Packing is pure staging: it never changes any chain. Products below
//! [`SMALL_FLOPS`] multiply-adds therefore skip the panels entirely and
//! run direct loop nests (the rank-1 update still uses the AVX lanes) —
//! bit-identical, just without the staging overhead that dominates at
//! the workspace's small hot shapes.
//!
//! Structural-sparsity skipping (`lhs element == 0.0` contributes
//! nothing) is bit-observable through signed zeros and non-finite inputs,
//! so it is part of each adapter's contract: `matmul`/`matmul_tn`/conv
//! forward skip exact-zero lhs elements (as they always have),
//! `matmul_nt` does not. (`matvec` stays outside the kernel entirely:
//! its historical iterator `.sum()` chain folds from `-0.0`, which a
//! `+0.0`-seeded accumulator cannot reproduce — see `crate::matmul`.)

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::conv::{gather_patch_row, im2col_into, Conv2dGeom};

/// Microkernel register-tile rows (lhs rows per tile).
pub const MR: usize = 8;
/// Microkernel register-tile columns; also the AVX lane count.
pub const NR: usize = 8;
/// Rows of A packed per panel (multiple of `MR`); also the parallel
/// row-chunk size, matching the historical `BLOCK` split.
pub const MC: usize = 64;
/// Depth of each packed panel pair.
pub const KC: usize = 256;
/// Columns of B packed per panel (multiple of `NR`).
pub const NC: usize = 512;

/// Minimum `m * k * n` before a product is worth scheduling on the pool;
/// below this the fork/join overhead outweighs the work.
const PAR_FLOPS: usize = 1 << 15;

/// Below this many multiply-adds (`m * k * n`) panel packing and tile
/// staging cost more than they save, so [`gemm`] runs direct loop nests
/// instead — same per-element accumulation chains, so identical bits;
/// only the staging disappears. The AVX rank-1 update still applies.
const SMALL_FLOPS: usize = 1 << 15;

/// How the lhs operand `A: [m, k]` is stored.
#[derive(Debug, Clone, Copy)]
pub enum PackA<'a> {
    /// Row-major `[m, k]` slice: `a(i, p) = d[i * k + p]`.
    Rows(&'a [f32]),
    /// Transposed storage `[k, m]`: `a(i, p) = d[p * m + i]` (the
    /// `matmul_tn` lhs, read without materializing the transpose).
    Trans(&'a [f32]),
}

/// How the rhs operand `B: [k, n]` is stored.
#[derive(Debug, Clone, Copy)]
pub enum PackB<'a> {
    /// Row-major `[k, n]` slice: `b(p, j) = d[p * n + j]`.
    Rows(&'a [f32]),
    /// Transposed storage `[n, k]`: `b(p, j) = d[j * k + p]` (the
    /// `matmul_nt` rhs, read without materializing the transpose).
    Trans(&'a [f32]),
}

/// When true, [`gemm`] and [`conv2d_into`] use the scalar kernels even
/// if the CPU supports AVX. SeqCst like every other atomic outside
/// dv-runtime; flipping it mid-product is benign because both kernels
/// produce identical bits.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the scalar kernels at runtime.
///
/// Lets one binary benchmark or cross-check both kernel arms; a no-op
/// on CPUs without AVX, which always run the scalar kernels.
pub fn force_scalar_kernels(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// True when the running CPU supports the AVX kernels: an x86_64 CPU
/// with AVX, detected at runtime.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::gemm_simd::avx_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the next [`gemm`] or [`conv2d_into`] call will use the AVX
/// kernels (CPU-supported, and not forced off).
pub fn simd_kernels_active() -> bool {
    simd_available() && !FORCE_SCALAR.load(Ordering::SeqCst)
}

thread_local! {
    /// Per-thread packed A panel (`MC × KC` floats), grown once and
    /// reused for every product on that thread thereafter.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed B panel (`KC × NC` floats).
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread convolution patches: a band of gathered rows for the
    /// AVX forward, one row for the scalar forward, the whole column
    /// matrix for the weight gradient.
    static PATCHES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = A · B` (`[m, k] × [k, n] → [m, n]`) through the packed microkernel.
///
/// `out` is zeroed first; `skip_zero_lhs` selects the structural-sparsity
/// skip (see the module docs for which adapters use it). Large products
/// split `MC`-row chunks of the output across the `dv-runtime` pool;
/// every element keeps its sequential ascending-`k` accumulation chain,
/// so results are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if any operand length disagrees with the stated dimensions.
pub fn gemm(
    a: PackA<'_>,
    b: PackB<'_>,
    m: usize,
    k: usize,
    n: usize,
    skip_zero_lhs: bool,
    out: &mut [f32],
) {
    check_dims(&a, &b, m, k, n);
    assert_eq!(out.len(), m * n, "gemm out length mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let simd = simd_kernels_active();
    if m * k * n < SMALL_FLOPS && small_gemm(&a, &b, k, n, skip_zero_lhs, simd, out) {
        let c = counters();
        c.calls.inc();
        c.small.inc();
        return;
    }
    let use_par = m > MC && m * k * n >= PAR_FLOPS;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            with_buf(&PACK_B, KC * NC, |bbuf| {
                pack_b(&b, k, n, pc, kc, jc, nc, bbuf);
                let packed_b: &[f32] = bbuf;
                if use_par {
                    // One task per MC-row chunk: chunks own disjoint row
                    // slices of `out` and write only columns jc..jc+nc.
                    dv_runtime::par_chunks_mut(out, MC * n, |ci, rows| {
                        let i0 = ci * MC;
                        let mc = MC.min(m - i0);
                        with_buf(&PACK_A, MC * KC, |abuf| {
                            pack_a(&a, m, k, i0, mc, pc, kc, abuf);
                            compute_panel(
                                abuf,
                                packed_b,
                                kc,
                                mc,
                                nc,
                                jc,
                                n,
                                skip_zero_lhs,
                                simd,
                                rows,
                            );
                        });
                    });
                } else {
                    for i0 in (0..m).step_by(MC) {
                        let mc = MC.min(m - i0);
                        with_buf(&PACK_A, MC * KC, |abuf| {
                            pack_a(&a, m, k, i0, mc, pc, kc, abuf);
                            compute_panel(
                                abuf,
                                packed_b,
                                kc,
                                mc,
                                nc,
                                jc,
                                n,
                                skip_zero_lhs,
                                simd,
                                &mut out[i0 * n..(i0 + mc) * n],
                            );
                        });
                    }
                }
            });
        }
    }
    record_counters(m, k, n);
}

/// Convolution forward: `out = W · im2col(image)` for
/// `W: [out_channels, C*k*k]`, without materializing the column matrix.
///
/// On AVX, bands of whole output rows (at least `BAND_PIXELS` pixels)
/// are gathered into a reused per-thread buffer, and register tiles of
/// 4 channels × 16 pixels read them in place. Otherwise each column-matrix
/// row is gathered on its own and applied as a rank-1 update of every
/// output row. Either way each output element adds its `k` terms in
/// ascending order from `+0.0` with the weight-side zero skip:
/// bit-identical to explicit `im2col_into` + `matmul_into`, with no panel
/// packing and no allocation in steady state. Counted as one small-path
/// call in `tensor.gemm.*`. The bias broadcast stays with the caller, as
/// it always has.
///
/// # Panics
///
/// Panics if any slice length disagrees with `geom`/`out_channels`.
pub fn conv2d_into(
    weight: &[f32],
    out_channels: usize,
    image: &[f32],
    geom: &Conv2dGeom,
    out: &mut [f32],
) {
    dv_trace::span!("tensor.conv_gemm");
    let (k, n) = (geom.col_rows(), geom.col_cols());
    assert_eq!(
        image.len(),
        geom.in_channels * geom.in_h * geom.in_w,
        "conv2d_into image length mismatch"
    );
    assert_eq!(
        weight.len(),
        out_channels * k,
        "conv2d_into weight length mismatch"
    );
    assert_eq!(
        out.len(),
        out_channels * n,
        "conv2d_into out length mismatch"
    );
    out.fill(0.0);
    if out_channels == 0 || k == 0 {
        return;
    }
    let c = counters();
    c.calls.inc();
    c.small.inc();
    #[cfg(target_arch = "x86_64")]
    if simd_kernels_active() {
        conv_bands(weight, image, geom, out);
        return;
    }
    with_buf(&PATCHES, n, |row| {
        for kk in 0..k {
            gather_patch_row(image, geom, kk, 0, row);
            col_update(weight, k, kk, row, out, n);
        }
    });
}

/// Output pixels per band of the AVX convolution forward: a band is
/// `max(1, BAND_PIXELS / out_w)` whole output rows, so its patch rows
/// stay in L1/L2 while every register tile reads them.
#[cfg(target_arch = "x86_64")]
const BAND_PIXELS: usize = 128;

/// The AVX arm of [`conv2d_into`] on a zeroed `out`: per band, every
/// patch row is gathered sequentially into the `PATCHES` arena, each
/// zero-padded to a multiple of `NR`, then one register-tile pass covers
/// the band for every channel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn conv_bands(weight: &[f32], image: &[f32], geom: &Conv2dGeom, out: &mut [f32]) {
    let (k, n, oh, ow) = (geom.col_rows(), geom.col_cols(), geom.out_h(), geom.out_w());
    let rows = (BAND_PIXELS / ow).clamp(1, oh);
    with_buf(&PATCHES, k * (rows * ow).next_multiple_of(NR), |panel| {
        for oy0 in (0..oh).step_by(rows) {
            let np = rows.min(oh - oy0) * ow;
            let stride = np.next_multiple_of(NR);
            for (kk, prow) in panel.chunks_exact_mut(stride).take(k).enumerate() {
                gather_patch_row(image, geom, kk, oy0, &mut prow[..np]);
                prow[np..].fill(0.0);
            }
            // SAFETY: only reached when `simd_kernels_active()` confirmed
            // AVX support at runtime, which is the target-feature
            // routine's only precondition; it touches memory only through
            // bounds-checked slices.
            unsafe {
                crate::gemm_simd::conv_band_avx(weight, k, panel, stride, np, out, n, oy0 * ow);
            }
        }
    });
}

/// Convolution weight gradient: `out = G · im2col(image)^T` for
/// `G: [out_channels, out_h*out_w]`. The column matrix is gathered into a
/// reused per-thread buffer and multiplied as a `matmul_nt` rhs: no
/// structural-sparsity skip, bit-identical to `matmul_nt(g, cols)`.
///
/// # Panics
///
/// Panics if any slice length disagrees with `geom`/`out_channels`.
pub fn conv2d_grad_weight_into(
    g: &[f32],
    out_channels: usize,
    image: &[f32],
    geom: &Conv2dGeom,
    out: &mut [f32],
) {
    dv_trace::span!("tensor.conv_gemm");
    let (k, n) = (geom.col_rows(), geom.col_cols());
    with_buf(&PATCHES, k * n, |cols| {
        im2col_into(image, geom, cols);
        gemm(
            PackA::Rows(g),
            PackB::Trans(cols),
            out_channels,
            n,
            k,
            false,
            out,
        );
    });
}

/// Transposes a row-major `[m, n]` slice into a `[n, m]` buffer.
///
/// # Panics
///
/// Panics if either slice length is not `m * n`.
pub fn transpose_into(src: &[f32], m: usize, n: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), m * n, "transpose_into src length mismatch");
    assert_eq!(dst.len(), m * n, "transpose_into dst length mismatch");
    for (i, row) in src.chunks_exact(n).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * m + i] = v;
        }
    }
}

/// Exact-iteration `f64` dot product of two `f32` slices: widen each
/// factor, multiply, and sum left to right. The shared primitive behind
/// the OCSVM linear kernel and `linalg::quad_form_inv`.
///
/// # Panics
///
/// Panics (debug builds) if the slices have different lengths.
pub fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_f64 length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Exact-iteration `f64` squared Euclidean distance between two `f32`
/// slices, the primitive behind the OCSVM RBF kernel.
///
/// # Panics
///
/// Panics (debug builds) if the slices have different lengths.
pub fn sqdist_f64(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sqdist_f64 length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

/// Fills the symmetric `n × n` matrix `q` from `eval(i, j)` evaluated on
/// the upper triangle (rows fan out across the pool, `j >= i` per row),
/// then mirrors into the lower triangle sequentially.
///
/// This is the exact structure (and therefore bit pattern) of the OCSVM
/// gram assembly at any thread count.
///
/// # Panics
///
/// Panics if `q.len() != n * n`.
pub fn pairwise_upper_f64<F>(n: usize, q: &mut [f64], eval: F)
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    assert_eq!(q.len(), n * n, "pairwise_upper_f64 length mismatch");
    if n == 0 {
        return;
    }
    dv_runtime::par_chunks_mut(q, n, |i, row| {
        for (j, slot) in row.iter_mut().enumerate().skip(i) {
            *slot = eval(i, j);
        }
    });
    for i in 0..n {
        for j in 0..i {
            q[i * n + j] = q[j * n + i];
        }
    }
}

/// Direct loops for small products. Every output element keeps the same
/// ascending-`k` accumulation chain as the packed path (which zero-fills
/// the output and loads partial sums back per `KC` block), so the bits
/// are identical — packing is pure staging. Returns `false` for pack
/// sources without a direct form (`PackA::Trans`, used only by
/// training-path products), which fall through to the packed kernel.
fn small_gemm(
    a: &PackA<'_>,
    b: &PackB<'_>,
    k: usize,
    n: usize,
    skip: bool,
    simd: bool,
    out: &mut [f32],
) -> bool {
    let PackA::Rows(ad) = *a else {
        return false;
    };
    match *b {
        PackB::Rows(bd) => small_rows(simd, ad, bd, k, n, skip, out),
        PackB::Trans(bd) => {
            for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let mut slots = orow.chunks_exact_mut(NR);
                let mut bcols = bd.chunks_exact(NR * k);
                for (block, cols) in (&mut slots).zip(&mut bcols) {
                    dot_block(arow, cols, skip, block);
                }
                let rest = bcols.remainder().chunks_exact(k);
                for (slot, bcol) in slots.into_remainder().iter_mut().zip(rest) {
                    *slot = dot_skip(arow, bcol, skip);
                }
            }
        }
    }
    true
}

/// The small-path `C += A · B` nest for row-major operands, dispatched to
/// the AVX version once per product so no per-row-update call crosses the
/// `target_feature` boundary. Both arms walk identical chains.
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
fn small_rows(simd: bool, ad: &[f32], bd: &[f32], k: usize, n: usize, skip: bool, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true when `avx_available()` confirmed AVX
        // support on this CPU at runtime, which is the target-feature
        // routine's only precondition; it touches memory only through
        // bounds-checked slices.
        unsafe {
            if skip {
                crate::gemm_simd::small_rows_avx::<true>(ad, bd, k, n, out);
            } else {
                crate::gemm_simd::small_rows_avx::<false>(ad, bd, k, n, out);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &av) in arow.iter().enumerate() {
            // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
            if skip && av == 0.0 {
                continue;
            }
            for (x, &bv) in orow.iter_mut().zip(&bd[kk * n..(kk + 1) * n]) {
                *x += av * bv;
            }
        }
    }
}

/// One scalar convolution step: rank-1 update of every output row with
/// column `kk` of the weights and one gathered row of the column matrix,
/// skipping exact-zero weights.
fn col_update(ad: &[f32], k: usize, kk: usize, brow: &[f32], out: &mut [f32], n: usize) {
    for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let av = arow[kk];
        // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
        if av == 0.0 {
            continue;
        }
        for (x, &bv) in orow.iter_mut().zip(brow) {
            *x += av * bv;
        }
    }
}

/// Per-element dot with the optional structural skip: explicit `0.0f32`
/// accumulator, ascending index — the chain the packed kernel produces
/// for a zero-filled output (and the historical `matmul_nt` chain).
fn dot_skip(a: &[f32], b: &[f32], skip: bool) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
        if skip && x == 0.0 {
            continue;
        }
        acc += x * y;
    }
    acc
}

/// `NR` side-by-side [`dot_skip`] chains: `out[j] = a · b_j` for the
/// `NR` consecutive length-`k` rows `b_j` of `bcols`. Each output is still
/// its own ascending-`k` sum from `+0.0` (same skip), so the bits equal
/// `NR` separate calls; interleaving only hides the add latency.
fn dot_block(a: &[f32], bcols: &[f32], skip: bool, out: &mut [f32]) {
    let k = a.len();
    let rows: [&[f32]; NR] = std::array::from_fn(|j| &bcols[j * k..(j + 1) * k]);
    let mut acc = [0.0f32; NR];
    for (p, &x) in a.iter().enumerate() {
        // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
        if skip && x == 0.0 {
            continue;
        }
        for (s, row) in acc.iter_mut().zip(&rows) {
            *s += x * row[p];
        }
    }
    out.copy_from_slice(&acc);
}

fn check_dims(a: &PackA<'_>, b: &PackB<'_>, m: usize, k: usize, n: usize) {
    match *a {
        PackA::Rows(d) => assert_eq!(d.len(), m * k, "gemm lhs length mismatch"),
        PackA::Trans(d) => assert_eq!(d.len(), k * m, "gemm lhs length mismatch"),
    }
    match *b {
        PackB::Rows(d) => assert_eq!(d.len(), k * n, "gemm rhs length mismatch"),
        PackB::Trans(d) => assert_eq!(d.len(), n * k, "gemm rhs length mismatch"),
    }
}

/// Runs `f` on the first `len` floats of one of the per-thread arenas,
/// growing it (high-water mark) on first use only.
fn with_buf<R>(
    arena: &'static std::thread::LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    arena.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Packs rows `i0..i0+mc` (depth `pc..pc+kc`) of the lhs into MR-row
/// groups: group `ig` stores `a(i0 + ig*MR + ir, pc + kk)` at
/// `[kk * MR + ir]`. Rows past `mc` are zero-padded; the microkernel
/// never stores their lanes back.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &PackA<'_>,
    m: usize,
    k: usize,
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [f32],
) {
    let _ = k;
    let groups = mc.div_ceil(MR);
    let used = groups * MR * kc;
    dst[..used].fill(0.0);
    for (ig, g) in dst[..used].chunks_exact_mut(MR * kc).enumerate() {
        let rows = MR.min(mc - ig * MR);
        match *a {
            PackA::Rows(d) => {
                for ir in 0..rows {
                    let row = i0 + ig * MR + ir;
                    let src = &d[row * k + pc..row * k + pc + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        g[kk * MR + ir] = v;
                    }
                }
            }
            PackA::Trans(d) => {
                // Stored [k, m]: for a fixed depth the rows are contiguous.
                for kk in 0..kc {
                    let src = &d[(pc + kk) * m + i0 + ig * MR..][..rows];
                    g[kk * MR..kk * MR + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs depth `pc..pc+kc`, columns `jc..jc+nc` of the rhs into NR-column
/// groups: group `jg` stores `b(pc + kk, jc + jg*NR + jr)` at
/// `[kk * NR + jr]`. Columns past `nc` are zero-padded; padded lanes are
/// computed but never stored back.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &PackB<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    dst: &mut [f32],
) {
    let groups = nc.div_ceil(NR);
    let used = groups * NR * kc;
    dst[..used].fill(0.0);
    match *b {
        PackB::Rows(d) => {
            for (jg, g) in dst[..used].chunks_exact_mut(NR * kc).enumerate() {
                let cols = NR.min(nc - jg * NR);
                for kk in 0..kc {
                    let src = &d[(pc + kk) * n + jc + jg * NR..][..cols];
                    g[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
        }
        PackB::Trans(d) => {
            for (jg, g) in dst[..used].chunks_exact_mut(NR * kc).enumerate() {
                let cols = NR.min(nc - jg * NR);
                for jr in 0..cols {
                    let j = jc + jg * NR + jr;
                    let src = &d[j * k + pc..j * k + pc + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        g[kk * NR + jr] = v;
                    }
                }
            }
        }
    }
}

/// Runs the microkernel over every `MR×NR` tile of one packed panel pair.
/// `rows` is the `mc × n_stride` output chunk; only columns
/// `jc..jc+nc` are touched. `jg`-outer order keeps each B group hot in
/// L1 across the A groups.
#[allow(clippy::too_many_arguments)]
fn compute_panel(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    mc: usize,
    nc: usize,
    jc: usize,
    n_stride: usize,
    skip: bool,
    simd: bool,
    rows: &mut [f32],
) {
    let mgroups = mc.div_ceil(MR);
    let ngroups = nc.div_ceil(NR);
    for jg in 0..ngroups {
        let pbg = &pb[jg * NR * kc..(jg + 1) * NR * kc];
        let n_eff = NR.min(nc - jg * NR);
        for ig in 0..mgroups {
            let pag = &pa[ig * MR * kc..(ig + 1) * MR * kc];
            let m_eff = MR.min(mc - ig * MR);
            let start = ig * MR * n_stride + jc + jg * NR;
            run_kernel(
                simd,
                skip,
                pag,
                pbg,
                kc,
                m_eff,
                n_eff,
                &mut rows[start..],
                n_stride,
            );
        }
    }
}

/// Dispatches one tile to the AVX kernel when active, else the scalar
/// microkernel. Both produce identical bits (see module docs).
#[allow(clippy::too_many_arguments)]
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
#[inline]
fn run_kernel(
    simd: bool,
    skip: bool,
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    m_eff: usize,
    n_eff: usize,
    c: &mut [f32],
    stride: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true when `avx_available()` confirmed AVX
        // support on this CPU at runtime, which is the target-feature
        // kernel's only precondition; all memory access inside it is
        // bounds-checked slice indexing.
        unsafe {
            if skip {
                crate::gemm_simd::kernel_avx::<true>(pa, pb, kc, m_eff, n_eff, c, stride);
            } else {
                crate::gemm_simd::kernel_avx::<false>(pa, pb, kc, m_eff, n_eff, c, stride);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    if skip {
        kernel_scalar::<true>(pa, pb, kc, m_eff, n_eff, c, stride);
    } else {
        kernel_scalar::<false>(pa, pb, kc, m_eff, n_eff, c, stride);
    }
}

/// Scalar `MR×NR` microkernel: loads each live output row into an
/// `NR`-wide accumulator, adds the panel's `kc` terms in ascending order,
/// and stores the live lanes back. `SKIP` selects the structural-sparsity
/// skip on lhs elements.
fn kernel_scalar<const SKIP: bool>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    m_eff: usize,
    n_eff: usize,
    c: &mut [f32],
    stride: usize,
) {
    for ir in 0..m_eff {
        let crow = &mut c[ir * stride..ir * stride + n_eff];
        let mut acc = [0.0f32; NR];
        acc[..n_eff].copy_from_slice(crow);
        for kk in 0..kc {
            let a = pa[kk * MR + ir];
            // dv-lint: allow(float-eq, reason = "structural sparsity skip: exact stored zero contributes nothing to the accumulation")
            if SKIP && a == 0.0 {
                continue;
            }
            let brow = &pb[kk * NR..(kk + 1) * NR];
            for (x, &bv) in acc.iter_mut().zip(brow) {
                *x += a * bv;
            }
        }
        crow.copy_from_slice(&acc[..n_eff]);
    }
}

/// Cached handles to the `tensor.gemm.*` registry counters — resolved
/// once, so the per-call cost is plain atomic adds rather than name
/// lookups (which would dominate sub-microsecond small products).
struct GemmCounters {
    calls: &'static dv_trace::Counter,
    small: &'static dv_trace::Counter,
    pack_b_panels: &'static dv_trace::Counter,
    pack_a_panels: &'static dv_trace::Counter,
    tiles: &'static dv_trace::Counter,
}

fn counters() -> &'static GemmCounters {
    static COUNTERS: OnceLock<GemmCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = dv_trace::global();
        GemmCounters {
            calls: reg.counter("tensor.gemm.calls"),
            small: reg.counter("tensor.gemm.small"),
            pack_b_panels: reg.counter("tensor.gemm.pack_b_panels"),
            pack_a_panels: reg.counter("tensor.gemm.pack_a_panels"),
            tiles: reg.counter("tensor.gemm.tiles"),
        }
    })
}

/// Bumps the `tensor.gemm.*` registry counters for one completed product.
fn record_counters(m: usize, k: usize, n: usize) {
    let c = counters();
    c.calls.inc();
    let kblocks = k.div_ceil(KC) as u64;
    let jblocks = n.div_ceil(NC) as u64;
    c.pack_b_panels.add(kblocks * jblocks);
    c.pack_a_panels
        .add(kblocks * jblocks * m.div_ceil(MC) as u64);
    c.tiles
        .add((m.div_ceil(MR) * n.div_ceil(NR)) as u64 * kblocks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{im2col_into, Conv2dGeom};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v: f32 = rng.gen_range(-2.0..2.0);
                // Mix in exact zeros so the skip paths are exercised.
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn packed_gemm_matches_naive_across_shapes_and_blocking_edges() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (9, 7, 17),
            (65, 300, 33),
            (130, 70, 520),
            (1, 150, 32),
        ] {
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, k * n);
            let mut out = vec![1.0f32; m * n];
            for skip in [false, true] {
                gemm(PackA::Rows(&a), PackB::Rows(&b), m, k, n, skip, &mut out);
                let want = naive(&a, m, k, &b, n);
                for (got, want) in out.iter().zip(&want) {
                    assert!((got - want).abs() <= 1e-3, "{m}x{k}x{n}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn trans_pack_sources_match_explicit_transposes() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (13, 21, 9);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let mut at = vec![0.0f32; m * k];
        transpose_into(&a, m, k, &mut at);
        let mut bt = vec![0.0f32; k * n];
        transpose_into(&b, k, n, &mut bt);

        let mut want = vec![0.0f32; m * n];
        gemm(PackA::Rows(&a), PackB::Rows(&b), m, k, n, false, &mut want);

        let mut got = vec![0.0f32; m * n];
        gemm(PackA::Trans(&at), PackB::Rows(&b), m, k, n, false, &mut got);
        assert_eq!(bits(&got), bits(&want), "PackA::Trans");

        gemm(PackA::Rows(&a), PackB::Trans(&bt), m, k, n, false, &mut got);
        assert_eq!(bits(&got), bits(&want), "PackB::Trans");
    }

    #[test]
    fn fused_patches_match_explicit_im2col() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(c, h, w, ks, s, p) in &[(1, 5, 5, 3, 1, 0), (2, 6, 7, 3, 1, 1), (3, 8, 8, 2, 2, 0)] {
            let geom = Conv2dGeom {
                in_channels: c,
                in_h: h,
                in_w: w,
                kernel: ks,
                stride: s,
                pad: p,
            };
            let image = randv(&mut rng, c * h * w);
            let oc = 4;
            let weight = randv(&mut rng, oc * geom.col_rows());
            let mut cols = vec![0.0f32; geom.col_rows() * geom.col_cols()];
            im2col_into(&image, &geom, &mut cols);

            // Forward: direct nest vs `gemm` on explicit cols,
            // same skip semantics.
            let mut want = vec![0.0f32; oc * geom.col_cols()];
            gemm(
                PackA::Rows(&weight),
                PackB::Rows(&cols),
                oc,
                geom.col_rows(),
                geom.col_cols(),
                true,
                &mut want,
            );
            let mut got = vec![0.0f32; oc * geom.col_cols()];
            conv2d_into(&weight, oc, &image, &geom, &mut got);
            assert_eq!(bits(&got), bits(&want), "forward {c}x{h}x{w} k{ks}");

            // Weight gradient vs the explicit `matmul_nt` on cols.
            let g = randv(&mut rng, oc * geom.col_cols());
            let mut want = vec![0.0f32; oc * geom.col_rows()];
            gemm(
                PackA::Rows(&g),
                PackB::Trans(&cols),
                oc,
                geom.col_cols(),
                geom.col_rows(),
                false,
                &mut want,
            );
            let mut got = vec![0.0f32; oc * geom.col_rows()];
            conv2d_grad_weight_into(&g, oc, &image, &geom, &mut got);
            assert_eq!(bits(&got), bits(&want), "grad_weight {c}x{h}x{w} k{ks}");
        }
    }

    #[test]
    fn force_scalar_round_trips() {
        force_scalar_kernels(true);
        assert!(!simd_kernels_active());
        force_scalar_kernels(false);
        assert_eq!(simd_kernels_active(), simd_available());
        // Every x86_64 build carries the AVX kernels behind runtime
        // detection; other targets never report them.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(simd_available(), std::is_x86_feature_detected!("avx"));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!simd_available());
    }

    #[test]
    fn degenerate_dims_zero_the_output() {
        let mut out = vec![5.0f32; 6];
        gemm(PackA::Rows(&[]), PackB::Rows(&[]), 2, 0, 3, true, &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn pairwise_upper_is_symmetric() {
        let q_ref: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut q = vec![0.0f64; 16];
        pairwise_upper_f64(4, &mut q, |i, j| q_ref[i * 4 + j] + q_ref[j * 4 + i]);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(q[i * 4 + j], q[j * 4 + i]);
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
