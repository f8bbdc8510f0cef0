//! Bit-identity regressions pinning the packed GEMM to the pre-refactor
//! kernels.
//!
//! The reference implementations below are the historical loop nests
//! verbatim (the `BLOCK`-blocked i-k-j `matmul`, the k-outer scatter
//! `matmul_tn`, the dot-product-per-element `matmul_nt`, and the
//! iterator-sum `matvec`). The packed register-tiled kernel must
//! reproduce their output `to_bits`-exactly — including the
//! structural-zero skip semantics of each variant and the signed-zero /
//! non-finite corner cases those make observable — on random shapes with
//! zero-heavy, mixed-magnitude values. The convolution forward and weight
//! gradient are likewise pinned to a verbatim per-element `im2col` + the
//! matching historical product, and `im2col_into` to that same oracle.
//!
//! Tests that flip `gemm::force_scalar_kernels` to run both kernel arms
//! hold [`arm_lock`], so no other such test switches the arm under them.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dv_tensor::conv::{im2col_into, Conv2dGeom};
use dv_tensor::gemm;
use dv_tensor::matmul::{matmul_into, matmul_nt_into, matmul_tn, matvec};
use dv_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BLOCK: usize = 64;

/// Serializes the tests that select a kernel arm through the
/// process-wide `force_scalar_kernels` switch.
fn arm_lock() -> MutexGuard<'static, ()> {
    static ARM: Mutex<()> = Mutex::new(());
    ARM.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pre-refactor `matmul_into` (sequential arm), kept verbatim as oracle.
fn reference_matmul_into(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        let rows = &mut out[i0 * n..i1 * n];
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let crow = &mut rows[(i - i0) * n..(i - i0 + 1) * n];
                for kk in k0..k1 {
                    let aik = ad[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (c, &bv) in crow.iter_mut().zip(brow) {
                        *c += aik * bv;
                    }
                }
            }
        }
    }
}

/// Pre-refactor `matmul_tn`, kept verbatim as oracle.
fn reference_matmul_tn(ad: &[f32], k: usize, m: usize, bd: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        let arow = &ad[kk * m..(kk + 1) * m];
        let brow = &bd[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let crow = &mut out[i * n..(i + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    out
}

/// Pre-refactor `matmul_nt_into` (sequential arm), kept verbatim as oracle.
fn reference_matmul_nt_into(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let crow = &mut out[i * n..(i + 1) * n];
        for (j, c) in crow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *c = acc;
        }
    }
}

/// Pre-refactor `im2col_into` row fill (a per-element bounds test on
/// every tap of a zero-filled column matrix), kept verbatim as oracle.
fn reference_im2col(data: &[f32], geom: &Conv2dGeom) -> Vec<f32> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let mut out = vec![0.0f32; geom.col_rows() * oh * ow];
    for (row, dst) in out.chunks_mut(oh * ow).enumerate() {
        let (h, w) = (geom.in_h as isize, geom.in_w as isize);
        let kx = row % k;
        let ky = (row / k) % k;
        let c = row / (k * k);
        let chan = &data[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for oy in 0..oh {
            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
            if iy < 0 || iy >= h {
                continue;
            }
            for ox in 0..ow {
                let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                if ix < 0 || ix >= w {
                    continue;
                }
                dst[oy * ow + ox] = chan[iy as usize * geom.in_w + ix as usize];
            }
        }
    }
    out
}

/// Pre-refactor `matvec`, kept verbatim as oracle.
fn reference_matvec(ad: &[f32], m: usize, k: usize, xd: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        let row = &ad[i * k..(i + 1) * k];
        *o = row.iter().zip(xd).map(|(a, b)| a * b).sum();
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Zero-heavy, mixed-magnitude values: roughly a third exact zeros (both
/// signs) so every skip path is exercised, the rest spanning several
/// orders of magnitude so accumulation-order differences would show.
fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let mag: f32 = rng.gen_range(-2.5f32..2.5);
            match rng.gen_range(0u32..6) {
                0 => 0.0,
                1 => -0.0,
                2 => mag * 1e-4,
                3 => mag * 1e4,
                _ => mag,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_matmul_is_bit_identical_to_reference(
        (m, k, n) in (1usize..=24, 1usize..=24, 1usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        reference_matmul_into(&a, m, k, &b, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_into(&a, m, k, &b, n, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "{}x{}x{}", m, k, n);
    }

    #[test]
    fn packed_matmul_tn_is_bit_identical_to_reference(
        (k, m, n) in (1usize..=24, 1usize..=24, 1usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randv(&mut rng, k * m); // stored [k, m]
        let b = randv(&mut rng, k * n);
        let want = reference_matmul_tn(&a, k, m, &b, n);
        let got = matmul_tn(
            &Tensor::from_vec(a, &[k, m]),
            &Tensor::from_vec(b, &[k, n]),
        );
        prop_assert_eq!(bits(got.data()), bits(&want), "{}x{}x{}", k, m, n);
    }

    #[test]
    fn packed_matmul_nt_is_bit_identical_to_reference(
        (m, k, n) in (1usize..=24, 1usize..=24, 1usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, n * k); // stored [n, k]
        let mut want = vec![0.0f32; m * n];
        reference_matmul_nt_into(&a, m, k, &b, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_nt_into(&a, m, k, &b, n, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "{}x{}x{}", m, k, n);
    }

    #[test]
    fn packed_matvec_is_bit_identical_to_reference(
        (m, k) in (1usize..=24, 1usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randv(&mut rng, m * k);
        let x = randv(&mut rng, k);
        let want = reference_matvec(&a, m, k, &x);
        let got = matvec(
            &Tensor::from_vec(a, &[m, k]),
            &Tensor::from_vec(x, &[k]),
        );
        prop_assert_eq!(bits(got.data()), bits(&want), "{}x{}", m, k);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strides 1..=3 and pads 0..=2 against kernels 1..=5 on inputs down
    /// to 1x1, so whole rows and columns of the column matrix can be
    /// padding (pad >= kernel), and runs can start and end mid-row. Inputs
    /// up to 34x34 give outputs past 128 pixels, so the AVX forward's bands
    /// split, and every width of 16- and 8-pixel tiles and partial tails;
    /// the forward runs on both kernel arms. Half the cases (`dense`)
    /// replace the weights' exact zeros, so every whole 4-channel block
    /// takes the AVX forward's register tile; zero-heavy weights send
    /// almost every block through its scalar chain instead.
    #[test]
    fn fused_conv_forward_is_bit_identical_to_explicit_im2col(
        (c, h, w) in (1usize..=3, 1usize..=34, 1usize..=34),
        (ks, stride, pad, oc) in (1usize..=5, 1usize..=3, 0usize..=2, 1usize..=16),
        seed in 0u64..1_000_000,
        dense in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= ks && w + 2 * pad >= ks);
        let geom = Conv2dGeom { in_channels: c, in_h: h, in_w: w, kernel: ks, stride, pad };
        let tag = format!("{c}x{h}x{w} k{ks} s{stride} p{pad} oc{oc} dense={dense}");
        let mut rng = StdRng::seed_from_u64(seed);
        let image = randv(&mut rng, c * h * w);
        let mut weight = randv(&mut rng, oc * geom.col_rows());
        if dense == 1 {
            for x in weight.iter_mut().filter(|x| **x == 0.0) {
                *x = 1.5;
            }
        }
        let cols = reference_im2col(&image, &geom);

        // The shared patch gather, through its explicit entry point; the
        // buffer starts dirty because every element must be written.
        let mut got = vec![f32::NAN; cols.len()];
        im2col_into(&image, &geom, &mut got);
        prop_assert_eq!(bits(&got), bits(&cols), "im2col {}", tag);

        // Forward, on both arms, vs historical matmul on the cols.
        let mut want = vec![0.0f32; oc * geom.col_cols()];
        reference_matmul_into(&weight, oc, geom.col_rows(), &cols, geom.col_cols(), &mut want);
        let _arm = arm_lock();
        for scalar in [true, false] {
            gemm::force_scalar_kernels(scalar);
            let mut got = vec![f32::NAN; oc * geom.col_cols()];
            gemm::conv2d_into(&weight, oc, &image, &geom, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "conv {} scalar={}", tag, scalar);
        }
        gemm::force_scalar_kernels(false);

        // Weight gradient vs historical nt on the cols.
        let g = randv(&mut rng, oc * geom.col_cols());
        let mut want = vec![0.0f32; oc * geom.col_rows()];
        reference_matmul_nt_into(&g, oc, geom.col_cols(), &cols, geom.col_rows(), &mut want);
        let mut got = vec![f32::NAN; oc * geom.col_rows()];
        gemm::conv2d_grad_weight_into(&g, oc, &image, &geom, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "grad {}", tag);
    }
}

/// Larger-than-`KC`/`MC` shapes hit the cache-blocking and parallel-split
/// edges; pin them against the references directly (both sequential and
/// under a multi-thread pool — the references are sequential oracles).
#[test]
fn blocking_edges_are_bit_identical_to_reference() {
    let mut rng = StdRng::seed_from_u64(99);
    for &(m, k, n) in &[(65, 300, 33), (130, 70, 120), (70, 65, 130), (1, 513, 9)] {
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        reference_matmul_into(&a, m, k, &b, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_into(&a, m, k, &b, n, &mut got);
        assert_eq!(bits(&got), bits(&want), "matmul {m}x{k}x{n}");

        let bt = randv(&mut rng, n * k);
        let mut want = vec![0.0f32; m * n];
        reference_matmul_nt_into(&a, m, k, &bt, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_nt_into(&a, m, k, &bt, n, &mut got);
        assert_eq!(bits(&got), bits(&want), "matmul_nt {m}x{k}x{n}");
    }
}

/// Non-finite corner cases where the per-variant skip semantics are
/// observable: `matmul` skips `0.0 * inf` (keeping the other terms
/// finite) while `matmul_nt` faithfully produces NaN.
#[test]
fn skip_semantics_match_reference_on_nonfinite_inputs() {
    let a = [0.0f32, -1.0, f32::INFINITY, 0.0];
    let b = [f32::INFINITY, 2.0, 0.0, -0.0];
    let mut want = vec![0.0f32; 4];
    reference_matmul_into(&a, 2, 2, &b, 2, &mut want);
    let mut got = vec![0.0f32; 4];
    matmul_into(&a, 2, 2, &b, 2, &mut got);
    assert_eq!(bits(&got), bits(&want), "matmul skip on non-finite");

    let mut want = vec![0.0f32; 4];
    reference_matmul_nt_into(&a, 2, 2, &b, 2, &mut want);
    let mut got = vec![0.0f32; 4];
    matmul_nt_into(&a, 2, 2, &b, 2, &mut got);
    assert_eq!(bits(&got), bits(&want), "matmul_nt no-skip on non-finite");
}

/// A row of exact zeros (both signs) against a column with a negative
/// entry yields `+0.0`. This pins the result, not the skip: from a `+0.0`
/// seed, round-to-nearest gives `+0.0 + -0.0 == +0.0`, so the signed-zero
/// products are invisible with or without it. The non-finite tests
/// (`skip_semantics_match_reference_on_nonfinite_inputs` and
/// `conv_zero_weights_skip_nonfinite_pixels_on_both_arms`) guard the skip.
#[test]
fn signed_zero_rows_stay_positive_zero_under_skip() {
    let a = [0.0f32, -0.0];
    let b = [-5.0f32, 3.0];
    let mut want = vec![0.0f32; 1];
    reference_matmul_into(&a, 1, 2, &b, 1, &mut want);
    let mut got = vec![0.0f32; 1];
    matmul_into(&a, 1, 2, &b, 1, &mut got);
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(got[0].to_bits(), 0.0f32.to_bits());
}

/// The convolution's weight-side zero skip, where it is observable:
/// exact-zero weights against `±inf` and NaN pixels. `0 * inf` is NaN, so
/// an arm that drops the skip turns outputs NaN that the reference keeps
/// finite. Channels 0..4 are one whole zero block and 4..8 a block with
/// isolated zeros (both take the AVX forward's scalar chain), 8..12 a
/// block without zeros (its register tile, which has no zero test) and
/// 12..14 the channels past the last block, with a zero each. The 13x13
/// output (169 pixels) splits into two bands of the AVX forward, each
/// with 16- and 8-pixel tiles and a partial tail.
#[test]
fn conv_zero_weights_skip_nonfinite_pixels_on_both_arms() {
    let mut rng = StdRng::seed_from_u64(23);
    let geom = Conv2dGeom {
        in_channels: 2,
        in_h: 13,
        in_w: 13,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let (k, n, oc) = (geom.col_rows(), geom.col_cols(), 14);
    let mut image: Vec<f32> = (0..2 * 13 * 13)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    for (i, v) in [(5, f32::INFINITY), (40, f32::NAN), (97, f32::NEG_INFINITY)] {
        image[i] = v;
        image[169 + i + 31] = v;
    }
    let mut weight: Vec<f32> = (0..oc * k).map(|_| rng.gen_range(0.5f32..2.0)).collect();
    weight[..4 * k].fill(0.0);
    for (c, kk) in [(4, 0), (5, 4), (6, 8), (7, 13), (7, 17), (12, 4), (13, 9)] {
        weight[c * k + kk] = if kk % 2 == 0 { 0.0 } else { -0.0 };
    }
    let cols = reference_im2col(&image, &geom);
    let mut want = vec![0.0f32; oc * n];
    reference_matmul_into(&weight, oc, k, &cols, n, &mut want);
    assert!(want[..4 * n].iter().all(|&v| v.to_bits() == 0));
    // The same product without the skip differs on every channel that
    // holds a zero, so an arm that drops it cannot pass.
    let mut no_skip = vec![0.0f32; oc * n];
    for (c, orow) in no_skip.chunks_exact_mut(n).enumerate() {
        for (kk, brow) in cols.chunks_exact(n).enumerate() {
            let a = weight[c * k + kk];
            for (x, &bv) in orow.iter_mut().zip(brow) {
                *x += a * bv;
            }
        }
    }
    for c in (0..8).chain(12..14) {
        let row = c * n..(c + 1) * n;
        assert_ne!(bits(&no_skip[row.clone()]), bits(&want[row]), "channel {c}");
    }

    let _arm = arm_lock();
    for scalar in [true, false] {
        gemm::force_scalar_kernels(scalar);
        let mut got = vec![f32::NAN; oc * n];
        gemm::conv2d_into(&weight, oc, &image, &geom, &mut got);
        assert_eq!(bits(&got), bits(&want), "scalar={scalar}");
    }
    gemm::force_scalar_kernels(false);
}

/// The AVX kernels must produce the same bits as the forced-scalar
/// kernels on every variant and shape class (full tiles, edge tiles, the
/// m = 1 dense taps). On a CPU without AVX both runs are scalar.
mod simd_parity {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn simd_and_scalar_kernels_agree_bitwise(
            (m, k, n) in (1usize..=40, 1usize..=40, 1usize..=40),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, k * n);
            let bt = randv(&mut rng, n * k);

            let _arm = arm_lock();
            gemm::force_scalar_kernels(true);
            let mut scalar = vec![0.0f32; m * n];
            matmul_into(&a, m, k, &b, n, &mut scalar);
            let mut scalar_nt = vec![0.0f32; m * n];
            matmul_nt_into(&a, m, k, &bt, n, &mut scalar_nt);
            gemm::force_scalar_kernels(false);

            let mut simd = vec![0.0f32; m * n];
            matmul_into(&a, m, k, &b, n, &mut simd);
            prop_assert_eq!(bits(&simd), bits(&scalar), "matmul {}x{}x{}", m, k, n);
            let mut simd_nt = vec![0.0f32; m * n];
            matmul_nt_into(&a, m, k, &bt, n, &mut simd_nt);
            prop_assert_eq!(bits(&simd_nt), bits(&scalar_nt), "nt {}x{}x{}", m, k, n);
        }
    }
}
