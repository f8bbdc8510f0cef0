//! Thread-count parity regressions for the parallel tensor kernels.
//!
//! `matmul`, `matmul_nt` and `im2col` fan work out across the
//! `dv-runtime` pool above a size threshold (the convolution forward
//! never does, and is checked here all the same); every output element is
//! still computed exactly once with a fixed accumulation order, so the
//! results must be bit-identical to the single-thread (sequential) path,
//! on both kernel arms.

use std::sync::{Mutex, PoisonError};

use dv_runtime::Pool;
use dv_tensor::conv::{im2col, Conv2dGeom};
use dv_tensor::gemm;
use dv_tensor::matmul::{matmul, matmul_nt};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` once per kernel arm (the forced scalar kernels, then the AVX
/// kernels where the CPU has them), holding a lock so no other test of
/// this file switches the process-wide arm under it.
fn on_both_arms(mut f: impl FnMut()) {
    static ARM: Mutex<()> = Mutex::new(());
    let _arm = ARM.lock().unwrap_or_else(PoisonError::into_inner);
    for forced_scalar in [true, false] {
        gemm::force_scalar_kernels(forced_scalar);
        f();
    }
    gemm::force_scalar_kernels(false);
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: mismatch at element {i}");
    }
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(11);
    // 150x40 * 40x60: several row blocks, well past the FLOP threshold.
    let a = Tensor::randn(&mut rng, &[150, 40], 1.0);
    let b = Tensor::randn(&mut rng, &[40, 60], 1.0);
    on_both_arms(|| {
        let c1 = Pool::new(1).install(|| matmul(&a, &b));
        let c4 = Pool::new(4).install(|| matmul(&a, &b));
        assert_bits_equal(&c1, &c4, "matmul");
    });
}

#[test]
fn matmul_nt_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(12);
    let a = Tensor::randn(&mut rng, &[96, 48], 1.0);
    let b = Tensor::randn(&mut rng, &[80, 48], 1.0);
    on_both_arms(|| {
        let c1 = Pool::new(1).install(|| matmul_nt(&a, &b));
        let c4 = Pool::new(4).install(|| matmul_nt(&a, &b));
        assert_bits_equal(&c1, &c4, "matmul_nt");
    });
}

#[test]
fn im2col_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(13);
    let geom = Conv2dGeom {
        in_channels: 8,
        in_h: 20,
        in_w: 20,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    // 8*3*3 = 72 rows x 400 cols = 28800 elements: past the threshold.
    let image = Tensor::randn(&mut rng, &[8, 20, 20], 1.0);
    let c1 = Pool::new(1).install(|| im2col(&image, &geom));
    let c4 = Pool::new(4).install(|| im2col(&image, &geom));
    assert_bits_equal(&c1, &c4, "im2col");
}

#[test]
fn fused_conv_gemm_is_bit_identical_across_thread_counts() {
    // The convolution forward runs on the calling thread at any size, on
    // either kernel arm, so this 96-channel case never reaches the pool;
    // it pins that a pool install cannot change the bits either way.
    let mut rng = StdRng::seed_from_u64(14);
    let geom = Conv2dGeom {
        in_channels: 8,
        in_h: 20,
        in_w: 20,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let image = Tensor::randn(&mut rng, &[8, 20, 20], 1.0);
    let weight = Tensor::randn(&mut rng, &[96, geom.col_rows()], 1.0);
    let run = || {
        let mut out = vec![0.0f32; 96 * geom.col_cols()];
        dv_tensor::gemm::conv2d_into(weight.data(), 96, image.data(), &geom, &mut out);
        Tensor::from_vec(out, &[96, geom.col_cols()])
    };
    on_both_arms(|| {
        let c1 = Pool::new(1).install(run);
        let c4 = Pool::new(4).install(run);
        assert_bits_equal(&c1, &c4, "conv2d_into");
    });
}

#[test]
fn packed_gemm_panels_are_bit_identical_across_thread_counts() {
    // Deep k (> KC) and wide n (> NC) cross every cache-blocking edge
    // while MC-row chunks fan out across the pool.
    let mut rng = StdRng::seed_from_u64(15);
    let a = Tensor::randn(&mut rng, &[130, 300], 1.0);
    let b = Tensor::randn(&mut rng, &[300, 520], 1.0);
    on_both_arms(|| {
        let c1 = Pool::new(1).install(|| matmul(&a, &b));
        let c4 = Pool::new(4).install(|| matmul(&a, &b));
        assert_bits_equal(&c1, &c4, "packed gemm panels");
    });
}
