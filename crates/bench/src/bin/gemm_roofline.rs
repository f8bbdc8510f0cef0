//! GEMM roofline microbenchmark: the dv-tensor kernels vs the
//! pre-refactor loop nests, written to `BENCH_gemm.json`.
//!
//! Measures GFLOP/s on the hot shapes of this workspace's traced
//! runs — the four convolutions of the digits model, the two dense
//! probe taps, and a gram-style `A * B^T` — plus a compute-bound 256^3
//! roofline shape. Three arms per row: the verbatim pre-refactor kernels
//! (`reference`: the blocked nest, and for a convolution an explicit
//! per-element im2col feeding it), the dv-tensor kernel forced onto its
//! scalar arm (`kernel_scalar`: `gemm::gemm`, or `gemm::conv2d_into` for a
//! convolution), and its AVX arm when the CPU has AVX (`kernel_simd`; the
//! AVX kernels are in every x86_64 build). Kernel arms run on one thread
//! and on a 4-thread pool; small shapes fall below the kernel's parallel
//! threshold and report the same number for both.
//!
//! All arms are checked bit-identical per row before timing — the
//! speedups below are for byte-for-byte the same outputs. Runs as a CI
//! smoke with `--quick` (`cargo run --release -p dv-bench --bin
//! gemm_roofline -- --quick`), which writes under `target/quick/`.

use std::path::Path;

use dv_bench::models;
use dv_datasets::DatasetSpec;
use dv_runtime::Pool;
use dv_tensor::conv::Conv2dGeom;
use dv_tensor::gemm::{self, PackA, PackB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Block size of the pre-refactor kernels (kept for the baseline arm).
const BLOCK: usize = 64;

/// Verbatim pre-refactor `matmul_into` loop nest: i-k-j over `BLOCK`
/// tiles with the structural lhs zero-skip.
fn reference_packed_c_eq_ab(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i0 in (0..m).step_by(BLOCK) {
        for k0 in (0..k).step_by(BLOCK) {
            for i in i0..(i0 + BLOCK).min(m) {
                let row = &mut out[i * n..(i + 1) * n];
                for kk in k0..(k0 + BLOCK).min(k) {
                    let a = ad[i * k + kk];
                    // dv-lint: allow(float-eq, reason = "structural sparsity skip copied verbatim from the pre-refactor kernel")
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (o, &b) in row.iter_mut().zip(brow) {
                        *o += a * b;
                    }
                }
            }
        }
    }
}

/// Verbatim pre-refactor `matmul_nt_into` loop nest: per-element dot of
/// two rows with an explicit `0.0f32` accumulator and no zero-skip.
fn reference_c_eq_abt(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Verbatim pre-refactor im2col row fill: a per-element bounds test on
/// every tap of a zero-filled `[C*k*k, out_h*out_w]` column matrix.
fn reference_im2col(data: &[f32], geom: &Conv2dGeom, out: &mut [f32]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    out.fill(0.0);
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
}

struct Shape {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    /// `C = A * B^T` (dense-layer / gram layout) instead of `C = A * B`.
    nt: bool,
}

const SHAPES: &[Shape] = &[
    // Dense probe taps score one image at a time.
    Shape {
        label: "dense1_150_32",
        m: 1,
        k: 150,
        n: 32,
        nt: true,
    },
    Shape {
        label: "dense1_32_4",
        m: 1,
        k: 32,
        n: 4,
        nt: true,
    },
    // Gram-style block: every row dotted with every row.
    Shape {
        label: "gram96_34_96",
        m: 96,
        k: 34,
        n: 96,
        nt: true,
    },
    // Compute-bound roofline point.
    Shape {
        label: "roofline256",
        m: 256,
        k: 256,
        n: 256,
        nt: false,
    },
];

/// Minimum per-call wall-clock in microseconds over `reps` sweeps of
/// `iters` calls. Times with `dv_trace::Stopwatch` but keeps the minimum
/// by hand — shape × arm × thread-count crosses would exhaust the
/// registry's fixed histogram pool.
fn time_call_us(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut min = u64::MAX;
    for _ in 0..reps {
        let t = dv_trace::Stopwatch::start();
        for _ in 0..iters {
            f();
        }
        min = min.min(t.elapsed_us());
    }
    min as f64 / iters as f64
}

struct ArmResult {
    name: String,
    gflops: f64,
}

fn gflops(flops: f64, call_us: f64) -> f64 {
    flops / (call_us * 1e3)
}

/// One benchmark row's output: arms plus single-thread speedups over the
/// reference (scalar and, when available, simd).
struct Row {
    arms: Vec<ArmResult>,
    speedup_scalar: f64,
    speedup_simd: f64,
}

/// Gates `kernel` bit-identical to `reference` on both kernel arms, then
/// times the reference and every available kernel arm. `flops` is the
/// row's multiply-add count times two.
fn run_row(
    label: &str,
    flops: f64,
    out_len: usize,
    quick: bool,
    mut reference: impl FnMut(&mut [f32]),
    kernel: impl Fn(&mut [f32]),
) -> Row {
    let mut c_ref = vec![0.0f32; out_len];
    let mut c = vec![0.0f32; out_len];
    // Size sweeps to ~20M flops so tiny shapes amortise the clock reads.
    let iters = ((2e7 / flops) as usize).clamp(1, 50_000) / if quick { 10 } else { 1 };
    let iters = iters.max(1);
    let reps = if quick { 2 } else { 5 };

    // Bit-identity gate: the speedups below compare identical outputs.
    reference(&mut c_ref);
    for forced_scalar in [true, false] {
        gemm::force_scalar_kernels(forced_scalar);
        kernel(&mut c);
        assert!(
            c.iter()
                .zip(&c_ref)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{label}: kernel (force_scalar={forced_scalar}) diverged from reference"
        );
    }

    let mut arms = Vec::new();
    let pool1 = Pool::new(1);
    let us_ref = pool1.install(|| {
        time_call_us(reps, iters, || {
            reference(&mut c);
            std::hint::black_box(&c);
        })
    });
    arms.push(ArmResult {
        name: "reference_1t".into(),
        gflops: gflops(flops, us_ref),
    });

    let (mut scalar_1t, mut simd_1t) = (f64::NAN, f64::NAN);
    for (arm, scalar) in [("kernel_scalar", true), ("kernel_simd", false)] {
        if !scalar && !gemm::simd_available() {
            continue;
        }
        gemm::force_scalar_kernels(scalar);
        for threads in [1usize, 4] {
            if quick && threads != 1 {
                continue;
            }
            let us = Pool::new(threads).install(|| {
                time_call_us(reps, iters, || {
                    kernel(&mut c);
                    std::hint::black_box(&c);
                })
            });
            let g = gflops(flops, us);
            if threads == 1 {
                if scalar {
                    scalar_1t = g;
                } else {
                    simd_1t = g;
                }
            }
            arms.push(ArmResult {
                name: format!("{arm}_{threads}t"),
                gflops: g,
            });
        }
    }
    gemm::force_scalar_kernels(false);

    let ref_1t = arms[0].gflops;
    Row {
        arms,
        speedup_scalar: scalar_1t / ref_1t,
        speedup_simd: simd_1t / ref_1t,
    }
}

fn run_shape(shape: &Shape, quick: bool) -> Row {
    let &Shape { label, m, k, n, nt } = shape;
    let mut rng = StdRng::seed_from_u64(42);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let flops = 2.0 * (m * k * n) as f64;
    run_row(
        label,
        flops,
        m * n,
        quick,
        |out| {
            if nt {
                reference_c_eq_abt(&a, m, k, &b, n, out);
            } else {
                reference_packed_c_eq_ab(&a, m, k, &b, n, out);
            }
        },
        |out| {
            if nt {
                gemm::gemm(PackA::Rows(&a), PackB::Trans(&b), m, k, n, false, out);
            } else {
                gemm::gemm(PackA::Rows(&a), PackB::Rows(&b), m, k, n, true, out);
            }
        },
    )
}

/// A model convolution: `conv2d_into` against explicit reference im2col
/// feeding the reference nest (timed together, as the lowering is part of
/// the work either way). The image is ReLU-sparse, like the model's
/// inner conv inputs.
fn run_conv(label: &str, geom: &Conv2dGeom, oc: usize, quick: bool) -> Row {
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let mut rng = StdRng::seed_from_u64(42);
    let image: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
        .map(|_| rng.gen_range(-1.0f32..1.0).max(0.0))
        .collect();
    let weight: Vec<f32> = (0..oc * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut cols = vec![0.0f32; k * n];
    run_row(
        label,
        2.0 * (oc * k * n) as f64,
        oc * n,
        quick,
        |out| {
            reference_im2col(&image, geom, &mut cols);
            reference_packed_c_eq_ab(&weight, oc, k, &cols, n, out);
        },
        |out| gemm::conv2d_into(&weight, oc, &image, geom, out),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut json = String::from("  \"shapes\": [\n");

    let mut rows = Vec::new();
    for (i, (geom, oc)) in models::conv_layers(DatasetSpec::SynthDigits)
        .iter()
        .enumerate()
    {
        let label = format!("digits_conv{}", i + 1);
        let row = run_conv(&label, geom, *oc, quick);
        let desc = format!(
            "\"m\": {oc}, \"k\": {}, \"n\": {}, \"layout\": \"conv {}x{}x{} k{} p{}\"",
            geom.col_rows(),
            geom.col_cols(),
            geom.in_channels,
            geom.in_h,
            geom.in_w,
            geom.kernel,
            geom.pad
        );
        rows.push((label, desc, row));
    }
    for shape in SHAPES {
        let desc = format!(
            "\"m\": {}, \"k\": {}, \"n\": {}, \"layout\": \"{}\"",
            shape.m,
            shape.k,
            shape.n,
            if shape.nt { "nt" } else { "nn" }
        );
        rows.push((shape.label.to_string(), desc, run_shape(shape, quick)));
    }

    // Geometric mean of the single-thread simd-vs-reference speedups on
    // the hot (non-roofline) rows — the headline number.
    let mut log_sum = 0.0f64;
    let mut hot = 0usize;
    let speedup = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".into()
        }
    };
    for (ri, (label, desc, row)) in rows.iter().enumerate() {
        eprintln!("{label}");
        json.push_str(&format!("    {{\"label\": \"{label}\", {desc},\n"));
        json.push_str("     \"gflops\": {");
        for (i, arm) in row.arms.iter().enumerate() {
            eprintln!("  {:<18} {:8.3} GFLOP/s", arm.name, arm.gflops);
            json.push_str(&format!(
                "\"{}\": {:.3}{}",
                arm.name,
                arm.gflops,
                if i + 1 < row.arms.len() { ", " } else { "" }
            ));
        }
        json.push_str("},\n");
        json.push_str(&format!(
            "     \"speedup_scalar_1t\": {}, \"speedup_simd_1t\": {}\n",
            speedup(row.speedup_scalar),
            speedup(row.speedup_simd)
        ));
        if row.speedup_simd.is_finite() && label != "roofline256" {
            log_sum += row.speedup_simd.ln();
            hot += 1;
        }
        json.push_str(&format!(
            "    }}{}\n",
            if ri + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let headline = if hot > 0 {
        (log_sum / hot as f64).exp()
    } else {
        f64::NAN
    };
    json.push_str(&format!(
        "  \"speedup_single_thread_hot_shapes\": {}\n",
        speedup(headline)
    ));
    if headline.is_finite() {
        eprintln!("single-thread simd speedup on hot shapes (geomean): {headline:.2}x");
    }
    dv_bench::artifact::write_bench(Path::new("."), "gemm", quick, &json)
        .expect("cannot write BENCH_gemm.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero-heavy, mixed-magnitude values with exact zeros of both signs,
    /// so skip semantics and accumulation order would both show.
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every convolution of every model (and its stride-2 variant), forward
    /// and weight gradient, on both kernel arms: the same bits as the
    /// reference lowering feeding the pre-refactor nests.
    #[test]
    fn every_model_conv_matches_the_reference_lowering() {
        let mut rng = StdRng::seed_from_u64(5);
        for spec in DatasetSpec::all() {
            for (model_geom, oc) in models::conv_layers(spec) {
                for stride in [1, 2] {
                    let geom = Conv2dGeom {
                        stride,
                        ..model_geom
                    };
                    let (k, n) = (geom.col_rows(), geom.col_cols());
                    let image = randv(&mut rng, geom.in_channels * geom.in_h * geom.in_w);
                    let weight = randv(&mut rng, oc * k);
                    let g = randv(&mut rng, oc * n);
                    let mut cols = vec![0.0f32; k * n];
                    reference_im2col(&image, &geom, &mut cols);
                    let mut want = vec![0.0f32; oc * n];
                    reference_packed_c_eq_ab(&weight, oc, k, &cols, n, &mut want);
                    let mut want_gw = vec![0.0f32; oc * k];
                    reference_c_eq_abt(&g, oc, n, &cols, k, &mut want_gw);
                    for scalar in [true, false] {
                        gemm::force_scalar_kernels(scalar);
                        let tag = format!("{spec} {geom:?} oc{oc} scalar={scalar}");
                        let mut got = vec![0.0f32; oc * n];
                        gemm::conv2d_into(&weight, oc, &image, &geom, &mut got);
                        assert_eq!(bits(&got), bits(&want), "forward {tag}");
                        let mut got = vec![0.0f32; oc * k];
                        gemm::conv2d_grad_weight_into(&g, oc, &image, &geom, &mut got);
                        assert_eq!(bits(&got), bits(&want_gw), "grad weight {tag}");
                    }
                    gemm::force_scalar_kernels(false);
                }
            }
        }
    }
}
