//! Per-layer measurements for the traced run, taken from outside each
//! crate: timed calls into public functions, the always-on
//! `tensor.gemm.*` counters, and span self-times from dv-trace.

use std::time::Instant;

use dv_core::{DeepValidator, ScoreWorkspace};
use dv_eval::search::SearchSpace;
use dv_nn::{InferencePlan, LayerSpec};
use dv_tensor::{Tensor, Workspace};

use crate::fixture::{self, Images, Model};
use crate::stats::{mean, median};

/// Images per sweep, small enough that one pass of B=1 scoring fits in a
/// thread's span ring without wrapping.
pub const SWEEP_IMAGES: usize = 128;
/// Passes over the sweep images; timings are medians over all passes.
const ROUNDS: usize = 3;
/// Batch width of the batched probes (the serving default `max_batch`).
const BATCH: usize = 8;

/// Results of one layer sweep.
#[derive(Debug, Default)]
pub struct Sweep {
    pub score_into_us: f64,
    pub score_into_clean_us: f64,
    pub score_into_corner_us: f64,
    pub forward_probed_us: f64,
    pub score_batch8_us_per_img: f64,
    pub forward_flat8_us_per_img: f64,
    pub classify_us: f64,
    pub discrepancies_us_per_img: f64,
    pub apply_us_per_img: f64,
    pub fit_s: f64,
    pub gram_self_ms: f64,
    pub conv_gemm_self_us_per_img: f64,
    pub matmul_nt_self_us_per_img: f64,
    pub decision_self_us_per_img: f64,
    pub gemm_calls_per_img: f64,
    pub gemm_small_frac: f64,
    pub conv_gflops: f64,
    /// Spans the rings overwrote during the scoring passes (0 when the
    /// self-times cover every image).
    pub dropped_spans: u64,
}

/// Measures every per-layer probe on `traffic`. Call it inside the run's
/// pool: `apply_batch`, `discrepancies_with_plan` and `fit` fan out.
pub fn sweep(model: &Model, validator: &DeepValidator, traffic: &Images) -> Sweep {
    let images = &traffic.images[..];
    let plan = &*model.plan;
    let taps = validator.validated_probes();
    let mut out = Sweep::default();
    let mut ws = Workspace::new();
    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    let mut results = Vec::new();
    let mut batch_pl = Vec::new();
    let reg = dv_trace::global();
    let gemm_calls = reg.counter("tensor.gemm.calls");
    let gemm_small = reg.counter("tensor.gemm.small");

    let mut forward = Vec::new();
    // `score_into` times of clean and of corner images.
    let mut score = [Vec::new(), Vec::new()];
    let mut score8 = Vec::new();
    let mut forward8 = Vec::new();
    let mut classify = Vec::new();
    let (mut conv_ns, mut matmul_nt_ns, mut decision_ns) = (0u64, 0u64, 0u64);
    let (mut calls, mut small, mut scored) = (0u64, 0u64, 0u64);
    for _ in 0..ROUNDS {
        for img in images {
            let t = Instant::now();
            std::hint::black_box(plan.forward_probed_into(img, taps, &mut ws).logits()[0]);
            forward.push(us(t));
        }

        dv_trace::reset();
        let (calls0, small0) = (gemm_calls.get(), gemm_small.get());
        for (img, &corner) in images.iter().zip(&traffic.corner) {
            let t = Instant::now();
            validator
                .score_into(plan, img, &mut sw, &mut per_layer)
                .expect("sweep images match the plan input");
            score[usize::from(corner)].push(us(t));
        }
        calls += gemm_calls.get() - calls0;
        small += gemm_small.get() - small0;
        scored += images.len() as u64;
        let snap = dv_trace::snapshot();
        out.dropped_spans += snap.dropped;
        for stage in dv_trace::stage_totals(&snap) {
            match stage.name.as_str() {
                "tensor.conv_gemm" => conv_ns += stage.self_ns,
                "tensor.matmul_nt" => matmul_nt_ns += stage.self_ns,
                "ocsvm.decision" => decision_ns += stage.self_ns,
                _ => {}
            }
        }

        for group in images.chunks_exact(BATCH) {
            let t = Instant::now();
            validator
                .score_batch_into(plan, group, &mut sw, &mut results, &mut batch_pl)
                .expect("sweep images match the plan input");
            score8.push(us(t) / BATCH as f64);
            let stacked = Tensor::stack(group);
            let t = Instant::now();
            std::hint::black_box(plan.forward_probed_into(&stacked, taps, &mut ws).logits()[0]);
            forward8.push(us(t) / BATCH as f64);
        }

        for img in images {
            let t = Instant::now();
            std::hint::black_box(plan.classify(img, &mut ws));
            classify.push(us(t));
        }
    }
    out.forward_probed_us = median(&forward).unwrap_or(0.0);
    out.score_into_us = median(&score.concat()).unwrap_or(0.0);
    out.score_into_clean_us = median(&score[0]).unwrap_or(0.0);
    out.score_into_corner_us = median(&score[1]).unwrap_or(0.0);
    out.score_batch8_us_per_img = median(&score8).unwrap_or(0.0);
    out.forward_flat8_us_per_img = median(&forward8).unwrap_or(0.0);
    out.classify_us = median(&classify).unwrap_or(0.0);
    let per_img = |ns: u64| ns as f64 / 1e3 / scored.max(1) as f64;
    out.conv_gemm_self_us_per_img = per_img(conv_ns);
    out.matmul_nt_self_us_per_img = per_img(matmul_nt_ns);
    out.decision_self_us_per_img = per_img(decision_ns);
    out.gemm_calls_per_img = calls as f64 / scored.max(1) as f64;
    out.gemm_small_frac = small as f64 / calls.max(1) as f64;
    out.conv_gflops = if conv_ns == 0 {
        0.0
    } else {
        conv_flops_per_image(plan) * scored as f64 / conv_ns as f64
    };

    // Image transforms: the middle step of every catalogue family.
    let mut apply = Vec::new();
    for space in SearchSpace::catalogue(true) {
        let step = &space.steps()[space.steps().len() / 2];
        let t = Instant::now();
        std::hint::black_box(step.apply_batch(images));
        apply.push(us(t) / images.len() as f64);
    }
    out.apply_us_per_img = mean(&apply).unwrap_or(0.0);

    let mut disc = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        std::hint::black_box(validator.discrepancies_with_plan(plan, images));
        disc.push(us(t) / images.len() as f64);
    }
    out.discrepancies_us_per_img = median(&disc).unwrap_or(0.0);

    dv_trace::reset();
    let mut times = fixture::SetupTimes::default();
    std::hint::black_box(fixture::fit_validator(model, &mut times));
    out.fit_s = times.fit_s;
    out.gram_self_ms = dv_trace::stage_totals(&dv_trace::snapshot())
        .iter()
        .filter(|s| s.name == "ocsvm.gram")
        .map(|s| s.self_ns as f64 / 1e6)
        .sum();
    out
}

/// Microseconds since `t`.
fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Floating-point operations of every convolution for one image,
/// counted from the layer shapes (2 per multiply-add of the dense
/// im2col product; the GEMM's zero skipping is not credited).
pub fn conv_flops_per_image(plan: &InferencePlan) -> f64 {
    plan.layer_specs()
        .into_iter()
        .enumerate()
        .filter_map(|(i, spec)| match spec {
            LayerSpec::Conv2d(c) => {
                let out: usize = plan.op_out_dims(i).iter().product();
                Some(2.0 * (out * c.in_channels * c.kernel * c.kernel) as f64)
            }
            _ => None,
        })
        .sum()
}

/// Mean queue-wait, coalesce-wait, score and respond segments (µs) of
/// every served request whose lifecycle the trace rings still hold,
/// with the number of requests they cover.
pub fn serve_segments() -> ([f64; 4], usize) {
    let snap = dv_trace::snapshot();
    let segs: Vec<dv_trace::Segments> = dv_trace::stitch(&snap)
        .iter()
        .filter_map(dv_trace::segments)
        .collect();
    let avg = |f: fn(&dv_trace::Segments) -> u64| {
        let v: Vec<f64> = segs.iter().map(|s| f(s) as f64 / 1e3).collect();
        mean(&v).unwrap_or(0.0)
    };
    (
        [
            avg(|s| s.queue_wait_ns),
            avg(|s| s.coalesce_wait_ns),
            avg(|s| s.score_ns),
            avg(|s| s.respond_ns),
        ],
        segs.len(),
    )
}
