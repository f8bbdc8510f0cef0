//! Measures the dv-runtime speedup on the pipeline's hot paths and
//! writes `BENCH_runtime.json`: sequential (1-thread pool) vs parallel
//! wall-clock for the Gram matrix, OCSVM training, batch inference and
//! batch discrepancy scoring, each with a bit-identity check between the
//! two arms.

use dv_bench::models::stripe_fixture;
use dv_core::{DeepValidator, ValidatorConfig};
use dv_nn::train::predict_labels;
use dv_ocsvm::{OcsvmParams, OneClassSvm, ResolvedKernel};
use dv_runtime::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum wall-clock over `reps` runs, in milliseconds, read from the
/// shared trace clock.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = dv_trace::Stopwatch::start();
        let out = f();
        best = best.min(t.elapsed_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

struct Row {
    name: &'static str,
    seq_ms: f64,
    par_ms: f64,
    identical: bool,
}

fn run<R, F>(
    name: &'static str,
    threads: usize,
    reps: usize,
    mut f: F,
    same: impl Fn(&R, &R) -> bool,
) -> Row
where
    F: FnMut() -> R,
{
    let seq_pool = Pool::new(1);
    let (seq_ms, seq_out) = seq_pool.install(|| time_ms(reps, &mut f));
    let par_pool = Pool::new(threads);
    let (par_ms, par_out) = par_pool.install(|| time_ms(reps, &mut f));
    Row {
        name,
        seq_ms,
        par_ms,
        identical: same(&seq_out, &par_out),
    }
}

fn blob(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn main() {
    let threads = dv_runtime::config::requested_threads()
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(4)
        .max(2);
    eprintln!("comparing 1 thread vs {threads} threads...");
    let mut rows = Vec::new();

    let gram_data = blob(300, 64, 5);
    let kernel = ResolvedKernel::Rbf { gamma: 0.5 };
    rows.push(run(
        "ocsvm_gram_n300_d64",
        threads,
        3,
        || kernel.gram(&gram_data),
        |a, b| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
    ));

    let fit_data = blob(200, 64, 7);
    rows.push(run(
        "ocsvm_fit_n200_d64",
        threads,
        3,
        || OneClassSvm::fit(&fit_data, &OcsvmParams::default()).expect("fit failed"),
        |a, b| {
            a.rho().to_bits() == b.rho().to_bits()
                && fit_data
                    .iter()
                    .all(|row| a.decision(row).to_bits() == b.decision(row).to_bits())
        },
    ));

    let (net, images, labels) = stripe_fixture();
    let plan = net.plan();
    rows.push(run(
        "batch_inference_n96",
        threads,
        3,
        || predict_labels(&plan, &images),
        |a, b| a == b,
    ));

    let validator = Pool::new(1).install(|| {
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
            .expect("validator fit failed")
    });
    rows.push(run(
        "batch_discrepancy_n96",
        threads,
        3,
        || validator.discrepancies_with_plan(&plan, &images),
        |a, b| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.predicted == y.predicted && x.joint.to_bits() == y.joint.to_bits())
        },
    ));

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.seq_ms / r.par_ms;
        eprintln!(
            "  {:<24} seq {:8.2} ms  par {:8.2} ms  speedup {:.2}x  identical: {}",
            r.name, r.seq_ms, r.par_ms, speedup, r.identical
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seq_ms\": {:.3}, \"par_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}{}\n",
            r.name,
            r.seq_ms,
            r.par_ms,
            speedup,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_runtime.json", &json).expect("cannot write BENCH_runtime.json");
    println!("{json}");
    eprintln!("wrote BENCH_runtime.json");
}
