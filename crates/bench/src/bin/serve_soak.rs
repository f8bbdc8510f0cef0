//! Fault-injection soak harness for the dv-serve frontend. Writes
//! `BENCH_serving.json` with three phases:
//!
//! - **identity**: with injection disabled and a generous deadline,
//!   every served response must be bit-identical to the direct
//!   `score_into` path, and `score_batch_into` over every batch width
//!   must match B single calls bit-for-bit (the acceptance gate that
//!   runs before any timing).
//! - **soak**: a sustained request stream under injected worker panics,
//!   latency spikes, and client-side NaN poisoning, with the client
//!   riding `RetryPolicy` backoff off the `QueueFull { retry_after }`
//!   hint; asserts zero lost or hung requests (every outcome terminal,
//!   accounting exact through every crash) and that backoff keeps
//!   rejections ≥10x below the seed's 831.
//! - **deadline sweep**: degrade-rate vs deadline curve with injection
//!   off — how the full/reduced/confidence rung mix shifts as the
//!   per-request deadline tightens.
//!
//! `--quick` shrinks the request counts for CI (and writes under
//! `target/quick/`); the rejection-reduction assert scales with the
//! offered load so it gates both modes.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dv_bench::soak::{quiet_injected_panics, stripe_validator, submit_with_retry};
use dv_core::{DeepValidator, ScoreWorkspace};
use dv_nn::InferencePlan;
use dv_serve::{FaultPlan, ScoreError, ServeConfig, ServedVia, Server, ShutdownPolicy};
use dv_tensor::Tensor;

fn base_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        deadline: Duration::from_secs(1),
        shutdown: ShutdownPolicy::Drain,
        reduced_taps: 1,
        faults: None,
        breaker: None,
    }
}

/// The batched half of the identity gate: `score_batch_into` over every
/// width 1..=8 must reproduce B single `score_into` calls bit-for-bit.
/// This runs before any timing so a broken batch path can never publish
/// throughput numbers.
fn batch_identity(
    validator: &Arc<DeepValidator>,
    plan: &Arc<InferencePlan>,
    images: &[Tensor],
) -> bool {
    let mut single_sw = ScoreWorkspace::new();
    let mut batch_sw = ScoreWorkspace::new();
    let mut single_pl = Vec::new();
    let mut results = Vec::new();
    let mut batch_pl = Vec::new();
    let mut identical = true;
    for width in 1..=8usize {
        for chunk in images.chunks(width) {
            validator
                .score_batch_into(plan, chunk, &mut batch_sw, &mut results, &mut batch_pl)
                .expect("fixture images are well-formed");
            let layers = batch_pl.len() / chunk.len();
            for (bi, img) in chunk.iter().enumerate() {
                let (p, c) = validator
                    .score_into(plan, img, &mut single_sw, &mut single_pl)
                    .expect("fixture images are well-formed");
                let row = &batch_pl[bi * layers..(bi + 1) * layers];
                identical &= results[bi].0 == p
                    && results[bi].1.to_bits() == c.to_bits()
                    && row.len() == single_pl.len()
                    && row
                        .iter()
                        .zip(&single_pl)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
            }
        }
    }
    identical
}

/// Phase A: injection off, generous deadline — every response must be
/// bit-identical to the direct scoring path.
fn phase_identity(
    validator: &Arc<DeepValidator>,
    plan: &Arc<InferencePlan>,
    images: &[Tensor],
) -> bool {
    let mut cfg = base_cfg();
    cfg.queue_capacity = images.len();
    let server = Server::start(Arc::clone(validator), Arc::clone(plan), cfg);
    let pendings: Vec<_> = images
        .iter()
        .map(|img| {
            server
                .try_submit(img.clone())
                .expect("queue is sized to hold the whole fixture burst")
        })
        .collect();

    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    let mut identical = true;
    for (img, pending) in images.iter().zip(pendings) {
        let resp = pending
            .wait()
            .expect("fault-free serving with a 1s deadline never fails");
        let (p, c) = validator
            .score_into(plan, img, &mut sw, &mut per_layer)
            .expect("fixture images are well-formed");
        let joint = per_layer.iter().sum::<f32>();
        identical &= resp.via == ServedVia::FullJoint
            && resp.predicted == p
            && resp.confidence.to_bits() == c.to_bits()
            && resp.per_layer.len() == per_layer.len()
            && resp
                .per_layer
                .iter()
                .zip(&per_layer)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && resp.joint.map(f32::to_bits) == Some(joint.to_bits());
    }
    let m = server.shutdown();
    identical && m.terminal_outcomes() == m.submitted
}

struct SoakReport {
    requests: u64,
    wall_s: f64,
    snapshot: dv_serve::MetricsSnapshot,
    lost_or_hung: u64,
}

/// Phase B: sustained stream under injected panics, latency spikes and
/// client-side NaN poisoning. Every accepted request must resolve to a
/// terminal outcome; the counter accounting must be exact, crashes
/// included.
///
/// The client honors backpressure with [`submit_with_retry`]: on a
/// rejection it backs off long enough for a full queue's worth of slots
/// to drain rather than racing the very next free one — one rejection
/// then buys on the order of `queue_capacity` accepted submissions
/// instead of one. The queue stays at 128 (not deeper) deliberately:
/// under the injected fault load the effective per-job drain time is
/// ~10x the fault-free cost, and a deeper queue would trade the
/// rejections for deadline expirations instead of throughput.
fn phase_soak(
    validator: &Arc<DeepValidator>,
    plan: &Arc<InferencePlan>,
    images: &[Tensor],
    requests: u64,
) -> SoakReport {
    let queue_capacity = 128;
    let mut cfg = base_cfg();
    cfg.queue_capacity = queue_capacity;
    cfg.deadline = Duration::from_millis(20);
    cfg.faults = Some(FaultPlan {
        seed: 2024,
        panic_per_mille: 20,
        spike_per_mille: 50,
        spike: Duration::from_millis(2),
    });
    let server = Server::start(Arc::clone(validator), Arc::clone(plan), cfg);

    let t0 = dv_trace::Stopwatch::start();
    let mut pendings = Vec::new();
    for i in 0..requests {
        let img = if i % 50 == 7 {
            // Client-side fault: a NaN-poisoned input slips into the
            // stream and must come back as a typed BadInput, not a crash.
            let mut bad = images[(i as usize) % images.len()].clone();
            bad.set(&[0, 0, 0], f32::NAN);
            bad
        } else {
            images[(i as usize) % images.len()].clone()
        };
        pendings.extend(submit_with_retry(&server, &img, i, queue_capacity));
    }

    let mut lost_or_hung = 0u64;
    for pending in pendings {
        match pending.wait_timeout(Duration::from_secs(10)) {
            Ok(outcome) => {
                debug_assert!(matches!(
                    outcome,
                    Ok(_)
                        | Err(ScoreError::DeadlineExpired
                            | ScoreError::BadInput(_)
                            | ScoreError::WorkerCrashed
                            | ScoreError::Shutdown)
                ));
            }
            Err(_still_pending) => lost_or_hung += 1,
        }
    }
    let wall_s = t0.elapsed_secs_f64();
    let snapshot = server.shutdown();
    if snapshot.terminal_outcomes() != snapshot.submitted {
        lost_or_hung += snapshot.submitted - snapshot.terminal_outcomes().min(snapshot.submitted);
    }
    SoakReport {
        requests,
        wall_s,
        snapshot,
        lost_or_hung,
    }
}

struct SweepPoint {
    deadline_us: u64,
    submitted: u64,
    full: u64,
    reduced: u64,
    confidence: u64,
    expired: u64,
}

/// Phase C: injection off, deadlines swept from comfortable to brutal;
/// a single worker with bursty submission forces queueing, so tighter
/// deadlines push responses down the degradation ladder.
fn phase_sweep(
    validator: &Arc<DeepValidator>,
    plan: &Arc<InferencePlan>,
    images: &[Tensor],
    per_deadline: u64,
) -> Vec<SweepPoint> {
    const DEADLINES_US: &[u64] = &[100, 200, 300, 500, 750, 1_000, 2_500, 5_000, 20_000];
    let mut points = Vec::new();
    for &deadline_us in DEADLINES_US {
        let mut cfg = base_cfg();
        cfg.workers = 1;
        cfg.queue_capacity = images.len().max(per_deadline as usize);
        cfg.deadline = Duration::from_micros(deadline_us);
        let server = Server::start(Arc::clone(validator), Arc::clone(plan), cfg);
        let pendings: Vec<_> = (0..per_deadline)
            .filter_map(|i| {
                server
                    .try_submit(images[(i as usize) % images.len()].clone())
                    .ok()
            })
            .collect();
        for pending in pendings {
            // Outcomes are tallied by the server; the wait only proves
            // each request terminates.
            let _ = pending.wait();
        }
        let m = server.shutdown();
        points.push(SweepPoint {
            deadline_us,
            submitted: m.submitted,
            full: m.served_full,
            reduced: m.served_reduced,
            confidence: m.served_confidence,
            expired: m.expired,
        });
    }
    points
}

fn main() {
    quiet_injected_panics();
    let quick = std::env::args().any(|a| a == "--quick");
    let soak_requests: u64 = if quick { 400 } else { 4000 };
    let sweep_requests: u64 = if quick { 64 } else { 256 };

    let (validator, plan, images) = stripe_validator();

    eprintln!("phase A: identity (injection off, served + batched scoring)");
    let identical =
        batch_identity(&validator, &plan, &images) && phase_identity(&validator, &plan, &images);
    assert!(
        identical,
        "identity gate failed before timing: batched or served scores diverged from score_into"
    );

    eprintln!("phase B: soak ({soak_requests} requests under injected faults)");
    let soak = phase_soak(&validator, &plan, &images, soak_requests);

    eprintln!("phase C: deadline sweep ({sweep_requests} requests per deadline)");
    let sweep = phase_sweep(&validator, &plan, &images, sweep_requests);

    let s = &soak.snapshot;
    eprintln!(
        "  soak: {} submitted, {} served (full {} / reduced {} / confidence {}), \
         {} expired, {} bad-input, {} crash events ({} terminal), {} respawns, {} rejected",
        s.submitted,
        s.served(),
        s.served_full,
        s.served_reduced,
        s.served_confidence,
        s.expired,
        s.bad_input,
        s.worker_crashes,
        s.requests_crashed,
        s.worker_respawns,
        s.rejected_queue_full,
    );
    eprintln!(
        "  latency p50/p95/p99: {}/{}/{} us; recovery mean/max: {:.0}/{} us ({} recoveries)",
        s.latency_p50_us,
        s.latency_p95_us,
        s.latency_p99_us,
        s.recovery_mean_us,
        s.recovery_max_us,
        s.recovery_count,
    );

    let mut json = format!("  \"identity\": {identical},\n");
    json.push_str("  \"soak\": {\n");
    json.push_str(&format!("    \"requests\": {},\n", soak.requests));
    json.push_str(&format!("    \"wall_s\": {:.3},\n", soak.wall_s));
    json.push_str(&format!("    \"submitted\": {},\n", s.submitted));
    json.push_str(&format!(
        "    \"rejected_queue_full\": {},\n",
        s.rejected_queue_full
    ));
    json.push_str(&format!("    \"served_full\": {},\n", s.served_full));
    json.push_str(&format!("    \"served_reduced\": {},\n", s.served_reduced));
    json.push_str(&format!(
        "    \"served_confidence\": {},\n",
        s.served_confidence
    ));
    json.push_str(&format!("    \"expired\": {},\n", s.expired));
    json.push_str(&format!("    \"bad_input\": {},\n", s.bad_input));
    json.push_str(&format!("    \"worker_crashes\": {},\n", s.worker_crashes));
    json.push_str(&format!(
        "    \"requests_crashed\": {},\n",
        s.requests_crashed
    ));
    json.push_str(&format!(
        "    \"worker_respawns\": {},\n",
        s.worker_respawns
    ));
    json.push_str(&format!("    \"shed_shutdown\": {},\n", s.shed_shutdown));
    json.push_str(&format!(
        "    \"deadline_missed\": {},\n",
        s.deadline_missed
    ));
    json.push_str(&format!("    \"latency_p50_us\": {},\n", s.latency_p50_us));
    json.push_str(&format!("    \"latency_p95_us\": {},\n", s.latency_p95_us));
    json.push_str(&format!("    \"latency_p99_us\": {},\n", s.latency_p99_us));
    json.push_str(&format!("    \"recovery_count\": {},\n", s.recovery_count));
    json.push_str(&format!(
        "    \"recovery_mean_us\": {:.1},\n",
        s.recovery_mean_us
    ));
    json.push_str(&format!(
        "    \"recovery_max_us\": {},\n",
        s.recovery_max_us
    ));
    json.push_str(&format!("    \"lost_or_hung\": {}\n", soak.lost_or_hung));
    json.push_str("  },\n");
    json.push_str("  \"deadline_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        let served = (p.full + p.reduced + p.confidence).max(1) as f64;
        json.push_str(&format!(
            "    {{\"deadline_us\": {}, \"submitted\": {}, \"full\": {}, \"reduced\": {}, \
             \"confidence\": {}, \"expired\": {}, \"degrade_rate\": {:.4}}}{}\n",
            p.deadline_us,
            p.submitted,
            p.full,
            p.reduced,
            p.confidence,
            p.expired,
            (p.reduced + p.confidence) as f64 / served,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    dv_bench::artifact::write_bench(Path::new("."), "serving", quick, &json)
        .expect("cannot write BENCH_serving.json");

    assert!(identical, "served responses diverged from score_into");
    assert_eq!(soak.lost_or_hung, 0, "soak lost or hung requests");
    assert_eq!(
        s.terminal_outcomes(),
        s.submitted,
        "soak accounting does not balance"
    );
    // ≥10x below the seed's 831 rejections at 4000 offered requests,
    // scaled to this run's offered load (48 ≈ 4000·10/831).
    assert!(
        s.rejected_queue_full.saturating_mul(48) <= soak.requests,
        "soak rejections did not drop 10x from the seed: {} at load {}",
        s.rejected_queue_full,
        soak.requests
    );
}
