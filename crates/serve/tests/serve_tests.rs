//! Integration tests for the serving frontend, including the
//! property-style guarantees the issue demands: every submitted request
//! reaches exactly one terminal outcome under any fault schedule, and a
//! respawned worker scores bit-identically to the direct path.
//!
//! The trained fixture is the same seed-11 two-probe conv net as
//! `plan_equivalence.rs` / `workspace_reset.rs` in dv-core, so the
//! bit-identity assertions here compare against the exact tensors those
//! suites pin down.

use std::sync::Arc;
use std::time::Duration;

use dv_core::{BadInput, DeepValidator, ScoreError, ScoreWorkspace, ValidatorConfig};
use dv_drift::DriftConfig;
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_runtime::Pool;
use dv_serve::{BreakerConfig, ServeConfig, ServedVia, Server, ShutdownPolicy};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "fault-inject")]
use dv_serve::{FaultPlan, Rejected};

/// Silence the panic spew from *injected* worker faults (they are the
/// point of these tests), while forwarding every other panic to the
/// default hook so genuine failures stay loud.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Same two-probe conv fixture as dv-core's `plan_equivalence.rs`: a
/// 2-class stripe problem trained under a single-thread pool.
fn trained_setup() -> (Arc<DeepValidator>, Arc<InferencePlan>, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..80 {
        let class = i % 2;
        let mut img = Tensor::zeros(&[1, 6, 6]);
        let cx = if class == 0 { 1 } else { 4 };
        for y in 0..6 {
            img.set(&[0, y, cx], rng.gen_range(0.7f32..1.0));
        }
        images.push(img);
        labels.push(class);
    }
    let mut net = Network::new(&[1, 6, 6]);
    net.push(Conv2d::new(&mut rng, 1, 3, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 3 * 2 * 2, 8))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 8, 2));
    let mut opt = Adam::new(0.01);
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 16,
    };
    let validator = Pool::new(1).install(|| {
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
            .expect("validator fit failed")
    });
    let plan = net.plan();
    (Arc::new(validator), Arc::new(plan), images)
}

/// Direct confidence-only scoring (masked, no taps): the bits a
/// `ConfidenceOnly` or `DriftDegraded` response must carry.
fn direct_confidence(
    validator: &DeepValidator,
    plan: &InferencePlan,
    img: &Tensor,
) -> (usize, f32) {
    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    validator
        .score_masked_into(plan, img, &[], &mut sw, &mut per_layer)
        .expect("fixture images are well-formed")
}

/// Reference scoring through the direct (non-served) path.
fn direct(
    validator: &DeepValidator,
    plan: &InferencePlan,
    img: &Tensor,
) -> (usize, f32, Vec<f32>, f32) {
    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    let (predicted, confidence) = validator
        .score_into(plan, img, &mut sw, &mut per_layer)
        .expect("fixture images are well-formed");
    let joint = per_layer.iter().sum::<f32>();
    (predicted, confidence, per_layer, joint)
}

fn generous_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 128,
        deadline: Duration::from_secs(5),
        shutdown: ShutdownPolicy::Drain,
        reduced_taps: 1,
        breaker: None,
        #[cfg(feature = "fault-inject")]
        faults: None,
    }
}

/// With no faults and a generous deadline every request is served
/// through the full-joint rung, bit-identical to `score_into`.
#[test]
fn serving_without_faults_is_bit_identical() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), generous_cfg());

    let pendings: Vec<_> = images
        .iter()
        .map(|img| {
            server
                .try_submit(img.clone())
                .expect("128-slot queue holds the whole fixture set")
        })
        .collect();
    for (i, pending) in pendings.into_iter().enumerate() {
        let resp = pending.wait().expect("fault-free serving never fails");
        assert_eq!(resp.via, ServedVia::FullJoint, "request {i}");
        assert!(resp.deadline_met, "request {i} blew a 5s deadline");
        assert_eq!(resp.seq, i as u64);
        assert_eq!(resp.batch, 1, "request {i} shared its pass");
        let (p, c, per_layer, joint) = direct(&validator, &plan, &images[i]);
        assert_eq!(resp.predicted, p, "request {i}");
        assert_eq!(resp.confidence.to_bits(), c.to_bits(), "request {i}");
        assert_eq!(resp.per_layer.len(), per_layer.len());
        for (a, b) in resp.per_layer.iter().zip(&per_layer) {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}");
        }
        let got_joint = resp.joint.expect("full rung reports the joint");
        assert_eq!(got_joint.to_bits(), joint.to_bits(), "request {i}");
    }

    let m = server.shutdown();
    assert_eq!(m.submitted, images.len() as u64);
    assert_eq!(m.served_full, images.len() as u64);
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.worker_respawns, 0);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// A `Drain` shutdown finishes every request still queued; nothing is
/// shed and nothing hangs.
#[test]
fn drain_shutdown_serves_every_queued_request() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.workers = 1;
    let server = Server::start(validator, plan, cfg);

    let pendings: Vec<_> = images
        .iter()
        .take(30)
        .map(|img| {
            server
                .try_submit(img.clone())
                .expect("queue capacity exceeds the burst")
        })
        .collect();
    let m = server.shutdown();
    assert_eq!(m.submitted, 30);
    assert_eq!(m.served(), 30);
    assert_eq!(m.shed_shutdown, 0);
    assert_eq!(m.terminal_outcomes(), m.submitted);
    for pending in pendings {
        pending
            .wait()
            .expect("drained requests are served, not shed");
    }
}

/// A zero deadline expires every request with a typed error — no panic,
/// no hang, and the worker stays alive for the next request.
#[test]
fn zero_deadline_requests_expire_with_a_typed_error() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.deadline = Duration::ZERO;
    let server = Server::start(validator, plan, cfg);

    let pendings: Vec<_> = images
        .iter()
        .take(10)
        .map(|img| {
            server
                .try_submit(img.clone())
                .expect("queue capacity exceeds the burst")
        })
        .collect();
    for pending in pendings {
        assert!(matches!(pending.wait(), Err(ScoreError::DeadlineExpired)));
    }
    let m = server.shutdown();
    assert_eq!(m.expired, 10);
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// Malformed inputs come back as typed `BadInput` errors; the worker
/// survives them and keeps serving bit-identical results.
#[test]
fn malformed_inputs_fail_typed_without_killing_the_worker() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), generous_cfg());

    let mut poisoned = images[0].clone();
    poisoned.set(&[0, 2, 3], f32::NAN);
    let nan = server.try_submit(poisoned).expect("queue has room").wait();
    assert!(matches!(
        nan,
        Err(ScoreError::BadInput(BadInput::NonFinite { .. }))
    ));

    let shape = server
        .try_submit(Tensor::zeros(&[1, 5, 5]))
        .expect("queue has room")
        .wait();
    assert!(matches!(
        shape,
        Err(ScoreError::BadInput(BadInput::WrongShape { .. }))
    ));

    let resp = server
        .try_submit(images[1].clone())
        .expect("queue has room")
        .wait()
        .expect("clean input after bad ones still serves");
    let (p, _, per_layer, _) = direct(&validator, &plan, &images[1]);
    assert_eq!(resp.predicted, p);
    for (a, b) in resp.per_layer.iter().zip(&per_layer) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let m = server.shutdown();
    assert_eq!(m.bad_input, 2);
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.worker_respawns, 0);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// Regression pin for the registry-backed metrics refactor: a fixed
/// serialized schedule (20 good images, 3 NaN-poisoned, 2 wrong-shape)
/// must produce exactly the counter values the pre-registry field-based
/// implementation produced, and the JSON export must agree with the
/// snapshot.
#[test]
fn metrics_match_pre_refactor_values_on_fixed_schedule() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.workers = 1;
    let server = Server::start(validator, plan, cfg);

    // Serialized submissions: 25 requests with a deterministic good/bad
    // pattern, each awaited before the next is submitted.
    let mut good = 0u64;
    let mut nan = 0u64;
    let mut shape = 0u64;
    for i in 0..25usize {
        let img = match i % 5 {
            3 if nan < 3 => {
                nan += 1;
                let mut bad = images[i % images.len()].clone();
                bad.set(&[0, 0, 0], f32::NAN);
                bad
            }
            4 if shape < 2 => {
                shape += 1;
                Tensor::zeros(&[1, 5, 5])
            }
            _ => {
                good += 1;
                images[i % images.len()].clone()
            }
        };
        let _ = server
            .try_submit(img)
            .expect("serialized submissions never fill the queue")
            .wait();
    }

    let json = server.metrics_json();
    let m = server.shutdown();
    assert_eq!(m.submitted, 25);
    assert_eq!(m.served_full, good);
    assert_eq!(m.served_reduced, 0);
    assert_eq!(m.served_confidence, 0);
    assert_eq!(m.bad_input, nan + shape);
    assert_eq!(m.expired, 0);
    assert_eq!(m.rejected_queue_full, 0);
    assert_eq!(m.rejected_shutdown, 0);
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.worker_respawns, 0);
    assert_eq!(m.shed_shutdown, 0);
    assert_eq!(m.recovery_count, 0);
    assert_eq!(m.recovery_max_us, 0);
    assert!((m.recovery_mean_us - 0.0).abs() < f64::EPSILON);
    assert_eq!(m.terminal_outcomes(), m.submitted);
    // Only served requests are recorded in the latency histogram, so
    // its quantiles are positive and ordered.
    assert!(m.latency_p50_us > 0);
    assert!(m.latency_p50_us <= m.latency_p95_us);
    assert!(m.latency_p95_us <= m.latency_p99_us);
    // The JSON export reads the same registry the snapshot does.
    assert!(json.contains(&format!("\"serve.submitted\": {}", m.submitted)));
    assert!(json.contains(&format!("\"serve.served_full\": {}", m.served_full)));
    assert!(json.contains(&format!("\"serve.bad_input\": {}", m.bad_input)));
    assert!(json.contains("\"serve.latency_us\": {\"count\":"));
}

/// The drift circuit breaker, end to end on deterministic traffic: a
/// single repeated clean image gives a constant joint-discrepancy
/// stream (KS exactly 0, CUSUM at its floor — no false alarm possible),
/// a brightness-shifted image trips the monitor and opens the breaker
/// (responses flip to `DriftDegraded`, probes stay full), and returning
/// to the clean image closes it again. Degraded responses carry exactly
/// the bits of direct confidence-only scoring. Accounting stays exact
/// through both transitions.
#[test]
fn drift_breaker_opens_on_shift_and_closes_on_recovery() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.workers = 1;
    let breaker = BreakerConfig {
        drift: DriftConfig {
            window: 16,
            stride: 4,
            sustain: 2,
            recover: 2,
            ..DriftConfig::default()
        },
        probe_every: 4,
        obs_capacity: 1024,
    };
    let probe_every = breaker.probe_every;
    cfg.breaker = Some(breaker);
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg);

    let clean = images[0].clone();
    let shifted = clean.map(|x| x + 0.6);
    let (degraded_p, degraded_c) = direct_confidence(&validator, &plan, &shifted);
    let assert_degraded_bits = |resp: &dv_serve::ScoreResponse| {
        assert!(resp.joint.is_none(), "degraded rung reports no joint");
        assert!(resp.per_layer.is_empty(), "degraded rung scores no layer");
        assert_eq!(resp.predicted, degraded_p, "request {}", resp.seq);
        assert_eq!(
            resp.confidence.to_bits(),
            degraded_c.to_bits(),
            "request {}",
            resp.seq
        );
    };

    // Phase 1 — stationary: enough serialized requests to calibrate the
    // monitor and run several evaluations. Every one must serve full.
    for i in 0..64 {
        let resp = server
            .try_submit(clean.clone())
            .expect("serialized submissions never fill the queue")
            .wait()
            .expect("clean requests serve");
        assert_eq!(resp.via, ServedVia::FullJoint, "stationary request {i}");
    }
    let mid = server.metrics();
    assert_eq!(mid.breaker_opened, 0, "false alarm on constant traffic");
    assert_eq!(mid.served_drift_degraded, 0);

    // Phase 2 — shift: keep submitting the shifted image until the
    // monitor latches and the breaker visibly degrades a response.
    let mut opened = false;
    for _ in 0..2000 {
        let resp = server
            .try_submit(shifted.clone())
            .expect("serialized submissions never fill the queue")
            .wait()
            .expect("shifted requests still serve");
        if resp.via == ServedVia::DriftDegraded {
            assert_degraded_bits(&resp);
            opened = true;
            break;
        }
    }
    assert!(opened, "the shifted stream must open the breaker");
    assert!(server.metrics().breaker_opened >= 1);

    // A burst while the breaker is open: non-probes serve degraded with
    // the direct confidence-only bits, and the probes keep the direct
    // full bits.
    let burst: Vec<_> = (0..16)
        .map(|_| {
            server
                .try_submit(shifted.clone())
                .expect("the burst fits the queue")
        })
        .collect();
    let (full_p, full_c, full_layers, full_joint) = direct(&validator, &plan, &shifted);
    for pending in burst {
        let resp = pending.wait().expect("shifted requests still serve");
        match resp.via {
            ServedVia::DriftDegraded => assert_degraded_bits(&resp),
            ServedVia::FullJoint => {
                assert_eq!(resp.predicted, full_p, "request {}", resp.seq);
                assert_eq!(resp.confidence.to_bits(), full_c.to_bits());
                assert_eq!(resp.per_layer.len(), full_layers.len());
                for (a, b) in resp.per_layer.iter().zip(&full_layers) {
                    assert_eq!(a.to_bits(), b.to_bits(), "request {}", resp.seq);
                }
                assert_eq!(resp.joint.map(f32::to_bits), Some(full_joint.to_bits()));
            }
            other => panic!(
                "request {} served {other:?} under an open breaker",
                resp.seq
            ),
        }
    }

    // Phase 3 — recovery: clean traffic again. Probes (every 4th seq)
    // keep feeding the monitor; once the alert clears, a non-probe
    // request serving full-joint proves the breaker closed.
    let mut closed = false;
    for _ in 0..2000 {
        let resp = server
            .try_submit(clean.clone())
            .expect("serialized submissions never fill the queue")
            .wait()
            .expect("clean requests serve");
        if resp.via == ServedVia::FullJoint && !resp.seq.is_multiple_of(probe_every) {
            closed = true;
            break;
        }
    }
    assert!(closed, "clean traffic must close the breaker");

    let json = server.metrics_json();
    let m = server.shutdown();
    assert!(m.breaker_opened >= 1);
    assert!(m.breaker_closed >= 1);
    assert!(m.served_drift_degraded >= 1);
    assert_eq!(m.terminal_outcomes(), m.submitted);
    // Drift gauges and serve counters publish side by side in the same
    // registry export.
    assert!(
        json.contains("drift.ks_stat"),
        "missing drift gauges:\n{json}"
    );
    assert!(json.contains("serve.breaker_opened"));
    assert!(json.contains("serve.rejected_queue_full"));
}

/// With a single worker pinned down by an injected latency spike and a
/// one-slot queue, a burst overflows into typed `QueueFull` rejections
/// instead of blocking or dropping silently.
#[cfg(feature = "fault-inject")]
#[test]
fn backpressure_rejects_with_typed_queue_full() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.deadline = Duration::from_secs(10);
    cfg.faults = Some(FaultPlan {
        seed: 1,
        panic_per_mille: 0,
        spike_per_mille: 1000,
        spike: Duration::from_millis(200),
    });
    let server = Server::start(validator, plan, cfg);

    // One request can be in flight (spiking for 200ms) and one queued;
    // the third submission of a back-to-back burst must bounce.
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for img in images.iter().take(3) {
        match server.try_submit(img.clone()) {
            Ok(p) => accepted.push(p),
            Err(Rejected::QueueFull { retry_after }) => {
                rejected += 1;
                assert!(
                    retry_after > Duration::ZERO,
                    "a rejection always carries a usable backoff hint"
                );
            }
            Err(Rejected::ShuttingDown) => panic!("server is not shutting down"),
        }
    }
    assert!(rejected >= 1, "burst should overflow the one-slot queue");
    for pending in accepted {
        pending
            .wait()
            .expect("accepted requests ride out the spike and serve");
    }
    let m = server.shutdown();
    assert_eq!(m.rejected_queue_full, rejected);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// The injected fault schedule is a pure function of the sequence
/// number, so each request's outcome is exactly predictable: scheduled
/// panics surface as `WorkerCrashed`, everything else is served by the
/// respawned worker bit-identically to the direct path.
#[cfg(feature = "fault-inject")]
#[test]
fn respawned_workers_score_bit_identically() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let faults = FaultPlan {
        seed: 7,
        panic_per_mille: 250,
        spike_per_mille: 0,
        spike: Duration::ZERO,
    };
    const N: u64 = 40;
    let crashes: Vec<u64> = (0..N).filter(|&s| faults.panic_hits(s)).collect();
    assert!(
        !crashes.is_empty() && crashes.len() < N as usize,
        "seed 7 must schedule both crashes and clean serves in 0..{N}"
    );
    assert!(
        crashes
            .iter()
            .any(|&c| (c + 1..N).any(|s| !faults.panic_hits(s))),
        "at least one crash must be followed by a clean serve"
    );

    let mut cfg = generous_cfg();
    cfg.workers = 1;
    cfg.deadline = Duration::from_secs(10);
    cfg.faults = Some(faults.clone());
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg);

    // Submit one at a time so sequence numbers match submission order
    // and each respawn completes before the next clean request.
    for seq in 0..N {
        let img = &images[(seq as usize) % images.len()];
        let outcome = server
            .try_submit(img.clone())
            .expect("serialized submissions never fill the queue")
            .wait();
        if faults.panic_hits(seq) {
            assert!(
                matches!(outcome, Err(ScoreError::WorkerCrashed)),
                "request {seq} was scheduled to crash"
            );
        } else {
            let resp = outcome.expect("unscheduled requests serve normally");
            assert_eq!(resp.seq, seq);
            let (p, c, per_layer, joint) = direct(&validator, &plan, img);
            assert_eq!(resp.predicted, p, "request {seq}");
            assert_eq!(resp.confidence.to_bits(), c.to_bits(), "request {seq}");
            for (a, b) in resp.per_layer.iter().zip(&per_layer) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {seq}");
            }
            let got_joint = resp.joint.expect("full rung reports the joint");
            assert_eq!(got_joint.to_bits(), joint.to_bits(), "request {seq}");
        }
    }

    let m = server.shutdown();
    assert_eq!(m.worker_crashes, crashes.len() as u64);
    // Serialized singles: every crash event is also a terminal request.
    assert_eq!(m.requests_crashed, crashes.len() as u64);
    assert!(m.worker_respawns >= 1, "supervisor must have respawned");
    assert!(m.recovery_count >= 1, "a recovery interval was recorded");
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// A `Shed` shutdown fails the backlog fast with `ScoreError::Shutdown`
/// instead of draining behind a spiking worker.
#[cfg(feature = "fault-inject")]
#[test]
fn shed_shutdown_fails_backlog_with_typed_error() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    let mut cfg = generous_cfg();
    cfg.workers = 1;
    cfg.deadline = Duration::from_secs(10);
    cfg.shutdown = ShutdownPolicy::Shed;
    cfg.faults = Some(FaultPlan {
        seed: 3,
        panic_per_mille: 0,
        spike_per_mille: 1000,
        spike: Duration::from_millis(50),
    });
    let server = Server::start(validator, plan, cfg);

    let pendings: Vec<_> = images
        .iter()
        .take(20)
        .map(|img| {
            server
                .try_submit(img.clone())
                .expect("queue capacity exceeds the burst")
        })
        .collect();
    let m = server.shutdown();

    let mut shed = 0u64;
    let mut served = 0u64;
    for pending in pendings {
        match pending.wait() {
            Ok(_) => served += 1,
            Err(ScoreError::Shutdown) => shed += 1,
            other => panic!("unexpected shed-shutdown outcome: {other:?}"),
        }
    }
    assert!(shed >= 1, "a spiking worker cannot outrun the shed");
    assert_eq!(m.shed_shutdown, shed);
    assert_eq!(m.served(), served);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}

/// The headline property: under mixed faults (panics, spikes, bad
/// inputs, backpressure) across several seeds, every accepted request
/// reaches exactly one terminal outcome — the client-side tally of
/// outcomes matches the server's counters category by category, and
/// nothing hangs.
#[cfg(feature = "fault-inject")]
#[test]
fn every_request_reaches_exactly_one_terminal_outcome() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    for seed in [1u64, 7, 42] {
        let mut cfg = generous_cfg();
        cfg.workers = 2;
        cfg.queue_capacity = 8;
        cfg.deadline = Duration::from_millis(25);
        cfg.faults = Some(FaultPlan {
            seed,
            panic_per_mille: 100,
            spike_per_mille: 100,
            spike: Duration::from_millis(1),
        });
        let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg);

        let mut accepted = Vec::new();
        let mut rejected_full = 0u64;
        for i in 0..120usize {
            let img = match i % 10 {
                0 => {
                    let mut bad = images[i % images.len()].clone();
                    bad.set(&[0, 0, 0], f32::NAN);
                    bad
                }
                1 => Tensor::zeros(&[1, 5, 5]),
                _ => images[i % images.len()].clone(),
            };
            match server.try_submit(img) {
                Ok(p) => accepted.push(p),
                Err(Rejected::QueueFull { .. }) => rejected_full += 1,
                Err(Rejected::ShuttingDown) => panic!("server is not shutting down"),
            }
        }

        let mut served = 0u64;
        let mut expired = 0u64;
        let mut bad_input = 0u64;
        let mut crashed = 0u64;
        let mut shed = 0u64;
        let n_accepted = accepted.len() as u64;
        for (i, pending) in accepted.into_iter().enumerate() {
            let outcome = pending
                .wait_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("request {i} hung (seed {seed})"));
            match outcome {
                Ok(_) => served += 1,
                Err(ScoreError::DeadlineExpired) => expired += 1,
                Err(ScoreError::BadInput(_)) => bad_input += 1,
                Err(ScoreError::WorkerCrashed) => crashed += 1,
                Err(ScoreError::Shutdown) => shed += 1,
            }
        }

        let m = server.shutdown();
        assert_eq!(m.submitted, n_accepted, "seed {seed}");
        assert_eq!(m.rejected_queue_full, rejected_full, "seed {seed}");
        assert_eq!(m.served(), served, "seed {seed}");
        assert_eq!(m.expired, expired, "seed {seed}");
        assert_eq!(m.bad_input, bad_input, "seed {seed}");
        // Every injected panic strikes while its request scores, so each
        // crash event fails exactly one request.
        assert_eq!(m.requests_crashed, crashed, "seed {seed}");
        assert_eq!(m.worker_crashes, m.requests_crashed, "seed {seed}");
        assert_eq!(m.shed_shutdown, shed, "seed {seed}");
        assert_eq!(m.terminal_outcomes(), m.submitted, "seed {seed}");
    }
}

/// A worker panic fails exactly the request that was scoring. The
/// requests parked behind it in the same drain were never attempted, so
/// the respawned incarnation serves them, full-joint and bit-identical
/// to `score_into`, and the accounting stays exact.
#[cfg(feature = "fault-inject")]
#[test]
fn a_crash_fails_exactly_its_own_request() {
    quiet_injected_panics();
    let (validator, plan, images) = trained_setup();
    const N: u64 = 12;
    // Seq 0 spikes, holding the lone worker while the rest of the burst
    // queues behind it; nothing else spikes, and exactly one of seqs
    // 2..=5 panics, so the next drain parks requests on both sides of
    // the guilty one.
    let faults = (0..100_000u64)
        .map(|seed| FaultPlan {
            seed,
            panic_per_mille: 100,
            spike_per_mille: 60,
            spike: Duration::from_millis(300),
        })
        .find(|f| {
            f.spike_hits(0)
                && (1..N).all(|s| !f.spike_hits(s))
                && (0..N).filter(|&s| f.panic_hits(s)).count() == 1
                && (2..=5).any(|s| f.panic_hits(s))
        })
        .expect("a qualifying fault seed exists in 0..100000");
    let guilty = (2..=5u64)
        .find(|&s| faults.panic_hits(s))
        .expect("the filter above guarantees one");

    let mut cfg = generous_cfg();
    cfg.workers = 1;
    cfg.deadline = Duration::from_secs(10);
    cfg.faults = Some(faults);
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg);

    let mut pendings = vec![server
        .try_submit(images[0].clone())
        .expect("queue has room")];
    // Wait for the worker to take seq 0 into its spike, so the rest queue
    // behind it and the next wakeup drains them together.
    for _ in 0..10_000 {
        if server.queue_depth() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.queue_depth(), 0, "the worker never took seq 0");
    pendings.extend((1..N as usize).map(|i| {
        server
            .try_submit(images[i].clone())
            .expect("queue capacity exceeds the burst")
    }));

    for (i, pending) in pendings.into_iter().enumerate() {
        let outcome = pending
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("request {i} hung after the crash"));
        if i as u64 == guilty {
            assert!(
                matches!(outcome, Err(ScoreError::WorkerCrashed)),
                "request {i} was scheduled to crash"
            );
            continue;
        }
        let resp = outcome.unwrap_or_else(|e| panic!("request {i} failed: {e:?}"));
        assert_eq!(resp.via, ServedVia::FullJoint, "request {i}");
        let (p, c, per_layer, joint) = direct(&validator, &plan, &images[i]);
        assert_eq!(resp.predicted, p, "request {i}");
        assert_eq!(resp.confidence.to_bits(), c.to_bits(), "request {i}");
        assert_eq!(resp.per_layer.len(), per_layer.len(), "request {i}");
        for (a, b) in resp.per_layer.iter().zip(&per_layer) {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}");
        }
        let got_joint = resp.joint.expect("full rung reports the joint");
        assert_eq!(got_joint.to_bits(), joint.to_bits(), "request {i}");
    }

    let m = server.shutdown();
    assert_eq!(m.served_full, N - 1, "every other request was served");
    assert_eq!(m.requests_crashed, 1, "one terminal crash outcome");
    assert_eq!(m.worker_crashes, 1, "one panic");
    assert!(m.worker_respawns >= 1);
    assert_eq!(m.terminal_outcomes(), m.submitted);
}
