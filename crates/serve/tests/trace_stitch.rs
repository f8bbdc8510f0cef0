//! End-to-end request-scoped tracing through a live server: responses
//! carry trace ids, lifecycle events stitch into cross-thread timelines,
//! and the stitched segments partition each served request's wall time.
//!
//! Kept in its own integration binary (= its own process): the
//! per-thread trace rings and the global sequence are process-wide, so
//! these assertions must not race the other serve suites' servers,
//! whose requests would collide on the same small trace ids.

use std::sync::Arc;
use std::time::Duration;

use dv_core::{DeepValidator, ValidatorConfig};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_runtime::Pool;
use dv_serve::{ServeConfig, ServedVia, Server, ShutdownPolicy};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Same two-probe conv fixture as `serve_tests.rs` (seed 11).
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

/// One test fn on purpose: the trace rings are global, so the identity
/// and stitching assertions must observe the same server without a
/// sibling test's requests interleaving.
#[test]
fn responses_carry_trace_ids_that_resolve_to_stitched_timelines() {
    let (validator, plan, images) = trained_setup();
    dv_trace::reset();
    let server = Server::start(
        validator,
        plan,
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            deadline: Duration::from_secs(5),
            shutdown: ShutdownPolicy::Drain,
            reduced_taps: 1,
            breaker: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        },
    );

    const N: usize = 30;
    let mut responses = Vec::new();
    for (i, img) in images.iter().take(N).enumerate() {
        let resp = server
            .try_submit(img.clone())
            .expect("serialized submissions never fill the queue")
            .wait()
            .expect("fault-free serving never fails");
        // The trace id is seq + 1, assigned with or without the trace
        // feature, so responses always correlate with exported traces.
        assert_eq!(resp.seq, i as u64);
        assert_eq!(resp.trace, resp.seq + 1, "trace id is seq + 1");
        responses.push(resp);
    }
    let p99_exemplar = server.latency_exemplar(0.99);
    let json = server.metrics_json();
    drop(server);

    // The new satellite metrics are registered (and therefore exported)
    // from the first request on.
    assert!(json.contains("\"serve.queue_depth\""), "{json}");
    assert!(json.contains("\"p999\""), "{json}");

    // Exemplars ride the always-on histogram, so the p99 bucket points
    // at one of this run's requests in both feature modes.
    assert!(
        p99_exemplar >= 1 && p99_exemplar <= N as u64,
        "{p99_exemplar}"
    );

    if !dv_trace::tracing_enabled() {
        assert!(
            dv_trace::stitch(&dv_trace::snapshot()).is_empty(),
            "no lifecycle events without the trace feature"
        );
        return;
    }

    // With tracing on, every request's lifecycle stitches into a
    // timeline whose segments telescope.
    let snap = dv_trace::snapshot();
    assert_eq!(snap.dropped, 0, "30 serialized requests never fill a ring");
    let timelines = dv_trace::stitch(&snap);
    for resp in &responses {
        let tl = timelines
            .iter()
            .find(|t| t.trace == resp.trace)
            .unwrap_or_else(|| panic!("request {} has no timeline", resp.seq));
        assert!(
            tl.events.windows(2).all(|w| w[0].seq < w[1].seq),
            "stitched events are in global sequence order"
        );
        let seg = dv_trace::segments(tl).expect("served requests have complete timelines");
        assert_eq!(
            seg.queue_wait_ns + seg.coalesce_wait_ns + seg.score_ns + seg.respond_ns,
            seg.total_ns,
            "segments partition the request's wall time exactly"
        );
        if resp.via == ServedVia::FullJoint {
            let first = tl.first("serve.enqueued").expect("enqueue event");
            assert_eq!(first.parent, 0, "the enqueue event roots the chain");
        }
    }
    // The p99 exemplar resolves to a full stitched timeline.
    assert!(timelines.iter().any(|t| t.trace == p99_exemplar));
}
