//! Scoring through the one inference path (a shared immutable
//! [`InferencePlan`] + reusable [`ScoreWorkspace`]) must give the same
//! bits however it is driven: workspace reuse, `score` vs `score_into`,
//! thread count and trace recording are all invisible in the output.
//! That the plan itself matches the training network is pinned in dv-nn
//! (`plan_matches_network_bit_for_bit`). CI runs this suite with and
//! without `dv-trace/trace`, so every bit-identity assertion here doubles
//! as proof that instrumentation never steers a score.

use dv_core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::Network;
use dv_runtime::Pool;
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A conv net with two probes over a 2-class stripe problem, trained
/// under a single-thread pool for reproducible weights.
fn trained_setup() -> (Network, Vec<Tensor>, Vec<usize>) {
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
    Pool::new(1).install(|| fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng));
    (net, images, labels)
}

fn fit_validator(net: &Network, images: &[Tensor], labels: &[usize]) -> DeepValidator {
    Pool::new(1).install(|| {
        DeepValidator::fit(net, images, labels, &ValidatorConfig::default())
            .expect("validator fit failed")
    })
}

/// Reusing one `ScoreWorkspace` across many images gives the same
/// results as a fresh workspace per image: warmup state never leaks
/// into the scores.
#[test]
fn workspace_reuse_is_invisible_in_scores() {
    let (net, images, labels) = trained_setup();
    let validator = fit_validator(&net, &images, &labels);
    let plan = net.plan();
    Pool::new(1).install(|| {
        let mut reused = ScoreWorkspace::new();
        for (i, img) in images.iter().take(24).enumerate() {
            let a = validator
                .score(&plan, img, &mut reused)
                .expect("fixture images are well-formed");
            let b = validator
                .score(&plan, img, &mut ScoreWorkspace::new())
                .expect("fixture images are well-formed");
            assert_eq!(
                a.joint.to_bits(),
                b.joint.to_bits(),
                "reused workspace changed the joint score on image {i}"
            );
            for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
                assert_eq!(x.to_bits(), y.to_bits(), "per-layer differs on image {i}");
            }
        }
    });
}

/// `score_into` fills the caller's buffer with exactly the same values
/// `score` reports, after clearing whatever was in it.
#[test]
fn score_into_matches_score() {
    let (net, images, labels) = trained_setup();
    let validator = fit_validator(&net, &images, &labels);
    let plan = net.plan();
    Pool::new(1).install(|| {
        let mut sw = ScoreWorkspace::new();
        let mut per_layer = vec![f32::NAN; 7]; // stale garbage to be cleared
        for img in images.iter().take(10) {
            let report = validator
                .score(&plan, img, &mut sw)
                .expect("fixture images are well-formed");
            let (predicted, confidence) = validator
                .score_into(&plan, img, &mut sw, &mut per_layer)
                .expect("fixture images are well-formed");
            assert_eq!(report.predicted, predicted);
            assert_eq!(report.confidence.to_bits(), confidence.to_bits());
            assert_eq!(report.per_layer.len(), per_layer.len());
            for (x, y) in report.per_layer.iter().zip(&per_layer) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    });
}

/// Scoring inside an enclosing span is bit-identical to scoring outside
/// one, in both tracing modes: observation never steers. Also pins the
/// mode contract — spans are recorded exactly when the `trace` feature
/// is compiled in.
#[test]
fn enclosing_span_never_changes_scores() {
    let (net, images, labels) = trained_setup();
    let validator = fit_validator(&net, &images, &labels);
    let plan = net.plan();
    Pool::new(1).install(|| {
        let mut sw = ScoreWorkspace::new();
        let mut bare = Vec::new();
        let mut wrapped = Vec::new();
        for (i, img) in images.iter().take(24).enumerate() {
            let (p, c) = validator
                .score_into(&plan, img, &mut sw, &mut bare)
                .expect("fixture images are well-formed");
            let (p2, c2) = {
                dv_trace::span!("test.enclosing");
                validator
                    .score_into(&plan, img, &mut sw, &mut wrapped)
                    .expect("fixture images are well-formed")
            };
            assert_eq!(p, p2, "prediction changed under a span on image {i}");
            assert_eq!(
                c.to_bits(),
                c2.to_bits(),
                "confidence changed under a span on image {i}"
            );
            assert_eq!(bare.len(), wrapped.len());
            for (a, b) in bare.iter().zip(&wrapped) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "per-layer score changed under a span on image {i}"
                );
            }
        }
        // The trace machinery is live exactly when the feature is on.
        assert_eq!(
            dv_trace::snapshot().span_count() > 0,
            dv_trace::tracing_enabled(),
            "span recording must match the compiled mode"
        );
    });
}

/// One shared plan scored through `discrepancies_with_plan` is
/// bit-identical whether the pool runs one worker or four.
#[test]
fn batch_scoring_through_shared_plan_is_thread_count_invariant() {
    let (net, images, labels) = trained_setup();
    let validator = fit_validator(&net, &images, &labels);
    let plan = net.plan();
    let run = |threads: usize| {
        Pool::new(threads).install(|| validator.discrepancies_with_plan(&plan, &images[..32]))
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.predicted, b.predicted, "prediction differs on image {i}");
        assert_eq!(
            a.joint.to_bits(),
            b.joint.to_bits(),
            "joint discrepancy differs on image {i}"
        );
        for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "per-layer score differs on image {i}"
            );
        }
    }
}
