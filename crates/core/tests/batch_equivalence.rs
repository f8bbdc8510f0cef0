//! Bit-identity between batched and single-image scoring: for every
//! batch size and thread count, `score_batch_into` must produce exactly
//! the bits that B separate `score_into` calls produce — the images
//! around an image in a stacked forward pass must be invisible in its
//! scores. Every test runs on both kernel arms.

use std::sync::{Mutex, OnceLock, PoisonError};

use dv_core::{DeepValidator, ScoreError, ScoreWorkspace, ValidatorConfig};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_runtime::Pool;
use dv_tensor::{gemm, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    validator: DeepValidator,
    plan: InferencePlan,
    images: Vec<Tensor>,
}

/// Trains the seed-11 stripe conv net once and shares it across every
/// proptest case; training under `Pool::new(1)` keeps the weights
/// reproducible, and the plan + validator are immutable afterwards.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        Fixture {
            validator,
            plan,
            images,
        }
    })
}

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

/// Runs `score_into` once per image and returns the concatenated
/// `(results, per_layer)` a batched call should reproduce bit for bit.
fn singles_reference(fx: &Fixture, images: &[Tensor]) -> (Vec<(usize, f32)>, Vec<f32>) {
    let mut sw = ScoreWorkspace::new();
    let mut results = Vec::new();
    let mut per_layer = Vec::new();
    let mut row = Vec::new();
    for img in images {
        let r = fx.validator.score_into(&fx.plan, img, &mut sw, &mut row);
        results.push(r.expect("fixture images are well-formed"));
        per_layer.extend_from_slice(&row);
    }
    (results, per_layer)
}

fn assert_bits_equal(
    tag: &str,
    got_res: &[(usize, f32)],
    got_pl: &[f32],
    want_res: &[(usize, f32)],
    want_pl: &[f32],
) {
    assert_eq!(got_res.len(), want_res.len(), "{tag}: result count differs");
    for (i, (a, b)) in got_res.iter().zip(want_res).enumerate() {
        assert_eq!(a.0, b.0, "{tag}: prediction differs on image {i}");
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "{tag}: confidence differs on image {i}"
        );
    }
    assert_eq!(
        got_pl.len(),
        want_pl.len(),
        "{tag}: per-layer length differs"
    );
    for (i, (a, b)) in got_pl.iter().zip(want_pl).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: per-layer value {i} differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full scoring: any batch of 1..=8 fixture images, scored batched
    /// under 1 or 4 threads, is bit-identical to B single calls.
    #[test]
    fn batched_full_scoring_matches_singles(
        batch in 1usize..=8,
        start in 0usize..72,
        par in 0usize..2,
    ) {
        let threads = if par == 0 { 1 } else { 4 };
        let fx = fixture();
        let images = &fx.images[start..start + batch];
        on_both_arms(|| {
            let (want_res, want_pl) =
                Pool::new(1).install(|| singles_reference(fx, images));
            let (got_res, got_pl) = Pool::new(threads).install(|| {
                let mut sw = ScoreWorkspace::new();
                let mut results = Vec::new();
                let mut per_layer = Vec::new();
                fx.validator
                    .score_batch_into(&fx.plan, images, &mut sw, &mut results, &mut per_layer)
                    .expect("fixture images are well-formed");
                (results, per_layer)
            });
            assert_bits_equal("full", &got_res, &got_pl, &want_res, &want_pl);
        });
    }
}

/// One `ScoreWorkspace` reused across batches of different sizes gives
/// the same bits as a fresh workspace per batch: a batch leaves no state
/// behind.
#[test]
fn workspace_reuse_across_batches_is_invisible() {
    let fx = fixture();
    on_both_arms(|| {
        Pool::new(1).install(|| {
            let mut reused = ScoreWorkspace::new();
            let mut cursor = 0;
            for batch in [5, 1, 8, 3, 7] {
                let images = &fx.images[cursor..cursor + batch];
                cursor += batch;
                let (mut res_a, mut pl_a) = (Vec::new(), Vec::new());
                fx.validator
                    .score_batch_into(&fx.plan, images, &mut reused, &mut res_a, &mut pl_a)
                    .expect("fixture images are well-formed");
                let (mut res_b, mut pl_b) = (Vec::new(), Vec::new());
                fx.validator
                    .score_batch_into(
                        &fx.plan,
                        images,
                        &mut ScoreWorkspace::new(),
                        &mut res_b,
                        &mut pl_b,
                    )
                    .expect("fixture images are well-formed");
                assert_bits_equal("reuse", &res_a, &pl_a, &res_b, &pl_b);
            }
        });
    });
}

/// A malformed image anywhere in the batch aborts the whole call with
/// `BadInput` before anything is scored, and the workspace stays usable
/// for the next batch.
#[test]
fn bad_input_aborts_the_batch_and_scores_nothing() {
    let fx = fixture();
    on_both_arms(|| {
        Pool::new(1).install(|| {
            let mut sw = ScoreWorkspace::new();
            let mut nan = fx.images[0].clone();
            nan.set(&[0, 0, 0], f32::NAN);
            let batch = [fx.images[0].clone(), nan, fx.images[1].clone()];
            let (mut results, mut per_layer) = (Vec::new(), Vec::new());
            let err = fx
                .validator
                .score_batch_into(&fx.plan, &batch, &mut sw, &mut results, &mut per_layer)
                .expect_err("a NaN pixel must reject the batch");
            assert!(matches!(err, ScoreError::BadInput(_)));
            // The aborted batch must not poison the next, clean one.
            let clean = &fx.images[..4];
            fx.validator
                .score_batch_into(&fx.plan, clean, &mut sw, &mut results, &mut per_layer)
                .expect("clean batch after an aborted one");
            let (want_res, want_pl) = singles_reference(fx, clean);
            assert_bits_equal("after-abort", &results, &per_layer, &want_res, &want_pl);
        });
    });
}
