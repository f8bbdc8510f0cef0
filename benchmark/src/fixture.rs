//! The system under test and the workload inputs.
//!
//! The model is the paper's digits model (`dv_bench::models`) trained on
//! a fixed synth-digits training split, so every run measures the same
//! program. The workload seed decides only the inputs: the test images,
//! which of them become corner cases, and the arrival schedule.

use std::sync::Arc;
use std::time::Instant;

use dv_core::{DeepValidator, LayerSelection, ValidatorConfig};
use dv_datasets::{DatasetSpec, Split};
use dv_eval::search::SearchSpace;
use dv_nn::optim::Adadelta;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_runtime::split_seed;
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the fixed training split.
const TRAIN_DATA_SEED: u64 = 41;
/// Seed of the model's initial weights.
const MODEL_SEED: u64 = 17;
/// Seed of the minibatch order.
const TRAIN_ORDER_SEED: u64 = 23;
/// Training images. 600 images over 2 epochs reach ~0.99 train accuracy
/// in about a second, which keeps repeated set-up affordable.
pub const N_TRAIN: usize = 600;
/// Training epochs.
const EPOCHS: usize = 2;
/// Validated probes: all six of the digits model (the paper's choice).
pub const VALIDATED_LAYERS: usize = 6;
/// Share of traffic images swapped for corner cases, in percent: one
/// corner case per clean image, as in the paper's evaluation sets (and
/// the campaign's, which pairs every corner image with a clean one).
pub const CORNER_PERCENT: usize = 50;

/// Seed streams derived from the workload seed.
const STREAM_IMAGES: u64 = 1;
const STREAM_CORNERS: u64 = 2;
/// Seed stream of the arrival schedule.
pub const STREAM_SCHEDULE: u64 = 3;

/// A trained classifier and its compiled inference plan.
pub struct Model {
    pub net: Network,
    pub plan: Arc<InferencePlan>,
    pub train: Split,
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub train_s: f64,
    pub fit_s: f64,
    pub total_s: f64,
}

/// A set of workload images, some of them corner cases.
pub struct Images {
    pub images: Vec<Tensor>,
    pub labels: Vec<usize>,
    /// Whether image `i` is a corner case (a dv-imgops transform of a
    /// clean test image).
    pub corner: Vec<bool>,
}

/// The validator configuration every workload uses.
pub fn validator_config() -> ValidatorConfig {
    ValidatorConfig {
        layers: LayerSelection::LastK(VALIDATED_LAYERS),
        ..ValidatorConfig::default()
    }
}

/// Generates the training split and trains the digits model.
pub fn train_model(times: &mut SetupTimes) -> Model {
    let t = Instant::now();
    let train = DatasetSpec::SynthDigits
        .generate(TRAIN_DATA_SEED, N_TRAIN, 1)
        .train;
    times.generate_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut net = dv_bench::models::model_for(DatasetSpec::SynthDigits, MODEL_SEED);
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 32,
    };
    let mut rng = StdRng::seed_from_u64(TRAIN_ORDER_SEED);
    fit(
        &mut net,
        &mut Adadelta::new(),
        &train.images,
        &train.labels,
        &cfg,
        &mut rng,
    );
    let plan = Arc::new(net.plan());
    times.train_s += t.elapsed().as_secs_f64();
    Model { net, plan, train }
}

/// Algorithm 1 on the model's training split.
pub fn fit_validator(model: &Model, times: &mut SetupTimes) -> DeepValidator {
    let t = Instant::now();
    let validator = DeepValidator::fit(
        &model.net,
        &model.train.images,
        &model.train.labels,
        &validator_config(),
    )
    .expect("the trained digits model classifies every class correctly somewhere");
    times.fit_s += t.elapsed().as_secs_f64();
    validator
}

/// `n` synth-digits test images drawn from `seed`, with
/// [`CORNER_PERCENT`] of them replaced by a dv-imgops transform of
/// themselves: a random family of the search catalogue at a random step
/// of its grid, every step equally likely.
pub fn traffic_images(seed: u64, n: usize, times: &mut SetupTimes) -> Images {
    let t = Instant::now();
    let test = DatasetSpec::SynthDigits
        .generate(split_seed(seed, STREAM_IMAGES), 1, n)
        .test;
    let mut rng = StdRng::seed_from_u64(split_seed(seed, STREAM_CORNERS));
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let spaces = SearchSpace::catalogue(true);
    let mut images = test.images;
    let mut corner = vec![false; n];
    for &i in &order[..n * CORNER_PERCENT / 100] {
        let steps = spaces[rng.gen_range(0..spaces.len())].steps();
        let step = &steps[rng.gen_range(0..steps.len())];
        images[i] = step.apply(&images[i]);
        corner[i] = true;
    }
    times.generate_s += t.elapsed().as_secs_f64();
    Images {
        images,
        labels: test.labels,
        corner,
    }
}

/// Clean synth-digits test images for the campaign, drawn from `seed`.
pub fn campaign_test_split(seed: u64, n: usize, times: &mut SetupTimes) -> Split {
    let t = Instant::now();
    let test = DatasetSpec::SynthDigits
        .generate(split_seed(seed, STREAM_IMAGES), 1, n)
        .test;
    times.generate_s += t.elapsed().as_secs_f64();
    test
}
