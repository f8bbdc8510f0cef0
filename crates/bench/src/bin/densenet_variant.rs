//! Extension experiment: Deep Validation on a true DenseNet-style model.
//!
//! The paper's CIFAR-10 classifier is DenseNet-40; the main pipeline uses
//! a plain CNN of comparable depth (DESIGN.md §4.2). This binary builds
//! an object-corpus model out of genuine [`DenseBlock`]s (concatenative
//! connectivity, the defining DenseNet feature), trains it, validates its
//! **last six probe points** exactly as the paper does for DenseNet
//! (Section IV-C), and reports the joint validator's AUC — demonstrating
//! that the framework's layer-selection mechanism carries over to densely
//! connected architectures.

use dv_bench::cache::{cache_dir, model_cached};
use dv_bench::pipeline::{Sizes, MIN_SUCCESS_RATE, TARGET_SUCCESS_RATE};
use dv_core::{DeepValidator, LayerSelection, ScoreWorkspace, ValidatorConfig};
use dv_datasets::DatasetSpec;
use dv_eval::search::{grid_search_with_plan, SearchSpace};
use dv_eval::{roc_auc, EvaluationSet};
use dv_nn::layers::{Dense, Flatten, MaxPool2, Relu};
use dv_nn::layers_extra::{BatchNorm2d, DenseBlock, Dropout};
use dv_nn::optim::Adadelta;
use dv_nn::train::{evaluate, fit, TrainConfig};
use dv_nn::Network;
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A DenseNet-style object model: two dense blocks with transition
/// pooling, batch norm and dropout, ending in two FC layers. Probes sit
/// after each dense block, each transition, and each FC activation —
/// seven probes, of which the last six are validated.
fn densenet_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[3, 32, 32]);
    let block1 = DenseBlock::new(&mut rng, 3, 6, 3); // 3 -> 21 channels
    let c1 = block1.out_channels();
    net.push_probe(block1) // probe 1: dense block output
        .push(BatchNorm2d::new(c1))
        .push_probe(Relu::new()) // probe 2: post-BN activation
        .push(MaxPool2::new()); // 16x16
    let block2 = DenseBlock::new(&mut rng, c1, 6, 3); // 21 -> 39 channels
    let c2 = block2.out_channels();
    net.push_probe(block2) // probe 3
        .push(BatchNorm2d::new(c2))
        .push_probe(Relu::new()) // probe 4
        .push(MaxPool2::new()) // 8x8
        .push(MaxPool2::new()) // 4x4
        .push_probe(Flatten::new()) // probe 5: pooled features
        .push(Dropout::new(0.2, 99))
        .push(Dense::new(&mut rng, c2 * 4 * 4, 64))
        .push_probe(Relu::new()) // probe 6
        .push(Dense::new(&mut rng, 64, 64))
        .push_probe(Relu::new()) // probe 7
        .push(Dense::new(&mut rng, 64, 10));
    net
}

fn main() {
    println!("== Extension: Deep Validation on a DenseNet-style model ==\n");
    let spec = DatasetSpec::SynthObjects;
    let sizes = Sizes::for_spec(spec);
    let dataset = spec.generate(41, sizes.n_train, sizes.n_test);
    let mut net = densenet_model(171);
    let cache_name = format!(
        "densenet-{}x{}e{}",
        sizes.n_train, sizes.n_test, sizes.epochs
    );
    model_cached(&cache_dir(), &cache_name, &mut net, |net| {
        eprintln!("training DenseNet variant ({} params)...", net.num_params());
        let mut opt = Adadelta::new();
        let cfg = TrainConfig {
            epochs: sizes.epochs,
            batch_size: 32,
        };
        let mut rng = StdRng::seed_from_u64(23);
        for h in fit(
            net,
            &mut opt,
            &dataset.train.images,
            &dataset.train.labels,
            &cfg,
            &mut rng,
        ) {
            eprintln!(
                "  epoch {}: loss {:.4}, acc {:.4}",
                h.epoch, h.loss, h.accuracy
            );
        }
    });
    let plan = net.plan();
    let stats = evaluate(&plan, &dataset.test.images, &dataset.test.labels);
    println!(
        "DenseNet variant: {} probes, test accuracy {:.4}, confidence {:.4}",
        net.num_probes(),
        stats.accuracy,
        stats.mean_confidence
    );

    // Seeds and corner cases via the shared grid search.
    let mut ws = Workspace::new();
    let mut seeds = Vec::new();
    let mut seed_labels = Vec::new();
    for (img, &label) in dataset.test.images.iter().zip(&dataset.test.labels) {
        if seeds.len() >= sizes.n_seeds {
            break;
        }
        if plan.classify(img, &mut ws).0 == label {
            seeds.push(img.clone());
            seed_labels.push(label);
        }
    }
    let mut eval_set = EvaluationSet::new();
    for space in SearchSpace::catalogue(false) {
        let outcome = grid_search_with_plan(
            &plan,
            &seeds,
            &seed_labels,
            &space,
            TARGET_SUCCESS_RATE,
            MIN_SUCCESS_RATE,
        );
        eprintln!(
            "  {}: success {:.3} ({})",
            outcome.kind,
            outcome.success_rate,
            outcome
                .chosen
                .as_ref()
                .map_or("discarded".to_owned(), |t| t.describe())
        );
        if let Some(t) = outcome.chosen {
            let items: Vec<(Tensor, usize)> = seeds
                .iter()
                .zip(&seed_labels)
                .map(|(img, &l)| (t.apply(img), l))
                .collect();
            eval_set.extend_corner_with_plan(&plan, &mut ws, outcome.kind, items);
        }
    }
    eval_set.extend_clean(
        dataset
            .test
            .images
            .iter()
            .rev()
            .take(eval_set.corner.len().max(seeds.len()))
            .cloned(),
    );

    // Validate the LAST SIX probes, as the paper does for DenseNet.
    eprintln!("fitting Deep Validation on the last six probes...");
    let config = ValidatorConfig {
        layers: LayerSelection::LastK(6),
        ..ValidatorConfig::default()
    };
    let validator = DeepValidator::fit(&net, &dataset.train.images, &dataset.train.labels, &config)
        .expect("validator fit failed");

    let mut sw = ScoreWorkspace::new();
    let mut joint = |img: &Tensor| {
        validator
            .score(&plan, img, &mut sw)
            .expect("eval images are well-formed")
            .joint
    };
    let clean: Vec<f32> = eval_set.clean.iter().map(&mut joint).collect();
    let sccs: Vec<f32> = eval_set
        .corner
        .iter()
        .filter(|c| c.successful)
        .map(|c| joint(&c.image))
        .collect();
    if sccs.is_empty() {
        println!("no SCCs were produced; model too robust at this scale");
        return;
    }
    println!(
        "\njoint validator (last 6 of {} probes): overall ROC-AUC {:.4} over {} SCCs",
        net.num_probes(),
        roc_auc(&clean, &sccs),
        sccs.len()
    );
    println!("(paper: 0.9805 for DenseNet-40 on CIFAR-10 with the same last-six strategy)");
}
