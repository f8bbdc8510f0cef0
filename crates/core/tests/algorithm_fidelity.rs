//! Fidelity tests for the two algorithms as the paper specifies them.

use dv_core::{DeepValidator, DiscrepancyReport, LayerSelection, ScoreWorkspace, ValidatorConfig};
use dv_nn::layers::{Dense, Flatten, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two well-separated image classes plus a generator for off-manifold
/// probes.
fn setup() -> (Network, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..140 {
        let class = i % 2;
        let level = if class == 0 { 0.2 } else { 0.8 };
        images.push(Tensor::rand_uniform(
            &mut rng,
            &[1, 5, 5],
            level - 0.1,
            level + 0.1,
        ));
        labels.push(class);
    }
    let mut net = Network::new(&[1, 5, 5]);
    net.push(Flatten::new())
        .push(Dense::new(&mut rng, 25, 16))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 16, 16))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 16, 2));
    let mut opt = Adam::new(0.02);
    let cfg = TrainConfig {
        epochs: 12,
        batch_size: 16,
    };
    fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
    (net, images, labels)
}

/// Algorithm 2 on one image through a compiled plan.
fn score(v: &DeepValidator, plan: &InferencePlan, image: &Tensor) -> DiscrepancyReport {
    v.score(plan, image, &mut ScoreWorkspace::new())
        .expect("test images are well-formed")
}

#[test]
fn algorithm1_filters_misclassified_training_images() {
    // Poison the labels of a block of images: Algorithm 1 line 2 keeps
    // only images the model classifies as their (given) label, so the
    // poisoned block must not enter any reference distribution. We verify
    // indirectly: a validator fit on poisoned labels equals one fit on
    // the same data with the poisoned block removed.
    let (net, images, labels) = setup();
    let plan = net.plan();

    // Poison: give the first 20 images the wrong label. The trained model
    // still predicts their true class, so predicted != given -> dropped.
    let mut poisoned_labels = labels.clone();
    for l in poisoned_labels.iter_mut().take(20) {
        *l = 1 - *l;
    }
    let with_poison =
        DeepValidator::fit(&net, &images, &poisoned_labels, &ValidatorConfig::default()).unwrap();
    let without_block = DeepValidator::fit(
        &net,
        &images[20..],
        &labels[20..],
        &ValidatorConfig::default(),
    )
    .unwrap();

    // Identical discrepancies on a probe set => identical SVM ensembles.
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        let probe = Tensor::rand_uniform(&mut rng, &[1, 5, 5], 0.0, 1.0);
        let a = score(&with_poison, &plan, &probe);
        let b = score(&without_block, &plan, &probe);
        assert_eq!(a.predicted, b.predicted);
        for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
            assert!(
                (x - y).abs() < 1e-5,
                "poisoned images leaked into the reference distributions"
            );
        }
    }
}

#[test]
fn algorithm2_indexes_svms_by_the_predicted_class() {
    // An input predicted as class k must be scored against SVM(i, k):
    // inputs from class 0's region score low when predicted 0, and the
    // same representation scores high against the *other* class's SVMs.
    // Observable consequence: a class-0-looking input that the model
    // (correctly) predicts as 0 has low joint discrepancy, while an
    // ambiguous input landing between the classes scores higher no
    // matter which class it is assigned to.
    let (net, images, labels) = setup();
    let plan = net.plan();
    let validator =
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();

    let clean = score(&validator, &plan, &images[0]);
    assert_eq!(clean.predicted, labels[0]);

    // Halfway between the two class levels: off both reference regions.
    let ambiguous = Tensor::full(&[1, 5, 5], 0.5);
    let amb = score(&validator, &plan, &ambiguous);
    assert!(
        amb.joint > clean.joint,
        "ambiguous input {} not above clean {}",
        amb.joint,
        clean.joint
    );
}

#[test]
fn per_layer_vector_length_tracks_layer_selection() {
    let (net, images, labels) = setup();
    let plan = net.plan();
    for (selection, expect) in [(LayerSelection::All, 2usize), (LayerSelection::LastK(1), 1)] {
        let config = ValidatorConfig {
            layers: selection,
            ..ValidatorConfig::default()
        };
        let v = DeepValidator::fit(&net, &images, &labels, &config).unwrap();
        let report = score(&v, &plan, &images[0]);
        assert_eq!(report.per_layer.len(), expect);
        assert_eq!(v.num_validated_layers(), expect);
    }
}

#[test]
fn max_per_class_caps_reference_set_sizes() {
    // A tighter cap must produce a different (coarser) ensemble but still
    // a working detector.
    let (net, images, labels) = setup();
    let plan = net.plan();
    let small = DeepValidator::fit(
        &net,
        &images,
        &labels,
        &ValidatorConfig {
            max_per_class: 10,
            ..ValidatorConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let garbage =
        Tensor::rand_uniform(&mut rng, &[1, 5, 5], 0.0, 1.0)
            .map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    let g = score(&small, &plan, &garbage);
    let c = score(&small, &plan, &images[1]);
    assert!(
        g.joint > c.joint,
        "capped validator lost all detection power"
    );
}
