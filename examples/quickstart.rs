//! Quickstart: train a small CNN on the synthetic digit corpus, fit
//! Deep Validation, and watch the joint discrepancy separate clean
//! inputs from real-world corner cases.
//!
//! Run with: `cargo run --release --example quickstart`

use deep_validation::core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use deep_validation::datasets::DatasetSpec;
use deep_validation::imgops::Transform;
use deep_validation::nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use deep_validation::nn::optim::Adam;
use deep_validation::nn::train::{evaluate, fit, TrainConfig};
use deep_validation::nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small labeled corpus (a stand-in for MNIST).
    let ds = DatasetSpec::SynthDigits.generate(7, 800, 200);
    println!(
        "dataset: {} train / {} test images",
        ds.train.len(),
        ds.test.len()
    );

    // 2. A compact CNN with probe points after each activation block —
    //    the probes are where Deep Validation attaches.
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Network::new(&[1, 28, 28]);
    net.push(Conv2d::new(&mut rng, 1, 8, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Conv2d::new(&mut rng, 8, 16, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 16 * 5 * 5, 64))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 64, 10));

    // 3. Train.
    let mut opt = Adam::new(0.002);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
    };
    println!("training...");
    fit(
        &mut net,
        &mut opt,
        &ds.train.images,
        &ds.train.labels,
        &cfg,
        &mut rng,
    );
    // Compile the trained network once; all inference runs through the
    // plan.
    let plan = net.plan();
    let stats = evaluate(&plan, &ds.test.images, &ds.test.labels);
    println!(
        "test accuracy {:.3}, mean confidence {:.3}",
        stats.accuracy, stats.mean_confidence
    );

    // 4. Fit Deep Validation on the same training data (Algorithm 1).
    println!("fitting Deep Validation...");
    let validator = DeepValidator::fit(
        &net,
        &ds.train.images,
        &ds.train.labels,
        &ValidatorConfig::default(),
    )?;
    println!(
        "fitted {} one-class SVMs ({} layers x {} classes)",
        validator.num_svms(),
        validator.num_validated_layers(),
        validator.num_classes()
    );

    // 5. Score clean inputs vs corner cases (Algorithm 2).
    let mut sw = ScoreWorkspace::new();
    let seed = &ds.test.images[0];
    let clean = validator.score(&plan, seed, &mut sw)?;
    println!(
        "\nclean digit:     predicted {} (conf {:.3}), joint discrepancy {:+.4}",
        clean.predicted, clean.confidence, clean.joint
    );
    for (label, transform) in [
        ("rotated 50 deg", Transform::Rotation { deg: 50.0 }),
        ("complemented", Transform::Complement),
        ("scaled to 60%", Transform::Scale { sx: 0.6, sy: 0.6 }),
    ] {
        let corner = transform.apply(seed);
        let report = validator.score(&plan, &corner, &mut sw)?;
        println!(
            "{label:<16} predicted {} (conf {:.3}), joint discrepancy {:+.4}",
            report.predicted, report.confidence, report.joint
        );
    }

    // 6. Pick a flagging threshold from clean data and use it.
    let clean_scores: Vec<f32> = validator
        .discrepancies_with_plan(&plan, &ds.test.images[..100])
        .iter()
        .map(|r| r.joint)
        .collect();
    let threshold = deep_validation::eval::threshold_at_fpr(&clean_scores, 0.05);
    let complemented = Transform::Complement.apply(seed);
    let report = validator.score(&plan, &complemented, &mut sw)?;
    println!(
        "\nthreshold at 5% FPR = {threshold:+.4}; complemented input flagged: {}",
        report.is_flagged(threshold)
    );
    println!(
        "clean input flagged: {} (prediction {})",
        clean.is_flagged(threshold),
        clean.predicted
    );
    Ok(())
}
