//! Bring-your-own-data: wiring Deep Validation into a pipeline that does
//! NOT use the bundled synthetic corpora.
//!
//! Everything the framework needs is (a) per-item `[C, H, W]` tensors in
//! `[0, 1]` with integer labels and (b) a network built with probe
//! points. This example fabricates a tiny two-class "sensor bitmap"
//! dataset inline — substitute your own loader — and walks the full
//! train → fit → calibrate → monitor loop, including the calibrated
//! (weighted) joint validator.
//!
//! Run with: `cargo run --release --example custom_dataset`

use deep_validation::core::{
    DeepValidator, DiscrepancyReport, JointCalibration, ScoreWorkspace, ValidatorConfig,
};
use deep_validation::eval::{centroid_threshold, roc_auc};
use deep_validation::nn::layers::{Conv2d, Dense, Flatten, Relu};
use deep_validation::nn::optim::Adam;
use deep_validation::nn::train::{evaluate, fit, TrainConfig};
use deep_validation::nn::Network;
use deep_validation::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stand-in for *your* data loader: returns `[C, H, W]` tensors in
/// `[0, 1]` plus labels. Here: 16x16 bitmaps where class 0 has a bright
/// top half and class 1 a bright bottom half.
fn load_my_dataset(n: usize, seed: u64) -> (Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        let mut img = Tensor::zeros(&[1, 16, 16]);
        let rows = if class == 0 { 0..8 } else { 8..16 };
        for y in rows {
            for x in 0..16 {
                img.set(&[0, y, x], rng.gen_range(0.6..0.9));
            }
        }
        // Sensor noise everywhere.
        for v in img.data_mut() {
            *v = (*v + rng.gen_range(-0.05f32..0.05)).clamp(0.0, 1.0);
        }
        images.push(img);
        labels.push(class);
    }
    (images, labels)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train_images, train_labels) = load_my_dataset(400, 1);
    let (test_images, test_labels) = load_my_dataset(120, 2);

    // Your model: mark each hidden representation you want monitored
    // with push_probe.
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = Network::new(&[1, 16, 16]);
    net.push(Conv2d::new(&mut rng, 1, 6, 3))
        .push_probe(Relu::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 6 * 14 * 14, 32))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 32, 2));
    let mut opt = Adam::new(0.005);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
    };
    println!("training on the custom dataset...");
    fit(
        &mut net,
        &mut opt,
        &train_images,
        &train_labels,
        &cfg,
        &mut rng,
    );
    let plan = net.plan();
    let stats = evaluate(&plan, &test_images, &test_labels);
    println!("test accuracy {:.3}", stats.accuracy);

    // Fit the validator on the same training data the model saw.
    let validator = DeepValidator::fit(
        &net,
        &train_images,
        &train_labels,
        &ValidatorConfig::default(),
    )?;

    // Calibrate the weighted joint on a clean held-out slice
    // (the paper's §IV-D3 improvement).
    let calibration = JointCalibration::fit(&validator, &plan, &test_images[..60]);
    let mut sw = ScoreWorkspace::new();
    let mut calibrated = |img: &Tensor| -> DiscrepancyReport {
        let report = validator
            .score(&plan, img, &mut sw)
            .expect("sensor bitmaps are well-formed");
        calibration.apply(&report)
    };

    // Anomalies your sensor might produce: dead rows, inverted polarity,
    // saturation.
    let make_anomalies = |img: &Tensor| -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        let mut dead = img.clone();
        for y in 4..12 {
            for x in 0..16 {
                dead.set(&[0, y, x], 0.0);
            }
        }
        out.push(("dead rows".to_owned(), dead));
        out.push(("inverted".to_owned(), img.map(|v| 1.0 - v)));
        out.push((
            "saturated".to_owned(),
            img.map(|v| (v * 3.0).clamp(0.0, 1.0)),
        ));
        out
    };

    let clean_scores: Vec<f32> = test_images[60..]
        .iter()
        .map(|img| calibrated(img).joint)
        .collect();
    let mut anomaly_scores = Vec::new();
    for img in test_images[..20].iter() {
        for (_, anomaly) in make_anomalies(img) {
            anomaly_scores.push(calibrated(&anomaly).joint);
        }
    }
    println!(
        "calibrated joint AUC on sensor anomalies: {:.4}",
        roc_auc(&clean_scores, &anomaly_scores)
    );

    // Deploy with the paper's epsilon rule (Fig. 3): midpoint of the two
    // score centroids.
    let epsilon = centroid_threshold(&clean_scores, &anomaly_scores);
    println!("deployment threshold epsilon = {epsilon:+.4}");
    let probe = &test_images[100];
    for (name, anomaly) in make_anomalies(probe) {
        let report = calibrated(&anomaly);
        println!(
            "{name:<10} -> predicted {} (conf {:.2}), discrepancy {:+.3}, flagged: {}",
            report.predicted,
            report.confidence,
            report.joint,
            report.is_flagged(epsilon)
        );
    }
    let clean_report = calibrated(probe);
    println!(
        "{:<10} -> predicted {} (conf {:.2}), discrepancy {:+.3}, flagged: {}",
        "clean",
        clean_report.predicted,
        clean_report.confidence,
        clean_report.joint,
        clean_report.is_flagged(epsilon)
    );
    Ok(())
}
