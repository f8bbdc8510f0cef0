//! Fail-safe perception monitoring — the paper's motivating scenario.
//!
//! A deployed vision classifier rides along in a system whose camera
//! slowly drifts (mounting loosens, light fades). The classifier keeps
//! emitting confident predictions the whole time; Deep Validation
//! watches the per-layer discrepancies and calls for human intervention
//! *before* the misclassifications pile up, which plain confidence
//! monitoring misses (the paper's Table V shows wrong predictions carry
//! ~0.9 confidence).
//!
//! Run with: `cargo run --release --example perception_monitor`

use deep_validation::core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use deep_validation::datasets::DatasetSpec;
use deep_validation::eval::threshold_at_fpr;
use deep_validation::imgops::Transform;
use deep_validation::nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use deep_validation::nn::optim::Adam;
use deep_validation::nn::train::{fit, TrainConfig};
use deep_validation::nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::SynthDigits.generate(11, 800, 300);
    let mut rng = StdRng::seed_from_u64(1);
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
    let mut opt = Adam::new(0.002);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
    };
    println!("training the perception model...");
    fit(
        &mut net,
        &mut opt,
        &ds.train.images,
        &ds.train.labels,
        &cfg,
        &mut rng,
    );

    println!("fitting the runtime monitor (Deep Validation)...");
    let validator = DeepValidator::fit(
        &net,
        &ds.train.images,
        &ds.train.labels,
        &ValidatorConfig::default(),
    )?;
    // The monitor scores every frame through one compiled plan.
    let plan = net.plan();
    let mut sw = ScoreWorkspace::new();
    // Operating point: 5% false alarms on a clean calibration stream.
    let calibration: Vec<f32> = validator
        .discrepancies_with_plan(&plan, &ds.test.images[200..300])
        .iter()
        .map(|r| r.joint)
        .collect();
    let epsilon = threshold_at_fpr(&calibration, 0.05);
    println!("alarm threshold epsilon = {epsilon:+.4} (5% clean FPR)\n");

    // Simulate a patrol: the camera's mounting drifts by one degree of
    // rotation and loses a little exposure per tick.
    println!(
        "{:>4}  {:>9}  {:>10}  {:>10}  {:>9}  {:>6}  monitor verdict",
        "tick", "rot(deg)", "brightness", "accuracy", "mean conf", "alarms"
    );
    let frames = 40;
    let window: Vec<_> = ds.test.images[..frames].to_vec();
    let labels: Vec<_> = ds.test.labels[..frames].to_vec();
    for tick in 0..12 {
        let rot = tick as f32 * 5.0;
        let dim = -0.04 * tick as f32;
        let drift = Transform::Compose(vec![
            Transform::Rotation { deg: rot },
            Transform::Brightness { beta: dim },
        ]);
        let mut correct = 0usize;
        let mut conf_sum = 0.0f32;
        let mut alarms = 0usize;
        for (img, &label) in window.iter().zip(&labels) {
            let frame = drift.apply(img);
            let report = validator.score(&plan, &frame, &mut sw)?;
            if report.predicted == label {
                correct += 1;
            }
            conf_sum += report.confidence;
            if report.is_flagged(epsilon) {
                alarms += 1;
            }
        }
        let accuracy = correct as f32 / frames as f32;
        let alarm_rate = alarms as f32 / frames as f32;
        let verdict = if alarm_rate > 0.5 {
            "FAIL-SAFE: hand control to the operator"
        } else if alarm_rate > 0.2 {
            "degraded: schedule maintenance"
        } else {
            "nominal"
        };
        println!(
            "{tick:>4}  {rot:>9.1}  {:>10.2}  {accuracy:>10.3}  {:>9.3}  {alarms:>6}  {verdict}",
            dim,
            conf_sum / frames as f32
        );
    }
    println!("\nNote how the model stays confident while its accuracy collapses —");
    println!("the monitor's alarm rate, not the confidence, tracks the real risk.");
    Ok(())
}
