//! A miniature of the paper's Table VII: Deep Validation vs feature
//! squeezing vs kernel density estimation on real-world corner cases,
//! on a model you train in under a minute.
//!
//! Run with: `cargo run --release --example detector_shootout`

use deep_validation::bench::detector_adapters::JointValidatorDetector;
use deep_validation::core::{DeepValidator, ValidatorConfig};
use deep_validation::datasets::DatasetSpec;
use deep_validation::detectors::{Detector, FeatureSqueezing, KdeDetector};
use deep_validation::eval::roc_auc;
use deep_validation::eval::table::TextTable;
use deep_validation::imgops::Transform;
use deep_validation::nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use deep_validation::nn::optim::Adam;
use deep_validation::nn::train::{fit, TrainConfig};
use deep_validation::nn::Network;
use deep_validation::tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::SynthDigits.generate(29, 800, 250);
    let mut rng = StdRng::seed_from_u64(3);
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
    println!("training...");
    fit(
        &mut net,
        &mut opt,
        &ds.train.images,
        &ds.train.labels,
        &cfg,
        &mut rng,
    );

    // Corner cases: three transformation kinds applied to correctly
    // classified seeds, keeping only the error-inducing ones (SCCs).
    let transforms = [
        Transform::Rotation { deg: 50.0 },
        Transform::Scale { sx: 0.6, sy: 0.6 },
        Transform::Complement,
    ];
    let plan = net.plan();
    let mut ws = Workspace::new();
    let mut sccs = Vec::new();
    for (img, &label) in ds.test.images[..150].iter().zip(&ds.test.labels) {
        if plan.classify(img, &mut ws).0 != label {
            continue;
        }
        for t in &transforms {
            let corner = t.apply(img);
            if plan.classify(&corner, &mut ws).0 != label {
                sccs.push(corner);
            }
        }
    }
    let clean: Vec<Tensor> = ds.test.images[150..250].to_vec();
    println!("{} SCCs vs {} clean images", sccs.len(), clean.len());

    // The three detectors under identical conditions.
    let validator = DeepValidator::fit(
        &net,
        &ds.train.images,
        &ds.train.labels,
        &ValidatorConfig::default(),
    )?;
    let mut dv = JointValidatorDetector::new(validator);
    let mut fs = FeatureSqueezing::mnist_default();
    let mut kde = KdeDetector::fit(&plan, &ds.train.images, &ds.train.labels, 200, None)?;

    let mut table = TextTable::new(vec!["Method", "ROC-AUC (SCCs)"]);
    let mut detectors: Vec<&mut dyn Detector> = vec![&mut dv, &mut fs, &mut kde];
    for d in detectors.iter_mut() {
        let neg = d.score_all(&mut net, &plan, &clean);
        let pos = d.score_all(&mut net, &plan, &sccs);
        let auc = roc_auc(&neg, &pos);
        table.row(vec![d.name().to_owned(), format!("{auc:.4}")]);
    }
    println!("\n{}", table.render());
    println!("(the paper's Table VII shape: DV > FS >> KDE)");
    Ok(())
}
