//! Criterion bench: Deep Validation's end-to-end discrepancy estimation
//! vs a plain forward pass — quantifying the runtime monitoring overhead
//! the paper claims is low (Section IV-C) and its limitation discussion
//! worries about (Section VI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dv_core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::Network;
use dv_runtime::Pool;
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A small trained model + fitted validator, built once.
fn fixture() -> (Network, DeepValidator, Tensor) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..200 {
        let class = i % 4;
        let mut img = Tensor::zeros(&[1, 12, 12]);
        let cx = 2 + class * 3;
        for y in 2..10 {
            img.set(&[0, y, cx], rng.gen_range(0.7..1.0));
        }
        images.push(img);
        labels.push(class);
    }
    let mut net = Network::new(&[1, 12, 12]);
    net.push(Conv2d::new(&mut rng, 1, 6, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 6 * 5 * 5, 32))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 32, 4));
    let mut opt = Adam::new(0.01);
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 32,
    };
    fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
    let validator =
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
    (net, validator, images[0].clone())
}

fn bench_discrepancy(c: &mut Criterion) {
    let (net, validator, image) = fixture();
    let plan = net.plan();
    let mut ws = Workspace::new();
    let mut sw = ScoreWorkspace::new();
    let mut group = c.benchmark_group("discrepancy");
    group.bench_function("plain_forward", |b| {
        b.iter(|| black_box(plan.forward(black_box(&image), &mut ws)))
    });
    group.bench_function("deep_validation_query", |b| {
        b.iter(|| black_box(validator.score(&plan, black_box(&image), &mut sw)))
    });
    group.finish();

    // Batch scoring on a pinned one-thread pool vs a multi-thread pool:
    // `discrepancies_with_plan` fans image chunks out across dv-runtime
    // workers sharing the one plan, producing bit-identical reports
    // either way.
    let batch: Vec<Tensor> = (0..32).map(|_| image.clone()).collect();
    let mut group = c.benchmark_group("discrepancy_batch32_threads");
    group.sample_size(10);
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
    for &threads in &[1usize, max_threads] {
        let pool = Pool::new(threads);
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            pool.install(|| b.iter(|| black_box(validator.discrepancies_with_plan(&plan, &batch))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_discrepancy);
criterion_main!(benches);
