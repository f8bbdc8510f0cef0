//! The three CNN classifiers of the evaluation (paper Section IV-A),
//! scaled to the single-core compute budget (DESIGN.md §4.2).
//!
//! Each model declares one probe point per activation block; the probe
//! count matches the number of single-validator rows in the paper's
//! Table VI (six for the digit and street models; the object model is
//! deeper — ten probes — and Deep Validation validates its last six, as
//! the paper does for DenseNet).

use dv_datasets::DatasetSpec;
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::Network;
use dv_runtime::Pool;
use dv_tensor::conv::Conv2dGeom;
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training epochs appropriate for each model at the default data sizes.
pub fn default_epochs(spec: DatasetSpec) -> usize {
    match spec {
        DatasetSpec::SynthDigits => 3,
        DatasetSpec::SynthObjects => 4,
        DatasetSpec::SynthStreetDigits => 4,
    }
}

/// Builds the (untrained) model for a dataset with a fixed seed.
pub fn model_for(spec: DatasetSpec, seed: u64) -> Network {
    match spec {
        DatasetSpec::SynthDigits => digits_model(seed),
        DatasetSpec::SynthObjects => objects_model(seed),
        DatasetSpec::SynthStreetDigits => street_model(seed),
    }
}

/// Number of probe points Deep Validation monitors for a dataset's model
/// (the paper validates all layers of the MNIST/SVHN models and the last
/// six of DenseNet).
pub fn validated_layers(spec: DatasetSpec) -> usize {
    match spec {
        DatasetSpec::SynthDigits | DatasetSpec::SynthStreetDigits => 6,
        DatasetSpec::SynthObjects => 6, // last six of ten probes
    }
}

/// Every convolution of a dataset's model, in execution order: its
/// geometry and output channel count, read from the compiled plan.
pub fn conv_layers(spec: DatasetSpec) -> Vec<(Conv2dGeom, usize)> {
    let plan = model_for(spec, 0).plan();
    plan.layer_specs()
        .into_iter()
        .enumerate()
        .filter_map(|(i, layer)| {
            let conv = layer.into_conv()?;
            let dims = plan.op_in_dims(i);
            let geom = Conv2dGeom {
                in_channels: conv.in_channels,
                in_h: dims[1],
                in_w: dims[2],
                kernel: conv.kernel,
                stride: 1,
                pad: conv.pad,
            };
            Some((geom, conv.out_channels))
        })
        .collect()
}

/// MNIST stand-in model: a seven-layer CNN in the style of the paper's
/// MNIST model (Xu et al.'s architecture), width-reduced. Six probes.
fn digits_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[1, 28, 28]);
    net.push(Conv2d::new(&mut rng, 1, 8, 3))
        .push_probe(Relu::new()) // probe 1: 8x26x26
        .push(Conv2d::new(&mut rng, 8, 8, 3))
        .push_probe(Relu::new()) // probe 2: 8x24x24
        .push(MaxPool2::new()) // 8x12x12
        .push(Conv2d::new(&mut rng, 8, 16, 3))
        .push_probe(Relu::new()) // probe 3: 16x10x10
        .push(Conv2d::new(&mut rng, 16, 16, 3))
        .push_probe(Relu::new()) // probe 4: 16x8x8
        .push(MaxPool2::new()) // 16x4x4
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 16 * 4 * 4, 64))
        .push_probe(Relu::new()) // probe 5
        .push(Dense::new(&mut rng, 64, 64))
        .push_probe(Relu::new()) // probe 6
        .push(Dense::new(&mut rng, 64, 10));
    net
}

/// CIFAR-10 stand-in model: the deepest network (ten probes), standing in
/// for DenseNet-40. Padding keeps spatial dims so depth is achievable at
/// 32x32.
fn objects_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[3, 32, 32]);
    net.push(Conv2d::with_padding(&mut rng, 3, 8, 3, 1))
        .push_probe(Relu::new()) // probe 1: 8x32x32
        .push(Conv2d::with_padding(&mut rng, 8, 8, 3, 1))
        .push_probe(Relu::new()) // probe 2
        .push(MaxPool2::new()) // 8x16x16
        .push(Conv2d::with_padding(&mut rng, 8, 16, 3, 1))
        .push_probe(Relu::new()) // probe 3
        .push(Conv2d::with_padding(&mut rng, 16, 16, 3, 1))
        .push_probe(Relu::new()) // probe 4
        .push(MaxPool2::new()) // 16x8x8
        .push(Conv2d::with_padding(&mut rng, 16, 24, 3, 1))
        .push_probe(Relu::new()) // probe 5
        .push(Conv2d::with_padding(&mut rng, 24, 24, 3, 1))
        .push_probe(Relu::new()) // probe 6
        .push(MaxPool2::new()) // 24x4x4
        .push(Conv2d::with_padding(&mut rng, 24, 32, 3, 1))
        .push_probe(Relu::new()) // probe 7
        .push(Conv2d::with_padding(&mut rng, 32, 32, 3, 1))
        .push_probe(Relu::new()) // probe 8
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 32 * 4 * 4, 64))
        .push_probe(Relu::new()) // probe 9
        .push(Dense::new(&mut rng, 64, 64))
        .push_probe(Relu::new()) // probe 10
        .push(Dense::new(&mut rng, 64, 10));
    net
}

/// SVHN stand-in model: the paper's Table II architecture
/// (conv64-conv64-pool-conv128-conv128-pool-fc256-fc256-softmax),
/// width-reduced to 16/32 filters and 64-unit FC layers. Six probes.
fn street_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[3, 32, 32]);
    net.push(Conv2d::new(&mut rng, 3, 16, 3))
        .push_probe(Relu::new()) // probe 1: 16x30x30
        .push(Conv2d::new(&mut rng, 16, 16, 3))
        .push_probe(Relu::new()) // probe 2: 16x28x28
        .push(MaxPool2::new()) // 16x14x14
        .push(Conv2d::new(&mut rng, 16, 32, 3))
        .push_probe(Relu::new()) // probe 3: 32x12x12
        .push(Conv2d::new(&mut rng, 32, 32, 3))
        .push_probe(Relu::new()) // probe 4: 32x10x10
        .push(MaxPool2::new()) // 32x5x5
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 32 * 5 * 5, 64))
        .push_probe(Relu::new()) // probe 5
        .push(Dense::new(&mut rng, 64, 64))
        .push_probe(Relu::new()) // probe 6
        .push(Dense::new(&mut rng, 64, 10));
    net
}

/// The small trained model the serving, tracing and runtime harnesses
/// share: 96 `[1, 12, 12]` images of 4 classes, where the position of a
/// vertical stripe encodes the class, and a two-probe conv net trained on
/// them from seed 3 under a single-thread pool, so the weights are the
/// same at any `DV_THREADS`. The classes are separable enough that a
/// short run classifies every class correctly somewhere (the validator
/// fit requires it), and the net is big enough that tight deadlines
/// exercise the serving degradation ladder.
pub fn stripe_fixture() -> (Network, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..96 {
        let class = i % 4;
        let mut img = Tensor::zeros(&[1, 12, 12]);
        let cx = 2 + class * 3;
        for y in 2..10 {
            img.set(&[0, y, cx], rng.gen_range(0.7f32..1.0));
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
    Pool::new(1).install(|| fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng));
    (net, images, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_produce_ten_logits() {
        for spec in DatasetSpec::all() {
            let mut net = model_for(spec, 0);
            let dims = spec.image_dims();
            let mut batch_dims = vec![1usize];
            batch_dims.extend(&dims);
            let out = net.forward(&Tensor::zeros(&batch_dims), false);
            assert_eq!(out.shape().dims(), &[1, 10], "{spec}");
        }
    }

    #[test]
    fn probe_counts_match_the_paper_structure() {
        assert_eq!(model_for(DatasetSpec::SynthDigits, 0).num_probes(), 6);
        assert_eq!(model_for(DatasetSpec::SynthObjects, 0).num_probes(), 10);
        assert_eq!(model_for(DatasetSpec::SynthStreetDigits, 0).num_probes(), 6);
        for spec in DatasetSpec::all() {
            assert_eq!(validated_layers(spec), 6, "{spec}");
        }
    }

    #[test]
    fn conv_layers_follow_the_architectures() {
        let digits: Vec<_> = conv_layers(DatasetSpec::SynthDigits)
            .iter()
            .map(|(g, oc)| (g.in_channels, g.in_h, *oc, g.col_cols()))
            .collect();
        assert_eq!(
            digits,
            [
                (1, 28, 8, 676),
                (8, 26, 8, 576),
                (8, 12, 16, 100),
                (16, 10, 16, 64)
            ]
        );
        assert_eq!(conv_layers(DatasetSpec::SynthObjects).len(), 8);
        assert_eq!(conv_layers(DatasetSpec::SynthStreetDigits).len(), 4);
    }

    #[test]
    fn model_seeds_are_reproducible() {
        let mut a = model_for(DatasetSpec::SynthDigits, 7);
        let mut b = model_for(DatasetSpec::SynthDigits, 7);
        let x = Tensor::full(&[1, 1, 28, 28], 0.5);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }
}
