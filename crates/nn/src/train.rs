//! Mini-batch training loop and evaluation helpers.

use dv_tensor::{Tensor, Workspace};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::loss::cross_entropy;
use crate::network::Network;
use crate::optim::Optimizer;
use crate::plan::InferencePlan;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 128; the scaled-down models here
    /// default to 32).
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 32,
        }
    }
}

/// Loss/accuracy after one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f32,
    /// Training accuracy over the epoch (measured on the fly).
    pub accuracy: f32,
}

/// Accuracy and confidence on a labeled set (the two columns of the
/// paper's Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Fraction of inputs whose argmax prediction matches the label.
    pub accuracy: f32,
    /// Mean top-1 softmax confidence (regardless of correctness).
    pub mean_confidence: f32,
}

/// Trains `net` on `(images, labels)` with the given optimizer.
///
/// Images are per-item tensors (`[C, H, W]` or `[D]`); the loop shuffles,
/// stacks mini-batches and applies one optimizer step per batch.
///
/// # Panics
///
/// Panics if `images` and `labels` have different lengths or are empty.
pub fn fit<R: Rng + ?Sized>(
    net: &mut Network,
    optimizer: &mut dyn Optimizer,
    images: &[Tensor],
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut R,
) -> Vec<EpochStats> {
    assert_eq!(images.len(), labels.len(), "image/label count mismatch");
    assert!(!images.is_empty(), "training set is empty");
    let mut order: Vec<usize> = (0..images.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;
        let mut correct = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let batch: Vec<Tensor> = chunk.iter().map(|&i| images[i].clone()).collect();
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let x = Tensor::stack(&batch);
            let logits = net.forward(&x, true);
            let out = cross_entropy(&logits, &batch_labels);
            loss_sum += out.loss;
            batches += 1;
            for (i, &y) in batch_labels.iter().enumerate() {
                if out.probs.row(i).argmax() == y {
                    correct += 1;
                }
            }
            net.zero_grads();
            net.backward(&out.grad_logits);
            optimizer.step(net.params_and_grads());
        }
        history.push(EpochStats {
            epoch,
            loss: loss_sum / batches as f32,
            accuracy: correct as f32 / images.len() as f32,
        });
    }
    history
}

/// Evaluates accuracy and mean top-1 confidence on a labeled set.
///
/// # Panics
///
/// Panics if `images` and `labels` have different lengths or are empty.
pub fn evaluate(plan: &InferencePlan, images: &[Tensor], labels: &[usize]) -> EvalStats {
    assert_eq!(images.len(), labels.len(), "image/label count mismatch");
    assert!(!images.is_empty(), "evaluation set is empty");
    let mut correct = 0usize;
    let mut conf_sum = 0.0f32;
    for ((label, conf), &y) in classify_all(plan, images).iter().zip(labels) {
        if *label == y {
            correct += 1;
        }
        conf_sum += conf;
    }
    EvalStats {
        accuracy: correct as f32 / images.len() as f32,
        mean_confidence: conf_sum / images.len() as f32,
    }
}

/// Predicted labels for a set of per-item images.
pub fn predict_labels(plan: &InferencePlan, images: &[Tensor]) -> Vec<usize> {
    classify_all(plan, images)
        .into_iter()
        .map(|(label, _)| label)
        .collect()
}

/// Classifies every image, fanning contiguous chunks out across the
/// `dv-runtime` pool. Every chunk shares the one plan and brings its own
/// [`Workspace`]. Inference is deterministic per image and results are
/// reassembled in input order, so the output is identical to the
/// sequential loop, which is exactly what runs when the pool has a
/// single thread.
fn classify_all(plan: &InferencePlan, images: &[Tensor]) -> Vec<(usize, f32)> {
    let classify_chunk = |chunk: &[Tensor]| {
        let mut ws = Workspace::new();
        chunk
            .iter()
            .map(|img| plan.classify(img, &mut ws))
            .collect::<Vec<_>>()
    };
    let threads = dv_runtime::current_threads();
    if threads <= 1 || images.len() <= 1 {
        return classify_chunk(images);
    }
    let chunks: Vec<&[Tensor]> = images.chunks(images.len().div_ceil(threads)).collect();
    dv_runtime::par_map(&chunks, |chunk| classify_chunk(chunk))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two linearly separable 2-D blobs.
    fn blobs(rng: &mut StdRng, n: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            let x = Tensor::randn(rng, &[2], 0.3).map(|v| v + center);
            images.push(x);
            labels.push(class);
        }
        (images, labels)
    }

    fn mlp(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(&[2]);
        net.push(Dense::new(&mut rng, 2, 8))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 8, 2));
        net
    }

    #[test]
    fn training_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = blobs(&mut rng, 128);
        let mut net = mlp(1);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
        };
        let history = fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        assert!(history.last().unwrap().loss < history[0].loss);
        let stats = evaluate(&net.plan(), &images, &labels);
        assert!(stats.accuracy > 0.95, "accuracy only {}", stats.accuracy);
        assert!(stats.mean_confidence > 0.5);
    }

    #[test]
    fn predict_labels_agrees_with_evaluate() {
        let mut rng = StdRng::seed_from_u64(5);
        let (images, labels) = blobs(&mut rng, 64);
        let mut net = mlp(2);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
        };
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        let plan = net.plan();
        let preds = predict_labels(&plan, &images);
        let acc =
            preds.iter().zip(&labels).filter(|(p, y)| p == y).count() as f32 / labels.len() as f32;
        let stats = evaluate(&plan, &images, &labels);
        assert!((acc - stats.accuracy).abs() < 1e-6);
    }

    #[test]
    fn history_has_one_entry_per_epoch() {
        let mut rng = StdRng::seed_from_u64(6);
        let (images, labels) = blobs(&mut rng, 16);
        let mut net = mlp(3);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
        };
        let history = fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        assert_eq!(history.len(), 4);
        assert_eq!(history[3].epoch, 3);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn mismatched_lengths_panic() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = mlp(4);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig::default();
        let imgs = vec![Tensor::zeros(&[2])];
        fit(&mut net, &mut opt, &imgs, &[0, 1], &cfg, &mut rng);
    }
}
