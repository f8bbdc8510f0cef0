//! Kernel density estimation detector (Feinman et al. 2017).
//!
//! Fits a Gaussian KDE per class on the **last hidden layer** activations
//! of the (correctly classified) training images. At test time the score
//! is the negated log-density of the input's activation under the KDE of
//! the *predicted* class: inputs that land in low-density regions of
//! their predicted class are suspicious.

use dv_nn::{InferencePlan, Network};
use dv_tensor::stats::log_sum_exp;
use dv_tensor::{Tensor, Workspace};

use crate::detector::{last_hidden, Detector};

/// Per-class Gaussian KDE over last-hidden-layer activations.
#[derive(Debug, Clone)]
pub struct KdeDetector {
    /// `points[k]` = stored activations for class `k`.
    points: Vec<Vec<Vec<f32>>>,
    /// Kernel bandwidth (sigma).
    bandwidth: f64,
}

/// Errors from [`KdeDetector::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdeError {
    /// Training inputs were empty or misaligned.
    BadTrainingSet,
    /// A class had no correctly classified samples.
    EmptyClass(usize),
}

impl std::fmt::Display for KdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdeError::BadTrainingSet => write!(f, "empty or misaligned training set"),
            KdeError::EmptyClass(k) => write!(f, "class {k} has no correct samples"),
        }
    }
}

impl std::error::Error for KdeError {}

impl KdeDetector {
    /// Fits per-class KDEs on the last probe point's activations of the
    /// correctly classified training images, run through `plan`.
    ///
    /// `bandwidth = None` selects the median heuristic: sigma is the
    /// median pairwise distance over a subsample of stored activations
    /// (Feinman et al. tuned a per-dataset constant; the heuristic lands
    /// in the same regime without a tuning set).
    ///
    /// # Errors
    ///
    /// Returns [`KdeError`] on an empty/misaligned training set or a class
    /// with no correct samples.
    pub fn fit(
        plan: &InferencePlan,
        images: &[Tensor],
        labels: &[usize],
        max_per_class: usize,
        bandwidth: Option<f64>,
    ) -> Result<Self, KdeError> {
        if images.is_empty() || images.len() != labels.len() {
            return Err(KdeError::BadTrainingSet);
        }
        let num_classes = labels.iter().max().copied().unwrap_or(0) + 1;
        let mut points = vec![Vec::new(); num_classes];
        let mut ws = Workspace::new();
        for (img, &label) in images.iter().zip(labels) {
            if points[label].len() >= max_per_class {
                continue;
            }
            let (feat, predicted) = last_hidden(plan, &mut ws, img);
            if predicted == label {
                points[label].push(feat);
            }
        }
        for (k, class_points) in points.iter().enumerate() {
            if class_points.is_empty() {
                return Err(KdeError::EmptyClass(k));
            }
        }
        let bandwidth = bandwidth.unwrap_or_else(|| median_heuristic(&points));
        Ok(Self { points, bandwidth })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Log-density of a feature vector under class `k`'s KDE
    /// (up to the shared normalization constant, which cancels in
    /// ranking-based evaluation).
    fn log_density(&self, k: usize, feat: &[f32]) -> f64 {
        let inv = 1.0 / (2.0 * self.bandwidth * self.bandwidth);
        let logs: Vec<f32> = self.points[k]
            .iter()
            .map(|p| {
                let sq: f64 = p
                    .iter()
                    .zip(feat)
                    .map(|(&a, &b)| {
                        let d = a as f64 - b as f64;
                        d * d
                    })
                    .sum();
                (-sq * inv) as f32
            })
            .collect();
        log_sum_exp(&logs) as f64 - (self.points[k].len() as f64).ln()
    }
}

impl Detector for KdeDetector {
    fn name(&self) -> &str {
        "kernel-density"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        let (feat, predicted) = last_hidden(plan, ws, image);
        -(self.log_density(predicted, &feat) as f32)
    }
}

/// Median pairwise distance over a deterministic subsample of all stored
/// activations, floored to a small positive value.
fn median_heuristic(points: &[Vec<Vec<f32>>]) -> f64 {
    let all: Vec<&Vec<f32>> = points.iter().flatten().collect();
    let stride = (all.len() / 50).max(1);
    let sample: Vec<&Vec<f32>> = all.iter().step_by(stride).copied().collect();
    let mut dists = Vec::new();
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            let d: f64 = sample[i]
                .iter()
                .zip(sample[j])
                .map(|(&a, &b)| {
                    let x = a as f64 - b as f64;
                    x * x
                })
                .sum::<f64>()
                .sqrt();
            dists.push(d);
        }
    }
    if dists.is_empty() {
        return 1.0;
    }
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    dists[dists.len() / 2].max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten, Relu};
    use dv_nn::optim::Adam;
    use dv_nn::train::{fit, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let class = i % 2;
            let center = if class == 0 { 0.2 } else { 0.8 };
            let img = Tensor::rand_uniform(&mut rng, &[1, 4, 4], center - 0.15, center + 0.15);
            images.push(img);
            labels.push(class);
        }
        let mut net = Network::new(&[1, 4, 4]);
        net.push(Flatten::new())
            .push(Dense::new(&mut rng, 16, 12))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 12, 2));
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
        };
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    #[test]
    fn fit_succeeds_and_picks_finite_bandwidth() {
        let (net, images, labels) = setup();
        let kde = KdeDetector::fit(&net.plan(), &images, &labels, 100, None).unwrap();
        assert!(kde.bandwidth().is_finite() && kde.bandwidth() > 0.0);
    }

    #[test]
    fn training_points_score_lower_than_garbage() {
        let (mut net, images, labels) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut kde = KdeDetector::fit(&plan, &images, &labels, 100, None).unwrap();
        let clean: f32 = images[..10]
            .iter()
            .map(|img| kde.score(&mut net, &plan, &mut ws, img))
            .sum::<f32>()
            / 10.0;
        let mut rng = StdRng::seed_from_u64(3);
        let garbage: f32 = (0..10)
            .map(|_| {
                // Patterned noise unlike either training blob.
                let img = Tensor::rand_uniform(&mut rng, &[1, 4, 4], 0.0, 1.0).map(|v| {
                    if v > 0.5 {
                        1.0
                    } else {
                        0.0
                    }
                });
                kde.score(&mut net, &plan, &mut ws, &img)
            })
            .sum::<f32>()
            / 10.0;
        assert!(garbage > clean, "garbage {garbage} not above clean {clean}");
    }

    #[test]
    fn explicit_bandwidth_is_respected() {
        let (net, images, labels) = setup();
        let kde = KdeDetector::fit(&net.plan(), &images, &labels, 100, Some(0.7)).unwrap();
        assert_eq!(kde.bandwidth(), 0.7);
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let (net, _, _) = setup();
        assert_eq!(
            KdeDetector::fit(&net.plan(), &[], &[], 10, None).unwrap_err(),
            KdeError::BadTrainingSet
        );
    }
}
