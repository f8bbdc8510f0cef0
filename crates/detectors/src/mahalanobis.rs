//! Mahalanobis-distance detector (Lee et al., NeurIPS 2018 — the paper's
//! reference \[32\]).
//!
//! Fits class-conditional Gaussians with a **shared (tied) covariance**
//! on the last hidden layer's activations of the correctly classified
//! training images. The anomaly score of an input is the minimum squared
//! Mahalanobis distance to any class mean: inputs far from every class
//! in feature space are out-of-distribution.

use dv_nn::{InferencePlan, Network};
use dv_tensor::linalg::{cholesky, quad_form_inv, NotPositiveDefinite};
use dv_tensor::{Tensor, Workspace};

use crate::detector::{last_hidden, Detector};

/// Class-conditional Gaussian detector with tied covariance.
#[derive(Debug, Clone)]
pub struct MahalanobisDetector {
    /// Per-class feature means.
    means: Vec<Vec<f32>>,
    /// Cholesky factor of the shared covariance.
    chol: Tensor,
}

/// Errors from [`MahalanobisDetector::fit`].
#[derive(Debug, Clone, PartialEq)]
pub enum MahalanobisError {
    /// Training inputs were empty or misaligned.
    BadTrainingSet,
    /// A class had no correctly classified samples.
    EmptyClass(usize),
    /// The pooled covariance was singular even after regularization.
    SingularCovariance(NotPositiveDefinite),
}

impl std::fmt::Display for MahalanobisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MahalanobisError::BadTrainingSet => write!(f, "empty or misaligned training set"),
            MahalanobisError::EmptyClass(k) => write!(f, "class {k} has no correct samples"),
            MahalanobisError::SingularCovariance(e) => {
                write!(f, "covariance not invertible: {e}")
            }
        }
    }
}

impl std::error::Error for MahalanobisError {}

impl MahalanobisDetector {
    /// Fits class means and the tied covariance on the last probe
    /// point's activations of the correctly classified training images,
    /// run through `plan`.
    ///
    /// `shrinkage` is added to the covariance diagonal (as a fraction of
    /// the mean diagonal value) to keep it invertible; `0.01` is a solid
    /// default.
    ///
    /// # Errors
    ///
    /// Returns [`MahalanobisError`] on bad training data or a covariance
    /// that stays singular.
    pub fn fit(
        plan: &InferencePlan,
        images: &[Tensor],
        labels: &[usize],
        max_per_class: usize,
        shrinkage: f64,
    ) -> Result<Self, MahalanobisError> {
        if images.is_empty() || images.len() != labels.len() {
            return Err(MahalanobisError::BadTrainingSet);
        }
        let num_classes = labels.iter().max().copied().unwrap_or(0) + 1;
        let mut feats: Vec<Vec<Vec<f32>>> = vec![Vec::new(); num_classes];
        let mut ws = Workspace::new();
        for (img, &label) in images.iter().zip(labels) {
            if feats[label].len() >= max_per_class {
                continue;
            }
            let (feat, predicted) = last_hidden(plan, &mut ws, img);
            if predicted == label {
                feats[label].push(feat);
            }
        }
        for (k, class_feats) in feats.iter().enumerate() {
            if class_feats.is_empty() {
                return Err(MahalanobisError::EmptyClass(k));
            }
        }
        let d = feats[0][0].len();

        // Per-class means.
        let means: Vec<Vec<f32>> = feats
            .iter()
            .map(|class| {
                let mut m = vec![0.0f32; d];
                for f in class {
                    for (mi, &fi) in m.iter_mut().zip(f) {
                        *mi += fi;
                    }
                }
                for mi in &mut m {
                    *mi /= class.len() as f32;
                }
                m
            })
            .collect();

        // Tied covariance: average of centered outer products.
        let total: usize = feats.iter().map(|c| c.len()).sum();
        let mut cov = vec![0.0f64; d * d];
        for (class, mean) in feats.iter().zip(&means) {
            for f in class {
                for i in 0..d {
                    let ci = (f[i] - mean[i]) as f64;
                    for j in i..d {
                        cov[i * d + j] += ci * (f[j] - mean[j]) as f64;
                    }
                }
            }
        }
        let mut trace = 0.0f64;
        for i in 0..d {
            trace += cov[i * d + i];
        }
        let ridge = shrinkage * (trace / d as f64 / total as f64).max(1e-9);
        let mut cov_t = Tensor::zeros(&[d, d]);
        for i in 0..d {
            for j in i..d {
                let v = cov[i * d + j] / total as f64;
                cov_t.set(&[i, j], v as f32);
                cov_t.set(&[j, i], v as f32);
            }
            let diag = cov_t.at(&[i, i]) + ridge as f32;
            cov_t.set(&[i, i], diag);
        }
        let chol = cholesky(&cov_t).map_err(MahalanobisError::SingularCovariance)?;
        Ok(Self { means, chol })
    }

    /// Squared Mahalanobis distance of a feature vector to class `k`.
    fn distance_sq(&self, k: usize, feat: &[f32]) -> f64 {
        let centered: Vec<f32> = feat
            .iter()
            .zip(&self.means[k])
            .map(|(&f, &m)| f - m)
            .collect();
        let n = centered.len();
        quad_form_inv(&self.chol, &Tensor::from_vec(centered, &[n]))
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.means.len()
    }
}

impl Detector for MahalanobisDetector {
    fn name(&self) -> &str {
        "mahalanobis"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        let (feat, _) = last_hidden(plan, ws, image);
        (0..self.means.len())
            .map(|k| self.distance_sq(k, &feat))
            .fold(f64::INFINITY, f64::min) as f32
    }
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
            let level = if class == 0 { 0.2 } else { 0.8 };
            images.push(Tensor::rand_uniform(
                &mut rng,
                &[1, 4, 4],
                level - 0.15,
                level + 0.15,
            ));
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
    fn fit_succeeds_on_trained_model() {
        let (net, images, labels) = setup();
        let d = MahalanobisDetector::fit(&net.plan(), &images, &labels, 100, 0.01).unwrap();
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    fn in_distribution_scores_below_garbage() {
        let (mut net, images, labels) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut d = MahalanobisDetector::fit(&plan, &images, &labels, 100, 0.01).unwrap();
        let clean: f32 = images[..10]
            .iter()
            .map(|img| d.score(&mut net, &plan, &mut ws, img))
            .sum::<f32>()
            / 10.0;
        let mut rng = StdRng::seed_from_u64(9);
        let garbage: f32 = (0..10)
            .map(|_| {
                let img = Tensor::rand_uniform(&mut rng, &[1, 4, 4], 0.0, 1.0).map(|v| {
                    if v > 0.5 {
                        1.0
                    } else {
                        0.0
                    }
                });
                d.score(&mut net, &plan, &mut ws, &img)
            })
            .sum::<f32>()
            / 10.0;
        assert!(garbage > clean, "garbage {garbage} not above clean {clean}");
    }

    #[test]
    fn scores_are_non_negative() {
        let (mut net, images, labels) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut d = MahalanobisDetector::fit(&plan, &images, &labels, 100, 0.01).unwrap();
        for img in images.iter().take(10) {
            assert!(d.score(&mut net, &plan, &mut ws, img) >= 0.0);
        }
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let (net, _, _) = setup();
        assert_eq!(
            MahalanobisDetector::fit(&net.plan(), &[], &[], 10, 0.01).unwrap_err(),
            MahalanobisError::BadTrainingSet
        );
    }
}
