//! ODIN (Liang et al., ICLR 2018): temperature scaling plus input
//! preprocessing on top of the softmax baseline.
//!
//! ODIN sharpens the separation between in- and out-of-distribution
//! inputs by (1) dividing logits by a temperature `T` before the softmax
//! and (2) nudging the input a small step in the direction that
//! *increases* the top softmax probability — in-distribution inputs
//! respond much more strongly to the nudge. The anomaly score is
//! `1 - max softmax(logits(x') / T)`.

use dv_nn::{InferencePlan, Network};
use dv_tensor::stats::softmax;
use dv_tensor::{Tensor, Workspace};

use crate::detector::Detector;

/// The ODIN detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdinDetector {
    temperature: f32,
    epsilon: f32,
}

impl OdinDetector {
    /// Creates ODIN with temperature `temperature` and input-perturbation
    /// magnitude `epsilon` (in pixel units). The original paper uses
    /// `T = 1000`, `epsilon ~ 0.0014–0.004`.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0` or `epsilon < 0`.
    pub fn new(temperature: f32, epsilon: f32) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            temperature,
            epsilon,
        }
    }

    /// The original paper's defaults (`T = 1000`, `epsilon = 0.002`).
    pub fn defaults() -> Self {
        Self::new(1000.0, 0.002)
    }

    /// Temperature in use.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Pass 1 plus input preprocessing: one signed-gradient step that
    /// *increases* the predicted class's temperature-scaled softmax
    /// probability. Needs the mutable network — the gradient runs through
    /// the layer caches of the forward pass.
    /// `d(-log p_y)/d(logits) = (softmax - onehot) / T`.
    fn preprocess(&self, net: &mut Network, image: &Tensor) -> Tensor {
        let x = Tensor::stack(std::slice::from_ref(image));
        let logits = net.forward(&x, false);
        let scaled = logits.row(0).scale(1.0 / self.temperature);
        let probs = softmax(&scaled);
        let predicted = probs.argmax();

        if self.epsilon > 0.0 {
            let classes = probs.numel();
            let mut grad_logits = Tensor::zeros(&[1, classes]);
            for c in 0..classes {
                let indicator = if c == predicted { 1.0 } else { 0.0 };
                grad_logits.set(&[0, c], (probs.data()[c] - indicator) / self.temperature);
            }
            net.zero_grads();
            let grad_x = net.backward(&grad_logits).index_outer(0);
            // Step against the loss gradient (toward higher confidence).
            image
                .zip(&grad_x, |v, g| v - self.epsilon * g.signum())
                .clamp(0.0, 1.0)
        } else {
            // dv-lint: allow(tensor-clone, reason = "epsilon == 0 disables the perturbation; returning the input unchanged needs one owned copy and skips the whole backward pass")
            image.clone()
        }
    }
}

impl Default for OdinDetector {
    fn default() -> Self {
        Self::defaults()
    }
}

impl Detector for OdinDetector {
    fn name(&self) -> &str {
        "odin"
    }

    fn score(
        &mut self,
        net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        // Preprocessing runs through the network (it needs the backward
        // pass); the final score is served by the plan.
        let perturbed = self.preprocess(net, image);
        let logits = plan.forward(&perturbed, ws);
        let probs = softmax(&logits.row(0).scale(1.0 / self.temperature));
        1.0 - probs.max()
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
        for i in 0..100 {
            let class = i % 2;
            let level = if class == 0 { 0.25 } else { 0.75 };
            images.push(Tensor::rand_uniform(
                &mut rng,
                &[1, 4, 4],
                level - 0.1,
                level + 0.1,
            ));
            labels.push(class);
        }
        let mut net = Network::new(&[1, 4, 4]);
        net.push(Flatten::new())
            .push(Dense::new(&mut rng, 16, 10))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 10, 2));
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 16,
        };
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let (mut net, images, _) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut d = OdinDetector::defaults();
        for img in images.iter().take(10) {
            let s = d.score(&mut net, &plan, &mut ws, img);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn in_distribution_scores_below_boundary_inputs() {
        let (mut net, images, _) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut d = OdinDetector::defaults();
        let clean: f32 = images[..15]
            .iter()
            .map(|img| d.score(&mut net, &plan, &mut ws, img))
            .sum::<f32>()
            / 15.0;
        // An input exactly between the two training blobs is maximally
        // ambiguous — ODIN must score it higher than the blobs.
        let boundary = Tensor::full(&[1, 4, 4], 0.5);
        let boundary_score = d.score(&mut net, &plan, &mut ws, &boundary);
        assert!(
            boundary_score > clean,
            "boundary {boundary_score} not above clean {clean}"
        );
    }

    #[test]
    fn zero_epsilon_skips_preprocessing() {
        let (mut net, images, _) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut with = OdinDetector::new(1000.0, 0.002);
        let mut without = OdinDetector::new(1000.0, 0.0);
        // Both must run; preprocessing generally lowers the score of
        // in-distribution inputs (higher confidence after the nudge).
        let s_with = with.score(&mut net, &plan, &mut ws, &images[0]);
        let s_without = without.score(&mut net, &plan, &mut ws, &images[0]);
        assert!(s_with.is_finite() && s_without.is_finite());
        assert!(s_with <= s_without + 1e-4);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn bad_temperature_panics() {
        let _ = OdinDetector::new(0.0, 0.0);
    }
}
