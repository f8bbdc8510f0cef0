//! The trivial confidence baseline: score = `1 - max softmax probability`.
//!
//! The paper's Table V motivates Deep Validation by showing that corner
//! cases are misclassified *at high confidence* — i.e. this baseline
//! should fail, which is exactly what the `ablation` binary demonstrates.
//! It is included because confidence thresholding is what practitioners
//! reach for first.

use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};

use crate::detector::Detector;

/// Scores anomalies by prediction uncertainty (`1 - top1 confidence`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxConfidence;

impl MaxConfidence {
    /// Creates the confidence baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Detector for MaxConfidence {
    fn name(&self) -> &str {
        "max-confidence"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        let (_, confidence) = plan.classify(image, ws);
        1.0 - confidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn score_is_one_minus_confidence() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(&[1, 2, 2]);
        net.push(Flatten::new()).push(Dense::new(&mut rng, 4, 3));
        let img = Tensor::ones(&[1, 2, 2]);
        let plan = net.plan();
        let mut d = MaxConfidence::new();
        let score = d.score(&mut net, &plan, &mut Workspace::new(), &img);
        let (_, conf) = net.classify(&Tensor::stack(std::slice::from_ref(&img)));
        assert!((score - (1.0 - conf)).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&score));
    }
}
