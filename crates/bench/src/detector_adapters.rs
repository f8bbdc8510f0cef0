//! Adapters plugging Deep Validation into the [`Detector`] interface of
//! `dv-detectors`, so all three methods share one evaluation path.

use dv_core::{DeepValidator, ScoreWorkspace};
use dv_detectors::Detector;
use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};

/// The joint validator as a [`Detector`]: score = joint discrepancy.
pub struct JointValidatorDetector {
    validator: DeepValidator,
    sw: ScoreWorkspace,
}

impl JointValidatorDetector {
    /// Wraps a fitted validator.
    pub fn new(validator: DeepValidator) -> Self {
        Self {
            validator,
            sw: ScoreWorkspace::new(),
        }
    }

    /// Borrow the wrapped validator.
    pub fn validator(&self) -> &DeepValidator {
        &self.validator
    }
}

impl Detector for JointValidatorDetector {
    fn name(&self) -> &str {
        "deep-validation"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        _ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        // Scoring reuses the adapter's own workspace (the validator needs
        // a reduction buffer on top of the plan workspace).
        self.validator
            .score(plan, image, &mut self.sw)
            .expect("eval harness feeds well-formed images")
            .joint
    }
}

/// One single validator (the paper's per-layer rows of Table VI) as a
/// [`Detector`]: score = that layer's discrepancy.
pub struct SingleValidatorDetector {
    validator: DeepValidator,
    layer: usize,
    name: String,
    sw: ScoreWorkspace,
}

impl SingleValidatorDetector {
    /// Wraps layer `layer` (an index into the validated layers) of a
    /// fitted validator.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn new(validator: DeepValidator, layer: usize) -> Self {
        assert!(
            layer < validator.num_validated_layers(),
            "layer {layer} out of range"
        );
        let name = format!("single-validator-{layer}");
        Self {
            validator,
            layer,
            name,
            sw: ScoreWorkspace::new(),
        }
    }
}

impl Detector for SingleValidatorDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        _ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        self.validator
            .score(plan, image, &mut self.sw)
            .expect("eval harness feeds well-formed images")
            .per_layer[self.layer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::ValidatorConfig;
    use dv_nn::layers::{Dense, Flatten, Relu};
    use dv_nn::optim::Adam;
    use dv_nn::train::{fit, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, DeepValidator, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let class = i % 2;
            let level = if class == 0 { 0.2 } else { 0.8 };
            images.push(Tensor::rand_uniform(
                &mut rng,
                &[1, 3, 3],
                level - 0.1,
                level + 0.1,
            ));
            labels.push(class);
        }
        let mut net = Network::new(&[1, 3, 3]);
        net.push(Flatten::new())
            .push(Dense::new(&mut rng, 9, 8))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 8, 8))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 8, 2));
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 16,
        };
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        let v = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
        (net, v, images)
    }

    #[test]
    fn joint_adapter_matches_direct_discrepancy() {
        let (mut net, v, images) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut sw = ScoreWorkspace::new();
        let mut adapter = JointValidatorDetector::new(v.clone());
        for img in images.iter().take(3) {
            let direct = v.score(&plan, img, &mut sw).unwrap().joint;
            let adapted = adapter.score(&mut net, &plan, &mut ws, img);
            assert_eq!(adapted.to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn single_adapters_cover_each_layer() {
        let (mut net, v, images) = setup();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let report = v
            .score(&plan, &images[0], &mut ScoreWorkspace::new())
            .unwrap();
        for layer in 0..v.num_validated_layers() {
            let mut adapter = SingleValidatorDetector::new(v.clone(), layer);
            let adapted = adapter.score(&mut net, &plan, &mut ws, &images[0]);
            assert_eq!(adapted.to_bits(), report.per_layer[layer].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_layer_panics() {
        let (_, v, _) = setup();
        let _ = SingleValidatorDetector::new(v, 99);
    }
}
