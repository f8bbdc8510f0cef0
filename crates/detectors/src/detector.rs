//! The common scoring interface all detectors implement.

use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};

/// An anomaly detector over a classifier's inputs.
///
/// `score` returns a real number where **higher means more anomalous**;
/// evaluation is threshold-free (ROC-AUC), and operating points are chosen
/// downstream from clean-data quantiles. Detectors take `&mut self`
/// because scoring may reuse internal buffers.
///
/// Every forward pass runs through `plan`, a shared immutable
/// [`InferencePlan`] compiled from `net`, with scratch from a reusable
/// [`Workspace`]. Only a detector that needs a gradient touches `net`
/// (ODIN's input preprocessing runs a backward pass).
pub trait Detector {
    /// Short name for tables, e.g. `"feature-squeezing"`.
    fn name(&self) -> &str;

    /// Anomaly score of one `[C, H, W]` image (higher = more anomalous).
    fn score(
        &mut self,
        net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32;

    /// Scores a whole set one by one, reusing one workspace.
    fn score_all(
        &mut self,
        net: &mut Network,
        plan: &InferencePlan,
        images: &[Tensor],
    ) -> Vec<f32> {
        let mut ws = Workspace::new();
        images
            .iter()
            .map(|img| self.score(net, plan, &mut ws, img))
            .collect()
    }
}

/// Flattened activation of the plan's last probe point plus the predicted
/// label, for a single image. Taps only the last probe, so no other
/// activation is copied out.
pub(crate) fn last_hidden(
    plan: &InferencePlan,
    ws: &mut Workspace,
    image: &Tensor,
) -> (Vec<f32>, usize) {
    assert!(
        plan.num_probes() > 0,
        "network must declare at least one probe point"
    );
    let last = plan.num_probes() - 1;
    let out = plan.forward_probed_into(image, &[last], ws);
    let row = out.logits();
    // First-on-ties argmax, the exact semantics of `Tensor::argmax`.
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    (out.probe(0).to_vec(), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstDetector(f32);

    impl Detector for ConstDetector {
        fn name(&self) -> &str {
            "const"
        }
        fn score(
            &mut self,
            _net: &mut Network,
            _plan: &InferencePlan,
            _ws: &mut Workspace,
            _image: &Tensor,
        ) -> f32 {
            self.0
        }
    }

    #[test]
    fn score_all_maps_score() {
        let mut d = ConstDetector(0.5);
        let mut net = Network::new(&[1]);
        net.push(dv_nn::layers::Flatten::new());
        let plan = net.plan();
        let imgs = vec![Tensor::zeros(&[1, 2, 2]); 3];
        assert_eq!(d.score_all(&mut net, &plan, &imgs), vec![0.5, 0.5, 0.5]);
    }
}
