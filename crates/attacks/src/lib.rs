//! White-box adversarial attacks (paper Section IV-D5).
//!
//! Deep Validation's use case in defending against deliberate attacks is
//! evaluated against the attack suite of Xu et al.'s feature-squeezing
//! paper: FGSM, BIM, JSMA and the Carlini-Wagner family (CW2, CWinf,
//! CW0), each in untargeted, *Next*-target and *least-likely*-target
//! modes where applicable.
//!
//! All attacks work through the [`Attack`] trait and only require
//! gradient access to the network (which `dv-nn` provides by returning
//! input gradients from `backward`). Every attack step needs the layer
//! caches of a forward pass, so attacks run on the training `Network`
//! rather than on a compiled `InferencePlan`. The CW variants follow the
//! original formulation with a reduced iteration budget (DESIGN.md §4.5).
//!
//! # Examples
//!
//! ```no_run
//! use dv_attacks::{Attack, Fgsm, TargetMode};
//! # let mut net: dv_nn::Network = unimplemented!();
//! # let image: dv_tensor::Tensor = unimplemented!();
//! let attack = Fgsm::new(0.3, TargetMode::Untargeted);
//! let result = attack.run(&mut net, &image, 7);
//! println!("attack success: {}", result.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cw;
pub mod fgsm;
pub mod grad;
pub mod jsma;
pub mod target;

#[cfg(test)]
pub(crate) mod tests_support;

pub use cw::{CwL0, CwL2, CwLinf};
pub use fgsm::{Bim, Fgsm};
pub use jsma::Jsma;
pub use target::TargetMode;

use dv_nn::Network;
use dv_tensor::Tensor;

/// The outcome of running an attack on one image.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// The perturbed image (always returned, even on failure).
    pub adversarial: Tensor,
    /// Whether the model now predicts a *wrong* class (the paper counts
    /// success against the ground truth, regardless of target mode).
    pub success: bool,
    /// The model's prediction on the adversarial image.
    pub prediction: usize,
    /// The model's confidence on that prediction.
    pub confidence: f32,
}

/// A white-box attack on a classifier.
pub trait Attack {
    /// Short name for tables, e.g. `"fgsm"`.
    fn name(&self) -> &str;

    /// Perturbs `image` (shape `[C, H, W]`, values in `[0, 1]`) so the
    /// model misclassifies it. `true_label` is the ground truth.
    fn run(&self, net: &mut Network, image: &Tensor, true_label: usize) -> AttackResult;
}

/// Builds an [`AttackResult`] by classifying the candidate.
pub(crate) fn finish(net: &mut Network, adversarial: Tensor, true_label: usize) -> AttackResult {
    let x = Tensor::stack(std::slice::from_ref(&adversarial));
    let (prediction, confidence) = net.classify(&x);
    AttackResult {
        adversarial,
        success: prediction != true_label,
        prediction,
        confidence,
    }
}
