//! Fast gradient sign method (Goodfellow et al. 2014) and its iterative
//! variant BIM (Kurakin et al. 2017).

use dv_nn::Network;
use dv_tensor::Tensor;

use crate::grad::loss_input_gradient;
use crate::target::TargetMode;
use crate::{finish, Attack, AttackResult};

/// One-step FGSM: `x' = clip(x + eps * sign(grad_x L))` (untargeted), or
/// a step *down* the loss toward the target class when targeted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fgsm {
    eps: f32,
    mode: TargetMode,
}

impl Fgsm {
    /// Creates FGSM with perturbation budget `eps` (in pixel units).
    ///
    /// # Panics
    ///
    /// Panics if `eps <= 0`.
    pub fn new(eps: f32, mode: TargetMode) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        Self { eps, mode }
    }
}

impl Attack for Fgsm {
    fn name(&self) -> &str {
        "fgsm"
    }

    fn run(&self, net: &mut Network, image: &Tensor, true_label: usize) -> AttackResult {
        let target = self.mode.resolve(net, image, true_label);
        let (label, sign) = match target {
            None => (true_label, 1.0f32),
            Some(t) => (t, -1.0),
        };
        let grad = loss_input_gradient(net, image, label);
        let adv = image
            .zip(&grad, |x, g| x + sign * self.eps * g.signum())
            .clamp(0.0, 1.0);
        finish(net, adv, true_label)
    }
}

/// Basic iterative method: repeated small FGSM steps, re-projected into
/// the `eps` L-infinity ball around the original image after every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bim {
    eps: f32,
    step: f32,
    iterations: usize,
    mode: TargetMode,
}

impl Bim {
    /// Creates BIM with total budget `eps`, per-step size `step` and a
    /// fixed iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `eps`, `step` or `iterations` is non-positive.
    pub fn new(eps: f32, step: f32, iterations: usize, mode: TargetMode) -> Self {
        assert!(eps > 0.0 && step > 0.0, "eps and step must be positive");
        assert!(iterations > 0, "iterations must be positive");
        Self {
            eps,
            step,
            iterations,
            mode,
        }
    }
}

impl Attack for Bim {
    fn name(&self) -> &str {
        "bim"
    }

    fn run(&self, net: &mut Network, image: &Tensor, true_label: usize) -> AttackResult {
        let target = self.mode.resolve(net, image, true_label);
        let (label, sign) = match target {
            None => (true_label, 1.0f32),
            Some(t) => (t, -1.0),
        };
        let mut adv = image.clone();
        for _ in 0..self.iterations {
            let grad = loss_input_gradient(net, &adv, label);
            adv = adv.zip(&grad, |x, g| x + sign * self.step * g.signum());
            // Project back into the eps ball and the pixel range.
            adv = adv
                .zip(image, |a, x| a.clamp(x - self.eps, x + self.eps))
                .clamp(0.0, 1.0);
        }
        finish(net, adv, true_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{toy_images, trained_toy};

    #[test]
    fn fgsm_stays_within_eps_ball_and_range() {
        let (mut net, images, labels) = trained_toy();
        let attack = Fgsm::new(0.1, TargetMode::Untargeted);
        let result = attack.run(&mut net, &images[0], labels[0]);
        let delta = result.adversarial.sub(&images[0]).norm_linf();
        assert!(delta <= 0.1 + 1e-5, "perturbation {delta} exceeds eps");
        assert!(result.adversarial.min() >= 0.0 && result.adversarial.max() <= 1.0);
    }

    #[test]
    fn large_eps_fgsm_degrades_the_model() {
        // One-step FGSM is a weak attack (the original paper reports a
        // 43% success rate on MNIST), so assert a confidence collapse on
        // every image plus a non-trivial number of outright flips.
        let (mut net, images, labels) = trained_toy();
        let attack = Fgsm::new(0.4, TargetMode::Untargeted);
        let mut wins = 0;
        let mut conf_before = 0.0f32;
        let mut conf_after = 0.0f32;
        for (img, &l) in images.iter().zip(&labels).take(20) {
            conf_before += net.classify(&Tensor::stack(std::slice::from_ref(img))).1;
            let r = attack.run(&mut net, img, l);
            conf_after += r.confidence;
            if r.success {
                wins += 1;
            }
        }
        assert!(wins >= 3, "FGSM fooled only {wins}/20");
        assert!(
            conf_after < conf_before * 0.8,
            "confidence did not collapse: {conf_after} vs {conf_before}"
        );
    }

    #[test]
    fn bim_beats_fgsm_at_equal_budget() {
        let (mut net, images, labels) = trained_toy();
        let eps = 0.15;
        let fgsm = Fgsm::new(eps, TargetMode::Untargeted);
        let bim = Bim::new(eps, 0.03, 10, TargetMode::Untargeted);
        let fgsm_wins = images
            .iter()
            .zip(&labels)
            .take(20)
            .filter(|(img, &l)| fgsm.run(&mut net, img, l).success)
            .count();
        let bim_wins = images
            .iter()
            .zip(&labels)
            .take(20)
            .filter(|(img, &l)| bim.run(&mut net, img, l).success)
            .count();
        assert!(
            bim_wins >= fgsm_wins,
            "BIM ({bim_wins}) weaker than FGSM ({fgsm_wins})"
        );
    }

    #[test]
    fn bim_respects_eps_projection() {
        let (mut net, images, labels) = trained_toy();
        let bim = Bim::new(0.05, 0.02, 8, TargetMode::Untargeted);
        let result = bim.run(&mut net, &images[1], labels[1]);
        assert!(result.adversarial.sub(&images[1]).norm_linf() <= 0.05 + 1e-5);
    }

    #[test]
    fn targeted_fgsm_moves_toward_target() {
        let (mut net, images, labels) = trained_toy();
        let img = &images[0];
        let target = TargetMode::Next.resolve(&mut net, img, labels[0]).unwrap();
        let before = crate::grad::logits_of(&mut net, img).data()[target];
        let attack = Fgsm::new(0.2, TargetMode::Next);
        let result = attack.run(&mut net, img, labels[0]);
        let after = crate::grad::logits_of(&mut net, &result.adversarial).data()[target];
        assert!(after > before, "target logit did not increase");
    }

    #[test]
    fn toy_images_are_classified_correctly_before_attack() {
        let (mut net, images, labels) = trained_toy();
        let correct = images
            .iter()
            .zip(&labels)
            .filter(|(img, &l)| net.classify(&Tensor::stack(std::slice::from_ref(*img))).0 == l)
            .count();
        assert!(correct >= images.len() * 9 / 10);
        assert_eq!(toy_images(), images.len());
    }
}
