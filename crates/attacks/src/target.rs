//! Attack target selection (the "Next"/"LL" columns of Table VIII).

use dv_nn::Network;
use dv_tensor::stats::softmax;
use dv_tensor::Tensor;

/// How the attack chooses the class it pushes the input toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMode {
    /// No target: maximize the loss of the true label.
    Untargeted,
    /// Target `(true_label + 1) mod classes` — the "Next" convention of
    /// Xu et al.
    Next,
    /// Target the class the model currently considers least likely.
    LeastLikely,
}

impl TargetMode {
    /// Resolves the concrete target class, or `None` for untargeted.
    ///
    /// # Panics
    ///
    /// Panics if `true_label` is out of range for the network's classes.
    pub fn resolve(&self, net: &mut Network, image: &Tensor, true_label: usize) -> Option<usize> {
        let x = Tensor::stack(std::slice::from_ref(image));
        let logits = net.forward(&x, false).row(0);
        let classes = logits.numel();
        assert!(true_label < classes, "label {true_label} out of range");
        match self {
            TargetMode::Untargeted => None,
            TargetMode::Next => Some((true_label + 1) % classes),
            TargetMode::LeastLikely => {
                let probs = softmax(&logits);
                let mut best = 0;
                for (i, &p) in probs.data().iter().enumerate() {
                    if p < probs.data()[best] {
                        best = i;
                    }
                }
                Some(best)
            }
        }
    }

    /// The column label used in Table VIII.
    pub fn label(&self) -> &'static str {
        match self {
            TargetMode::Untargeted => "Untargeted",
            TargetMode::Next => "Next",
            TargetMode::LeastLikely => "LL",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let mut n = Network::new(&[1, 2, 2]);
        n.push(Flatten::new()).push(Dense::new(&mut rng, 4, 5));
        n
    }

    #[test]
    fn untargeted_resolves_to_none() {
        let mut net = net();
        let img = Tensor::zeros(&[1, 2, 2]);
        assert_eq!(TargetMode::Untargeted.resolve(&mut net, &img, 0), None);
    }

    #[test]
    fn next_wraps_around() {
        let mut net = net();
        let img = Tensor::zeros(&[1, 2, 2]);
        assert_eq!(TargetMode::Next.resolve(&mut net, &img, 1), Some(2));
        assert_eq!(TargetMode::Next.resolve(&mut net, &img, 4), Some(0));
    }

    #[test]
    fn least_likely_is_argmin_of_probs() {
        let mut net = net();
        let mut rng = StdRng::seed_from_u64(7);
        let img = Tensor::rand_uniform(&mut rng, &[1, 2, 2], 0.0, 1.0);
        let target = TargetMode::LeastLikely.resolve(&mut net, &img, 0).unwrap();
        let probs = net.predict(&Tensor::stack(std::slice::from_ref(&img)));
        let row = probs.row(0);
        for (i, &p) in row.data().iter().enumerate() {
            assert!(p >= row.data()[target] || i == target);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TargetMode::Untargeted.label(), "Untargeted");
        assert_eq!(TargetMode::Next.label(), "Next");
        assert_eq!(TargetMode::LeastLikely.label(), "LL");
    }
}
