//! Feature squeezing (Xu, Evans, Qi — NDSS 2018).
//!
//! Each *squeezer* is a hard-coded input filter; the detection score of an
//! input is the maximum L1 distance between the model's softmax output on
//! the original input and on each squeezed version. Legitimate inputs are
//! barely affected by squeezing; adversarial (and, the conjecture went,
//! corner-case) inputs are not.

use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};

use crate::detector::Detector;

/// One input-squeezing filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Squeezer {
    /// Quantizes pixel values to `bits` bits of depth.
    BitDepth(u8),
    /// Median-smooths each channel with a `k x k` window
    /// (clamp-to-edge padding).
    MedianFilter(usize),
}

impl Squeezer {
    /// Applies the squeezer to a `[C, H, W]` image in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not rank 3, `BitDepth(0)`, bit depths above
    /// 16, or `MedianFilter(0)`.
    pub fn apply(&self, image: &Tensor) -> Tensor {
        match self {
            Squeezer::BitDepth(bits) => {
                assert!((1..=16).contains(bits), "bit depth {bits} out of range");
                let levels = ((1u32 << bits) - 1) as f32;
                image.map(|x| (x.clamp(0.0, 1.0) * levels).round() / levels)
            }
            Squeezer::MedianFilter(k) => {
                assert!(*k > 0, "median window must be positive");
                median_filter(image, *k)
            }
        }
    }

    /// Short label used in configuration printouts.
    pub fn label(&self) -> String {
        match self {
            Squeezer::BitDepth(bits) => format!("bit-depth-{bits}"),
            Squeezer::MedianFilter(k) => format!("median-{k}x{k}"),
        }
    }
}

fn median_filter(image: &Tensor, k: usize) -> Tensor {
    assert_eq!(image.shape().ndim(), 3, "median filter expects [C, H, W]");
    let dims = image.shape().dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let data = image.data();
    let mut out = vec![0.0f32; c * h * w];
    let half_lo = (k - 1) / 2;
    let mut window = Vec::with_capacity(k * k);
    for ch in 0..c {
        let base = ch * h * w;
        for y in 0..h {
            for x in 0..w {
                window.clear();
                for dy in 0..k {
                    for dx in 0..k {
                        // Clamp-to-edge padding.
                        let yy = (y + dy).saturating_sub(half_lo).min(h - 1);
                        let xx = (x + dx).saturating_sub(half_lo).min(w - 1);
                        window.push(data[base + yy * w + xx]);
                    }
                }
                window.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let n = window.len();
                out[base + y * w + x] = if n % 2 == 1 {
                    window[n / 2]
                } else {
                    0.5 * (window[n / 2 - 1] + window[n / 2])
                };
            }
        }
    }
    Tensor::from_vec(out, dims)
}

/// The feature-squeezing detector: a set of squeezers joined by max-L1.
#[derive(Debug, Clone)]
pub struct FeatureSqueezing {
    squeezers: Vec<Squeezer>,
}

impl FeatureSqueezing {
    /// Creates a detector from an explicit squeezer set.
    ///
    /// # Panics
    ///
    /// Panics if `squeezers` is empty.
    pub fn new(squeezers: Vec<Squeezer>) -> Self {
        assert!(!squeezers.is_empty(), "need at least one squeezer");
        Self { squeezers }
    }

    /// The best MNIST configuration from the original paper:
    /// 1-bit depth + 2x2 median smoothing.
    pub fn mnist_default() -> Self {
        Self::new(vec![Squeezer::BitDepth(1), Squeezer::MedianFilter(2)])
    }

    /// The color-dataset configuration: 4- and 5-bit depth + 2x2 median,
    /// with a 3x3 median standing in for the original's non-local means
    /// filter (DESIGN.md §4.4).
    pub fn color_default() -> Self {
        Self::new(vec![
            Squeezer::BitDepth(4),
            Squeezer::BitDepth(5),
            Squeezer::MedianFilter(2),
            Squeezer::MedianFilter(3),
        ])
    }

    /// The configured squeezers.
    pub fn squeezers(&self) -> &[Squeezer] {
        &self.squeezers
    }
}

impl Detector for FeatureSqueezing {
    fn name(&self) -> &str {
        "feature-squeezing"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        let base = plan.predict(image, ws).row(0);
        let mut best = 0.0f32;
        for squeezer in &self.squeezers {
            let squeezed = squeezer.apply(image);
            let p = plan.predict(&squeezed, ws).row(0);
            best = best.max(base.sub(&p).norm_l1());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_bit_depth_binarizes() {
        let img = Tensor::from_vec(vec![0.1, 0.4, 0.6, 0.9], &[1, 2, 2]);
        let out = Squeezer::BitDepth(1).apply(&img);
        assert_eq!(out.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn bit_depth_is_idempotent() {
        let img = Tensor::from_vec(vec![0.13, 0.77, 0.5, 0.99], &[1, 2, 2]);
        let once = Squeezer::BitDepth(3).apply(&img);
        let twice = Squeezer::BitDepth(3).apply(&once);
        assert_eq!(once.data(), twice.data());
    }

    #[test]
    fn high_bit_depth_changes_little() {
        let img = Tensor::from_vec(vec![0.123, 0.456, 0.789, 0.5], &[1, 2, 2]);
        let out = Squeezer::BitDepth(8).apply(&img);
        for (a, b) in out.data().iter().zip(img.data()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn median_filter_removes_salt_noise() {
        let mut img = Tensor::zeros(&[1, 5, 5]);
        img.set(&[0, 2, 2], 1.0); // isolated bright pixel
        let out = Squeezer::MedianFilter(3).apply(&img);
        assert_eq!(out.at(&[0, 2, 2]), 0.0);
    }

    #[test]
    fn median_filter_preserves_constant_images() {
        let img = Tensor::full(&[3, 4, 4], 0.42);
        let out = Squeezer::MedianFilter(3).apply(&img);
        for &v in out.data() {
            assert!((v - 0.42).abs() < 1e-6);
        }
    }

    #[test]
    fn score_is_zero_for_squeeze_invariant_inputs() {
        // A constant black image is unchanged by both squeezers, so the
        // model's predictions coincide and the score must be ~0.
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Network::new(&[1, 4, 4]);
        net.push(Flatten::new())
            .push(Dense::new(&mut rng, 16, 8))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 8, 3));
        let plan = net.plan();
        let mut fs = FeatureSqueezing::mnist_default();
        let score = fs.score(
            &mut net,
            &plan,
            &mut Workspace::new(),
            &Tensor::zeros(&[1, 4, 4]),
        );
        assert!(score.abs() < 1e-5, "score {score} not ~0");
    }

    #[test]
    fn noisy_input_scores_higher_than_flat_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(&[1, 4, 4]);
        net.push(Flatten::new())
            .push(Dense::new(&mut rng, 16, 8))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 8, 3));
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut fs = FeatureSqueezing::mnist_default();
        let flat = fs.score(&mut net, &plan, &mut ws, &Tensor::full(&[1, 4, 4], 0.0));
        let noisy_img = Tensor::rand_uniform(&mut rng, &[1, 4, 4], 0.3, 0.7);
        let noisy = fs.score(&mut net, &plan, &mut ws, &noisy_img);
        assert!(noisy >= flat);
    }

    #[test]
    fn default_configs_have_expected_squeezers() {
        assert_eq!(FeatureSqueezing::mnist_default().squeezers().len(), 2);
        assert_eq!(FeatureSqueezing::color_default().squeezers().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one squeezer")]
    fn empty_squeezer_set_panics() {
        let _ = FeatureSqueezing::new(vec![]);
    }
}
