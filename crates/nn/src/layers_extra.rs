//! Additional layers: dropout, batch normalization and a DenseNet-style
//! densely connected convolution block.
//!
//! The paper's CIFAR-10 model is DenseNet-40; [`DenseBlock`] provides the
//! characteristic concatenative connectivity so the object model can be
//! built with true dense blocks (see `dv-bench`'s model notes), and
//! [`Dropout`]/[`BatchNorm2d`] round out the standard CNN toolbox.

use dv_tensor::{SlotAllocator, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::Layer;
use crate::layers::{Conv2d, Relu};
use crate::plan::{BatchNorm2dOp, DenseBlockOp, IdentityOp, PlanOp};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; at inference
/// the layer is the identity.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates dropout with drop probability `p`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            cached_mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // dv-lint: allow(float-eq, reason = "p is a user-set constant; exactly 0.0 means dropout disabled")
        if !train || self.p == 0.0 {
            self.cached_mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(input.shape().dims());
        for m in mask.data_mut() {
            if self.rng.gen::<f32>() >= self.p {
                *m = 1.0 / keep;
            }
        }
        let out = input.mul(&mask);
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.cached_mask {
            Some(mask) => grad_out.mul(mask),
            None => grad_out.clone(),
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        Vec::new()
    }

    fn load_param(&mut self, name: &str, _value: Tensor) {
        panic!("dropout has no parameter named {name:?}");
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        // Inference-mode dropout is the identity.
        Box::new(IdentityOp { label: "dropout" })
    }
}

/// Batch normalization over the channel axis of `[N, C, H, W]` inputs.
///
/// Training uses batch statistics and updates running estimates; inference
/// uses the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    /// Cached (x_hat, inv_std per channel) from the last training forward.
    cached: Option<(Tensor, Vec<f32>)>,
}

impl BatchNorm2d {
    /// Creates batch normalization over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cached: None,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.numel()
    }
}

impl Layer for BatchNorm2d {
    // Channel statistics walk several parallel per-channel buffers at
    // once; index loops are the clear formulation here.
    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "batchnorm expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels(), "batchnorm channel mismatch");
        let m = (n * h * w) as f32;
        let data = input.data();

        let (means, vars): (Vec<f32>, Vec<f32>) = if train {
            let mut means = vec![0.0f32; c];
            let mut vars = vec![0.0f32; c];
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for &v in &data[base..base + h * w] {
                        means[ch] += v;
                    }
                }
            }
            for mean in &mut means {
                *mean /= m;
            }
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for &v in &data[base..base + h * w] {
                        let d = v - means[ch];
                        vars[ch] += d * d;
                    }
                }
            }
            for var in &mut vars {
                *var /= m;
            }
            for ch in 0..c {
                let rm = self.running_mean.data()[ch];
                let rv = self.running_var.data()[ch];
                self.running_mean.data_mut()[ch] =
                    (1.0 - self.momentum) * rm + self.momentum * means[ch];
                self.running_var.data_mut()[ch] =
                    (1.0 - self.momentum) * rv + self.momentum * vars[ch];
            }
            (means, vars)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        };

        let inv_std: Vec<f32> = vars.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = Tensor::zeros(dims);
        let mut out = Tensor::zeros(dims);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let g = self.gamma.data()[ch];
                let b = self.beta.data()[ch];
                for i in base..base + h * w {
                    let xh = (data[i] - means[ch]) * inv_std[ch];
                    x_hat.data_mut()[i] = xh;
                    out.data_mut()[i] = g * xh + b;
                }
            }
        }
        self.cached = if train { Some((x_hat, inv_std)) } else { None };
        out
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (x_hat, inv_std) = self
            .cached
            .as_ref()
            .expect("batchnorm backward requires a training forward");
        let dims = grad_out.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let m = (n * h * w) as f32;
        let g_out = grad_out.data();
        let xh = x_hat.data();

        // Per-channel sums of dy and dy * x_hat.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xh = vec![0.0f32; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for i in base..base + h * w {
                    sum_dy[ch] += g_out[i];
                    sum_dy_xh[ch] += g_out[i] * xh[i];
                }
            }
        }
        for ch in 0..c {
            self.grad_gamma.data_mut()[ch] += sum_dy_xh[ch];
            self.grad_beta.data_mut()[ch] += sum_dy[ch];
        }

        // dx = gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy x_hat)).
        let mut grad_in = Tensor::zeros(dims);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let scale = self.gamma.data()[ch] * inv_std[ch];
                let mean_dy = sum_dy[ch] / m;
                let mean_dy_xh = sum_dy_xh[ch] / m;
                for i in base..base + h * w {
                    grad_in.data_mut()[i] = scale * (g_out[i] - mean_dy - xh[i] * mean_dy_xh);
                }
            }
        }
        grad_in
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.gamma, &self.grad_gamma),
            (&mut self.beta, &self.grad_beta),
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.map_inplace(|_| 0.0);
        self.grad_beta.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        vec![
            ("gamma", &self.gamma),
            ("beta", &self.beta),
            ("running_mean", &self.running_mean),
            ("running_var", &self.running_var),
        ]
    }

    fn load_param(&mut self, name: &str, value: Tensor) {
        let slot = match name {
            "gamma" => &mut self.gamma,
            "beta" => &mut self.beta,
            "running_mean" => &mut self.running_mean,
            "running_var" => &mut self.running_var,
            other => panic!("batchnorm2d has no parameter named {other:?}"),
        };
        assert!(
            slot.shape().same_dims(value.shape()),
            "batchnorm2d {name} shape mismatch"
        );
        *slot = value;
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        // Freeze the running statistics, precomputing 1/sqrt(var + eps)
        // with the same formula as the inference forward.
        Box::new(BatchNorm2dOp {
            means: self.running_mean.data().to_vec(),
            inv_std: self
                .running_var
                .data()
                .iter()
                .map(|&v| 1.0 / (v + self.eps).sqrt())
                .collect(),
            gamma: self.gamma.data().to_vec(),
            beta: self.beta.data().to_vec(),
        })
    }
}

/// A DenseNet-style densely connected block: `layers` conv+ReLU stages,
/// each consuming the channel-concatenation of the block input and every
/// previous stage's output, each producing `growth` new channels. The
/// block output is the full concatenation (input + all features), so
/// channels grow from `C` to `C + layers * growth`.
#[derive(Clone)]
pub struct DenseBlock {
    convs: Vec<Conv2d>,
    relus: Vec<Relu>,
    in_channels: usize,
    growth: usize,
    /// Cached stage inputs' channel counts for backward splitting.
    cached_stage_inputs: Vec<Tensor>,
}

impl DenseBlock {
    /// Creates a dense block of `layers` stages with `growth` channels
    /// each, over 3x3 padded convolutions (spatial dims preserved).
    ///
    /// # Panics
    ///
    /// Panics if `layers` or `growth` is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        growth: usize,
        layers: usize,
    ) -> Self {
        assert!(
            layers > 0 && growth > 0,
            "layers and growth must be positive"
        );
        let mut convs = Vec::with_capacity(layers);
        let mut relus = Vec::with_capacity(layers);
        for i in 0..layers {
            convs.push(Conv2d::with_padding(
                rng,
                in_channels + i * growth,
                growth,
                3,
                1,
            ));
            relus.push(Relu::new());
        }
        Self {
            convs,
            relus,
            in_channels,
            growth,
            cached_stage_inputs: Vec::new(),
        }
    }

    /// Output channel count: `in + layers * growth`.
    pub fn out_channels(&self) -> usize {
        self.in_channels + self.convs.len() * self.growth
    }

    /// Concatenates two `[N, C, H, W]` tensors along the channel axis.
    fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
        let ad = a.shape().dims();
        let bd = b.shape().dims();
        assert_eq!(ad[0], bd[0], "batch mismatch in concat");
        assert_eq!(&ad[2..], &bd[2..], "spatial mismatch in concat");
        let (n, ca, cb, h, w) = (ad[0], ad[1], bd[1], ad[2], ad[3]);
        let mut out = Tensor::zeros(&[n, ca + cb, h, w]);
        let plane = h * w;
        for img in 0..n {
            let dst = &mut out.data_mut()[img * (ca + cb) * plane..];
            dst[..ca * plane].copy_from_slice(&a.data()[img * ca * plane..(img + 1) * ca * plane]);
            dst[ca * plane..(ca + cb) * plane]
                .copy_from_slice(&b.data()[img * cb * plane..(img + 1) * cb * plane]);
        }
        out
    }

    /// Splits a `[N, C1+C2, H, W]` gradient back into channel parts.
    fn split_channels(g: &Tensor, first: usize) -> (Tensor, Tensor) {
        let dims = g.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert!(first < c, "split point out of range");
        let second = c - first;
        let plane = h * w;
        let mut a = Tensor::zeros(&[n, first, h, w]);
        let mut b = Tensor::zeros(&[n, second, h, w]);
        for img in 0..n {
            let src = &g.data()[img * c * plane..(img + 1) * c * plane];
            a.data_mut()[img * first * plane..(img + 1) * first * plane]
                .copy_from_slice(&src[..first * plane]);
            b.data_mut()[img * second * plane..(img + 1) * second * plane]
                .copy_from_slice(&src[first * plane..]);
        }
        (a, b)
    }
}

impl Layer for DenseBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut state = input.clone();
        self.cached_stage_inputs.clear();
        for (conv, relu) in self.convs.iter_mut().zip(&mut self.relus) {
            self.cached_stage_inputs.push(state.clone());
            let feat = relu.forward(&conv.forward(&state, train), train);
            state = Self::concat_channels(&state, &feat);
        }
        state
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_state = grad_out.clone();
        for ((conv, relu), stage_in) in self
            .convs
            .iter_mut()
            .zip(&mut self.relus)
            .zip(&self.cached_stage_inputs)
            .rev()
        {
            let in_c = stage_in.shape().dim(1);
            let (grad_prev, grad_feat) = Self::split_channels(&grad_state, in_c);
            let grad_through = conv.backward(&relu.backward(&grad_feat));
            grad_state = grad_prev.add(&grad_through);
        }
        grad_state
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.convs
            .iter_mut()
            .flat_map(|c| c.params_and_grads())
            .collect()
    }

    fn zero_grads(&mut self) {
        for conv in &mut self.convs {
            conv.zero_grads();
        }
    }

    fn name(&self) -> &'static str {
        "dense_block"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        assert_eq!(input.len(), 3, "dense block expects [C, H, W] items");
        assert_eq!(input[0], self.in_channels, "dense block channel mismatch");
        vec![self.out_channels(), input[1], input[2]]
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        // Conv names repeat per stage; the network prefixes layer indices,
        // so disambiguate with static per-stage names (max 8 stages).
        const NAMES: [[&str; 2]; 8] = [
            ["stage0.weight", "stage0.bias"],
            ["stage1.weight", "stage1.bias"],
            ["stage2.weight", "stage2.bias"],
            ["stage3.weight", "stage3.bias"],
            ["stage4.weight", "stage4.bias"],
            ["stage5.weight", "stage5.bias"],
            ["stage6.weight", "stage6.bias"],
            ["stage7.weight", "stage7.bias"],
        ];
        assert!(
            self.convs.len() <= NAMES.len(),
            "dense block checkpointing supports at most {} stages",
            NAMES.len()
        );
        self.convs
            .iter()
            .enumerate()
            .flat_map(|(i, conv)| {
                conv.named_params()
                    .into_iter()
                    .enumerate()
                    .map(move |(j, (_, t))| (NAMES[i][j], t))
            })
            .collect()
    }

    fn load_param(&mut self, name: &str, value: Tensor) {
        let (stage_part, param) = name
            .split_once('.')
            .unwrap_or_else(|| panic!("bad dense block parameter {name:?}"));
        let idx: usize = stage_part
            .strip_prefix("stage")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad dense block parameter {name:?}"));
        assert!(idx < self.convs.len(), "stage {idx} out of range");
        self.convs[idx].load_param(param, value);
    }

    fn plan_op(&self, slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(DenseBlockOp {
            stages: self.convs.iter().map(|c| c.plan_op(slots)).collect(),
            in_channels: self.in_channels,
            growth: self.growth,
            state_slots: [slots.alloc(), slots.alloc()],
            feat_slot: slots.alloc(),
        })
    }
}

impl std::fmt::Debug for DenseBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseBlock")
            .field("in_channels", &self.in_channels)
            .field("growth", &self.growth)
            .field("stages", &self.convs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[2, 8]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), x.data());
        let g = d.backward(&Tensor::ones(&[2, 8]));
        assert_eq!(g.sum(), 16.0);
    }

    #[test]
    fn dropout_zeroes_roughly_p_and_preserves_expectation() {
        let mut d = Dropout::new(0.4, 7);
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.4).abs() < 0.03, "dropped {frac}");
        // Survivors are scaled so E[y] = E[x].
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[1, 100]));
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv, gv, "mask mismatch between forward and backward");
        }
    }

    #[test]
    fn batchnorm_normalizes_batch_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&mut rng, &[8, 2, 4, 4], 3.0).map(|v| v + 5.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
        for ch in 0..2 {
            let mut vals = Vec::new();
            for img in 0..8 {
                for i in 0..16 {
                    vals.push(y.at(&[img, ch, i / 4, i % 4]));
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        // Several training batches to populate the running stats.
        for _ in 0..50 {
            let x = Tensor::randn(&mut rng, &[4, 1, 3, 3], 2.0).map(|v| v + 10.0);
            let _ = bn.forward(&x, true);
        }
        // At inference a typical input must come out near-normalized.
        let x = Tensor::full(&[1, 1, 3, 3], 10.0);
        let y = bn.forward(&x, false);
        assert!(y.data()[0].abs() < 0.5, "inference output {}", y.data()[0]);
    }

    #[test]
    fn batchnorm_input_gradient_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&mut rng, &[3, 2, 2, 2], 1.0);
        let y = bn.forward(&x, true);
        let probe = Tensor::randn(&mut rng, y.shape().dims(), 1.0);
        bn.zero_grads();
        let analytic = bn.backward(&probe);
        let eps = 1e-2f32;
        for flat in (0..x.numel()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let lp = bn.forward(&xp, true).mul(&probe).sum();
            let lm = bn.forward(&xm, true).mul(&probe).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data()[flat];
            assert!(
                (numeric - got).abs() < 5e-2 * (1.0 + numeric.abs().max(got.abs())),
                "pixel {flat}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn dense_block_grows_channels() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = DenseBlock::new(&mut rng, 3, 4, 2);
        assert_eq!(block.out_channels(), 11);
        let x = Tensor::zeros(&[2, 3, 6, 6]);
        let y = block.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 11, 6, 6]);
        assert_eq!(block.output_shape(&[3, 6, 6]), vec![11, 6, 6]);
    }

    #[test]
    fn dense_block_output_contains_its_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut block = DenseBlock::new(&mut rng, 2, 3, 2);
        let x = Tensor::randn(&mut rng, &[1, 2, 4, 4], 1.0);
        let y = block.forward(&x, false);
        // The first 2 channels of the output are the input itself.
        for ch in 0..2 {
            for i in 0..16 {
                assert_eq!(y.at(&[0, ch, i / 4, i % 4]), x.at(&[0, ch, i / 4, i % 4]));
            }
        }
    }

    #[test]
    fn dense_block_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut block = DenseBlock::new(&mut rng, 2, 2, 2);
        let x = Tensor::randn(&mut rng, &[1, 2, 5, 5], 1.0);
        let y = block.forward(&x, true);
        let probe = Tensor::randn(&mut rng, y.shape().dims(), 1.0);
        block.zero_grads();
        let analytic = block.backward(&probe);
        let eps = 1e-2f32;
        for flat in (0..x.numel()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let lp = block.forward(&xp, true).mul(&probe).sum();
            let lm = block.forward(&xm, true).mul(&probe).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data()[flat];
            assert!(
                (numeric - got).abs() < 5e-2 * (1.0 + numeric.abs().max(got.abs())),
                "pixel {flat}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn dense_block_checkpoint_round_trips() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = DenseBlock::new(&mut rng, 2, 2, 3);
        let saved: Vec<(String, Tensor)> = block
            .named_params()
            .into_iter()
            .map(|(n, t)| (n.to_owned(), t.clone()))
            .collect();
        assert_eq!(saved.len(), 6); // 3 stages x (weight, bias)
        let mut fresh = DenseBlock::new(&mut rng, 2, 2, 3);
        for (name, value) in saved {
            fresh.load_param(&name, value);
        }
        let x = Tensor::randn(&mut rng, &[1, 2, 4, 4], 1.0);
        let mut a = block;
        let mut b = fresh;
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }
}
