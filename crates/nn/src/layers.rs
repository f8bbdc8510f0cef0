//! Concrete layer implementations: convolution, dense, ReLU, max-pooling
//! and flatten — the building blocks of the paper's three CNN classifiers.

use dv_tensor::conv::{col2im, Conv2dGeom};
use dv_tensor::gemm;
use dv_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use dv_tensor::{SlotAllocator, Tensor};
use rand::Rng;

use crate::layer::{batch_dims, Layer};
use crate::plan::{Conv2dOp, DenseOp, IdentityOp, MaxPool2Op, PlanOp, ReluOp};

/// 2-D convolution with square kernels, stride 1 and optional zero padding.
///
/// Weights use Kaiming/He initialization, matching common practice for the
/// ReLU networks of the paper.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    /// `[out_channels, in_channels * kernel * kernel]`.
    weight: Tensor,
    /// `[out_channels]`.
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    cached_geom: Option<Conv2dGeom>,
}

impl Conv2d {
    /// Creates a stride-1 convolution without padding ("valid").
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
    ) -> Self {
        Self::with_padding(rng, in_channels, out_channels, kernel, 0)
    }

    /// Creates a stride-1 convolution with `pad` zeros on every side.
    ///
    /// # Panics
    ///
    /// Panics if any of the sizing arguments is zero.
    pub fn with_padding<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0);
        let fan_in = in_channels * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        Self {
            in_channels,
            out_channels,
            kernel,
            pad,
            weight: Tensor::randn(rng, &[out_channels, fan_in], std),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
            cached_geom: None,
        }
    }

    fn geom_for(&self, dims: &[usize]) -> Conv2dGeom {
        assert_eq!(dims.len(), 3, "conv2d expects [C, H, W] items");
        assert_eq!(dims[0], self.in_channels, "conv2d channel mismatch");
        Conv2dGeom {
            in_channels: self.in_channels,
            in_h: dims[1],
            in_w: dims[2],
            kernel: self.kernel,
            stride: 1,
            pad: self.pad,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let n = input.shape().dim(0);
        let geom = self.geom_for(&input.shape().dims()[1..]);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let spatial = oh * ow;
        let item_in = self.in_channels * geom.in_h * geom.in_w;
        // Backward re-gathers patches from the raw input, so caching the
        // input replaces caching one column matrix per image.
        self.cached_input = Some(input.clone());
        self.cached_geom = Some(geom);
        let mut outs = Vec::with_capacity(n);
        for i in 0..n {
            let mut buf = vec![0.0f32; self.out_channels * spatial];
            gemm::conv2d_into(
                self.weight.data(),
                self.out_channels,
                &input.data()[i * item_in..(i + 1) * item_in],
                &geom,
                &mut buf,
            );
            let mut out = Tensor::from_vec(buf, &[self.out_channels, spatial]);
            // Broadcast-add the per-channel bias across spatial positions.
            for c in 0..self.out_channels {
                let b = self.bias.data()[c];
                for v in &mut out.data_mut()[c * spatial..(c + 1) * spatial] {
                    *v += b;
                }
            }
            outs.push(out.reshape(&[self.out_channels, oh, ow]));
        }
        Tensor::stack(&outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let geom = self
            .cached_geom
            .expect("conv2d backward called before forward");
        let input = self
            .cached_input
            .as_ref()
            .expect("conv2d backward called before forward");
        let n = grad_out.shape().dim(0);
        assert_eq!(
            n,
            input.shape().dim(0),
            "conv2d backward batch size mismatch"
        );
        let spatial = geom.out_h() * geom.out_w();
        let item_in = self.in_channels * geom.in_h * geom.in_w;
        let col_rows = geom.col_rows();
        let mut grads = Vec::with_capacity(n);
        for i in 0..n {
            let g_mat = grad_out
                .index_outer(i)
                .reshape(&[self.out_channels, spatial]);
            // dL/dW += g * cols^T (cols re-gathered from the cached
            // input); dL/db += row sums of g.
            let mut gw = vec![0.0f32; self.out_channels * col_rows];
            gemm::conv2d_grad_weight_into(
                g_mat.data(),
                self.out_channels,
                &input.data()[i * item_in..(i + 1) * item_in],
                &geom,
                &mut gw,
            );
            self.grad_weight
                .axpy(1.0, &Tensor::from_vec(gw, &[self.out_channels, col_rows]));
            for c in 0..self.out_channels {
                let s: f32 = g_mat.data()[c * spatial..(c + 1) * spatial].iter().sum();
                self.grad_bias.data_mut()[c] += s;
            }
            // dL/dx = col2im(W^T * g).
            let grad_cols = matmul_tn(&self.weight, &g_mat);
            grads.push(col2im(&grad_cols, &geom));
        }
        Tensor::stack(&grads)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geom_for(input);
        vec![self.out_channels, geom.out_h(), geom.out_w()]
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        vec![("weight", &self.weight), ("bias", &self.bias)]
    }

    fn load_param(&mut self, name: &str, value: Tensor) {
        let slot = match name {
            "weight" => &mut self.weight,
            "bias" => &mut self.bias,
            other => panic!("conv2d has no parameter named {other:?}"),
        };
        assert!(
            slot.shape().same_dims(value.shape()),
            "conv2d {name} shape mismatch: {} vs {}",
            slot.shape(),
            value.shape()
        );
        *slot = value;
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(Conv2dOp {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            pad: self.pad,
        })
    }
}

/// Fully connected layer: `y = x W^T + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// `[out_features, in_features]`.
    weight: Tensor,
    /// `[out_features]`.
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He initialization.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let std = (2.0 / in_features as f32).sqrt();
        Self {
            in_features,
            out_features,
            weight: Tensor::randn(rng, &[out_features, in_features], std),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let (n, d) = batch_dims(input);
        assert_eq!(
            d, self.in_features,
            "dense expected {} features, got {d}",
            self.in_features
        );
        let x = input.reshape(&[n, d]);
        let mut out = matmul_nt(&x, &self.weight);
        for i in 0..n {
            for (j, v) in out.data_mut()[i * self.out_features..(i + 1) * self.out_features]
                .iter_mut()
                .enumerate()
            {
                *v += self.bias.data()[j];
            }
        }
        self.cached_input = Some(x);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("dense backward called before forward");
        let (n, _) = batch_dims(grad_out);
        let g = grad_out.reshape(&[n, self.out_features]);
        self.grad_weight.axpy(1.0, &matmul_tn(&g, x));
        for i in 0..n {
            for j in 0..self.out_features {
                self.grad_bias.data_mut()[j] += g.data()[i * self.out_features + j];
            }
        }
        matmul(&g, &self.weight)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let d: usize = input.iter().product();
        assert_eq!(d, self.in_features, "dense input shape mismatch");
        vec![self.out_features]
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        vec![("weight", &self.weight), ("bias", &self.bias)]
    }

    fn load_param(&mut self, name: &str, value: Tensor) {
        let slot = match name {
            "weight" => &mut self.weight,
            "bias" => &mut self.bias,
            other => panic!("dense has no parameter named {other:?}"),
        };
        assert!(
            slot.shape().same_dims(value.shape()),
            "dense {name} shape mismatch: {} vs {}",
            slot.shape(),
            value.shape()
        );
        *slot = value;
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(DenseOp {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
        })
    }
}

/// Rectified linear unit, applied elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_mask = Some(input.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .cached_mask
            .as_ref()
            .expect("relu backward called before forward");
        grad_out.mul(mask)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        Vec::new()
    }

    fn load_param(&mut self, name: &str, _value: Tensor) {
        panic!("relu has no parameter named {name:?}");
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(ReluOp)
    }
}

/// 2x2 max pooling with stride 2 (odd trailing rows/columns are dropped,
/// matching the floor semantics of common frameworks).
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    /// Flat input index chosen for each output element, plus the input shape.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2 {
    /// Creates a 2x2/stride-2 max-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "maxpool expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "maxpool input too small: {h}x{w}");
        let data = input.data();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = base + (2 * oy) * w + 2 * ox;
                        let mut best = data[best_idx];
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = base + (2 * oy + dy) * w + (2 * ox + dx);
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out[obase + oy * ow + ox] = best;
                        argmax[obase + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
        self.cached = Some((argmax, dims.to_vec()));
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, in_dims) = self
            .cached
            .as_ref()
            .expect("maxpool backward called before forward");
        let mut grad_in = vec![0.0f32; in_dims.iter().product()];
        for (g, &idx) in grad_out.data().iter().zip(argmax) {
            grad_in[idx] += g;
        }
        Tensor::from_vec(grad_in, in_dims)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        assert_eq!(input.len(), 3, "maxpool expects [C, H, W] items");
        vec![input[0], input[1] / 2, input[2] / 2]
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        Vec::new()
    }

    fn load_param(&mut self, name: &str, _value: Tensor) {
        panic!("maxpool2 has no parameter named {name:?}");
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(MaxPool2Op)
    }
}

/// Flattens `[N, C, H, W]` (or any batched shape) to `[N, D]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let (n, d) = batch_dims(input);
        self.cached_dims = Some(input.shape().dims().to_vec());
        input.reshape(&[n, d])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("flatten backward called before forward");
        grad_out.reshape(dims)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input.iter().product()]
    }

    fn named_params(&self) -> Vec<(&'static str, &Tensor)> {
        Vec::new()
    }

    fn load_param(&mut self, name: &str, _value: Tensor) {
        panic!("flatten has no parameter named {name:?}");
    }

    fn plan_op(&self, _slots: &mut SlotAllocator) -> Box<dyn PlanOp> {
        Box::new(IdentityOp { label: "flatten" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference check of the input gradient of a layer on a
    /// random input, using sum(output * probe) as the scalar objective.
    fn check_input_gradient(layer: &mut dyn Layer, input_dims: &[usize], tol: f32) {
        let mut rng = StdRng::seed_from_u64(99);
        let x = Tensor::randn(&mut rng, input_dims, 1.0);
        let out = layer.forward(&x, true);
        let probe = Tensor::randn(&mut rng, out.shape().dims(), 1.0);
        let analytic = layer.backward(&probe);

        let eps = 1e-2f32;
        // Check a deterministic sample of coordinates.
        let step = (x.numel() / 16).max(1);
        for flat in (0..x.numel()).step_by(step) {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let op = layer.forward(&xp, true);
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let om = layer.forward(&xm, true);
            let numeric = (op.mul(&probe).sum() - om.mul(&probe).sum()) / (2.0 * eps);
            let got = analytic.data()[flat];
            assert!(
                (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                "grad mismatch at {flat}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn conv2d_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Conv2d::new(&mut rng, 2, 3, 3);
        check_input_gradient(&mut layer, &[2, 2, 6, 6], 2e-2);
    }

    #[test]
    fn conv2d_weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Conv2d::new(&mut rng, 1, 2, 3);
        let x = Tensor::randn(&mut rng, &[1, 1, 5, 5], 1.0);
        let out = layer.forward(&x, true);
        let probe = Tensor::randn(&mut rng, out.shape().dims(), 1.0);
        layer.zero_grads();
        let _ = layer.backward(&probe);
        let analytic = layer.grad_weight.clone();

        let eps = 1e-2f32;
        for flat in 0..analytic.numel() {
            let orig = layer.weight.data()[flat];
            layer.weight.data_mut()[flat] = orig + eps;
            let op = layer.forward(&x, true).mul(&probe).sum();
            layer.weight.data_mut()[flat] = orig - eps;
            let om = layer.forward(&x, true).mul(&probe).sum();
            layer.weight.data_mut()[flat] = orig;
            let numeric = (op - om) / (2.0 * eps);
            let got = analytic.data()[flat];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight grad mismatch at {flat}: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn conv2d_padding_preserves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Conv2d::with_padding(&mut rng, 1, 4, 3, 1);
        let out = layer.forward(&Tensor::zeros(&[1, 1, 8, 8]), false);
        assert_eq!(out.shape().dims(), &[1, 4, 8, 8]);
        assert_eq!(layer.output_shape(&[1, 8, 8]), vec![4, 8, 8]);
    }

    #[test]
    fn dense_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 6, 4);
        check_input_gradient(&mut layer, &[3, 6], 1e-2);
    }

    #[test]
    fn dense_forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(&mut rng, 3, 2);
        let zero = layer.forward(&Tensor::zeros(&[1, 3]), false);
        // With zero bias, f(0) must be 0.
        assert_eq!(zero.data(), layer.bias.data());
        let x = Tensor::ones(&[1, 3]);
        let y1 = layer.forward(&x, false);
        let y2 = layer.forward(&x.scale(2.0), false);
        // f(2x) - f(0) == 2 (f(x) - f(0)) for affine maps.
        for i in 0..2 {
            let lhs = y2.data()[i] - zero.data()[i];
            let rhs = 2.0 * (y1.data()[i] - zero.data()[i]);
            assert!((lhs - rhs).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = layer.backward(&Tensor::ones(&[1, 3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_picks_maxima_and_routes_gradient() {
        let mut layer = MaxPool2::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[4.0]);
        let g = layer.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_floors_odd_dims() {
        let mut layer = MaxPool2::new();
        let y = layer.forward(&Tensor::zeros(&[1, 2, 5, 7]), false);
        assert_eq!(y.shape().dims(), &[1, 2, 2, 3]);
        assert_eq!(layer.output_shape(&[2, 5, 7]), vec![2, 2, 3]);
    }

    #[test]
    fn maxpool_input_gradient_matches_finite_differences() {
        let mut layer = MaxPool2::new();
        check_input_gradient(&mut layer, &[1, 1, 4, 4], 1e-2);
    }

    #[test]
    fn flatten_round_trips() {
        let mut layer = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2, 1]);
        let y = layer.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 6]);
        let g = layer.backward(&y);
        assert_eq!(g.shape().dims(), x.shape().dims());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn checkpoint_names_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(&mut rng, 2, 2);
        let saved: Vec<(String, Tensor)> = layer
            .named_params()
            .into_iter()
            .map(|(n, t)| (n.to_owned(), t.clone()))
            .collect();
        let mut fresh = Dense::new(&mut rng, 2, 2);
        for (name, value) in saved {
            fresh.load_param(&name, value);
        }
        assert_eq!(fresh.weight, layer.weight);
        assert_eq!(fresh.bias, layer.bias);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_param_rejects_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Dense::new(&mut rng, 2, 2);
        layer.load_param("weight", Tensor::zeros(&[3, 3]));
    }
}
