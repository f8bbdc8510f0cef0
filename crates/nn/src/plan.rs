//! Immutable, allocation-free inference: [`InferencePlan`] and the
//! [`PlanOp`] layer contract.
//!
//! Training needs `&mut` layers (caches for backward); serving does not.
//! An `InferencePlan` is built **once** from a trained
//! [`Network`](crate::Network) — it copies the parameters and pre-resolves
//! everything the forward pass needs — and is then shared immutably
//! (`&InferencePlan`) across every worker thread. All run-time scratch
//! (ping-pong activation buffers, probe taps, dense-block state slots)
//! lives in a per-worker [`Workspace`], so a warmed-up worker scores
//! images without touching the heap. Convolutions route through
//! `dv_tensor::gemm::conv2d_into`, which gathers one patch row at a time
//! into a per-thread buffer, so no im2col column matrix is ever
//! materialized.
//!
//! The plan is the only inference path: every forward-only caller
//! (validation, detectors, grid search, evaluation) runs through it.
//! Every op reuses the exact kernels and accumulation orders of the
//! training layers (the one shared convolution, the same elementwise
//! formulas), so plan outputs are bit-identical to
//! [`Network::forward`](crate::Network::forward) in inference mode at any
//! `DV_THREADS`. dv-nn's `plan_matches_network_bit_for_bit` and
//! `plan_covers_extra_layers_bit_for_bit` pin that, logits and every
//! probe, against a layer-by-layer walk of the training layers.

use dv_tensor::workspace::ensure_zeroed;
use dv_tensor::{Tensor, TensorView, TensorViewMut, Workspace};

/// One layer of an [`InferencePlan`]: a pure function from an input view
/// to an output view, with scratch drawn from the workspace.
///
/// Implementations must be deterministic and must not allocate after
/// their workspace slots have grown to steady-state size.
pub trait PlanOp: Send + Sync {
    /// Computes the batched output into `out`. `input` and `out` carry
    /// batched dims (`[N, ...]`); `ws` provides the scratch slots the op
    /// reserved at plan-build time.
    fn forward_into(&self, input: TensorView<'_>, out: &mut TensorViewMut<'_>, ws: &mut Workspace);

    /// Short human-readable op kind, e.g. `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Identity ops (flatten, inference-mode dropout) change only the
    /// logical shape; the plan runner skips their buffer pass entirely.
    fn is_identity(&self) -> bool {
        false
    }

    /// Structural description of the op for static analyzers
    /// (see [`LayerSpec`]). Borrows the op's parameters.
    fn spec(&self) -> LayerSpec<'_>;
}

/// Parameters of a dense (fully connected) plan op: `y = x W^T + b` with
/// `weight` stored `[out_features, in_features]` row-major.
#[derive(Clone, Copy)]
pub struct DenseSpec<'a> {
    /// Weight matrix, `[out_features * in_features]` row-major.
    pub weight: &'a [f32],
    /// Bias, `[out_features]`.
    pub bias: &'a [f32],
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
}

/// Parameters of a stride-1 convolution plan op: `weight` is stored
/// `[out_channels, in_channels * kernel * kernel]` row-major (the im2col
/// matmul layout), indexed by `(ic * kernel + ky) * kernel + kx`.
#[derive(Clone, Copy)]
pub struct ConvSpec<'a> {
    /// Flattened filter bank, `[out_channels * in_channels * k * k]`.
    pub weight: &'a [f32],
    /// Per-output-channel bias, `[out_channels]`.
    pub bias: &'a [f32],
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

/// Parameters of an inference-mode batch-norm plan op: per-channel affine
/// `y = gamma * (x - mean) * inv_std + beta`.
#[derive(Clone, Copy)]
pub struct BatchNormSpec<'a> {
    /// Frozen running means, one per channel.
    pub means: &'a [f32],
    /// Precomputed `1 / sqrt(var + eps)`, one per channel.
    pub inv_std: &'a [f32],
    /// Learned scale, one per channel.
    pub gamma: &'a [f32],
    /// Learned shift, one per channel.
    pub beta: &'a [f32],
}

/// Structural description of one plan op, exposed so static analyzers
/// (dv-absint's interval propagation) can interpret the frozen
/// plan without reaching into op internals.
///
/// The enum is deliberately exhaustive: adding a plan-op kind must force
/// every analyzer `match` to make an explicit transfer-function decision
/// (dv-lint R10 bans `_ =>` arms over this type outside tests).
pub enum LayerSpec<'a> {
    /// Shape-only op (flatten, inference dropout); data passes through.
    Identity {
        /// The op label, e.g. `"flatten"` or `"dropout"`.
        label: &'static str,
    },
    /// Elementwise `max(x, 0)`.
    Relu,
    /// 2x2/stride-2 max pooling over `[C, H, W]` items.
    MaxPool2,
    /// Fully connected layer.
    Dense(DenseSpec<'a>),
    /// Stride-1 convolution.
    Conv2d(ConvSpec<'a>),
    /// Frozen-statistics batch normalization.
    BatchNorm2d(BatchNormSpec<'a>),
    /// DenseNet-style block: stages of (conv -> relu -> channel concat),
    /// channels growing from `in_channels` by `growth` per stage.
    DenseBlock {
        /// Per-stage convolution parameters, in execution order.
        stages: Vec<ConvSpec<'a>>,
        /// Block input channel count.
        in_channels: usize,
        /// Channels added by each stage.
        growth: usize,
    },
}

impl<'a> LayerSpec<'a> {
    /// Extracts the convolution parameters if this spec is a `Conv2d`.
    pub fn into_conv(self) -> Option<ConvSpec<'a>> {
        match self {
            LayerSpec::Conv2d(c) => Some(c),
            LayerSpec::Identity { .. }
            | LayerSpec::Relu
            | LayerSpec::MaxPool2
            | LayerSpec::Dense(_)
            | LayerSpec::BatchNorm2d(_)
            | LayerSpec::DenseBlock { .. } => None,
        }
    }
}

/// A compiled, shared-immutable forward pass over a trained network.
pub struct InferencePlan {
    input_dims: Vec<usize>,
    ops: Vec<Box<dyn PlanOp>>,
    /// Per-op output item dims (no batch axis).
    out_dims: Vec<Vec<usize>>,
    /// Indices into `ops` after which a probe representation is exposed.
    probe_points: Vec<usize>,
    num_slots: usize,
    num_classes: usize,
}

/// Result of a plan run, borrowing the workspace that holds the data.
///
/// Accessors return borrowed slices, so reading logits or probe taps
/// allocates nothing.
pub struct PlanOutput<'w> {
    ws: &'w Workspace,
    act: usize,
    n: usize,
    num_classes: usize,
}

impl PlanOutput<'_> {
    /// Batch size of the run.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// Number of classes (logits per image).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Flat logits, `[n * classes]` row-major.
    pub fn logits(&self) -> &[f32] {
        &self.ws.act(self.act)[..self.n * self.num_classes]
    }

    /// Flat tapped probe `t` (position within the `taps` passed to the
    /// run), `[n * probe_item_numel]` row-major.
    pub fn probe(&self, t: usize) -> &[f32] {
        self.ws.probe(t)
    }
}

impl InferencePlan {
    /// Assembles a plan. Called by [`Network::plan`](crate::Network::plan);
    /// not intended for direct use.
    ///
    /// # Panics
    ///
    /// Panics if the op list is empty or dims are inconsistent.
    pub(crate) fn from_parts(
        input_dims: Vec<usize>,
        ops: Vec<Box<dyn PlanOp>>,
        out_dims: Vec<Vec<usize>>,
        probe_points: Vec<usize>,
        num_slots: usize,
    ) -> Self {
        assert!(!ops.is_empty(), "cannot plan an empty network");
        assert_eq!(ops.len(), out_dims.len(), "op/dims arity mismatch");
        let num_classes = out_dims
            .last()
            .map(|d| d.iter().product())
            .expect("non-empty plan");
        Self {
            input_dims,
            ops,
            out_dims,
            probe_points,
            num_slots,
            num_classes,
        }
    }

    /// Expected input shape (without the batch axis).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Number of declared probe points.
    pub fn num_probes(&self) -> usize {
        self.probe_points.len()
    }

    /// Number of classes (logits per image).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Item dims (no batch axis) of probe `v` (an index into the
    /// network's probe list).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn probe_item_dims(&self, v: usize) -> &[usize] {
        &self.out_dims[self.probe_points[v]]
    }

    /// Resolves the batch size of `input`, which is either a single item
    /// (`input_dims`) or a batch (`[N] + input_dims`).
    fn batch_of(&self, input: &Tensor) -> usize {
        let dims = input.shape().dims();
        if dims == self.input_dims.as_slice() {
            1
        } else {
            assert_eq!(
                dims.len(),
                self.input_dims.len() + 1,
                "plan input must be an item or a batch of items"
            );
            assert_eq!(
                &dims[1..],
                self.input_dims.as_slice(),
                "plan input item shape mismatch"
            );
            dims[0]
        }
    }

    /// Runs the forward pass, materializing only the probes listed in
    /// `taps` (ascending indices into the network's probe list). This is
    /// the allocation-free hot path: all output lives in `ws` and is
    /// returned as borrowed views.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch or an out-of-range/unsorted tap.
    pub fn forward_probed_into<'w>(
        &self,
        input: &Tensor,
        taps: &[usize],
        ws: &'w mut Workspace,
    ) -> PlanOutput<'w> {
        let n = self.batch_of(input);
        self.forward_probed_flat_into(input.data(), n, taps, ws)
    }

    /// [`forward_probed_into`](InferencePlan::forward_probed_into) over a
    /// borrowed flat batch: `input` is `n` row-major items of shape
    /// [`input_dims`](InferencePlan::input_dims), back to back. This is
    /// the entry point for callers that stage a batch incrementally in a
    /// reusable buffer (the batched scorer) and so never hold a stacked
    /// `Tensor` — bit-identical to running the same data through the
    /// tensor entry point.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `input` is not exactly `n` items long, or a
    /// tap is out of range/unsorted.
    pub fn forward_probed_flat_into<'w>(
        &self,
        input: &[f32],
        n: usize,
        taps: &[usize],
        ws: &'w mut Workspace,
    ) -> PlanOutput<'w> {
        dv_trace::span!("nn.forward");
        let item_in: usize = self.input_dims.iter().product();
        assert!(n >= 1, "plan input batch must be non-empty");
        assert_eq!(
            input.len(),
            n * item_in,
            "plan input must be exactly n items"
        );
        for w in taps.windows(2) {
            assert!(w[0] < w[1], "taps must be strictly ascending");
        }
        if let Some(&last) = taps.last() {
            assert!(last < self.probe_points.len(), "tap {last} out of range");
        }
        ws.ensure_slots(self.num_slots);
        ws.ensure_probes(taps.len());
        let mut bufs = ws.take_acts();

        ensure_zeroed(&mut bufs[0], n * item_in);
        bufs[0].copy_from_slice(input);

        let mut src = 0usize;
        let mut cur_item: &[usize] = &self.input_dims;
        let mut in_dbuf = [0usize; 8];
        let mut out_dbuf = [0usize; 8];
        for (op_i, op) in self.ops.iter().enumerate() {
            let out_item: &[usize] = &self.out_dims[op_i];
            if !op.is_identity() {
                let in_len = n * cur_item.iter().product::<usize>();
                let out_len = n * out_item.iter().product::<usize>();
                let dst = 1 - src;
                let (lo, hi) = bufs.split_at_mut(1);
                let (src_buf, dst_buf) = if src == 0 {
                    (&lo[0], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[0])
                };
                ensure_zeroed(dst_buf, out_len);
                let in_dims = batched_dims(&mut in_dbuf, n, cur_item);
                let out_dims = batched_dims(&mut out_dbuf, n, out_item);
                let in_view = TensorView::new(in_dims, &src_buf[..in_len]);
                let mut out_view = TensorViewMut::new(out_dims, &mut dst_buf[..out_len]);
                {
                    // One span per materialized layer, named by op kind.
                    // dv-lint: allow(span-name, reason = "per-layer span named by runtime op kind; the layer set is data, and the enclosing nn.forward span carries the stable stitchable name")
                    dv_trace::span!(op.name());
                    op.forward_into(in_view, &mut out_view, ws);
                }
                src = dst;
            }
            cur_item = out_item;
            if let Some(v) = self.probe_points.iter().position(|&p| p == op_i) {
                if let Some(t) = taps.iter().position(|&x| x == v) {
                    let len = n * cur_item.iter().product::<usize>();
                    let pb = ws.probe_buf_mut(t);
                    pb.clear();
                    pb.extend_from_slice(&bufs[src][..len]);
                }
            }
        }
        ws.put_acts(bufs);
        PlanOutput {
            ws,
            act: src,
            n,
            num_classes: self.num_classes,
        }
    }

    /// Forward pass producing owned logits `[N, classes]` (allocates the
    /// result tensor only; scratch still comes from `ws`). Bit-identical
    /// to [`Network::forward`](crate::Network::forward) in inference mode.
    pub fn forward(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let out = self.forward_probed_into(input, &[], ws);
        let (n, c) = (out.batch(), out.num_classes());
        Tensor::from_vec(out.logits().to_vec(), &[n, c])
    }

    /// Softmax class probabilities `[N, classes]`, matching
    /// [`Network::predict`](crate::Network::predict) bit-for-bit.
    pub fn predict(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let logits = self.forward(input, ws);
        let n = logits.shape().dim(0);
        let rows: Vec<Tensor> = (0..n)
            .map(|i| dv_tensor::stats::softmax(&logits.row(i)))
            .collect();
        Tensor::stack(&rows)
    }

    /// Predicted class and confidence for one image, matching
    /// [`Network::classify`](crate::Network::classify) bit-for-bit while
    /// allocating nothing after workspace warm-up.
    pub fn classify(&self, image: &Tensor, ws: &mut Workspace) -> (usize, f32) {
        let out = self.forward_probed_into(image, &[], ws);
        assert_eq!(out.batch(), 1, "classify expects a single image");
        classify_row(out.logits())
    }

    /// Structural descriptions of every op, in execution order. The
    /// contract for static analyzers: interpreting spec `i` over items of
    /// shape `op_in_dims(i)` yields items of shape `op_out_dims(i)`, with
    /// identity specs passing data through unchanged.
    pub fn layer_specs(&self) -> Vec<LayerSpec<'_>> {
        self.ops.iter().map(|op| op.spec()).collect()
    }

    /// Number of ops in the plan.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Item dims (no batch axis) flowing *into* op `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn op_in_dims(&self, i: usize) -> &[usize] {
        assert!(i < self.ops.len(), "op index out of range");
        if i == 0 {
            &self.input_dims
        } else {
            &self.out_dims[i - 1]
        }
    }

    /// Item dims (no batch axis) produced by op `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn op_out_dims(&self, i: usize) -> &[usize] {
        &self.out_dims[i]
    }

    /// Indices into the op list after which a probe representation is
    /// exposed, in ascending order (one per declared probe).
    pub fn probe_points(&self) -> &[usize] {
        &self.probe_points
    }
}

/// Argmax class and softmax confidence of one logits row, replicating the
/// exact arithmetic of `stats::softmax` + `Tensor::argmax` (max-subtract,
/// `exp`, sequential sum, scale by `1/z`, first-wins `>` argmax) without
/// materializing the probability vector.
pub(crate) fn classify_row(row: &[f32]) -> (usize, f32) {
    assert!(!row.is_empty(), "empty logits row");
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = row.iter().map(|&x| (x - m).exp()).sum();
    let inv = 1.0 / z;
    let mut best = 0usize;
    let mut best_p = (row[0] - m).exp() * inv;
    for (i, &x) in row.iter().enumerate().skip(1) {
        let p = (x - m).exp() * inv;
        if p > best_p {
            best = i;
            best_p = p;
        }
    }
    (best, best_p)
}

/// Writes `[n] + item` into `buf` and returns the filled prefix.
fn batched_dims<'a>(buf: &'a mut [usize; 8], n: usize, item: &[usize]) -> &'a [usize] {
    assert!(item.len() < buf.len(), "rank too high for plan runner");
    buf[0] = n;
    buf[1..=item.len()].copy_from_slice(item);
    &buf[..=item.len()]
}

/// Shape-preserving data-identity op (flatten, inference dropout).
pub(crate) struct IdentityOp {
    pub(crate) label: &'static str,
}

impl PlanOp for IdentityOp {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        // The plan runner normally skips identity ops; copying keeps the
        // contract honest if one is ever driven directly.
        out.data_mut().copy_from_slice(input.data());
    }

    fn name(&self) -> &'static str {
        self.label
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::Identity { label: self.label }
    }
}

/// ReLU: elementwise `max(0)`, same formula as the training layer.
pub(crate) struct ReluOp;

impl PlanOp for ReluOp {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = x.max(0.0);
        }
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::Relu
    }
}

/// 2x2/stride-2 max pooling with the training layer's exact scan order.
pub(crate) struct MaxPool2Op;

impl PlanOp for MaxPool2Op {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = data[base + (2 * oy) * w + 2 * ox];
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let v = data[base + (2 * oy + dy) * w + (2 * ox + dx)];
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        od[obase + oy * ow + ox] = best;
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::MaxPool2
    }
}

/// Dense layer: `y = x W^T + b` over the whole batch, via
/// `matmul_nt_into` (same kernel as training forward).
pub(crate) struct DenseOp {
    pub(crate) weight: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
}

impl PlanOp for DenseOp {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        let n = input.dims()[0];
        let d = input.numel() / n;
        assert_eq!(d, self.in_features, "dense plan input feature mismatch");
        let od = out.data_mut();
        dv_tensor::matmul::matmul_nt_into(
            input.data(),
            n,
            d,
            self.weight.data(),
            self.out_features,
            od,
        );
        for i in 0..n {
            for (j, v) in od[i * self.out_features..(i + 1) * self.out_features]
                .iter_mut()
                .enumerate()
            {
                *v += self.bias.data()[j];
            }
        }
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::Dense(DenseSpec {
            weight: self.weight.data(),
            bias: self.bias.data(),
            in_features: self.in_features,
            out_features: self.out_features,
        })
    }
}

/// Convolution: per-image `gemm::conv2d_into` + bias broadcast, mirroring
/// the training forward image-by-image. The im2col column matrix is never
/// materialized: the kernel gathers one patch row at a time into its own
/// per-thread buffer, so the op needs no workspace slot.
pub(crate) struct Conv2dOp {
    pub(crate) weight: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) kernel: usize,
    pub(crate) pad: usize,
}

impl Conv2dOp {
    fn geom_for(&self, item: &[usize]) -> dv_tensor::conv::Conv2dGeom {
        assert_eq!(item.len(), 3, "conv2d plan expects [C, H, W] items");
        assert_eq!(item[0], self.in_channels, "conv2d plan channel mismatch");
        dv_tensor::conv::Conv2dGeom {
            in_channels: self.in_channels,
            in_h: item[1],
            in_w: item[2],
            kernel: self.kernel,
            stride: 1,
            pad: self.pad,
        }
    }
}

impl PlanOp for Conv2dOp {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        let dims = input.dims();
        let n = dims[0];
        let geom = self.geom_for(&dims[1..]);
        let spatial = geom.out_h() * geom.out_w();
        let item_in = self.in_channels * geom.in_h * geom.in_w;
        let item_out = self.out_channels * spatial;
        let data = input.data();
        let od = out.data_mut();
        for i in 0..n {
            let out_i = &mut od[i * item_out..(i + 1) * item_out];
            dv_tensor::gemm::conv2d_into(
                self.weight.data(),
                self.out_channels,
                &data[i * item_in..(i + 1) * item_in],
                &geom,
                out_i,
            );
            // Broadcast-add the per-channel bias across spatial positions.
            for c in 0..self.out_channels {
                let b = self.bias.data()[c];
                for v in &mut out_i[c * spatial..(c + 1) * spatial] {
                    *v += b;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::Conv2d(ConvSpec {
            weight: self.weight.data(),
            bias: self.bias.data(),
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            pad: self.pad,
        })
    }
}

/// Batch normalization on frozen running statistics. `inv_std` is
/// precomputed at plan build with the training layer's exact inference
/// formula, so outputs match bit-for-bit.
pub(crate) struct BatchNorm2dOp {
    pub(crate) means: Vec<f32>,
    pub(crate) inv_std: Vec<f32>,
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
}

impl PlanOp for BatchNorm2dOp {
    fn forward_into(
        &self,
        input: TensorView<'_>,
        out: &mut TensorViewMut<'_>,
        _ws: &mut Workspace,
    ) {
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.gamma.len(), "batchnorm plan channel mismatch");
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let g = self.gamma[ch];
                let b = self.beta[ch];
                for i in base..base + h * w {
                    let xh = (data[i] - self.means[ch]) * self.inv_std[ch];
                    od[i] = g * xh + b;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::BatchNorm2d(BatchNormSpec {
            means: &self.means,
            inv_std: &self.inv_std,
            gamma: &self.gamma,
            beta: &self.beta,
        })
    }
}

/// DenseNet-style block: stages of (conv -> relu -> channel concat),
/// ping-ponging the growing state between two workspace slots. Each stage
/// reuses [`Conv2dOp`] on the accumulated state, then applies the ReLU in
/// place and concatenates exactly like the training layer.
pub(crate) struct DenseBlockOp {
    pub(crate) stages: Vec<Box<dyn PlanOp>>,
    pub(crate) in_channels: usize,
    pub(crate) growth: usize,
    pub(crate) state_slots: [usize; 2],
    pub(crate) feat_slot: usize,
}

impl PlanOp for DenseBlockOp {
    fn forward_into(&self, input: TensorView<'_>, out: &mut TensorViewMut<'_>, ws: &mut Workspace) {
        let dims = input.dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        assert_eq!(
            dims[1], self.in_channels,
            "dense block plan channel mismatch"
        );
        let plane = h * w;
        let mut state_a = ws.take_slot(self.state_slots[0]);
        let mut state_b = ws.take_slot(self.state_slots[1]);
        let mut feat = ws.take_slot(self.feat_slot);

        ensure_zeroed(&mut state_a, n * self.in_channels * plane);
        state_a.copy_from_slice(input.data());
        let mut cur_c = self.in_channels;
        let last = self.stages.len() - 1;
        let mut in_dbuf = [0usize; 8];
        let mut out_dbuf = [0usize; 8];
        for (s, stage) in self.stages.iter().enumerate() {
            // feat = relu(conv(state)): the conv is a PlanOp over views.
            ensure_zeroed(&mut feat, n * self.growth * plane);
            let in_dims = batched_dims(&mut in_dbuf, n, &[cur_c, h, w]);
            let out_dims = batched_dims(&mut out_dbuf, n, &[self.growth, h, w]);
            let state_view = TensorView::new(in_dims, &state_a[..n * cur_c * plane]);
            let mut feat_view = TensorViewMut::new(out_dims, &mut feat[..n * self.growth * plane]);
            stage.forward_into(state_view, &mut feat_view, ws);
            for v in feat[..n * self.growth * plane].iter_mut() {
                *v = v.max(0.0);
            }
            // state = concat_channels(state, feat), per image.
            let dst_c = cur_c + self.growth;
            let dst: &mut [f32] = if s == last {
                out.data_mut()
            } else {
                ensure_zeroed(&mut state_b, n * dst_c * plane);
                &mut state_b[..]
            };
            for img in 0..n {
                let base = img * dst_c * plane;
                dst[base..base + cur_c * plane]
                    .copy_from_slice(&state_a[img * cur_c * plane..(img + 1) * cur_c * plane]);
                dst[base + cur_c * plane..base + dst_c * plane].copy_from_slice(
                    &feat[img * self.growth * plane..(img + 1) * self.growth * plane],
                );
            }
            if s != last {
                std::mem::swap(&mut state_a, &mut state_b);
            }
            cur_c = dst_c;
        }

        ws.put_slot(self.state_slots[0], state_a);
        ws.put_slot(self.state_slots[1], state_b);
        ws.put_slot(self.feat_slot, feat);
    }

    fn name(&self) -> &'static str {
        "dense_block"
    }

    fn spec(&self) -> LayerSpec<'_> {
        LayerSpec::DenseBlock {
            stages: self
                .stages
                .iter()
                .map(|s| {
                    s.spec()
                        .into_conv()
                        .expect("dense block stages are convolutions")
                })
                .collect(),
            in_channels: self.in_channels,
            growth: self.growth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_row_matches_tensor_path() {
        let rows = [
            vec![0.3f32, -1.2, 2.5, 2.5],
            vec![0.0f32, 0.0],
            vec![-7.0f32, -7.0, -7.0],
        ];
        for row in rows {
            let t = Tensor::from_vec(row.clone(), &[row.len()]);
            let probs = dv_tensor::stats::softmax(&t);
            let label = probs.argmax();
            let conf = probs.data()[label];
            let (got_label, got_conf) = classify_row(&row);
            assert_eq!(got_label, label);
            assert_eq!(got_conf.to_bits(), conf.to_bits());
        }
    }

    #[test]
    fn batched_dims_prepends_batch_axis() {
        let mut buf = [0usize; 8];
        assert_eq!(batched_dims(&mut buf, 3, &[4, 5]), &[3, 4, 5]);
    }
}
