//! Sequential network container with per-layer probes.
//!
//! A [`Network`] trains (`forward`/`backward`); inference compiles it once
//! into an [`InferencePlan`] with [`Network::plan`]. The plan's
//! [`forward_probed_into`](InferencePlan::forward_probed_into) is the hook
//! the Deep Validation framework (Fig. 1 of the paper) attaches to: it
//! returns the hidden representation `f_i(x)` at every tapped probe point
//! alongside the final logits.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::Path;

use dv_tensor::io::{read_named, write_named, DecodeError};
use dv_tensor::stats::softmax;
use dv_tensor::{SlotAllocator, Tensor};

use crate::layer::Layer;
use crate::plan::InferencePlan;

/// A sequential stack of layers with declared probe points.
///
/// The network maps batched inputs `[N, ...]` to logits `[N, classes]`;
/// softmax is applied by [`predict`](Network::predict), never inside the
/// stack, so attack code can work directly on logits.
///
/// Probe points define what the paper calls "layers 1..L-1": typically one
/// probe after each conv/dense activation block. They are declared while
/// building the network via [`push_probe`](Network::push_probe).
pub struct Network {
    input_dims: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
    /// Indices into `layers` after which a hidden representation is exposed.
    probe_points: Vec<usize>,
}

impl Network {
    /// Creates an empty network for inputs of shape `input_dims`
    /// (without the batch axis).
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` is empty.
    pub fn new(input_dims: &[usize]) -> Self {
        assert!(!input_dims.is_empty(), "input shape must not be empty");
        Self {
            input_dims: input_dims.to_vec(),
            layers: Vec::new(),
            probe_points: Vec::new(),
        }
    }

    /// Appends a layer. Returns `&mut self` for chaining.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a layer and marks its output as a probe point (a hidden
    /// representation Deep Validation will monitor). Returns `&mut self`.
    pub fn push_probe(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self.probe_points.push(self.layers.len() - 1);
        self
    }

    /// Number of layers in the stack.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of declared probe points (the paper's `L - 1` monitored
    /// hidden layers).
    pub fn num_probes(&self) -> usize {
        self.probe_points.len()
    }

    /// Expected input shape (without the batch axis).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Output shape (without the batch axis), by folding
    /// [`Layer::output_shape`] through the stack.
    pub fn output_dims(&self) -> Vec<usize> {
        let mut dims = self.input_dims.clone();
        for layer in &self.layers {
            dims = layer.output_shape(&dims);
        }
        dims
    }

    /// Shapes of the probe-point representations (without the batch axis),
    /// in network order.
    pub fn probe_dims(&self) -> Vec<Vec<usize>> {
        let mut dims = self.input_dims.clone();
        let mut out = Vec::with_capacity(self.probe_points.len());
        for (i, layer) in self.layers.iter().enumerate() {
            dims = layer.output_shape(&dims);
            if self.probe_points.contains(&i) {
                out.push(dims.clone());
            }
        }
        out
    }

    /// Total number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .map(|(p, _)| p.numel())
            .sum()
    }

    /// Forward pass producing logits `[N, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if the per-item input shape does not match
    /// [`input_dims`](Network::input_dims).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.check_input(input);
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Compiles the network into a shared-immutable [`InferencePlan`]:
    /// parameters are copied out of the layers and every op pre-reserves
    /// its workspace scratch, so the plan serves inference from `&self`
    /// across any number of workers with no per-image allocation.
    pub fn plan(&self) -> InferencePlan {
        let mut slots = SlotAllocator::new();
        let ops = self.layers.iter().map(|l| l.plan_op(&mut slots)).collect();
        let mut dims = self.input_dims.clone();
        let mut out_dims = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            dims = layer.output_shape(&dims);
            out_dims.push(dims.clone());
        }
        InferencePlan::from_parts(
            self.input_dims.clone(),
            ops,
            out_dims,
            self.probe_points.clone(),
            slots.count(),
        )
    }

    /// Backward pass from a logits gradient; returns the input gradient.
    ///
    /// Parameter gradients accumulate in each layer (call
    /// [`zero_grads`](Network::zero_grads) between batches).
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// All parameters paired with their gradients, in stack order.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    /// Softmax class probabilities for a batch: `[N, classes]`.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        let logits = self.forward(input, false);
        let n = logits.shape().dim(0);
        let rows: Vec<Tensor> = (0..n).map(|i| softmax(&logits.row(i))).collect();
        Tensor::stack(&rows)
    }

    /// Predicted class and confidence for a single `[1, ...]`-batched image.
    pub fn classify(&mut self, input: &Tensor) -> (usize, f32) {
        let probs = self.predict(input);
        let row = probs.row(0);
        let label = row.argmax();
        (label, row.data()[label])
    }

    /// Saves all parameters to `path` in the `dv-tensor` binary format.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut entries = BTreeMap::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for (name, tensor) in layer.named_params() {
                entries.insert(format!("layer{i:03}.{name}"), tensor.clone());
            }
        }
        let file = BufWriter::new(File::create(path)?);
        write_named(file, &entries)
    }

    /// Loads parameters saved by [`save`](Network::save) into a network of
    /// identical architecture.
    ///
    /// The checkpoint is checked against the architecture before any
    /// parameter changes, so a failed load leaves the network untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on I/O failure or a malformed checkpoint,
    /// and [`DecodeError::Malformed`] when the checkpoint belongs to
    /// another architecture: an unknown or missing parameter, or one whose
    /// shape differs.
    pub fn load(&mut self, path: &Path) -> Result<(), DecodeError> {
        let file = BufReader::new(File::open(path).map_err(DecodeError::Io)?);
        let mut entries = read_named(file)?;
        let mut wanted = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for (name, param) in layer.named_params() {
                let key = format!("layer{i:03}.{name}");
                let tensor = entries.remove(&key).ok_or_else(|| {
                    DecodeError::Malformed(format!("checkpoint lacks parameter {key}"))
                })?;
                if !tensor.shape().same_dims(param.shape()) {
                    return Err(DecodeError::Malformed(format!(
                        "checkpoint parameter {key} has shape {}, network expects {}",
                        tensor.shape(),
                        param.shape()
                    )));
                }
                wanted.push((i, name, tensor));
            }
        }
        if let Some(key) = entries.keys().next() {
            return Err(DecodeError::Malformed(format!(
                "checkpoint parameter {key} is not in this network"
            )));
        }
        for (i, name, tensor) in wanted {
            self.layers[i].load_param(name, tensor);
        }
        Ok(())
    }

    fn check_input(&self, input: &Tensor) {
        assert!(
            input.shape().ndim() == self.input_dims.len() + 1,
            "expected batched input of rank {}, got {}",
            self.input_dims.len() + 1,
            input.shape()
        );
        assert_eq!(
            &input.shape().dims()[1..],
            self.input_dims.as_slice(),
            "input item shape mismatch"
        );
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network")
            .field("input_dims", &self.input_dims)
            .field("layers", &names)
            .field("probe_points", &self.probe_points)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
    use dv_tensor::Workspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference inference, written out layer by layer on the training
    /// layers: the logits plus every probe-point representation. The plan
    /// must reproduce it bit for bit.
    fn layer_walk(net: &mut Network, x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut h = x.clone();
        let mut probes = Vec::new();
        for (i, layer) in net.layers.iter_mut().enumerate() {
            h = layer.forward(&h, false);
            if net.probe_points.contains(&i) {
                probes.push(h.clone());
            }
        }
        (h, probes)
    }

    fn tiny_cnn(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(&[1, 8, 8]);
        net.push(Conv2d::new(&mut rng, 1, 4, 3))
            .push_probe(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push(Dense::new(&mut rng, 4 * 3 * 3, 10))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 10, 3));
        net
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let mut net = tiny_cnn(0);
        let x = Tensor::zeros(&[2, 1, 8, 8]);
        let logits = net.forward(&x, false);
        assert_eq!(logits.shape().dims(), &[2, 3]);
        assert_eq!(net.output_dims(), vec![3]);
    }

    #[test]
    fn probes_capture_hidden_representations() {
        let net = tiny_cnn(1);
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn(&mut rng, &[1, 1, 8, 8], 1.0);
        let out = plan.forward_probed_into(&x, &[0, 1], &mut ws);
        assert_eq!(out.probe(0).len(), 4 * 6 * 6);
        assert_eq!(out.probe(1).len(), 10);
        assert_eq!(plan.num_probes(), 2);
        assert_eq!(plan.probe_item_dims(0), &[4, 6, 6]);
        assert_eq!(plan.probe_item_dims(1), &[10]);
        assert_eq!(net.probe_dims(), vec![vec![4, 6, 6], vec![10]]);
    }

    #[test]
    fn predict_rows_are_distributions() {
        let mut net = tiny_cnn(2);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&mut rng, &[3, 1, 8, 8], 1.0);
        let p = net.predict(&x);
        for i in 0..3 {
            let row = p.row(i);
            assert!((row.sum() - 1.0).abs() < 1e-5);
            assert!(row.min() >= 0.0);
        }
    }

    #[test]
    fn whole_network_input_gradient_matches_finite_differences() {
        let mut net = tiny_cnn(3);
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::randn(&mut rng, &[1, 1, 8, 8], 1.0);
        let logits = net.forward(&x, false);
        let probe = Tensor::randn(&mut rng, logits.shape().dims(), 1.0);
        let analytic = net.backward(&probe);
        let eps = 1e-2f32;
        for flat in (0..x.numel()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let op = net.forward(&xp, false).mul(&probe).sum();
            let om = net.forward(&xm, false).mul(&probe).sum();
            let numeric = (op - om) / (2.0 * eps);
            let got = analytic.data()[flat];
            assert!(
                (numeric - got).abs() < 3e-2 * (1.0 + numeric.abs().max(got.abs())),
                "grad mismatch at {flat}: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn save_load_round_trips_outputs() {
        let dir = std::env::temp_dir().join("dv_nn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dvt");

        let mut net = tiny_cnn(4);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&mut rng, &[1, 1, 8, 8], 1.0);
        let before = net.forward(&x, false);
        net.save(&path).unwrap();

        let mut other = tiny_cnn(5); // different random init
        let different = other.forward(&x, false);
        assert_ne!(before.data(), different.data());
        other.load(&path).unwrap();
        let after = other.forward(&x, false);
        assert_eq!(before.data(), after.data());
        std::fs::remove_file(&path).ok();
    }

    /// Every parameter value as bits, in stack order.
    fn param_bits(net: &Network) -> Vec<Vec<u32>> {
        net.layers
            .iter()
            .flat_map(|l| l.named_params())
            .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn load_rejects_another_architecture_and_changes_nothing() {
        let dir = std::env::temp_dir().join("dv_nn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        // A wider conv (mis-shaped parameters), a shorter stack (missing
        // parameters) and a longer one (unknown parameters).
        let mut wide = Network::new(&[1, 8, 8]);
        wide.push(Conv2d::new(&mut rng, 1, 5, 3))
            .push_probe(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push(Dense::new(&mut rng, 5 * 3 * 3, 10))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 10, 3));
        let mut short = Network::new(&[1, 8, 8]);
        short.push(Conv2d::new(&mut rng, 1, 4, 3));
        let mut long = tiny_cnn(13);
        long.push(Dense::new(&mut rng, 3, 3));
        for (tag, other) in [("wide", wide), ("short", short), ("long", long)] {
            let path = dir.join(format!("arch_{tag}.dvt"));
            other.save(&path).unwrap();
            let mut net = tiny_cnn(12);
            let before = param_bits(&net);
            let err = net.load(&path).unwrap_err();
            assert!(matches!(err, DecodeError::Malformed(_)), "{tag}: {err}");
            assert_eq!(
                param_bits(&net),
                before,
                "{tag}: failed load changed parameters"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn classify_returns_argmax_and_confidence() {
        let mut net = tiny_cnn(6);
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(&mut rng, &[1, 1, 8, 8], 1.0);
        let (label, conf) = net.classify(&x);
        let probs = net.predict(&x);
        assert_eq!(label, probs.row(0).argmax());
        assert!((0.0..=1.0).contains(&conf));
    }

    #[test]
    #[should_panic(expected = "input item shape mismatch")]
    fn wrong_input_shape_panics() {
        let mut net = tiny_cnn(7);
        let _ = net.forward(&Tensor::zeros(&[1, 1, 9, 9]), false);
    }

    #[test]
    fn num_params_counts_everything() {
        let mut net = tiny_cnn(8);
        // conv: 4*9 + 4; dense1: 36*10 + 10; dense2: 10*3 + 3.
        assert_eq!(net.num_params(), 36 + 4 + 360 + 10 + 30 + 3);
    }

    #[test]
    fn masked_probes_select_a_subset() {
        let plan = tiny_cnn(9).plan();
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&mut rng, &[2, 1, 8, 8], 1.0);
        let mut ws = Workspace::new();
        let all = plan.forward_probed_into(&x, &[0, 1], &mut ws);
        let (logits_all, probe1) = (all.logits().to_vec(), all.probe(1).to_vec());
        let one = plan.forward_probed_into(&x, &[1], &mut ws);
        assert_eq!(one.logits(), logits_all.as_slice());
        assert_eq!(one.probe(0), probe1.as_slice());
        // No taps: same logits, and no probe buffer is materialized.
        let mut fresh = Workspace::new();
        let none = plan.forward_probed_into(&x, &[], &mut fresh);
        assert_eq!(none.logits(), logits_all.as_slice());
        assert_eq!(fresh.num_probes(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn masked_probes_reject_unsorted_taps() {
        let plan = tiny_cnn(10).plan();
        let _ = plan.forward_probed_into(
            &Tensor::zeros(&[1, 1, 8, 8]),
            &[1, 0],
            &mut Workspace::new(),
        );
    }

    #[test]
    #[should_panic(expected = "tap 2 out of range")]
    fn masked_probes_reject_out_of_range_taps() {
        let plan = tiny_cnn(10).plan();
        let _ = plan.forward_probed_into(
            &Tensor::zeros(&[1, 1, 8, 8]),
            &[0, 2],
            &mut Workspace::new(),
        );
    }

    #[test]
    fn plan_matches_network_bit_for_bit() {
        let mut net = tiny_cnn(11);
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(&mut rng, &[3, 1, 8, 8], 1.0);

        let (logits, probes) = layer_walk(&mut net, &x);
        let out = plan.forward_probed_into(&x, &[0, 1], &mut ws);
        assert_eq!(out.logits(), logits.data());
        assert_eq!(out.probe(0), probes[0].data());
        assert_eq!(out.probe(1), probes[1].data());

        let single = x.index_outer(0);
        let batched = Tensor::stack(std::slice::from_ref(&single));
        let (want_label, want_conf) = net.classify(&batched);
        // Unbatched [C, H, W] input is accepted as a batch of one.
        let (label, conf) = plan.classify(&single, &mut ws);
        assert_eq!(label, want_label);
        assert_eq!(conf.to_bits(), want_conf.to_bits());
        assert_eq!(plan.predict(&x, &mut ws).data(), net.predict(&x).data());
    }

    #[test]
    fn plan_covers_extra_layers_bit_for_bit() {
        use crate::layers_extra::{BatchNorm2d, DenseBlock, Dropout};
        let mut rng = StdRng::seed_from_u64(14);
        let mut net = Network::new(&[2, 6, 6]);
        let block = DenseBlock::new(&mut rng, 2, 3, 2);
        let block_out = block.out_channels();
        net.push(BatchNorm2d::new(2))
            .push_probe(block)
            .push(Dropout::new(0.3, 5))
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push_probe(Dense::new(&mut rng, block_out * 9, 4));
        // A few training batches so batchnorm's running stats are non-trivial.
        for _ in 0..3 {
            let x = Tensor::randn(&mut rng, &[4, 2, 6, 6], 1.0);
            let _ = net.forward(&x, true);
        }
        let plan = net.plan();
        let mut ws = Workspace::new();
        let x = Tensor::randn(&mut rng, &[2, 2, 6, 6], 1.0);
        let (logits, probes) = layer_walk(&mut net, &x);
        let out = plan.forward_probed_into(&x, &[0, 1], &mut ws);
        assert_eq!(out.logits(), logits.data());
        assert_eq!(out.probe(0), probes[0].data());
        assert_eq!(out.probe(1), probes[1].data());
        // A reused workspace must give the same bits as a fresh one.
        let again = plan.forward(&x, &mut ws);
        assert_eq!(again.data(), logits.data());
    }
}
