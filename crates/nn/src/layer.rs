//! The [`Layer`] trait: one component in the paper's composition
//! `f(x) = f_L(f_{L-1}(... f_1(x)))`.

use dv_tensor::{SlotAllocator, Tensor};

use crate::plan::PlanOp;

/// One differentiable network component operating on batches.
///
/// Inputs and outputs carry an explicit batch axis: images are
/// `[N, C, H, W]`, flat features are `[N, D]`. Layers cache whatever they
/// need during [`forward`](Layer::forward) so that
/// [`backward`](Layer::backward) can produce both parameter gradients
/// (accumulated internally) and the gradient with respect to the input
/// (returned). The input gradient path is load-bearing: the white-box
/// attacks of `dv-attacks` differentiate the loss all the way back to the
/// image.
///
/// Layers are used strictly sequentially: `backward` may only be called
/// after a `forward` with the same batch. `Send + Sync` lets whole
/// networks cross thread boundaries; concurrent inference goes through
/// one shared [`InferencePlan`](crate::InferencePlan) compiled by
/// [`plan_op`](Layer::plan_op), never through shared `&mut` state.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch.
    ///
    /// `train` distinguishes training-time behaviour (none of the current
    /// layers differ, but the flag keeps the API honest for e.g. dropout).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input of the preceding [`forward`](Layer::forward) call.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Parameter tensors paired with their accumulated gradients, for the
    /// optimizer. Parameter-free layers return an empty vector.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)>;

    /// Clears accumulated parameter gradients.
    fn zero_grads(&mut self);

    /// Short human-readable layer kind, e.g. `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Output shape (without the batch axis) for a given input shape
    /// (without the batch axis).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `input` is not a shape this layer
    /// accepts.
    fn output_shape(&self, input: &[usize]) -> Vec<usize>;

    /// Named parameter tensors for checkpointing, e.g. `[("weight", &w)]`.
    fn named_params(&self) -> Vec<(&'static str, &Tensor)>;

    /// Loads a named parameter saved by [`named_params`](Layer::named_params).
    ///
    /// # Panics
    ///
    /// Implementations may panic if the name is unknown or the shape
    /// differs from the existing parameter.
    fn load_param(&mut self, name: &str, value: Tensor);

    /// Compiles this layer's inference-time behaviour into an immutable
    /// [`PlanOp`], reserving any workspace scratch slots it needs from
    /// `slots`. Parameters are copied, so the plan outlives the network.
    fn plan_op(&self, slots: &mut SlotAllocator) -> Box<dyn PlanOp>;
}

/// Splits a batched tensor `[N, ...]` into its batch size and per-item
/// element count. Utility shared by layer implementations.
///
/// # Panics
///
/// Panics if `t` has rank < 2.
pub fn batch_dims(t: &Tensor) -> (usize, usize) {
    assert!(
        t.shape().ndim() >= 2,
        "batched tensor must have rank >= 2, got {}",
        t.shape()
    );
    let n = t.shape().dim(0);
    (n, t.numel() / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_dims_splits_batch_axis() {
        let t = Tensor::zeros(&[4, 3, 2, 2]);
        assert_eq!(batch_dims(&t), (4, 12));
    }

    #[test]
    #[should_panic(expected = "rank >= 2")]
    fn batch_dims_rejects_rank_one() {
        let _ = batch_dims(&Tensor::zeros(&[4]));
    }
}
