//! Convolutional neural network substrate for the Deep Validation
//! reproduction.
//!
//! The paper treats a CNN classifier as a composition of `L` parametric
//! layers `f(x) = f_L(f_{L-1}(... f_1(x)))` and probes the output of every
//! hidden layer (Section III-B). This crate provides exactly that view:
//!
//! - [`layer::Layer`]: forward/backward with gradients for both parameters
//!   and the *input* (input gradients power the white-box attacks of
//!   `dv-attacks`),
//! - concrete layers: [`layers::Conv2d`], [`layers::Dense`],
//!   [`layers::Relu`], [`layers::MaxPool2`], [`layers::Flatten`],
//! - [`network::Network`]: a sequential container that trains and
//!   compiles, via [`plan`](network::Network::plan), into
//! - [`plan::InferencePlan`]: the one inference path, whose
//!   [`forward_probed_into`](plan::InferencePlan::forward_probed_into)
//!   returns the hidden representation at every tapped probe point — the
//!   hook Deep Validation consumes,
//! - [`loss`]: softmax cross-entropy,
//! - [`optim`]: SGD with momentum, **Adadelta** (the paper's optimizer) and
//!   Adam,
//! - [`train`]: a mini-batch training loop with accuracy/confidence
//!   evaluation,
//! - checkpoint save/load through `dv-tensor`'s binary format.
//!
//! # Examples
//!
//! ```
//! use dv_nn::network::Network;
//! use dv_nn::layers::{Dense, Relu};
//! use dv_tensor::{Tensor, Workspace};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(&[4]);
//! net.push(Dense::new(&mut rng, 4, 8)).push_probe(Relu::new());
//! net.push(Dense::new(&mut rng, 8, 3));
//! let plan = net.plan();
//! let mut ws = Workspace::new();
//! let x = Tensor::zeros(&[1, 4]);
//! let out = plan.forward_probed_into(&x, &[0], &mut ws);
//! assert_eq!(out.logits().len(), 3);
//! assert_eq!(out.probe(0).len(), 8); // one probe point: the ReLU output
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod layers;
pub mod layers_extra;
pub mod loss;
pub mod network;
pub mod optim;
pub mod plan;
pub mod train;

pub use layer::Layer;
pub use network::Network;
pub use plan::{BatchNormSpec, ConvSpec, DenseSpec, InferencePlan, LayerSpec, PlanOp, PlanOutput};
