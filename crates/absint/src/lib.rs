//! Sound static analysis of frozen inference plans by abstract
//! interpretation.
//!
//! Deep Validation recovers per-layer "specs" *statistically* (per-layer
//! OCSVMs over tapped activations); this crate computes them
//! *soundly*: given a box over the input pixels, [`propagate`] pushes it
//! through every op of an [`InferencePlan`](dv_nn::InferencePlan) with
//! interval transfer functions — matmul over bound pairs for
//! dense/conv, exact clamps for ReLU/max-pool, endpoint evaluation for
//! batch-norm — and emits an activation box at every probe point plus a
//! box over the logits. Every transfer is widened by an explicit
//! floating-point slack, so the guarantee holds against the concrete
//! `f32` kernels, not just real arithmetic (the soundness property
//! suite enforces zero violations).
//!
//! The one consumer is `dv_detectors::BoundsDetector`, which clips its
//! calibrated per-class boxes to the reachable set [`propagate`]
//! computes over the whole input domain `[0, 1]^D`.
//!
//! The analysis is `&self`-only over the shared plan, allocation-heavy
//! but read-only: a pure function of (plan parameters, input region),
//! bit-identical at any `DV_THREADS`.
//!
//! # Examples
//!
//! ```
//! use dv_nn::layers::{Dense, Relu};
//! use dv_nn::Network;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(&[4]);
//! net.push(Dense::new(&mut rng, 4, 8)).push_probe(Relu::new());
//! net.push(Dense::new(&mut rng, 8, 3));
//! let plan = net.plan();
//!
//! // A small box around a concrete input...
//! let x = [0.5f32, 0.2, 0.8, 0.1];
//! let lo: Vec<f32> = x.iter().map(|v| v - 0.01).collect();
//! let hi: Vec<f32> = x.iter().map(|v| v + 0.01).collect();
//! let prop = dv_absint::propagate(&plan, &lo, &hi);
//! assert_eq!(prop.taps.len(), 1); // one probe point
//! assert_eq!(prop.logits.len(), 3);
//! // ...encloses the concrete activations at every tap and the logits.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod interval;

pub use bounds::Bounds;
pub use interval::{propagate, Propagation};
