//! **deep-validation** — a Rust reproduction of *Deep Validation: Toward
//! Detecting Real-World Corner Cases for Deep Neural Networks*
//! (Wu, Xu, Zhong, Lyu, King — DSN 2019).
//!
//! Deep Validation monitors a running CNN classifier the way data
//! validation guards a traditional program: it learns the valid input
//! region of every hidden layer from the training data (one one-class
//! SVM per layer and class, [`dv_core`]'s Algorithm 1) and flags inputs
//! whose hidden representations drift out of those regions
//! (Algorithm 2). It detects *real-world corner cases* — naturally
//! transformed inputs like rotated, rescaled or re-lit images — that
//! fool the classifier but are invisible to accuracy metrics.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`trace`](mod@trace) | metrics registry, scoped spans, chrome-trace export |
//! | [`drift`] | streaming distribution-shift monitor over discrepancy streams |
//! | [`tensor`] | dense f32 tensors, matmul, im2col, binary IO |
//! | [`nn`] | CNN layers, training, the compiled inference plan |
//! | [`datasets`] | synthetic MNIST/CIFAR-10/SVHN stand-ins |
//! | [`imgops`] | metamorphic image transformations |
//! | [`ocsvm`] | ν one-class SVM with an SMO solver |
//! | [`core`] | Deep Validation itself |
//! | [`absint`] | interval abstract interpretation over the inference plan |
//! | [`serve`] | fault-tolerant scoring frontend: deadlines, backpressure, degradation |
//! | [`detectors`] | feature-squeezing and KDE baselines |
//! | [`attacks`] | FGSM, BIM, JSMA, CW white-box attacks |
//! | [`eval`] | ROC-AUC, corner-case grid search, tables |
//! | [`bench`](mod@bench) | the experiment pipeline behind every table/figure |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete program; the core flow is:
//!
//! ```no_run
//! use deep_validation::core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
//! use deep_validation::datasets::DatasetSpec;
//! use deep_validation::imgops::Transform;
//! # fn train_model(ds: &deep_validation::datasets::Dataset) -> deep_validation::nn::Network {
//! #     unimplemented!()
//! # }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ds = DatasetSpec::SynthDigits.generate(7, 500, 100);
//! let net = train_model(&ds);
//! let validator = DeepValidator::fit(
//!     &net,
//!     &ds.train.images,
//!     &ds.train.labels,
//!     &ValidatorConfig::default(),
//! )?;
//! // All inference runs through one compiled plan.
//! let plan = net.plan();
//! let mut sw = ScoreWorkspace::new();
//! let clean = validator.score(&plan, &ds.test.images[0], &mut sw)?;
//! let rotated = Transform::Rotation { deg: 50.0 }.apply(&ds.test.images[0]);
//! let corner = validator.score(&plan, &rotated, &mut sw)?;
//! println!("clean {} vs corner {}", clean.joint, corner.joint);
//! # Ok(())
//! # }
//! ```
//!
//! Run the paper's experiments with the `dv-bench` binaries:
//! `cargo run --release -p dv-bench --bin table6`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dv_absint as absint;
pub use dv_attacks as attacks;
pub use dv_bench as bench;
pub use dv_core as core;
pub use dv_datasets as datasets;
pub use dv_detectors as detectors;
pub use dv_drift as drift;
pub use dv_eval as eval;
pub use dv_imgops as imgops;
pub use dv_nn as nn;
pub use dv_ocsvm as ocsvm;
pub use dv_serve as serve;
pub use dv_tensor as tensor;
pub use dv_trace as trace;
