//! **Deep Validation** — the paper's contribution.
//!
//! Deep Validation treats a trained CNN like a traditional program whose
//! per-layer specifications are unknown, and recovers them from training
//! data (paper Section III-B):
//!
//! 1. **Algorithm 1** ([`DeepValidator::fit`]): drop training images the
//!    model misclassifies, group the remainder by label, extract the
//!    hidden representation of every monitored layer, and fit one
//!    one-class SVM per `(layer, class)` pair — `SVM(i, k)` models the
//!    region where class-`k` training images concentrate in layer `i`.
//! 2. **Algorithm 2** ([`DeepValidator::score`]): at inference time,
//!    read the model's predicted label `y'`, compute each layer's
//!    discrepancy `d_i = -t_i^{y'}(f_i(x))` (the negated signed distance
//!    to `SVM(i, y')`'s hyperplane), and sum them into the joint
//!    discrepancy `d = sum_i d_i` (Eq. 2–3).
//!
//! Inputs whose joint discrepancy exceeds a threshold are flagged as
//! error-inducing corner cases. [`DiscrepancyReport`] exposes both the
//! per-layer vector (the paper's *single validators*, Table VI) and the
//! joint sum (*joint validator*) from one forward pass.
//!
//! # Examples
//!
//! ```no_run
//! use dv_core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
//! use dv_nn::Network;
//! use dv_tensor::Tensor;
//!
//! # fn get_network() -> Network { unimplemented!() }
//! # fn get_data() -> (Vec<Tensor>, Vec<usize>) { unimplemented!() }
//! let net = get_network();
//! let (images, labels) = get_data();
//! let validator =
//!     DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
//! let plan = net.plan();
//! let mut sw = ScoreWorkspace::new();
//! let report = validator.score(&plan, &images[0], &mut sw).unwrap();
//! println!("joint discrepancy: {}", report.joint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod error;
pub mod reducer;
pub mod report;
pub mod stream;
pub mod validator;

pub use calibration::JointCalibration;
pub use config::{LayerSelection, ValidatorConfig};
pub use error::{BadInput, ScoreError};
pub use reducer::FeatureReducer;
pub use report::DiscrepancyReport;
pub use stream::{MonitoredScore, MonitoredScorer};
pub use validator::{validate_plan_input, DeepValidator, ScoreWorkspace, ValidatorError};
