//! Evaluation toolkit for the Deep Validation reproduction.
//!
//! - [`auc`]: exact ROC-AUC via the Mann-Whitney rank statistic (with tie
//!   correction), plus threshold selection at a clean-data false-positive
//!   rate — the metrics of the paper's Section IV-D2.
//! - [`search`]: the corner-case grid search of Section III-A2/IV-B —
//!   iterate each transformation's parameter grid with growing strength,
//!   stop when the classifier's success (error) rate reaches ~60%,
//!   discard transformations that never exceed 30%.
//! - [`evalset`]: evaluation-set assembly — clean images plus synthesized
//!   corner cases, split into successful (SCC) and failed (FCC) corner
//!   cases by whether the model misclassifies them (Section IV-D1).
//! - [`hist`]: text histograms and CSV dumps for Figure 3.
//! - [`table`]: fixed-width table formatting for the reproduction
//!   binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auc;
pub mod evalset;
pub mod hist;
pub mod pr;
pub mod search;
pub mod table;

pub use auc::{centroid_threshold, detection_rate, roc_auc, threshold_at_fpr};
pub use evalset::{CornerCase, EvaluationSet};
pub use pr::{average_precision, pr_curve, PrPoint};
pub use search::{grid_search_with_plan, SearchOutcome, SearchSpace};
