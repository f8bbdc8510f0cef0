//! Experiment pipeline for regenerating every table and figure of the
//! paper's evaluation.
//!
//! One binary per experiment (see `src/bin/`): `table3`, `table5`,
//! `table6`, `table7`, `table8`, `fig2`, `fig3`, `fig4`. Each binary is
//! independently runnable; trained models, fitted validators and searched
//! corner-case configurations are cached under `target/dv-cache` so later
//! binaries reuse earlier work.
//!
//! The [`pipeline::Experiment`] type carries one dataset + model pair
//! through the stages:
//!
//! 1. generate the synthetic dataset ([`dv_datasets`]),
//! 2. train (or load) the CNN ([`models`]),
//! 3. grid-search corner cases ([`dv_eval::search`]),
//! 4. fit (or load) the Deep Validation detector ([`dv_core`]),
//! 5. score and report.
//!
//! The harness binaries (`serve_soak`, `latency_audit`, `drift_report`,
//! `absint_report`, `gemm_roofline`) write their `BENCH_*.json` through
//! [`artifact::write_bench`]; the two serving harnesses share the
//! [`soak`] client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod detector_adapters;
pub mod models;
pub mod pipeline;
pub mod soak;

pub use pipeline::Experiment;
