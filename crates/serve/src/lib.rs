//! `dv-serve`: a fault-tolerant request-serving frontend for Deep
//! Validation scoring.
//!
//! The paper's detector is meant to sit *in front of* a deployed
//! classifier, vetting every input at inference time — which means it
//! inherits a server's obligations, not a batch job's. This crate wraps
//! the allocation-free scoring path (`DeepValidator::score_into` and
//! `score_masked_into` over a shared
//! [`InferencePlan`](dv_nn::InferencePlan)) in exactly those
//! obligations, through one serving path:
//!
//! - **Backpressure, never blocking**: submissions go through a bounded
//!   queue; [`Server::try_submit`] fails fast with
//!   [`Rejected::QueueFull`] instead of queueing unboundedly or blocking
//!   the caller.
//! - **One request per pass**: each worker wakeup drains up to 8 queued
//!   requests, answers the shed, expired and malformed ones once, and
//!   scores the rest one at a time, oldest first, each through one
//!   dv-core call and one response builder.
//! - **Per-request deadlines with graceful degradation**: each request
//!   carries a deadline and runs the richest scoring rung its remaining
//!   budget affords — full joint discrepancy, a masked-tap reduced score
//!   over the last validated layers, or a confidence-only fallback —
//!   recording the choice in [`ServedVia`]. Deadlines and latencies live
//!   on one clock, `dv_trace::now_ns`.
//! - **Panic isolation**: a drained request stays parked until it is
//!   answered, so a panic while it scores fails only that request
//!   (typed [`ScoreError::WorkerCrashed`], never a hang), and the
//!   requests parked behind it are served by the respawned worker, which
//!   starts with a fresh warmed
//!   [`ScoreWorkspace`](dv_core::ScoreWorkspace).
//! - **Cooperative shutdown**: [`Server::shutdown`] drains or sheds the
//!   queue by [`ShutdownPolicy`]; every accepted request still reaches
//!   exactly one terminal outcome.
//!
//! Every thread and synchronization primitive comes from `dv-runtime`
//! ([`Crew`](dv_runtime::Crew), [`BoundedQueue`](dv_runtime::BoundedQueue),
//! [`oneshot`](dv_runtime::oneshot)); this crate adds only the serving
//! policy. With the deadline generous and no faults injected, a served
//! [`ScoreResponse`] is bit-identical to calling `score_into` directly on
//! the same plan.
//!
//! The `fault-inject` feature gates a deterministic [`FaultPlan`] hook
//! (worker panics, latency spikes) used by the robustness tests and the
//! `serve_soak` benchmark harness.
//!
//! An optional drift circuit breaker ([`BreakerConfig`]) attaches a
//! `dv_drift::DriftMonitor` to the joint-discrepancy stream: workers
//! feed full-joint scores to the supervision thread over a bounded
//! queue (drops counted, never blocking the scoring path), and a
//! latched drift alert flips serving to the
//! [`ServedVia::DriftDegraded`] rung until the stream recovers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
#[cfg(feature = "fault-inject")]
mod fault;
mod metrics;
mod response;
mod retry;
mod server;

pub use config::{BreakerConfig, ServeConfig, ShutdownPolicy};
#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
pub use metrics::MetricsSnapshot;
pub use response::{Outcome, Pending, Rejected, ScoreResponse, ServedVia};
pub use retry::RetryPolicy;
pub use server::Server;

pub use dv_core::{BadInput, ScoreError};
