//! `dv-serve`: a fault-tolerant request-serving frontend for Deep
//! Validation scoring.
//!
//! The paper's detector is meant to sit *in front of* a deployed
//! classifier, vetting every input at inference time — which means it
//! inherits a server's obligations, not a batch job's. This crate wraps
//! the allocation-free scoring path (`DeepValidator::score_staged_into`
//! over a shared [`InferencePlan`](dv_nn::InferencePlan)) in exactly
//! those obligations, through one serving path:
//!
//! - **Backpressure, never blocking**: submissions go through a bounded
//!   queue; [`Server::try_submit`] fails fast with
//!   [`Rejected::QueueFull`] instead of queueing unboundedly or blocking
//!   the caller.
//! - **Passes**: each worker wakeup drains up to
//!   [`ServeConfig::max_batch`] queued requests, answers the shed,
//!   expired and malformed ones once, and scores the rest in passes. A
//!   pass is the oldest waiting request plus the later ones that would
//!   get the same rung alone, as long as every member's deadline affords
//!   the wider pass; it is staged, scored by one dv-core call and
//!   answered by one response builder. A pass of one is just the width-1
//!   case.
//! - **Per-request deadlines with graceful degradation**: each request
//!   carries a deadline, and a pass runs the richest scoring rung its
//!   opener's remaining budget affords — full joint discrepancy, a
//!   masked-tap reduced score over the last validated layers, or a
//!   confidence-only fallback — recording the choice in [`ServedVia`].
//!   Deadlines and latencies live on one clock, `dv_trace::now_ns`.
//! - **Panic isolation**: a pass's members stay parked while it scores,
//!   so a panic in a pass of two or more re-scores each member alone on
//!   the respawned worker, and a panic in a pass of one fails only that
//!   request (typed [`ScoreError::WorkerCrashed`], never a hang). The
//!   worker is respawned with a fresh warmed
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
//! the same plan, whatever the width of the pass that scored it.
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
//! [`ServedVia::DriftDegraded`] rung until the stream recovers. Degraded
//! requests coalesce into passes like any other rung.

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
