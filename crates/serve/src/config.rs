//! Server construction parameters.

use std::time::Duration;

use dv_drift::DriftConfig;

#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;

/// Drift circuit-breaker configuration (see
/// [`ServeConfig::breaker`]).
///
/// Workers feed every full-joint score's joint discrepancy (tagged with
/// its request sequence number) to the supervision thread, which owns a
/// [`DriftMonitor`](dv_drift::DriftMonitor). A latched drift alert
/// *opens* the breaker: requests are served through the
/// [`ServedVia::DriftDegraded`](crate::ServedVia::DriftDegraded) rung
/// — except deterministic probes, which keep observing the stream —
/// until the alert clears and the breaker closes again.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Detector and hysteresis parameters for the attached monitor.
    pub drift: DriftConfig,
    /// While the breaker is open, every request whose sequence number is
    /// divisible by `probe_every` is still served through the full rung,
    /// so the monitor keeps seeing fresh joint discrepancies and can
    /// detect recovery. `0` disables probing (the breaker can then only
    /// reopen after shutdown; not recommended).
    pub probe_every: u64,
    /// Capacity of the worker→monitor observation queue. Overflow drops
    /// observations (counted in `serve.drift_obs_dropped`) rather than
    /// ever blocking the scoring path.
    pub obs_capacity: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            drift: DriftConfig::default(),
            probe_every: 4,
            obs_capacity: 1024,
        }
    }
}

/// What happens to requests still queued when the server shuts down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownPolicy {
    /// Workers finish every queued request before exiting (each still
    /// subject to its own deadline).
    Drain,
    /// Queued requests are failed immediately with
    /// [`ScoreError::Shutdown`](dv_core::ScoreError::Shutdown); only
    /// requests already being scored complete.
    Shed,
}

/// Configuration for [`Server::start`](crate::Server::start).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of pinned scoring workers.
    pub workers: usize,
    /// Capacity of the bounded submission queue; a full queue rejects
    /// with [`Rejected::QueueFull`](crate::Rejected::QueueFull).
    pub queue_capacity: usize,
    /// Per-request deadline, measured from submission. A request whose
    /// deadline has passed when a worker drains it fails with
    /// [`ScoreError::DeadlineExpired`](dv_core::ScoreError::DeadlineExpired);
    /// one drained with a squeezed budget is served through a degraded
    /// rung instead.
    pub deadline: Duration,
    /// How shutdown treats the queue backlog.
    pub shutdown: ShutdownPolicy,
    /// How many trailing validated layers the reduced (masked-tap) rung
    /// keeps. `0` disables the middle rung, degrading straight to
    /// confidence-only.
    pub reduced_taps: usize,
    /// Optional drift circuit breaker over the joint discrepancy
    /// stream; `None` (the default) serves every request through the
    /// deadline ladder alone.
    pub breaker: Option<BreakerConfig>,
    /// Deterministic fault-injection schedule for tests and the
    /// `serve_soak` harness; `None` serves faithfully.
    #[cfg(feature = "fault-inject")]
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_millis(50),
            shutdown: ShutdownPolicy::Drain,
            reduced_taps: 1,
            breaker: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}
