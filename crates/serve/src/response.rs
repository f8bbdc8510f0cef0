//! Response types: what a served request reports back.

use std::time::Duration;

use dv_core::ScoreError;
use dv_runtime::Ticket;

/// Which rung of the degradation ladder produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// Every validated layer was scored; `joint` is the paper's joint
    /// discrepancy.
    FullJoint,
    /// Only the last `validated` layers were scored (masked taps); the
    /// per-layer entries are bit-identical to full scoring's for those
    /// layers, but no joint sum is reported.
    ReducedTaps {
        /// How many trailing validated layers were scored.
        validated: usize,
    },
    /// No discrepancy was computed; only the classifier's prediction and
    /// softmax confidence are reported.
    ConfidenceOnly,
    /// The drift circuit breaker was open: the request was served
    /// confidence-only regardless of its deadline budget, because the
    /// discrepancy stream no longer matches the calibration reference
    /// and full scores would not be trustworthy. Deterministic probe
    /// requests (see
    /// [`BreakerConfig::probe_every`](crate::BreakerConfig::probe_every))
    /// still go through the full rung so the monitor can observe
    /// recovery.
    DriftDegraded,
}

impl ServedVia {
    /// A stable small-integer code for trace-event payloads
    /// (`serve.score_begin` / `serve.degraded` carry it as `arg`).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            ServedVia::FullJoint => 0,
            ServedVia::ReducedTaps { .. } => 1,
            ServedVia::ConfidenceOnly => 2,
            ServedVia::DriftDegraded => 3,
        }
    }
}

/// A successfully served scoring request.
#[derive(Debug, Clone)]
pub struct ScoreResponse {
    /// The classifier's predicted class.
    pub predicted: usize,
    /// Max softmax probability of the prediction.
    pub confidence: f32,
    /// Per-layer discrepancies for the layers the rung scored (empty for
    /// [`ServedVia::ConfidenceOnly`]).
    pub per_layer: Vec<f32>,
    /// Joint discrepancy — `Some` only for [`ServedVia::FullJoint`],
    /// where it is the sum over every validated layer.
    pub joint: Option<f32>,
    /// Which degradation rung served this request.
    pub via: ServedVia,
    /// Time the request spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Submission-to-response latency.
    pub total_us: u64,
    /// Whether the response was produced before the request's deadline.
    pub deadline_met: bool,
    /// Slot index of the worker that served the request.
    pub worker: usize,
    /// The request's submission sequence number (for correlating
    /// responses with submissions and fault schedules).
    pub seq: u64,
    /// The request's trace id (`seq + 1`), the key into the stitched
    /// lifecycle timelines ([`dv_trace::stitch`]) and the latency
    /// histogram's p99/p999 exemplars. Assigned whether or not tracing
    /// is compiled in, so responses correlate with traces when it is.
    pub trace: u64,
    /// Width of the pass this request was scored in. Every request is
    /// scored in a pass of its own, so this is always `1`.
    pub batch: usize,
}

/// Terminal outcome of a submitted request: a response or a typed error.
pub type Outcome = Result<ScoreResponse, ScoreError>;

/// Why [`Server::try_submit`](crate::Server::try_submit) refused a
/// request (the image is dropped; nothing was enqueued).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The submission queue is at capacity — backpressure; retry no
    /// sooner than `retry_after` or shed upstream.
    QueueFull {
        /// Backpressure hint derived from the observed worker drain
        /// rate: roughly how long until one queue slot frees up. Feed it
        /// to [`RetryPolicy`](crate::RetryPolicy) as the `hint` — it is
        /// an estimate, not a reservation.
        retry_after: Duration,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

/// A submitted request's handle: redeem it for the terminal [`Outcome`].
///
/// Every accepted request reaches exactly one terminal outcome; if the
/// serving worker dies mid-request the broken promise surfaces here as
/// [`ScoreError::WorkerCrashed`] rather than a hang.
pub struct Pending {
    pub(crate) ticket: Ticket<Outcome>,
}

impl Pending {
    /// Blocks until the request reaches its terminal outcome.
    pub fn wait(self) -> Outcome {
        match self.ticket.wait() {
            Ok(outcome) => outcome,
            Err(_broken) => Err(ScoreError::WorkerCrashed),
        }
    }

    /// Waits up to `timeout`; on timeout the handle comes back so the
    /// response is never silently abandoned.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` if no outcome arrived within `timeout`.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Outcome, Self> {
        match self.ticket.wait_timeout(timeout) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(_broken)) => Ok(Err(ScoreError::WorkerCrashed)),
            Err(ticket) => Err(Self { ticket }),
        }
    }
}
