//! The serving frontend: pinned workers over a bounded queue, with
//! deadline-driven degradation, panic isolation, and supervised
//! respawn.
//!
//! Every worker wakeup drains up to [`DRAIN_DEPTH`] queued requests,
//! screens them once (shed, expired, malformed), parks the rest, and
//! serves them one at a time, oldest first (see [`serve_parked`]): each
//! request gets the rung of the degradation ladder its own budget
//! affords, one dv-core call and the one response builder. The drain
//! never waits for the queue to fill, so an idle server serves each
//! request as it arrives.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dv_core::{validate_plan_input, DeepValidator, ScoreError, ScoreWorkspace};
use dv_drift::{DriftEvent, DriftMonitor};
use dv_nn::InferencePlan;
use dv_runtime::{oneshot, BoundedQueue, Crew, Drained, HoldingPen, Popped, Promise, PushRejected};
use dv_tensor::Tensor;
use dv_trace::now_ns;

use crate::config::{BreakerConfig, ServeConfig, ShutdownPolicy};
use crate::metrics::{names, Metrics, MetricsSnapshot};
use crate::response::{Outcome, Pending, Rejected, ScoreResponse, ServedVia};

/// How often an idle worker re-checks the queue for shutdown.
const POP_TICK: Duration = Duration::from_millis(5);

/// How often the monitor reaps and respawns crashed workers.
const SUPERVISE_TICK: Duration = Duration::from_millis(1);

/// Most queued requests one worker wakeup drains into its pen: under
/// burst load a worker takes the queue's lock once per drain rather
/// than once per request.
const DRAIN_DEPTH: usize = 8;

/// Safety factor between the remaining deadline budget and a rung's
/// estimated cost: a rung is only chosen while the budget is at least
/// twice the estimate, so normal jitter does not turn a chosen rung
/// into a deadline miss.
const RUNG_MARGIN: u64 = 2;

/// Fallback `retry_after` before any job has been drained (no observed
/// drain rate yet).
const RETRY_AFTER_DEFAULT_US: u64 = 1_000;

/// One queued scoring request. Dropping a `Job` without fulfilling its
/// promise breaks the caller's ticket — which is exactly what makes an
/// unwinding worker surface as [`ScoreError::WorkerCrashed`] instead of
/// a hang.
struct Job {
    image: Tensor,
    promise: Promise<Outcome>,
    seq: u64,
    /// Submission time and deadline on the trace clock
    /// ([`dv_trace::now_ns`]), the server's only clock.
    submitted_ns: u64,
    deadline_ns: u64,
    /// Request-scoped trace id (`seq + 1`), assigned in `try_submit`
    /// whether or not tracing is compiled in so responses always carry
    /// it.
    trace: dv_trace::TraceId,
    /// The request's most recent lifecycle event, threaded through the
    /// pipeline as the causal parent of the next one (NONE when tracing
    /// is off or the request is outside the sample).
    last_event: dv_trace::EventRef,
}

/// One worker→monitor drift observation: a full-joint score's joint
/// discrepancy tagged with its request sequence number, so the monitor
/// can ingest in sequence order regardless of worker interleaving.
#[derive(Clone, Copy)]
struct Obs {
    seq: u64,
    joint: f32,
}

/// Breaker state shared between the workers (producers, plus readers of
/// the open flag) and the supervision thread (the only consumer, which
/// owns the actual [`DriftMonitor`]).
struct BreakerShared {
    cfg: BreakerConfig,
    /// Worker→monitor observation queue; overflow drops (counted),
    /// never blocks the scoring path.
    obs: BoundedQueue<Obs>,
    /// True while a drift alert is latched: serve degraded.
    open: AtomicBool,
}

struct Shared {
    validator: Arc<DeepValidator>,
    plan: Arc<InferencePlan>,
    cfg: ServeConfig,
    queue: BoundedQueue<Job>,
    metrics: Metrics,
    /// Present when [`ServeConfig::breaker`] was set.
    breaker: Option<BreakerShared>,
    /// Server start on the trace clock.
    start_ns: u64,
    /// Cleared at the start of shutdown: submissions are refused.
    accepting: AtomicBool,
    /// Set during a [`ShutdownPolicy::Shed`] drain: drained jobs are
    /// failed with [`ScoreError::Shutdown`] instead of served.
    shedding: AtomicBool,
    /// Tells the monitor loop to exit.
    stop_monitor: AtomicBool,
    /// Monotone request sequence numbers (also the fault-injection key).
    seq: AtomicU64,
    /// Per-slot crash timestamps on the trace clock (0 = none): written
    /// when an incarnation unwinds, consumed by the respawned
    /// incarnation to report its crash-to-recovered interval.
    crash_stamp_ns: Vec<AtomicU64>,
    /// Per-slot holding pen: a worker parks everything it drained here
    /// *before* scoring anything, and the request being scored stays
    /// parked at the front, so a panic anywhere in the wakeup leaves
    /// every not-yet-served promise intact: the one that was scoring for
    /// its terminal crash, the rest for the respawned incarnation to
    /// serve. The [`HoldingPen`] API holds its lock only inside each
    /// call — never across scoring — and incarnations of one slot are
    /// serialized by the supervisor, so it cannot be contended into a
    /// stall.
    parked: Vec<HoldingPen<Job>>,
    /// Per-slot flag: the request at the front of the pen is scoring, so
    /// a panic with this set is that request's terminal crash (see
    /// `worker_body`).
    front_scoring: Vec<AtomicBool>,
    /// Total jobs drained off the queue by workers, for the observed
    /// drain rate behind [`Rejected::QueueFull`]'s `retry_after`.
    popped_jobs: AtomicU64,
}

impl Shared {
    /// Backpressure hint: mean observed time per drained job (how long
    /// until one queue slot frees up), clamped to a sane band, with a
    /// fixed default before any job has been drained.
    fn retry_after(&self) -> Duration {
        let popped = self.popped_jobs.load(Ordering::SeqCst);
        let us = (now_ns().saturating_sub(self.start_ns) / 1_000)
            .checked_div(popped)
            .map_or(RETRY_AFTER_DEFAULT_US, |per_job| per_job.clamp(50, 100_000));
        Duration::from_micros(us)
    }

    /// Whether request `seq` is served [`ServedVia::DriftDegraded`]: the
    /// breaker is open and `seq` is not one of its probes.
    fn drift_degraded(&self, seq: u64) -> bool {
        self.breaker.as_ref().is_some_and(|b| {
            let probe = b.cfg.probe_every > 0 && seq.is_multiple_of(b.cfg.probe_every);
            !probe && b.open.load(Ordering::SeqCst)
        })
    }
}

/// Per-image cost of each rung (µs) for one worker incarnation: seeded
/// by warm-up, then refined online from every scored request (see
/// [`refine_estimate`]) so a noisy warm-up cannot permanently
/// miscalibrate the ladder.
#[derive(Debug, Clone, Copy)]
struct RungEstimates {
    full_us: u64,
    reduced_us: u64,
    confidence_us: u64,
}

impl RungEstimates {
    /// The estimate that prices rung `via`; drift-degraded requests are
    /// scored confidence-only, so they share that rung's cost.
    fn of(&mut self, via: ServedVia) -> &mut u64 {
        match via {
            ServedVia::FullJoint => &mut self.full_us,
            ServedVia::ReducedTaps { .. } => &mut self.reduced_us,
            ServedVia::ConfidenceOnly | ServedVia::DriftDegraded => &mut self.confidence_us,
        }
    }
}

/// 4:1 EWMA of an estimate toward an observed per-image cost. Warm-up
/// (min over a few reps on an otherwise idle thread) seeds the value;
/// this keeps it honest over the incarnation's lifetime, which is what
/// makes the deadline sweep monotone — the seed repo's 750µs-beats-1000µs
/// inversion came from per-incarnation warmup variance that a one-shot
/// estimate never corrected.
fn refine_estimate(est: &mut u64, observed_us: u64) {
    *est = (*est * 3 + observed_us).div_ceil(4).max(1);
}

/// The degradation ladder's decision: richest rung whose estimated cost,
/// padded by [`RUNG_MARGIN`], fits the remaining deadline budget, where
/// the reduced rung keeps `reduced` validated layers (0 = disabled).
/// Confidence-only is the unconditional floor — any request that has not
/// already expired gets at least a prediction.
fn pick_rung(remaining_us: u64, est: &RungEstimates, reduced: usize) -> ServedVia {
    if remaining_us >= est.full_us.saturating_mul(RUNG_MARGIN) {
        ServedVia::FullJoint
    } else if reduced > 0 && remaining_us >= est.reduced_us.saturating_mul(RUNG_MARGIN) {
        ServedVia::ReducedTaps { validated: reduced }
    } else {
        ServedVia::ConfidenceOnly
    }
}

/// The rung a parked request is served on: the breaker's degraded rung
/// while it is open (its probes excepted, see
/// [`Shared::drift_degraded`]), otherwise the ladder's pick for the
/// budget left.
fn serve_rung(
    remaining_us: u64,
    drift_degraded: bool,
    est: &RungEstimates,
    reduced: usize,
) -> ServedVia {
    if drift_degraded {
        ServedVia::DriftDegraded
    } else {
        pick_rung(remaining_us, est, reduced)
    }
}

/// Per-incarnation worker state: scratch buffers, the reduced-rung tap
/// list, and the (mutable, online-refined) rung cost estimates.
struct WorkerCtx {
    sw: ScoreWorkspace,
    /// The scoring request's pixels, copied out of the pen so that its
    /// lock is never held across scoring.
    input: Tensor,
    per_layer: Vec<f32>,
    reduced_keep: Vec<usize>,
    est: RungEstimates,
}

impl WorkerCtx {
    /// A fresh incarnation's state (a respawn never sees a crashed
    /// predecessor's buffers), warmed on a zeros image: one full score
    /// grows the workspace to its steady allocation-free size, then
    /// every rung is timed — min over a few reps, so a cold first score
    /// does not inflate the estimate.
    fn warmed(shared: &Shared) -> Self {
        const REPS: usize = 3;
        dv_trace::span!("serve.warmup");
        let mut ctx = Self {
            sw: ScoreWorkspace::new(),
            input: Tensor::zeros(shared.plan.input_dims()),
            per_layer: Vec::new(),
            reduced_keep: reduced_keep_list(shared),
            est: RungEstimates {
                full_us: u64::MAX,
                reduced_us: u64::MAX,
                confidence_us: u64::MAX,
            },
        };
        ctx.score(shared, ServedVia::FullJoint);
        let rungs = [
            ServedVia::FullJoint,
            ServedVia::ReducedTaps {
                validated: ctx.reduced_keep.len(),
            },
            ServedVia::ConfidenceOnly,
        ];
        for _ in 0..REPS {
            for via in rungs {
                let t0 = now_ns();
                ctx.score(shared, via);
                let us = (now_ns() - t0) / 1_000;
                let est = ctx.est.of(via);
                *est = (*est).min(us.max(1));
            }
        }
        ctx
    }

    /// Scores `input` on rung `via`: `score_into` on the full rung,
    /// `score_masked_into` over the rung's taps otherwise.
    fn score(&mut self, shared: &Shared, via: ServedVia) -> (usize, f32) {
        let (validator, plan, image) = (&shared.validator, &shared.plan, &self.input);
        let (sw, per_layer) = (&mut self.sw, &mut self.per_layer);
        let scored = match via {
            ServedVia::FullJoint => validator.score_into(plan, image, sw, per_layer),
            ServedVia::ReducedTaps { .. } => {
                validator.score_masked_into(plan, image, &self.reduced_keep, sw, per_layer)
            }
            ServedVia::ConfidenceOnly | ServedVia::DriftDegraded => {
                validator.score_masked_into(plan, image, &[], sw, per_layer)
            }
        };
        scored.expect("triage validated every parked image")
    }
}

/// A running scoring server. Dropping it without
/// [`shutdown`](Server::shutdown) sheds the backlog and joins the
/// workers, so no request is ever left hanging.
pub struct Server {
    shared: Arc<Shared>,
    workers: Crew,
    monitor: Crew,
    finished: bool,
}

impl Server {
    /// Spawns the worker and monitor threads and starts serving.
    ///
    /// The validator and plan are shared immutably with every worker;
    /// each worker incarnation builds and warms its own
    /// [`ScoreWorkspace`], so nothing mutable is shared on the scoring
    /// path.
    pub fn start(
        validator: Arc<DeepValidator>,
        plan: Arc<InferencePlan>,
        cfg: ServeConfig,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let breaker = cfg.breaker.clone().map(|bc| BreakerShared {
            obs: BoundedQueue::bounded(bc.obs_capacity.max(1)),
            open: AtomicBool::new(false),
            cfg: bc,
        });
        let shared = Arc::new(Shared {
            queue: BoundedQueue::bounded(cfg.queue_capacity),
            metrics: Metrics::new(),
            breaker,
            start_ns: now_ns(),
            accepting: AtomicBool::new(true),
            shedding: AtomicBool::new(false),
            stop_monitor: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            crash_stamp_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            parked: (0..workers).map(|_| HoldingPen::new()).collect(),
            front_scoring: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            popped_jobs: AtomicU64::new(0),
            validator,
            plan,
            cfg,
        });

        let shared_w = Arc::clone(&shared);
        let crew = Crew::spawn("dv-serve-worker", workers, move |slot| {
            worker_body(&shared_w, slot);
        });

        let shared_m = Arc::clone(&shared);
        let crew_m = crew.clone();
        let monitor = Crew::spawn("dv-serve-monitor", 1, move |_slot| {
            // Per-incarnation drift state: a respawned monitor starts a
            // fresh calibration, but the breaker's open flag lives in
            // Shared, so an already-open breaker stays open until the
            // new monitor calibrates and observes recovery.
            let mut drift = shared_m
                .breaker
                .as_ref()
                .map(|b| DriftMonitor::new(b.cfg.drift));
            let mut batch: Vec<Obs> = Vec::new();
            while !shared_m.stop_monitor.load(Ordering::SeqCst) {
                crew_m.supervise();
                ingest_drift_obs(&shared_m, drift.as_mut(), &mut batch);
                std::thread::sleep(SUPERVISE_TICK);
            }
            // Final drain so observations pushed just before shutdown
            // still reach the published gauges.
            ingest_drift_obs(&shared_m, drift.as_mut(), &mut batch);
        });

        Self {
            shared,
            workers: crew,
            monitor,
            finished: false,
        }
    }

    /// Submits an image for scoring without ever blocking.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected::QueueFull`] (carrying a drain-rate-derived
    /// `retry_after` hint) under backpressure and
    /// [`Rejected::ShuttingDown`] once shutdown began; in both cases the
    /// image is dropped and nothing was enqueued.
    pub fn try_submit(&self, image: Tensor) -> Result<Pending, Rejected> {
        if !self.shared.accepting.load(Ordering::SeqCst) {
            self.shared.metrics.inc(names::REJECTED_SHUTDOWN);
            return Err(Rejected::ShuttingDown);
        }
        let seq = self.shared.seq.fetch_add(1, Ordering::SeqCst);
        let submitted_ns = now_ns();
        let budget_ns = u64::try_from(self.shared.cfg.deadline.as_nanos()).unwrap_or(u64::MAX);
        let (promise, ticket) = oneshot();
        let trace = dv_trace::TraceId::from_seq(seq);
        // The enqueue event is recorded on the client thread *before*
        // the push, stamped with the submission reading itself, so it
        // precedes every worker-side event and `total_us` starts where
        // the timeline does; a rejected push leaves a dangling one-event
        // timeline, which the stitcher tolerates (no segments, no flow
        // arrows).
        let last_event = if dv_trace::tracing_enabled() {
            dv_trace::record_event(
                "serve.enqueued",
                submitted_ns,
                trace,
                dv_trace::EventRef::NONE,
                0,
            )
        } else {
            dv_trace::EventRef::NONE
        };
        let job = Job {
            image,
            promise,
            seq,
            submitted_ns,
            deadline_ns: submitted_ns.saturating_add(budget_ns),
            trace,
            last_event,
        };
        match self.shared.queue.try_push(job) {
            Ok(depth) => {
                self.shared.metrics.inc(names::SUBMITTED);
                self.shared.metrics.set_queue_depth(depth as u64);
                Ok(Pending { ticket })
            }
            Err(PushRejected::Full(job)) => {
                drop(job);
                self.shared.metrics.inc(names::REJECTED_QUEUE_FULL);
                Err(Rejected::QueueFull {
                    retry_after: self.shared.retry_after(),
                })
            }
            Err(PushRejected::Closed(job)) => {
                drop(job);
                self.shared.metrics.inc(names::REJECTED_SHUTDOWN);
                Err(Rejected::ShuttingDown)
            }
        }
    }

    /// Current submission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// A point-in-time copy of the serving counters and latency
    /// quantiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.workers.respawns())
    }

    /// The server's metric registry as flat JSON (counters plus latency
    /// histogram quantiles), for dumping alongside trace exports.
    pub fn metrics_json(&self) -> String {
        dv_trace::metrics_json(self.shared.metrics.registry())
    }

    /// The trace id exemplifying the latency bucket that currently
    /// holds the `q`-quantile (0 when no request has landed there).
    /// Resolve it against [`dv_trace::stitch`]'s timelines — or a
    /// [`ScoreResponse::trace`](crate::ScoreResponse) — to replay
    /// exactly what a tail request went through.
    pub fn latency_exemplar(&self, q: f64) -> u64 {
        self.shared.metrics.latency_exemplar(q)
    }

    /// Shuts down cooperatively per the configured [`ShutdownPolicy`]
    /// and returns the final metrics. Every accepted request reaches a
    /// terminal outcome before this returns.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.finish();
        self.shared.metrics.snapshot(self.workers.respawns())
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.shared.accepting.store(false, Ordering::SeqCst);
        // Stop supervision before closing the queue: workers exiting
        // normally on queue-close must not be resurrected.
        self.shared.stop_monitor.store(true, Ordering::SeqCst);
        self.monitor.stop();
        self.monitor.join();
        self.workers.stop();
        let shed = self.shared.cfg.shutdown == ShutdownPolicy::Shed;
        if shed {
            self.shared.shedding.store(true, Ordering::SeqCst);
        }
        self.shared.queue.close();
        if shed {
            self.shed_backlog();
        }
        self.workers.join();
        // Pathological safety nets, reached only when a worker crashed
        // with supervision already stopped: jobs it parked (no
        // incarnation left to retry them) and jobs still queued (every
        // worker dead mid-drain) are failed rather than left hanging.
        self.shed_parked();
        self.shed_backlog();
    }

    fn shed_backlog(&self) {
        while let Popped::Item(job) = self.shared.queue.try_pop() {
            self.shared.metrics.inc(names::SHED_SHUTDOWN);
            job.promise.fulfill(Err(ScoreError::Shutdown));
        }
    }

    /// Fails every still-parked job. Only called after
    /// `workers.join()`, so no worker can be touching the pens.
    fn shed_parked(&self) {
        for pen in &self.shared.parked {
            while let Some(job) = pen.pop_front() {
                self.shared.metrics.inc(names::SHED_SHUTDOWN);
                job.promise.fulfill(Err(ScoreError::Shutdown));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Drains the worker→monitor observation queue into the drift monitor,
/// flips the breaker on latched events, and republishes the drift
/// gauges. Workers race on the queue, so each batch is sorted by
/// sequence number before ingestion — the monitor stays a pure function
/// of the observation sequence.
fn ingest_drift_obs(shared: &Arc<Shared>, drift: Option<&mut DriftMonitor>, batch: &mut Vec<Obs>) {
    let (Some(b), Some(mon)) = (shared.breaker.as_ref(), drift) else {
        return;
    };
    batch.clear();
    while let Popped::Item(o) = b.obs.try_pop() {
        batch.push(o);
    }
    if batch.is_empty() {
        return;
    }
    batch.sort_by_key(|o| o.seq);
    for o in batch.drain(..) {
        match mon.observe(o.joint, &[]) {
            Some(DriftEvent::Raised(_)) => {
                b.open.store(true, Ordering::SeqCst);
                shared.metrics.inc(names::BREAKER_OPENED);
                // The breaker decision lands on the timeline of the
                // observation that tripped it, so a degraded tail
                // response can be traced back to the cause.
                dv_trace::record_event(
                    "serve.breaker_open",
                    now_ns(),
                    dv_trace::TraceId::from_seq(o.seq),
                    dv_trace::EventRef::NONE,
                    0,
                );
            }
            Some(DriftEvent::Cleared(_)) => {
                b.open.store(false, Ordering::SeqCst);
                shared.metrics.inc(names::BREAKER_CLOSED);
                dv_trace::record_event(
                    "serve.breaker_close",
                    now_ns(),
                    dv_trace::TraceId::from_seq(o.seq),
                    dv_trace::EventRef::NONE,
                    0,
                );
            }
            None => {}
        }
    }
    mon.publish(shared.metrics.registry());
}

/// One worker incarnation: warm up, report recovery if this is a
/// respawn, serve whatever the crashed predecessor left parked, then
/// serve until the queue closes. A panic anywhere inside is caught
/// here; if the request at the front of the pen was scoring, the crash
/// is that request's terminal outcome, and the requests parked behind
/// it wait for the next incarnation.
fn worker_body(shared: &Arc<Shared>, slot: usize) {
    let crashed = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, slot))).is_err();
    if !crashed {
        return;
    }
    shared.metrics.inc(names::WORKER_CRASHES);
    if shared.front_scoring[slot].swap(false, Ordering::SeqCst) {
        if let Some(job) = shared.parked[slot].pop_front() {
            shared.metrics.inc(names::REQUESTS_CRASHED);
            if dv_trace::tracing_enabled() {
                dv_trace::record_event("serve.crashed", now_ns(), job.trace, job.last_event, 0);
            }
            job.promise.fulfill(Err(ScoreError::WorkerCrashed));
        }
    }
    shared.crash_stamp_ns[slot].store(now_ns().max(1), Ordering::SeqCst);
}

fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    let mut ctx = WorkerCtx::warmed(shared);

    // If the previous incarnation of this slot crashed, the gap from its
    // crash to now (respawned, warmed, ready) is the recovery time.
    let stamp = shared.crash_stamp_ns[slot].swap(0, Ordering::SeqCst);
    if stamp != 0 {
        shared
            .metrics
            .record_recovery(now_ns().saturating_sub(stamp) / 1_000);
    }

    // The requests a crashed predecessor left parked were never
    // attempted (the one that crashed it has already failed), so they
    // are served like any wakeup's, before any new work.
    serve_parked(shared, slot, &mut ctx);

    let mut drained: Vec<Job> = Vec::with_capacity(DRAIN_DEPTH);
    loop {
        match shared
            .queue
            .drain_up_to(DRAIN_DEPTH, POP_TICK, &mut drained)
        {
            Drained::Items { taken, depth } => {
                shared.popped_jobs.fetch_add(taken as u64, Ordering::SeqCst);
                shared.metrics.set_queue_depth(depth as u64);
                let drained_ns = now_ns();
                shared.parked[slot].park(
                    drained
                        .drain(..)
                        .filter_map(|job| triage(shared, job, drained_ns)),
                );
                serve_parked(shared, slot, &mut ctx);
            }
            Drained::Empty => {}
            Drained::Closed => return,
        }
    }
}

/// Screens one drained job, once: it is answered here if the server is
/// shedding, its deadline has passed, or its input is malformed, and
/// returned for parking otherwise.
fn triage(shared: &Shared, mut job: Job, now: u64) -> Option<Job> {
    if dv_trace::tracing_enabled() {
        job.last_event =
            dv_trace::record_event("serve.dequeued", now, job.trace, job.last_event, 0);
    }
    let (counter, err) = if shared.shedding.load(Ordering::SeqCst) {
        (names::SHED_SHUTDOWN, ScoreError::Shutdown)
    } else if now >= job.deadline_ns {
        (names::EXPIRED, ScoreError::DeadlineExpired)
    } else if let Err(bad) = validate_plan_input(&shared.plan, &job.image) {
        (names::BAD_INPUT, ScoreError::BadInput(bad))
    } else {
        return Some(job);
    };
    shared.metrics.inc(counter);
    job.promise.fulfill(Err(err));
    None
}

/// The trailing validated-probe positions the reduced rung keeps, or an
/// empty list when the middle rung is disabled (no taps configured, or
/// it would not actually be cheaper than full scoring).
fn reduced_keep_list(shared: &Shared) -> Vec<usize> {
    let total = shared.validator.num_validated_layers();
    let keep = shared.cfg.reduced_taps.min(total);
    if keep == 0 || keep >= total {
        return Vec::new();
    }
    (total - keep..total).collect()
}

/// Serves everything parked in the slot's pen, oldest first, one
/// request at a time through [`serve_front`]. Each request's rung is
/// decided when its turn comes, from the budget it has left then.
fn serve_parked(shared: &Shared, slot: usize, ctx: &mut WorkerCtx) {
    loop {
        let opened_ns = now_ns();
        let (est, reduced) = (ctx.est, ctx.reduced_keep.len());
        let input = ctx.input.data_mut();
        let front = shared.parked[slot].for_front_mut(|job| {
            let remaining_us = job.deadline_ns.saturating_sub(opened_ns) / 1_000;
            let via = serve_rung(remaining_us, shared.drift_degraded(job.seq), &est, reduced);
            input.copy_from_slice(job.image.data());
            if dv_trace::tracing_enabled() {
                dv_trace::record_raw("serve.queued", job.submitted_ns, opened_ns);
                if via != ServedVia::FullJoint {
                    let (id, parent) = (job.trace, job.last_event);
                    job.last_event =
                        dv_trace::record_event("serve.degraded", opened_ns, id, parent, via.code());
                }
            }
            (job.seq, via)
        });
        let Some((seq, via)) = front else {
            return;
        };
        serve_front(shared, slot, ctx, seq, via, opened_ns);
    }
}

/// Scores the request at the front of the slot's pen — request `seq`,
/// whose pixels are already in `ctx.input` — on rung `via`, then takes
/// it out of the pen and answers it through [`respond`].
///
/// The request stays parked while it scores, flagged in
/// `front_scoring`, so a panic there is its terminal `WorkerCrashed`
/// (see [`worker_body`]) and breaks no other promise.
fn serve_front(
    shared: &Shared,
    slot: usize,
    ctx: &mut WorkerCtx,
    // Read only by fault injection.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))] seq: u64,
    via: ServedVia,
    opened_ns: u64,
) {
    let pen = &shared.parked[slot];
    dv_trace::span!("serve.pass");
    shared.front_scoring[slot].store(true, Ordering::SeqCst);

    #[cfg(feature = "fault-inject")]
    if let Some(faults) = &shared.cfg.faults {
        if faults.spike_hits(seq) {
            std::thread::sleep(faults.spike);
        }
        if faults.panic_hits(seq) {
            panic!("injected fault: worker panic on request {seq}");
        }
    }

    let begin_ns = now_ns();
    if dv_trace::tracing_enabled() {
        pen.for_front_mut(|job| {
            let (id, parent) = (job.trace, job.last_event);
            job.last_event =
                dv_trace::record_event("serve.score_begin", begin_ns, id, parent, via.code());
        });
    }
    let top = ctx.score(shared, via);
    let end_ns = now_ns();
    // Keep the ladder honest: fold the observed cost into the rung's
    // running estimate.
    refine_estimate(ctx.est.of(via), (end_ns - begin_ns) / 1_000);
    shared.front_scoring[slot].store(false, Ordering::SeqCst);

    let mut job = pen
        .pop_front()
        .expect("the scored request is still parked at the front");
    if dv_trace::tracing_enabled() {
        job.last_event =
            dv_trace::record_event("serve.score_end", end_ns, job.trace, job.last_event, 0);
    }
    respond(shared, slot, job, via, opened_ns, top, &ctx.per_layer);
}

/// The one response builder: answers a scored request, with its served
/// and deadline counters, latency sample, drift observation and
/// `serve.responded` event. The latency and the event share one clock
/// reading, so a stitched timeline reproduces `total_us` exactly.
fn respond(
    shared: &Shared,
    slot: usize,
    job: Job,
    via: ServedVia,
    opened_ns: u64,
    (predicted, confidence): (usize, f32),
    per_layer: &[f32],
) {
    let finish_ns = now_ns();
    let total_us = finish_ns.saturating_sub(job.submitted_ns) / 1_000;
    let deadline_met = finish_ns <= job.deadline_ns;
    shared.metrics.inc(match via {
        ServedVia::FullJoint => names::SERVED_FULL,
        ServedVia::ReducedTaps { .. } => names::SERVED_REDUCED,
        ServedVia::ConfidenceOnly => names::SERVED_CONFIDENCE,
        ServedVia::DriftDegraded => names::SERVED_DRIFT_DEGRADED,
    });
    if !deadline_met {
        shared.metrics.inc(names::DEADLINE_MISSED);
    }
    shared.metrics.record_latency_us(total_us, job.trace.0);
    if dv_trace::tracing_enabled() {
        dv_trace::record_event("serve.responded", finish_ns, job.trace, job.last_event, 0);
    }
    let joint = (via == ServedVia::FullJoint).then(|| per_layer.iter().sum::<f32>());
    // Every full-joint score feeds the drift monitor (including probes
    // while the breaker is open).
    if let (Some(joint), Some(b)) = (joint, shared.breaker.as_ref()) {
        let obs = Obs {
            seq: job.seq,
            joint,
        };
        if b.obs.try_push(obs).is_err() {
            shared.metrics.inc(names::DRIFT_OBS_DROPPED);
        }
    }
    job.promise.fulfill(Ok(ScoreResponse {
        predicted,
        confidence,
        per_layer: per_layer.to_vec(),
        joint,
        via,
        queue_us: opened_ns.saturating_sub(job.submitted_ns) / 1_000,
        total_us,
        deadline_met,
        worker: slot,
        seq: job.seq,
        trace: job.trace.0,
        batch: 1,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    const EST: RungEstimates = RungEstimates {
        full_us: 100,
        reduced_us: 20,
        confidence_us: 2,
    };

    #[test]
    fn ladder_picks_the_richest_affordable_rung() {
        let reduced = ServedVia::ReducedTaps { validated: 1 };
        assert_eq!(pick_rung(1_000, &EST, 1), ServedVia::FullJoint);
        assert_eq!(pick_rung(200, &EST, 1), ServedVia::FullJoint);
        assert_eq!(pick_rung(199, &EST, 1), reduced);
        assert_eq!(pick_rung(40, &EST, 1), reduced);
        assert_eq!(pick_rung(39, &EST, 1), ServedVia::ConfidenceOnly);
        assert_eq!(pick_rung(0, &EST, 1), ServedVia::ConfidenceOnly);
    }

    #[test]
    fn disabled_reduced_rung_degrades_straight_to_confidence() {
        let est = RungEstimates {
            reduced_us: 0,
            ..EST
        };
        assert_eq!(pick_rung(199, &est, 0), ServedVia::ConfidenceOnly);
        assert_eq!(pick_rung(200, &est, 0), ServedVia::FullJoint);
    }

    #[test]
    fn estimate_refinement_converges_and_never_hits_zero() {
        let mut est = 1_000u64;
        for _ in 0..40 {
            refine_estimate(&mut est, 100);
        }
        assert!((100..=105).contains(&est), "{est}");
        let mut tiny = 1u64;
        refine_estimate(&mut tiny, 0);
        assert_eq!(tiny, 1, "estimates stay strictly positive");
        let mut upward = 10u64;
        for _ in 0..40 {
            refine_estimate(&mut upward, 500);
        }
        assert!((495..=505).contains(&upward), "{upward}");
    }

    /// Regression for the seed benchmark's non-monotonic deadline sweep
    /// (750µs served 82 full-rung responses but 1000µs only 56). The
    /// ladder itself, under *fixed* rung estimates, is monotone in the
    /// deadline: a simulated single worker draining a fixed burst never
    /// serves fewer full responses at a longer deadline. The inversion
    /// in the seed came from each sweep point re-warming its own
    /// incarnation — min-of-3 warmup variance could hand the 1000µs
    /// point a pessimistic `full_us`, and a one-shot estimate never
    /// recovered. The fix is `refine_estimate`: every observed scoring
    /// duration folds into the estimate, so a noisy warmup washes out
    /// within a few requests instead of steering a whole sweep point.
    #[test]
    fn deadline_sweep_is_monotone_under_fixed_estimates() {
        fn fulls_served(deadline_us: u64) -> usize {
            // True service costs sit slightly above the estimates, as
            // they do live (the estimate is a min over warmup reps).
            let (full_cost, reduced_cost, conf_cost) = (110u64, 25u64, 6u64);
            let mut t = 0u64; // the whole burst is submitted at t = 0
            let mut fulls = 0usize;
            for _ in 0..100 {
                if t >= deadline_us {
                    // Expired before pick-up: terminal, near-zero cost.
                    t += 1;
                    continue;
                }
                match pick_rung(deadline_us - t, &EST, 1) {
                    ServedVia::FullJoint => {
                        fulls += 1;
                        t += full_cost;
                    }
                    ServedVia::ReducedTaps { .. } => t += reduced_cost,
                    _ => t += conf_cost,
                }
            }
            fulls
        }
        let sweep = [100u64, 200, 300, 500, 750, 1_000, 2_500, 5_000, 20_000];
        let fulls: Vec<usize> = sweep.iter().map(|&d| fulls_served(d)).collect();
        for (i, w) in fulls.windows(2).enumerate() {
            assert!(
                w[0] <= w[1],
                "full-rung count regressed from {} to {} between deadlines {}µs and {}µs \
                 (sweep: {fulls:?})",
                w[0],
                w[1],
                sweep[i],
                sweep[i + 1],
            );
        }
        assert!(
            fulls.last().copied().unwrap_or(0) == 100,
            "a generous deadline must serve the whole burst full: {fulls:?}"
        );
    }

    /// A request's rung is the ladder's pick for its own budget: across
    /// a budget sweep, with and without the reduced rung, it gets
    /// `pick_rung`'s rung — and the breaker overrides it whatever the
    /// budget.
    #[test]
    fn a_lone_request_gets_exactly_the_ladder_rung() {
        for reduced in [0, 1] {
            for remaining_us in 0..=450 {
                assert_eq!(
                    serve_rung(remaining_us, false, &EST, reduced),
                    pick_rung(remaining_us, &EST, reduced),
                    "budget {remaining_us}µs, reduced {reduced}"
                );
                assert_eq!(
                    serve_rung(remaining_us, true, &EST, reduced),
                    ServedVia::DriftDegraded,
                    "budget {remaining_us}µs, reduced {reduced}"
                );
            }
        }
    }
}
