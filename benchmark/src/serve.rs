//! Open-loop load against dv-serve, and the output gate on what it served.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dv_core::{DeepValidator, DiscrepancyReport, ScoreError, ScoreWorkspace};
use dv_nn::InferencePlan;
use dv_serve::{
    MetricsSnapshot, Outcome, Pending, Rejected, ScoreResponse, ServeConfig, ServedVia, Server,
};
use dv_tensor::Tensor;

use crate::schedule::Arrival;

/// Sleep toward a due time only while more than this remains; the last
/// stretch is spun so arrivals leave on time. Sleep wake-ups on a
/// virtualised two-core host run milliseconds late now and then, so the
/// window is wide: at the steady rate the generator spins about a fifth
/// of the time, on the core it keeps for itself.
const SPIN_WINDOW: Duration = Duration::from_millis(2);

/// How long the generator waits for any one response after the
/// schedule ends before counting the request as lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Rounds of warm-up requests sent, at most, until every worker has
/// served one.
const WARMUP_ROUNDS: usize = 10;

/// One served request, as the generator saw it.
pub struct Served {
    /// Traffic-pool index of the request's image.
    pub image: usize,
    /// Submit time minus due time, in microseconds.
    pub lag_us: f64,
    pub via: ServedVia,
    pub queue_us: u64,
    pub total_us: u64,
    pub deadline_met: bool,
    pub batch: usize,
    pub joint: Option<f32>,
}

/// Terminal errors of accepted requests, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Errors {
    pub expired: u64,
    pub crashed: u64,
    pub bad_input: u64,
    pub shutdown: u64,
    /// No outcome within [`RESPONSE_TIMEOUT`] after the schedule ended.
    pub lost: u64,
}

/// Everything one open-loop run leaves behind.
pub struct OpenLoop {
    /// Requests the schedule offered.
    pub attempted: u64,
    /// Requests sent before the schedule started, so that no scheduled
    /// request waits for a worker's warm-up.
    pub warmup_sent: u64,
    /// Warm-up requests served (one per worker); the others expired.
    pub warmup_served: u64,
    /// Submissions the server refused (`QueueFull` or shutting down).
    pub rejected: u64,
    pub served: Vec<Served>,
    pub errors: Errors,
    /// Served responses whose bits differ from direct scoring.
    pub mismatches: u64,
    /// Submit-minus-due lag of every offered request, microseconds.
    pub lags_us: Vec<f64>,
    /// From the schedule's start to the last submission, seconds.
    pub send_s: f64,
    pub metrics: MetricsSnapshot,
}

impl OpenLoop {
    /// Requests that failed for a reason other than the server's own
    /// admission and deadline policy: crashes, bad input, shutdown and
    /// lost outcomes.
    pub fn unexpected_failures(&self) -> u64 {
        let e = &self.errors;
        e.crashed + e.bad_input + e.shutdown + e.lost
    }

    /// The serving accounting identities: every accepted request reached
    /// exactly one terminal outcome, and every offered request was
    /// either accepted or refused.
    pub fn accounting_holds(&self) -> Result<(), String> {
        let m = &self.metrics;
        let scheduled = m.submitted - self.warmup_sent;
        if m.terminal_outcomes() != m.submitted {
            return Err(format!(
                "terminal outcomes {} != submitted {}",
                m.terminal_outcomes(),
                m.submitted
            ));
        }
        if self.attempted != scheduled + self.rejected {
            return Err(format!(
                "attempted {} != submitted {scheduled} + rejected {}",
                self.attempted, self.rejected
            ));
        }
        if self.served.len() as u64 + self.warmup_served != m.served() {
            return Err(format!(
                "generator saw {} responses (+{} warm-up), server counted {}",
                self.served.len(),
                self.warmup_served,
                m.served()
            ));
        }
        Ok(())
    }

    /// Files one outcome, checking a response against direct scoring of
    /// its image on the spot.
    fn record(&mut self, image: usize, lag_us: f64, outcome: Outcome, refs: &[Reference]) {
        let resp = match outcome {
            Ok(resp) => resp,
            Err(e) => {
                let count = match e {
                    ScoreError::DeadlineExpired => &mut self.errors.expired,
                    ScoreError::WorkerCrashed => &mut self.errors.crashed,
                    ScoreError::BadInput(_) => &mut self.errors.bad_input,
                    ScoreError::Shutdown => &mut self.errors.shutdown,
                };
                *count += 1;
                return;
            }
        };
        if let Err(e) = check_response(&resp, &refs[image]) {
            if self.mismatches < 5 {
                eprintln!("output gate: {e}");
            }
            self.mismatches += 1;
        }
        self.served.push(Served {
            image,
            lag_us,
            via: resp.via,
            queue_us: resp.queue_us,
            total_us: resp.total_us,
            deadline_met: resp.deadline_met,
            batch: resp.batch,
            joint: resp.joint,
        });
    }
}

/// The serving configuration every serve workload uses: the defaults
/// (max_batch 8, queue 64, 50 ms deadline, no breaker) with `workers`
/// scoring workers.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

/// Sends `schedule` from this thread against a fresh server, on time
/// whether or not earlier requests have finished, and shuts the server
/// down once every outcome is in. Outcomes are collected as they
/// arrive, between sends, and each response is checked against `refs`
/// (direct scoring of its image) on the spot, so the generator holds
/// only the requests in flight.
pub fn run_open_loop(
    validator: &Arc<DeepValidator>,
    plan: &Arc<InferencePlan>,
    cfg: ServeConfig,
    schedule: &[Arrival],
    images: &[Tensor],
    refs: &[Reference],
) -> OpenLoop {
    let workers = cfg.workers.max(1) as u64;
    let server = Server::start(Arc::clone(validator), Arc::clone(plan), cfg);
    // A worker's first request pays for its lazy set-up, and when the
    // shared host stalls the VM that can outlast the deadline; expired
    // warm-ups are sent again, a bounded number of times.
    let (mut warmup_sent, mut warmup_served) = (0, 0);
    for _ in 0..WARMUP_ROUNDS {
        if warmup_served == workers {
            break;
        }
        let warming: Vec<_> = (warmup_served..workers)
            .map(|_| server.try_submit(images[0].clone()))
            .collect();
        for pending in warming {
            warmup_sent += 1;
            match pending
                .expect("an idle server accepts its warm-up requests")
                .wait()
            {
                Ok(_) => warmup_served += 1,
                Err(ScoreError::DeadlineExpired) => {}
                Err(e) => panic!("warm-up request failed: {e:?}"),
            }
        }
    }
    let mut out = OpenLoop {
        attempted: schedule.len() as u64,
        warmup_sent,
        warmup_served,
        rejected: 0,
        served: Vec::with_capacity(schedule.len()),
        errors: Errors::default(),
        mismatches: 0,
        lags_us: Vec::with_capacity(schedule.len()),
        send_s: 0.0,
        metrics: server.metrics(),
    };
    let mut inflight: VecDeque<(usize, f64, Pending)> = VecDeque::new();
    let start = Instant::now();
    let mut last_submit = start;
    for arrival in schedule {
        while let Some((image, lag_us, pending)) = inflight.pop_front() {
            match pending.wait_timeout(Duration::ZERO) {
                Ok(outcome) => out.record(image, lag_us, outcome, refs),
                Err(pending) => {
                    inflight.push_front((image, lag_us, pending));
                    break;
                }
            }
        }
        let due = start + Duration::from_nanos(arrival.due_ns);
        wait_until(due);
        let image = images[arrival.image].clone();
        last_submit = Instant::now();
        let lag_us = last_submit.duration_since(due).as_secs_f64() * 1e6;
        out.lags_us.push(lag_us);
        match server.try_submit(image) {
            Ok(pending) => inflight.push_back((arrival.image, lag_us, pending)),
            Err(Rejected::QueueFull { .. } | Rejected::ShuttingDown) => out.rejected += 1,
        }
    }
    out.send_s = last_submit.duration_since(start).as_secs_f64();
    for (image, lag_us, pending) in inflight {
        match pending.wait_timeout(RESPONSE_TIMEOUT) {
            Ok(outcome) => out.record(image, lag_us, outcome, refs),
            Err(_still_pending) => out.errors.lost += 1,
        }
    }
    out.metrics = server.shutdown();
    out
}

/// Sleeps toward `due`, then spins the last [`SPIN_WINDOW`].
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What `DeepValidator::score_into` returns for one image: the bits
/// every served response for that image must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub predicted: usize,
    pub confidence: f32,
    pub per_layer: Vec<f32>,
    pub joint: f32,
}

impl Reference {
    /// Every bit the output gate compares.
    fn key(&self) -> (usize, u32, Vec<u32>, u32) {
        (
            self.predicted,
            self.confidence.to_bits(),
            bits(&self.per_layer),
            self.joint.to_bits(),
        )
    }

    /// Whether a discrepancy report carries exactly these bits.
    pub fn matches_report(&self, r: &DiscrepancyReport) -> bool {
        self.key()
            == (
                r.predicted,
                r.confidence.to_bits(),
                bits(&r.per_layer),
                r.joint.to_bits(),
            )
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether two reference passes agree bit for bit.
pub fn same_bits(a: &[Reference], b: &[Reference]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key() == y.key())
}

/// Scores every image directly through `score_into`.
pub fn references(
    validator: &DeepValidator,
    plan: &InferencePlan,
    images: &[Tensor],
) -> Vec<Reference> {
    references_timed(validator, plan, images, &mut Vec::new())
}

/// [`references`], appending each image's `score_into` time, in
/// seconds, to `seconds`.
pub fn references_timed(
    validator: &DeepValidator,
    plan: &InferencePlan,
    images: &[Tensor],
    seconds: &mut Vec<f64>,
) -> Vec<Reference> {
    let mut sw = ScoreWorkspace::new();
    images
        .iter()
        .map(|img| {
            let mut per_layer = Vec::new();
            let t = Instant::now();
            let (predicted, confidence) = validator
                .score_into(plan, img, &mut sw, &mut per_layer)
                .expect("traffic images match the plan input and are finite");
            seconds.push(t.elapsed().as_secs_f64());
            let joint = per_layer.iter().sum();
            Reference {
                predicted,
                confidence,
                per_layer,
                joint,
            }
        })
        .collect()
}

/// The output gate: a served response must carry exactly the bits that
/// direct scoring of its image gives, on whichever rung served it.
pub fn check_response(resp: &ScoreResponse, want: &Reference) -> Result<(), String> {
    if resp.predicted != want.predicted || resp.confidence.to_bits() != want.confidence.to_bits() {
        return Err(format!(
            "request {}: prediction ({}, {}) != direct ({}, {})",
            resp.seq, resp.predicted, resp.confidence, want.predicted, want.confidence
        ));
    }
    let (layers, joint) = match resp.via {
        ServedVia::FullJoint => (&want.per_layer[..], Some(want.joint)),
        ServedVia::ReducedTaps { validated } => {
            let from = want.per_layer.len().saturating_sub(validated);
            (&want.per_layer[from..], None)
        }
        ServedVia::ConfidenceOnly | ServedVia::DriftDegraded => (&[][..], None),
    };
    if bits(&resp.per_layer) != bits(layers) {
        return Err(format!(
            "request {}: per-layer {:?} != direct {:?}",
            resp.seq, resp.per_layer, layers
        ));
    }
    if resp.joint.map(f32::to_bits) != joint.map(f32::to_bits) {
        return Err(format!(
            "request {}: joint {:?} != direct {:?}",
            resp.seq, resp.joint, joint
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        let per_layer = vec![0.25f32, -1.5, 0.125];
        Reference {
            predicted: 3,
            confidence: 0.875,
            joint: per_layer.iter().sum(),
            per_layer,
        }
    }

    fn response(r: &Reference) -> ScoreResponse {
        ScoreResponse {
            predicted: r.predicted,
            confidence: r.confidence,
            per_layer: r.per_layer.clone(),
            joint: Some(r.joint),
            via: ServedVia::FullJoint,
            queue_us: 10,
            total_us: 20,
            deadline_met: true,
            worker: 0,
            seq: 7,
            trace: 8,
            batch: 1,
        }
    }

    #[test]
    fn gate_accepts_identical_bits() {
        let r = reference();
        assert_eq!(check_response(&response(&r), &r), Ok(()));
        let mut reduced = response(&r);
        reduced.via = ServedVia::ReducedTaps { validated: 1 };
        reduced.per_layer = vec![0.125];
        reduced.joint = None;
        assert_eq!(check_response(&reduced, &r), Ok(()));
    }

    #[test]
    fn gate_fails_on_any_flipped_bit() {
        let r = reference();
        let mut layer = response(&r);
        layer.per_layer[1] = f32::from_bits(layer.per_layer[1].to_bits() ^ 1);
        assert!(check_response(&layer, &r).is_err());
        let mut joint = response(&r);
        joint.joint = Some(f32::from_bits(r.joint.to_bits() ^ 1));
        assert!(check_response(&joint, &r).is_err());
        let mut conf = response(&r);
        conf.confidence = f32::from_bits(r.confidence.to_bits() ^ 1);
        assert!(check_response(&conf, &r).is_err());
        let mut pred = response(&r);
        pred.predicted = 4;
        assert!(check_response(&pred, &r).is_err());
        let mut short = response(&r);
        short.per_layer.pop();
        assert!(check_response(&short, &r).is_err());
    }

    #[test]
    fn report_gate_fails_on_any_flipped_bit() {
        let r = reference();
        let report = DiscrepancyReport::new(r.predicted, r.confidence, r.per_layer.clone());
        assert!(r.matches_report(&report));
        let mut layer = report.clone();
        layer.per_layer[2] = f32::from_bits(layer.per_layer[2].to_bits() ^ 1);
        assert!(!r.matches_report(&layer));
        let mut joint = report.clone();
        joint.joint = f32::from_bits(joint.joint.to_bits() ^ 1);
        assert!(!r.matches_report(&joint));
        let mut conf = report;
        conf.confidence = f32::from_bits(conf.confidence.to_bits() ^ 1);
        assert!(!r.matches_report(&conf));
        let mut other = reference();
        other.joint = f32::from_bits(other.joint.to_bits() ^ 1);
        assert!(same_bits(&[reference()], &[reference()]));
        assert!(!same_bits(&[reference()], &[other]));
    }
}
