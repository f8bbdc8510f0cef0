//! Tail-latency attribution audit for the dv-serve pipeline. Writes
//! `BENCH_audit.json`.
//!
//! Two soak phases run with request-scoped causal tracing on, and every
//! successful response is audited against its stitched timeline: the
//! four segments the stitcher decomposes a request into — queue-wait,
//! coalesce-wait, score, respond — must telescope exactly among
//! themselves *and* reproduce the wall time the server reported for
//! that request exactly (`total_ns / 1000 == total_us`): the server
//! stamps `serve.enqueued` and `serve.responded` with the very clock
//! readings its `total_us` is computed from. The run fails if a single
//! audited request does not reconcile, which is the end-to-end proof
//! that the lifecycle events land where the latency actually went —
//! including through crashes and respawned workers.
//!
//! - **faulted** phase: the `serve_soak` fault regime (injected worker
//!   panics + latency spikes), where every response is full-joint and
//!   the tail comes from queueing.
//! - **pressured** phase: injection off, one worker, and a deadline
//!   tight enough that each bursty wave drains across the degrade
//!   ladder's decision windows — so the per-[`ServedVia`] breakdown gets
//!   real reduced/confidence rows, not just full-joint.
//!
//! The report breaks the decomposition down per [`ServedVia`] rung and
//! records the latency histogram's p99/p999 exemplar trace ids, each of
//! which must resolve to a replayable stitched timeline.
//!
//! Requests are driven in waves: submit a wave, drain it fully,
//! snapshot + stitch, then `dv_trace::reset()` — so per-thread rings
//! never wrap (`dropped` must stay 0) no matter how long the soak runs.
//!
//! `--quick` shrinks the soak for CI (and writes under `target/quick/`).
//! The binary exits 2 when built without `--features trace`, because
//! there is nothing to audit.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dv_bench::soak::{quiet_injected_panics, stripe_validator, submit_with_retry};
use dv_serve::{FaultPlan, ServeConfig, ServedVia, Server, ShutdownPolicy};
use dv_tensor::Tensor;
use dv_trace::{LogLinearHistogram, RequestTimeline};

/// One audited response: the server's own wall-time report plus the
/// rung that served it, keyed by trace id into the stitched timelines.
struct Audited {
    trace: u64,
    via: ServedVia,
    total_us: u64,
}

/// Everything one soak phase leaves behind for the audit.
struct SoakOut {
    audited: Vec<Audited>,
    timelines: BTreeMap<u64, RequestTimeline>,
    waves: u64,
    submitted: u64,
    failed: u64,
}

/// Drive `requests` through `server` in fully-drained waves, stitching
/// and resetting the trace rings between waves so they never wrap.
fn soak(
    server: &Server,
    images: &[Tensor],
    queue_capacity: usize,
    requests: u64,
    wave: u64,
) -> SoakOut {
    let mut out = SoakOut {
        audited: Vec::new(),
        timelines: BTreeMap::new(),
        waves: 0,
        submitted: 0,
        failed: 0,
    };
    let mut i = 0u64;
    while i < requests {
        let end = (i + wave).min(requests);
        let mut pendings = Vec::new();
        for j in i..end {
            let img = &images[(j as usize) % images.len()];
            if let Some(p) = submit_with_retry(server, img, j, queue_capacity) {
                pendings.push(p);
                out.submitted += 1;
            }
        }
        for pending in pendings {
            match pending.wait_timeout(Duration::from_secs(10)) {
                Ok(Ok(resp)) => out.audited.push(Audited {
                    trace: resp.trace,
                    via: resp.via,
                    total_us: resp.total_us,
                }),
                Ok(Err(_)) => out.failed += 1,
                Err(_still_pending) => {
                    panic!("request hung past the 10s audit timeout — promise was lost")
                }
            }
        }
        // The wave is fully drained: workers are quiescent, so the
        // snapshot is exact and the reset races nothing.
        let snap = dv_trace::snapshot();
        assert_eq!(
            snap.dropped, 0,
            "trace rings dropped records mid-wave; shrink the wave below RING_CAP"
        );
        for tl in dv_trace::stitch(&snap) {
            out.timelines.insert(tl.trace, tl);
        }
        dv_trace::reset();
        out.waves += 1;
        i = end;
    }
    out
}

/// Per-[`ServedVia`] segment accumulator (sums in ns, totals histogram
/// in µs for the percentile columns).
struct ViaAgg {
    label: &'static str,
    count: u64,
    queue_ns: u128,
    coalesce_ns: u128,
    score_ns: u128,
    respond_ns: u128,
    total_ns: u128,
    totals_us: LogLinearHistogram,
}

impl ViaAgg {
    fn new(label: &'static str) -> Self {
        Self {
            label,
            count: 0,
            queue_ns: 0,
            coalesce_ns: 0,
            score_ns: 0,
            respond_ns: 0,
            total_ns: 0,
            totals_us: LogLinearHistogram::new(),
        }
    }

    fn mean_us(sum_ns: u128, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        sum_ns as f64 / count as f64 / 1_000.0
    }
}

fn via_code(via: ServedVia) -> usize {
    via.code() as usize
}

/// Global reconciliation state across both soak phases.
struct AuditTotals {
    vias: [ViaAgg; 4],
    reconciled: u64,
    worst_gap_ns: u64,
}

/// Audit one phase's responses against its own stitched timelines
/// (trace ids restart per server, so timelines never mix across
/// phases), folding segment sums into the global per-via aggregates.
fn audit_phase(phase: &SoakOut, totals: &mut AuditTotals) {
    for a in &phase.audited {
        let tl = phase
            .timelines
            .get(&a.trace)
            .unwrap_or_else(|| panic!("response trace {} has no stitched timeline", a.trace));
        let seg = dv_trace::segments(tl).unwrap_or_else(|| {
            panic!(
                "served request {} has an incomplete timeline: {:?}",
                a.trace,
                tl.events.iter().map(|e| e.name).collect::<Vec<_>>()
            )
        });
        assert_eq!(
            seg.queue_wait_ns + seg.coalesce_wait_ns + seg.score_ns + seg.respond_ns,
            seg.total_ns,
            "segments must telescope exactly (trace {})",
            a.trace
        );
        let agg = &mut totals.vias[via_code(a.via)];
        agg.count += 1;
        agg.queue_ns += u128::from(seg.queue_wait_ns);
        agg.coalesce_ns += u128::from(seg.coalesce_wait_ns);
        agg.score_ns += u128::from(seg.score_ns);
        agg.respond_ns += u128::from(seg.respond_ns);
        agg.total_ns += u128::from(seg.total_ns);
        agg.totals_us.record(seg.total_ns / 1_000);
        // The enqueue→respond window and the server's `total_us` are the
        // same two clock readings, so they agree exactly; the gap left
        // is the sub-microsecond remainder `total_us` truncates.
        let gap = seg.total_ns.abs_diff(a.total_us * 1_000);
        totals.worst_gap_ns = totals.worst_gap_ns.max(gap);
        if seg.total_ns / 1_000 == a.total_us {
            totals.reconciled += 1;
        }
    }
}

fn main() {
    quiet_injected_panics();
    let quick = std::env::args().any(|a| a == "--quick");
    if !dv_trace::tracing_enabled() {
        eprintln!(
            "latency_audit: span recording is compiled out; rerun with --features trace \
             (there is nothing to audit without lifecycle events)"
        );
        std::process::exit(2);
    }
    let faulted_requests: u64 = if quick { 400 } else { 4000 };
    let pressured_requests: u64 = if quick { 64 } else { 384 };

    let (validator, plan, images) = stripe_validator();

    // ---- Phase 1: fault soak (the serve_soak regime). ---------------
    let queue_capacity = 128usize;
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity,
        deadline: Duration::from_millis(20),
        shutdown: ShutdownPolicy::Drain,
        reduced_taps: 1,
        breaker: None,
        // Panics at 10‰ (each crash costs a respawned worker thread =
        // one trace lane; 4000 requests stay well inside MAX_LANES)
        // plus 2ms latency spikes at 50‰ to push the tail around.
        faults: Some(FaultPlan {
            seed: 2024,
            panic_per_mille: 10,
            spike_per_mille: 50,
            spike: Duration::from_millis(2),
        }),
    };
    let server = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg);

    dv_trace::reset();
    let t0 = dv_trace::Stopwatch::start();
    let faulted = soak(&server, &images, queue_capacity, faulted_requests, 200);
    // Tail exemplars live in this server's latency histogram; resolve
    // them against this phase's timelines before the server goes away.
    let p99_trace = server.latency_exemplar(0.99);
    let p999_trace = server.latency_exemplar(0.999);
    let p99_resolved = faulted.timelines.contains_key(&p99_trace);
    let p999_resolved = faulted.timelines.contains_key(&p999_trace);
    let p99_events: Vec<&str> = faulted
        .timelines
        .get(&p99_trace)
        .map(|tl| tl.events.iter().map(|e| e.name).collect())
        .unwrap_or_default();
    let m1 = server.shutdown();
    assert_eq!(
        m1.terminal_outcomes(),
        m1.submitted,
        "faulted-phase accounting does not balance"
    );

    // ---- Phase 2: deadline pressure against the degrade ladder. ----
    // One worker, no injection: each 64-request burst drains serially,
    // so pick-up times sweep across the remaining deadline budget and
    // successive requests cross the full → reduced → confidence
    // decision windows one by one. The decision window is only ~2× the
    // single-image score cost wide, so the deadline is swept across a
    // small ladder to make the crossing robust to drain speed; the tail
    // of each burst past the deadline expires, which is the honest
    // price of the pressure. This is what populates the non-full rows
    // of the per-via breakdown.
    let deadlines_us: &[u64] = if quick { &[750] } else { &[500, 750, 1_000] };
    let per_deadline = pressured_requests / deadlines_us.len() as u64;
    let mut pressured_phases: Vec<SoakOut> = Vec::new();
    let mut m2_expired = 0u64;
    let mut m2_crashes = 0u64;
    let mut m2_rejected = 0u64;
    for &deadline_us in deadlines_us {
        let cfg2 = ServeConfig {
            workers: 1,
            queue_capacity: 64,
            deadline: Duration::from_micros(deadline_us),
            shutdown: ShutdownPolicy::Drain,
            reduced_taps: 1,
            breaker: None,
            faults: None,
        };
        let server2 = Server::start(Arc::clone(&validator), Arc::clone(&plan), cfg2);
        dv_trace::reset();
        let out = soak(&server2, &images, 64, per_deadline, 64);
        let m2 = server2.shutdown();
        assert_eq!(
            m2.terminal_outcomes(),
            m2.submitted,
            "pressured-phase accounting does not balance (deadline {deadline_us}us)"
        );
        m2_expired += m2.expired;
        m2_crashes += m2.worker_crashes;
        m2_rejected += m2.rejected_queue_full;
        pressured_phases.push(out);
    }
    let wall_s = t0.elapsed_secs_f64();

    // ---- The audit: per-request reconciliation. --------------------
    let mut totals = AuditTotals {
        vias: [
            ViaAgg::new("full_joint"),
            ViaAgg::new("reduced_taps"),
            ViaAgg::new("confidence_only"),
            ViaAgg::new("drift_degraded"),
        ],
        reconciled: 0,
        worst_gap_ns: 0,
    };
    audit_phase(&faulted, &mut totals);
    for phase in &pressured_phases {
        audit_phase(phase, &mut totals);
    }

    let requests = faulted_requests + per_deadline * deadlines_us.len() as u64;
    let submitted_total =
        faulted.submitted + pressured_phases.iter().map(|p| p.submitted).sum::<u64>();
    let audited_total = (faulted.audited.len()
        + pressured_phases
            .iter()
            .map(|p| p.audited.len())
            .sum::<usize>()) as u64;
    let failed = faulted.failed + pressured_phases.iter().map(|p| p.failed).sum::<u64>();
    let waves = faulted.waves + pressured_phases.iter().map(|p| p.waves).sum::<u64>();
    let pass_ratio = if audited_total == 0 {
        0.0
    } else {
        totals.reconciled as f64 / audited_total as f64
    };

    eprintln!(
        "audit: {} submitted, {} audited ({} failed terminally), {} reconciled \
         ({:.2}% exactly), worst gap {} ns, {} waves over {:.2}s",
        submitted_total,
        audited_total,
        failed,
        totals.reconciled,
        pass_ratio * 100.0,
        totals.worst_gap_ns,
        waves,
        wall_s,
    );
    for agg in &totals.vias {
        if agg.count == 0 {
            continue;
        }
        eprintln!(
            "  {:>15}: {:>5} reqs  queue {:>8.1}us  coalesce {:>8.1}us  score {:>8.1}us  \
             respond {:>6.1}us  (p50 {} / p99 {} us)",
            agg.label,
            agg.count,
            ViaAgg::mean_us(agg.queue_ns, agg.count),
            ViaAgg::mean_us(agg.coalesce_ns, agg.count),
            ViaAgg::mean_us(agg.score_ns, agg.count),
            ViaAgg::mean_us(agg.respond_ns, agg.count),
            agg.totals_us.quantile(0.50),
            agg.totals_us.quantile(0.99),
        );
    }
    eprintln!(
        "  p99 exemplar trace {p99_trace} resolved={p99_resolved} events={p99_events:?}; \
         p999 exemplar trace {p999_trace} resolved={p999_resolved}"
    );

    let mut json = format!("  \"requests\": {requests},\n");
    json.push_str(&format!("  \"faulted_requests\": {faulted_requests},\n"));
    json.push_str(&format!(
        "  \"pressured_requests\": {pressured_requests},\n"
    ));
    json.push_str(&format!("  \"submitted\": {submitted_total},\n"));
    json.push_str(&format!("  \"audited\": {audited_total},\n"));
    json.push_str(&format!("  \"failed_terminal\": {failed},\n"));
    json.push_str(&format!("  \"reconciled\": {},\n", totals.reconciled));
    json.push_str(&format!("  \"pass_ratio\": {pass_ratio:.5},\n"));
    json.push_str(&format!("  \"worst_gap_ns\": {},\n", totals.worst_gap_ns));
    json.push_str(&format!("  \"waves\": {waves},\n"));
    json.push_str(&format!("  \"wall_s\": {wall_s:.3},\n"));
    json.push_str(&format!(
        "  \"worker_crashes\": {},\n",
        m1.worker_crashes + m2_crashes
    ));
    json.push_str(&format!("  \"expired\": {},\n", m1.expired + m2_expired));
    json.push_str(&format!(
        "  \"rejected_queue_full\": {},\n",
        m1.rejected_queue_full + m2_rejected
    ));
    json.push_str("  \"per_via\": [\n");
    let live: Vec<&ViaAgg> = totals.vias.iter().filter(|a| a.count > 0).collect();
    for (k, agg) in live.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"via\": \"{}\", \"count\": {}, \"queue_wait_us_mean\": {:.1}, \
             \"coalesce_wait_us_mean\": {:.1}, \"score_us_mean\": {:.1}, \
             \"respond_us_mean\": {:.1}, \"total_us_mean\": {:.1}, \
             \"total_us_p50\": {}, \"total_us_p99\": {}}}{}\n",
            agg.label,
            agg.count,
            ViaAgg::mean_us(agg.queue_ns, agg.count),
            ViaAgg::mean_us(agg.coalesce_ns, agg.count),
            ViaAgg::mean_us(agg.score_ns, agg.count),
            ViaAgg::mean_us(agg.respond_ns, agg.count),
            ViaAgg::mean_us(agg.total_ns, agg.count),
            agg.totals_us.quantile(0.50),
            agg.totals_us.quantile(0.99),
            if k + 1 < live.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"p99_exemplar_trace\": {p99_trace},\n"));
    json.push_str(&format!("  \"p99_exemplar_resolved\": {p99_resolved},\n"));
    json.push_str(&format!("  \"p999_exemplar_trace\": {p999_trace},\n"));
    json.push_str(&format!("  \"p999_exemplar_resolved\": {p999_resolved}\n"));
    dv_bench::artifact::write_bench(Path::new("."), "audit", quick, &json)
        .expect("cannot write BENCH_audit.json");

    // ---- Gates. ----------------------------------------------------
    assert!(
        audited_total * 2 >= requests,
        "fewer than half the soaked requests produced auditable responses \
         ({audited_total} of {requests})"
    );
    assert_eq!(
        totals.reconciled,
        audited_total,
        "latency attribution failed: {} of {} audited requests do not reconcile \
         segment sums with the reported wall time exactly (worst gap {} ns)",
        audited_total - totals.reconciled,
        audited_total,
        totals.worst_gap_ns
    );
    assert!(
        p99_resolved && p999_resolved,
        "tail exemplars must resolve to stitched timelines \
         (p99 {p99_trace}: {p99_resolved}, p999 {p999_trace}: {p999_resolved})"
    );
    // The crossing-the-ladder construction is probabilistic per wave;
    // over the full run's 400 pressured requests it is effectively
    // certain, but a 64-request --quick smoke only reports the mix.
    if !quick {
        assert!(
            totals.vias[1].count + totals.vias[2].count > 0,
            "pressured phase produced no degraded rungs — the per-via \
             breakdown is full-joint only"
        );
    }
}
