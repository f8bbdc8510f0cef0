//! End-to-end tracing smoke benchmark: scores a batch through the full
//! pipeline under one root span and exports everything dv-trace can
//! produce:
//!
//! - `trace.json` — chrome://tracing / Perfetto timeline, one lane per
//!   thread;
//! - `METRICS.json` — flat snapshot of the global metrics registry;
//! - `BENCH_trace.json` — per-stage self-time table plus the per-tap
//!   discrepancy telemetry.
//!
//! Because every scored span nests under the single `bench.batch` root,
//! the per-stage self-times partition the root exactly; the binary
//! asserts that partition lands within 5% of the stopwatch wall time,
//! which is the acceptance gate for the instrumentation (spans that
//! overlapped wrongly or dropped on the floor would break the sum).
//!
//! Requires the `trace` feature: `cargo run --release -p dv-bench
//! --bin trace_report --features trace`.

use dv_bench::models::stripe_fixture;
use dv_core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use dv_runtime::Pool;

fn main() {
    if !dv_trace::tracing_enabled() {
        eprintln!(
            "trace_report needs span recording compiled in; rerun with \
             `cargo run --release -p dv-bench --bin trace_report --features trace`"
        );
        std::process::exit(2);
    }

    let (net, images, labels) = stripe_fixture();
    let validator = Pool::new(1).install(|| {
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
            .expect("validator fit failed")
    });
    let plan = net.plan();

    // Drop the spans recorded during training so the timeline and the
    // stage table cover exactly the scored batch under one root.
    dv_trace::reset();

    let reg = dv_trace::global();
    let images_scored = reg.counter("bench.images_scored");
    let score_us = reg.histogram("bench.score_us");
    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    let pool = Pool::new(1);
    let wall = dv_trace::Stopwatch::start();
    pool.install(|| {
        dv_trace::span!("bench.batch");
        for img in &images {
            let t = dv_trace::Stopwatch::start();
            validator
                .score_into(&plan, img, &mut sw, &mut per_layer)
                .expect("fixture images are well-formed");
            score_us.record(t.elapsed_us());
            images_scored.inc();
        }
    });
    let wall_ns = wall.elapsed_ns();

    let snap = dv_trace::snapshot();
    let totals = dv_trace::stage_totals(&snap);
    let taps = dv_trace::discrepancy_summary();

    let root = totals
        .iter()
        .find(|t| t.name == "bench.batch")
        .expect("root span must be recorded");
    let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();

    println!(
        "{} spans on {} lane(s), {} dropped; wall {:.3} ms",
        snap.span_count(),
        snap.lanes.len(),
        snap.dropped,
        wall_ns as f64 / 1e6
    );
    println!(
        "{:<24} {:>7} {:>12} {:>12} {:>7}",
        "stage", "calls", "total_us", "self_us", "self%"
    );
    for t in &totals {
        println!(
            "{:<24} {:>7} {:>12.1} {:>12.1} {:>6.1}%",
            t.name,
            t.calls,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3,
            100.0 * t.self_ns as f64 / root.total_ns.max(1) as f64
        );
    }
    if !taps.is_empty() {
        println!("\nper-tap discrepancy telemetry:");
        for t in &taps {
            println!(
                "  tap {:<2} count {:>5}  mean {:>9.4}  var {:>9.4}  max {:>9.4}",
                t.tap, t.count, t.mean, t.variance, t.max
            );
        }
    }

    let trace_json = dv_trace::chrome_trace_json(&snap);
    std::fs::write("trace.json", &trace_json).expect("cannot write trace.json");
    std::fs::write("METRICS.json", dv_trace::metrics_json(reg)).expect("cannot write METRICS.json");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"images\": {},\n", images.len()));
    json.push_str(&format!(
        "  \"classes\": {},\n",
        labels.iter().max().map_or(0, |m| m + 1)
    ));
    json.push_str(&format!("  \"wall_us\": {:.1},\n", wall_ns as f64 / 1e3));
    json.push_str(&format!(
        "  \"root_total_us\": {:.1},\n",
        root.total_ns as f64 / 1e3
    ));
    json.push_str(&format!(
        "  \"self_sum_us\": {:.1},\n",
        self_sum as f64 / 1e3
    ));
    json.push_str(&format!("  \"span_count\": {},\n", snap.span_count()));
    json.push_str(&format!("  \"dropped_spans\": {},\n", snap.dropped));
    json.push_str("  \"stages\": [\n");
    for (i, t) in totals.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"calls\": {}, \"total_us\": {:.1}, \"self_us\": {:.1}}}{}\n",
            t.name,
            t.calls,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3,
            if i + 1 < totals.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"taps\": [\n");
    for (i, t) in taps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tap\": {}, \"count\": {}, \"mean\": {:.6}, \"variance\": {:.6}, \"max\": {:.6}}}{}\n",
            t.tap,
            t.count,
            t.mean,
            t.variance,
            t.max,
            if i + 1 < taps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_trace.json", &json).expect("cannot write BENCH_trace.json");
    println!("{json}");
    eprintln!("wrote trace.json, METRICS.json, BENCH_trace.json");

    // Acceptance gates.
    assert_eq!(snap.dropped, 0, "ring buffers overflowed; raise RING_CAP");
    assert_eq!(
        self_sum, root.total_ns,
        "stage self-times must partition the root span exactly"
    );
    let drift = wall_ns.abs_diff(self_sum) as f64 / wall_ns.max(1) as f64;
    assert!(
        drift <= 0.05,
        "per-stage totals ({:.1} us) drift {:.1}% from wall time ({:.1} us)",
        self_sum as f64 / 1e3,
        drift * 100.0,
        wall_ns as f64 / 1e3
    );
    assert_eq!(images_scored.get(), images.len() as u64);
    assert!(
        taps.iter().any(|t| t.count >= images.len() as u64),
        "discrepancy telemetry must cover the batch"
    );
    assert!(
        trace_json.matches('{').count() == trace_json.matches('}').count(),
        "trace.json braces unbalanced"
    );
    eprintln!("trace_report OK: self-time sum within 5% of wall");
}
