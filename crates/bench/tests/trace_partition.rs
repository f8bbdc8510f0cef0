//! A traced score partitions exactly into named stages.
//!
//! Every span of a batch scored under one `bench.batch` root nests in
//! that root, so the stages' self-times must add up to the root's total
//! to the nanosecond, and the root can last no longer than the wall
//! clock around it. The stage names checked here include every one the
//! repository benchmark's per-layer metrics match on (`ocsvm.gram` in
//! the fit, the rest in the scored batch), so renaming a span fails
//! this test instead of zeroing a metric.
//!
//! Runs only with span recording compiled in
//! (`cargo test --features dv-trace/trace`).

use dv_bench::soak::stripe_validator;
use dv_core::ScoreWorkspace;
use dv_runtime::Pool;

#[test]
fn stage_self_times_partition_the_root_span() {
    if !dv_trace::tracing_enabled() {
        return;
    }
    let (validator, plan, images) = stripe_validator();
    let fit = dv_trace::stage_totals(&dv_trace::snapshot());
    assert!(
        fit.iter().any(|t| t.name == "ocsvm.gram"),
        "ocsvm.gram missing from the fit's {:?}",
        fit.iter().map(|t| &t.name).collect::<Vec<_>>()
    );
    // Drop the spans recorded during the fit: the snapshot must hold
    // exactly the scored batch under its one root.
    dv_trace::reset();

    let mut sw = ScoreWorkspace::new();
    let mut per_layer = Vec::new();
    let wall = dv_trace::Stopwatch::start();
    Pool::new(1).install(|| {
        dv_trace::span!("bench.batch");
        for img in &images {
            validator
                .score_into(&plan, img, &mut sw, &mut per_layer)
                .expect("fixture images are well-formed");
        }
    });
    let wall_ns = wall.elapsed_ns();

    let snap = dv_trace::snapshot();
    assert_eq!(snap.dropped, 0, "ring buffers overflowed; raise RING_CAP");
    let totals = dv_trace::stage_totals(&snap);
    let root = totals
        .iter()
        .find(|t| t.name == "bench.batch")
        .expect("root span must be recorded");
    let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
    assert_eq!(
        self_sum, root.total_ns,
        "stage self-times must partition the root span exactly"
    );
    assert!(
        root.total_ns <= wall_ns,
        "root span ({} ns) outlasts the wall clock around it ({wall_ns} ns)",
        root.total_ns
    );
    for stage in [
        "core.score_into",
        "tensor.conv_gemm",
        "tensor.matmul_nt",
        "ocsvm.decision",
    ] {
        assert!(
            totals.iter().any(|t| t.name == stage),
            "{stage} missing from {:?}",
            totals.iter().map(|t| &t.name).collect::<Vec<_>>()
        );
    }
    let chrome = dv_trace::chrome_trace_json(&snap);
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "chrome trace braces unbalanced"
    );
}
