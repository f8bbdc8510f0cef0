//! Exporters: chrome://tracing JSON, flat metrics JSON, and per-stage
//! self-time totals.
//!
//! All exporters are pure functions over snapshots, so they can run in
//! any process state and are trivially testable. JSON is emitted by
//! hand — this crate is dependency-free — and kept to the subset the
//! chrome://tracing / Perfetto loaders and jq-style tooling consume.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::causal::stitch;
use crate::metric::{MetricValue, MetricsRegistry};
use crate::span::TraceSnapshot;

/// Serialises a [`TraceSnapshot`] in chrome://tracing "trace event"
/// format: one complete (`ph: "X"`) event per duration span, one
/// instant (`ph: "i"`) event per lifecycle event, one process, one
/// `tid` per thread lane, with thread-name metadata events so Perfetto
/// labels each lane with its Crew worker name. Timestamps are
/// microseconds from the trace epoch.
///
/// Request-scoped lifecycle events additionally emit chrome *flow*
/// events — `ph: "s"` at a trace's first event, `"t"` steps, and a
/// terminating `"f"` — keyed by `id` = the trace id, so the viewer
/// draws an arrow following each request across thread lanes.
#[must_use]
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(snap.span_count() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for lane in &snap.lanes {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            lane.lane,
            json_string(&lane.thread_name)
        );
        for s in &lane.spans {
            if s.is_event {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"cat\":\"dv\",\"name\":{},\"ts\":{},\"args\":{{\"seq\":{},\"trace\":{},\"parent\":{},\"arg\":{}}}}}",
                    lane.lane,
                    json_string(s.name),
                    micros(s.start_ns),
                    s.seq,
                    s.trace,
                    s.parent,
                    s.arg
                );
            } else {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"dv\",\"name\":{},\"ts\":{},\"dur\":{},\"args\":{{\"seq\":{},\"depth\":{}}}}}",
                    lane.lane,
                    json_string(s.name),
                    micros(s.start_ns),
                    micros(s.dur_ns),
                    s.seq,
                    s.depth
                );
            }
        }
    }
    for tl in stitch(snap) {
        if tl.events.len() < 2 {
            continue;
        }
        for (i, e) in tl.events.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i + 1 == tl.events.len() {
                "f"
            } else {
                "t"
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",{}\"pid\":1,\"tid\":{},\"cat\":\"dv.flow\",\"name\":\"dv.request\",\"id\":{},\"ts\":{}}}",
                if ph == "f" { "\"bp\":\"e\"," } else { "" },
                e.lane,
                tl.trace,
                micros(e.ts_ns)
            );
        }
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"dropped_spans\":{}}}}}",
        snap.dropped
    );
    out
}

/// Serialises a registry snapshot as one flat JSON object, keys sorted:
/// counters and gauges as numbers, histograms as `{count, sum, mean,
/// min, max, p50, p90, p95, p99, p999}` objects (`mean` is exact, the
/// quantiles interpolate within their bucket and clamp to min/max).
#[must_use]
pub fn metrics_json(reg: &MetricsRegistry) -> String {
    let entries = reg.snapshot();
    let mut out = String::with_capacity(entries.len() * 48 + 16);
    out.push_str("{\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(out, "  {}: ", json_string(e.name));
        match &e.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                    h.count, h.sum, h.mean(), h.min, h.max, h.p50, h.p90, h.p95, h.p99, h.p999
                );
            }
        }
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out
}

/// Aggregate time per span name, with self-time (time not covered by
/// child spans on the same lane).
#[derive(Debug, Clone)]
pub struct StageTotal {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub calls: u64,
    /// Total (inclusive) nanoseconds across those spans.
    pub total_ns: u64,
    /// Exclusive nanoseconds: total minus time covered by nested spans.
    pub self_ns: u64,
}

/// Folds a snapshot into per-name totals, sorted by self-time
/// descending.
///
/// Self-time is reconstructed per lane from span containment: spans are
/// scanned in start order with a stack; a span contained in the one
/// below it on the stack bills its duration against the parent's
/// self-time. Under a single root span the self-times of all stages sum
/// exactly to the root's inclusive time, so a per-stage table adds up
/// to the root's wall time (`crates/bench/tests/trace_partition.rs`).
#[must_use]
pub fn stage_totals(snap: &TraceSnapshot) -> Vec<StageTotal> {
    struct Frame<'a> {
        name: &'a str,
        end_ns: u64,
        dur_ns: u64,
        child_ns: u64,
    }
    /// Bills a popped frame's exclusive time into the totals map.
    fn fold<'a>(map: &mut BTreeMap<&'a str, (u64, u64, u64)>, f: Frame<'a>) {
        let e = map.entry(f.name).or_insert((0, 0, 0));
        e.2 += f.dur_ns.saturating_sub(f.child_ns);
    }
    // name -> (calls, total, self)
    let mut map: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for lane in &snap.lanes {
        let mut stack: Vec<Frame<'_>> = Vec::new();
        // Instant lifecycle events are identity markers, not time: they
        // must not perturb the self-time partition invariant.
        for s in lane.spans.iter().filter(|s| !s.is_event) {
            while let Some(top) = stack.last() {
                if s.start_ns >= top.end_ns {
                    let f = stack.pop().expect("stack.last() was Some");
                    fold(&mut map, f);
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += s.dur_ns;
            }
            let e = map.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
            stack.push(Frame {
                name: s.name,
                end_ns: s.start_ns.saturating_add(s.dur_ns),
                dur_ns: s.dur_ns,
                child_ns: 0,
            });
        }
        while let Some(f) = stack.pop() {
            fold(&mut map, f);
        }
    }
    let mut out: Vec<StageTotal> = map
        .into_iter()
        .map(|(name, (calls, total_ns, self_ns))| StageTotal {
            name: name.to_string(),
            calls,
            total_ns,
            self_ns,
        })
        .collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    out
}

/// Nanoseconds rendered as microseconds with sub-ns digits preserved.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{LaneSnapshot, SpanRecord};

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, depth: u32, seq: u64) -> SpanRecord {
        SpanRecord {
            name,
            seq,
            depth,
            start_ns,
            dur_ns,
            trace: 0,
            parent: 0,
            arg: 0,
            is_event: false,
        }
    }

    fn event(name: &'static str, ts_ns: u64, seq: u64, trace: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            name,
            seq,
            depth: 0,
            start_ns: ts_ns,
            dur_ns: 0,
            trace,
            parent,
            arg: 0,
            is_event: true,
        }
    }

    fn snap(spans: Vec<SpanRecord>) -> TraceSnapshot {
        TraceSnapshot {
            lanes: vec![LaneSnapshot {
                lane: 0,
                thread_name: "main".to_string(),
                spans,
            }],
            dropped: 0,
        }
    }

    #[test]
    fn stage_totals_self_time_sums_to_root() {
        // root [0, 1000); child a [100, 400); child b [500, 800);
        // grandchild c inside a [200, 300).
        let s = snap(vec![
            span("root", 0, 1000, 0, 3),
            span("a", 100, 300, 1, 1),
            span("c", 200, 100, 2, 0),
            span("b", 500, 300, 1, 2),
        ]);
        let totals = stage_totals(&s);
        let get = |n: &str| {
            totals
                .iter()
                .find(|t| t.name == n)
                .unwrap_or_else(|| panic!("missing stage {n}"))
                .clone()
        };
        assert_eq!(get("root").total_ns, 1000);
        assert_eq!(get("root").self_ns, 1000 - 300 - 300);
        assert_eq!(get("a").self_ns, 300 - 100);
        assert_eq!(get("c").self_ns, 100);
        assert_eq!(get("b").self_ns, 300);
        let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 1000, "self-times partition the root span");
    }

    #[test]
    fn stage_totals_aggregates_repeated_names() {
        let s = snap(vec![
            span("root", 0, 100, 0, 2),
            span("step", 0, 30, 1, 0),
            span("step", 40, 30, 1, 1),
        ]);
        let totals = stage_totals(&s);
        let step = totals
            .iter()
            .find(|t| t.name == "step")
            .expect("step stage must exist");
        assert_eq!(step.calls, 2);
        assert_eq!(step.total_ns, 60);
        assert_eq!(step.self_ns, 60);
    }

    #[test]
    fn chrome_trace_is_balanced_and_names_escaped() {
        let mut s = snap(vec![span("matmul", 1500, 2500, 0, 0)]);
        s.lanes[0].thread_name = "crew \"0\"\n".to_string();
        let json = chrome_trace_json(&s);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"name\":\"matmul\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("crew \\\"0\\\"\\n"));
        assert!(json.contains("\"dropped_spans\":0"));
    }

    #[test]
    fn instant_events_export_as_i_phase_with_flow_arrows() {
        // Trace 5's three events span two lanes; the flow triple must be
        // s → t → f under one id, and the events ph:"i" with trace args.
        let s = TraceSnapshot {
            lanes: vec![
                LaneSnapshot {
                    lane: 0,
                    thread_name: "client".to_string(),
                    spans: vec![event("serve.enqueued", 100, 1, 5, 0)],
                },
                LaneSnapshot {
                    lane: 3,
                    thread_name: "worker".to_string(),
                    spans: vec![
                        event("serve.dequeued", 300, 2, 5, 2),
                        event("serve.responded", 900, 3, 5, 3),
                        span("serve.batch", 300, 600, 0, 4),
                    ],
                },
            ],
            dropped: 0,
        };
        let json = chrome_trace_json(&s);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert_eq!(json.matches("\"id\":5").count(), 3, "flow keyed by trace");
        assert!(json.contains("\"trace\":5"));
        // Events must not disturb the duration-span self-time partition.
        let totals = stage_totals(&s);
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].name, "serve.batch");
        assert_eq!(totals[0].self_ns, 600);
    }

    #[test]
    fn single_event_traces_emit_no_dangling_flow() {
        let s = snap(vec![event("serve.enqueued", 10, 0, 9, 0)]);
        let json = chrome_trace_json(&s);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(!json.contains("\"ph\":\"s\""), "no flow start without end");
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn metrics_json_is_flat_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("z.count").add(7);
        reg.gauge("a.depth").set(3);
        reg.histogram("m.lat").record(10);
        let json = metrics_json(&reg);
        let a = json.find("\"a.depth\": 3").expect("gauge line");
        let m = json.find("\"m.lat\"").expect("histogram line");
        let z = json.find("\"z.count\": 7").expect("counter line");
        assert!(a < m && m < z, "keys must be sorted:\n{json}");
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p50\":10"));
    }
}
