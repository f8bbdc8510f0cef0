//! Metric catalogue, the result line, and provenance.
//!
//! The names here are the benchmark's contract with `BENCHMARK.json`;
//! a test checks that the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names.
pub const WORKLOADS: &[&str] = &["serve_steady", "campaign"];

/// End-to-end metrics `(name, unit)`, printed by every plain run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("goodput_rps", "req/s"),
    ("full_joint_frac", "ratio"),
    ("campaign_s", "s"),
    ("campaign_auc", "AUC"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.degraded", "count"),
    ("serve.fail_frac", "ratio"),
    ("serve.seg.queue_wait_us", "us"),
    ("serve.seg.coalesce_wait_us", "us"),
    ("serve.seg.score_us", "us"),
    ("serve.seg.respond_us", "us"),
    ("core.score_into_us", "us"),
    ("core.score_into_clean_us", "us"),
    ("core.score_into_corner_us", "us"),
    ("core.tap_us", "us"),
    ("core.score_batch8_us_per_img", "us"),
    ("core.fit_s", "s"),
    ("core.discrepancies_us_per_img", "us"),
    ("nn.forward_probed_us", "us"),
    ("nn.forward_flat8_us_per_img", "us"),
    ("nn.classify_us", "us"),
    ("nn.train_s", "s"),
    ("tensor.conv_gemm_self_us_per_img", "us"),
    ("tensor.matmul_nt_self_us_per_img", "us"),
    ("tensor.gemm_calls_per_img", "count"),
    ("tensor.gemm_small_frac", "ratio"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("ocsvm.decision_self_us_per_img", "us"),
    ("ocsvm.gram_self_ms", "ms"),
    ("imgops.apply_us_per_img", "us"),
    ("eval.search_s", "s"),
    ("eval.steps_walked", "count"),
    ("eval.seed_evals", "count"),
    ("runtime.busy_frac", "ratio"),
    ("runtime.steals", "count"),
    ("datasets.generate_s", "s"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.offered_rps", "req/s"),
    ("trace.latency_p50_us", "us"),
    ("trace.campaign_s", "s"),
];

/// One run's result: the line the benchmark's caller reads.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of `catalogue`, in catalogue order. A metric
    /// that is missing or not finite makes the run incorrect (and is
    /// printed as 0 so the line stays valid JSON).
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut correct = self.correct;
        let mut line = String::from("{");
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    eprintln!("metric {name} missing or not finite");
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = write!(
            line,
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        line
    }
}

/// A flat JSON object built field by field (provenance records).
#[derive(Default)]
pub struct JsonObject(Vec<(String, String)>);

impl JsonObject {
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.0.push((key.to_owned(), format!("\"{escaped}\"")));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((key.to_owned(), format!("{v}")));
        self
    }

    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_owned(), json));
        self
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The commit the working tree was checked out at, read from `.git`
/// in the current directory (no git process, nothing above the
/// checkout). "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Process high-water resident set size, MB (from `/proc`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
    }

    #[test]
    fn every_name_appears_in_benchmark_json() {
        let json = benchmark_json();
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares names the benchmark does not produce"
        );
    }

    #[test]
    fn result_line_lists_the_catalogue_and_flags_gaps() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 1.25);
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let line = out.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let gap = out.result_line(&[("setup_s", "s"), ("campaign_s", "s")]);
        assert!(gap.starts_with("{\"correct\": false"), "{gap}");
    }
}
