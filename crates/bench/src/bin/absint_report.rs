//! Abstract-interpretation benchmark: certified grid-search pruning and
//! the certified-bounds detector vs the OCSVM joint validator. Writes
//! `BENCH_absint.json` and `METRICS.json` (the global registry with the
//! `absint.*` pruning counters).
//!
//! Phase A — pruned grid search. On a trained 6x6 two-class conv
//! fixture, every pixel-value search space (brightness, contrast,
//! complement) runs twice: the full walk of
//! `dv_eval::search::grid_search_with_plan` and the certified walk of
//! `dv_eval::pruned::pruned_grid_search_with_plan`. The outcomes must be
//! bit-identical. A second sweep shrinks the brightness cell width to
//! chart prune rate against the interval bound width `dv-absint`
//! propagates to the logits — the finer the cells, the tighter the
//! bounds and the more of the grid is certified away.
//!
//! Phase B — the Table VI workload. The synth-digits experiment
//! pipeline (train, corner-case search, evaluation set) scores clean
//! images and successful corner cases through both the OCSVM joint
//! validator and [`dv_detectors::BoundsDetector`] calibrated on the same
//! validated taps, reporting ROC-AUC side by side.
//!
//! `--quick` shrinks the sweep and switches the pipeline to the DV_FAST
//! size profile for the CI smoke run; the bit-identity and
//! cells-pruned assertions hold in both modes.

use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_detectors::{BoundsDetector, Detector};
use dv_eval::pruned::{pruned_grid_search_with_plan, PruneStats};
use dv_eval::roc_auc;
use dv_eval::search::{grid_search_with_plan, SearchOutcome, SearchSpace};
use dv_imgops::{brightness_interval, Transform, TransformKind};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TARGET_RATE: f32 = 0.6;
const MIN_RATE: f32 = 0.3;

/// Two-class bright/dark 6x6 conv fixture (the certified-bounds
/// detector's unit fixture, retrained here): dark images are class 0,
/// bright class 1, so brightness breaks it and tiny biases do not.
fn fixture(seed: u64) -> (Network, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[1, 6, 6]);
    net.push(Conv2d::new(&mut rng, 1, 3, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push_probe(Dense::new(&mut rng, 12, 2));
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..48 {
        let bright = i % 2 == 1;
        let base = if bright { 0.8 } else { 0.2 };
        let data: Vec<f32> = (0..36).map(|_| base + 0.1 * rng.gen::<f32>()).collect();
        images.push(Tensor::from_vec(data, &[1, 6, 6]));
        labels.push(usize::from(bright));
    }
    let mut opt = dv_nn::optim::Sgd::new(0.5, 0.9);
    let cfg = dv_nn::train::TrainConfig {
        epochs: 30,
        batch_size: 8,
    };
    dv_nn::train::fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
    (net, images, labels)
}

/// Correctly classified dark-class seeds (brightening flips them).
fn dark_seeds(
    plan: &InferencePlan,
    images: &[Tensor],
    labels: &[usize],
) -> (Vec<Tensor>, Vec<usize>) {
    let mut ws = Workspace::new();
    let mut seeds = Vec::new();
    let mut seed_labels = Vec::new();
    for (img, &l) in images.iter().zip(labels) {
        if l == 0 && plan.classify(img, &mut ws).0 == 0 {
            seeds.push(img.clone());
            seed_labels.push(0);
        }
    }
    (seeds, seed_labels)
}

fn outcomes_identical(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    a.kind == b.kind
        && a.chosen == b.chosen
        && a.success_rate.to_bits() == b.success_rate.to_bits()
        && a.mean_confidence.to_bits() == b.mean_confidence.to_bits()
}

struct Comparison {
    label: String,
    cells: usize,
    full_ms: f64,
    pruned_ms: f64,
    stats: PruneStats,
    identical: bool,
    /// Mean interval width of the logits bounds over the first cell's
    /// region on the first seed (how much the box grows through the net).
    logit_width: f64,
}

/// Runs a space both ways and measures.
fn compare(
    plan: &dv_nn::InferencePlan,
    seeds: &[Tensor],
    seed_labels: &[usize],
    space: &SearchSpace,
    label: &str,
) -> Comparison {
    let t_full = dv_trace::Stopwatch::start();
    let full = grid_search_with_plan(plan, seeds, seed_labels, space, TARGET_RATE, MIN_RATE);
    let full_ms = t_full.elapsed_secs_f64() * 1e3;
    let t_pruned = dv_trace::Stopwatch::start();
    let (pruned, stats) =
        pruned_grid_search_with_plan(plan, seeds, seed_labels, space, TARGET_RATE, MIN_RATE);
    let pruned_ms = t_pruned.elapsed_secs_f64() * 1e3;

    // Bound growth of the first cell: identity -> first grid point.
    let logit_width = match space.steps().first() {
        Some(Transform::Brightness { beta }) => {
            let b = brightness_interval(&seeds[0], 0.0f32.min(*beta), 0.0f32.max(*beta));
            dv_absint::propagate(plan, &b.lo, &b.hi).logits.mean_width()
        }
        _ => {
            let point: Vec<f32> = seeds[0].data().to_vec();
            dv_absint::propagate(plan, &point, &point)
                .logits
                .mean_width()
        }
    };

    eprintln!(
        "  {label:<18} cells {:>3} pruned {:>3} evals saved {:>5} | full {:>8.2}ms pruned {:>8.2}ms | identical {}",
        stats.cells_total,
        stats.cells_pruned,
        stats.seed_evals_saved,
        full_ms,
        pruned_ms,
        outcomes_identical(&full, &pruned),
    );
    Comparison {
        label: label.to_owned(),
        cells: stats.cells_total,
        full_ms,
        pruned_ms,
        stats,
        identical: outcomes_identical(&full, &pruned),
        logit_width,
    }
}

/// Brightness grid covering `[0, span]` in cells of width `step`.
fn fine_brightness(step: f32, span: f32) -> SearchSpace {
    let n = (span / step).round() as usize;
    SearchSpace::new(
        TransformKind::Brightness,
        (1..=n.max(1))
            .map(|i| Transform::Brightness {
                beta: i as f32 * step,
            })
            .collect(),
    )
}

struct DetectorPhase {
    taps: usize,
    clean: usize,
    sccs: usize,
    auc_joint: f64,
    auc_bounds: f64,
    per_kind: Vec<(String, usize, f64, f64)>,
}

/// Phase B: the synth-digits Table VI workload, scored by the OCSVM
/// joint validator and the certified-bounds detector on the same taps.
fn detector_phase() -> DetectorPhase {
    let mut exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let outcomes = exp.search_corner_cases();
    let eval_set = exp.build_eval_set(&outcomes);
    let validator = exp.fit_validator();
    let taps = validator.validated_probes().to_vec();
    let plan = &exp.plan;

    eprintln!(
        "[detector] calibrating certified boxes on {} taps, {} training images",
        taps.len(),
        exp.dataset.train.images.len()
    );
    let mut bounds = BoundsDetector::fit(
        plan,
        &exp.dataset.train.images,
        &exp.dataset.train.labels,
        &taps,
        0.05,
    );

    let mut ws = Workspace::new();
    let clean_joint: Vec<f32> = validator
        .discrepancies_with_plan(plan, &eval_set.clean)
        .iter()
        .map(|r| r.joint)
        .collect();
    let clean_bounds: Vec<f32> = eval_set
        .clean
        .iter()
        .map(|img| bounds.score(&mut exp.net, plan, &mut ws, img))
        .collect();

    // Score every successful corner case through both detectors.
    let mut scc_joint: Vec<f32> = Vec::new();
    let mut scc_bounds: Vec<f32> = Vec::new();
    let mut kinds: Vec<TransformKind> = Vec::new();
    for c in eval_set.corner.iter().filter(|c| c.successful) {
        scc_joint
            .push(validator.discrepancies_with_plan(plan, std::slice::from_ref(&c.image))[0].joint);
        scc_bounds.push(bounds.score(&mut exp.net, plan, &mut ws, &c.image));
        kinds.push(c.kind);
    }
    assert!(!scc_joint.is_empty(), "the workload produced no SCCs");

    let auc_joint = roc_auc(&clean_joint, &scc_joint);
    let auc_bounds = roc_auc(&clean_bounds, &scc_bounds);

    let mut per_kind = Vec::new();
    for kind in eval_set.kinds() {
        let j: Vec<f32> = kinds
            .iter()
            .zip(&scc_joint)
            .filter(|(k, _)| **k == kind)
            .map(|(_, &s)| s)
            .collect();
        let b: Vec<f32> = kinds
            .iter()
            .zip(&scc_bounds)
            .filter(|(k, _)| **k == kind)
            .map(|(_, &s)| s)
            .collect();
        if j.is_empty() {
            continue;
        }
        per_kind.push((
            kind.label().to_owned(),
            j.len(),
            roc_auc(&clean_joint, &j),
            roc_auc(&clean_bounds, &b),
        ));
    }
    DetectorPhase {
        taps: taps.len(),
        clean: eval_set.clean.len(),
        sccs: scc_joint.len(),
        auc_joint,
        auc_bounds,
        per_kind,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        // The detector phase rides the experiment pipeline; the fast
        // size profile keeps the CI smoke run under a minute.
        std::env::set_var("DV_FAST", "1");
    }

    eprintln!("phase A: certified grid-search pruning");
    let (net, images, labels) = fixture(3);
    let plan = net.plan();
    let (seeds, seed_labels) = dark_seeds(&plan, &images, &labels);
    assert!(seeds.len() >= 10, "fixture must classify dark seeds");

    let mut comparisons: Vec<Comparison> = Vec::new();
    for space in [
        SearchSpace::brightness(),
        SearchSpace::contrast(),
        SearchSpace::complement(),
    ] {
        let label = format!("catalogue/{}", space.kind());
        comparisons.push(compare(&plan, &seeds, &seed_labels, &space, &label));
    }

    let widths: &[f32] = if quick {
        &[0.005, 0.02, 0.05]
    } else {
        &[0.0025, 0.005, 0.01, 0.02, 0.05]
    };
    let span = 0.2f32;
    let mut sweep: Vec<Comparison> = Vec::new();
    for &w in widths {
        let space = fine_brightness(w, span);
        let label = format!("sweep/step={w}");
        sweep.push(compare(&plan, &seeds, &seed_labels, &space, &label));
    }

    eprintln!("phase B: certified-bounds detector vs OCSVM joint validator");
    let det = detector_phase();
    eprintln!(
        "[detector] overall AUC: joint {:.4} bounds {:.4} ({} clean / {} SCCs)",
        det.auc_joint, det.auc_bounds, det.clean, det.sccs
    );

    let all = comparisons.iter().chain(&sweep);
    let total_pruned: usize = all.clone().map(|c| c.stats.cells_pruned).sum();
    let all_identical = all.clone().all(|c| c.identical);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"total_cells_pruned\": {total_pruned},\n"));
    json.push_str(&format!("  \"all_identical\": {all_identical},\n"));
    json.push_str("  \"pruning\": [\n");
    let items: Vec<&Comparison> = comparisons.iter().chain(&sweep).collect();
    for (i, c) in items.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"cells_pruned\": {}, \"cells_kept\": {}, \
             \"seeds_certified\": {}, \"seed_evals_saved\": {}, \"prune_rate\": {:.4}, \
             \"logit_bound_width\": {:.6}, \"full_ms\": {:.3}, \"pruned_ms\": {:.3}, \
             \"identical\": {}}}{}\n",
            c.label,
            c.cells,
            c.stats.cells_pruned,
            c.stats.cells_kept,
            c.stats.seeds_certified,
            c.stats.seed_evals_saved,
            c.stats.prune_rate(),
            c.logit_width,
            c.full_ms,
            c.pruned_ms,
            c.identical,
            if i + 1 < items.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"detector\": {\n");
    json.push_str("    \"dataset\": \"synth-digits\",\n");
    json.push_str(&format!("    \"taps\": {},\n", det.taps));
    json.push_str(&format!("    \"clean\": {},\n", det.clean));
    json.push_str(&format!("    \"sccs\": {},\n", det.sccs));
    json.push_str(&format!("    \"auc_joint_ocsvm\": {:.6},\n", det.auc_joint));
    json.push_str(&format!("    \"auc_bounds\": {:.6},\n", det.auc_bounds));
    json.push_str("    \"per_kind\": [\n");
    for (i, (kind, n, j, b)) in det.per_kind.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"kind\": \"{kind}\", \"sccs\": {n}, \"auc_joint_ocsvm\": {j:.6}, \
             \"auc_bounds\": {b:.6}}}{}\n",
            if i + 1 < det.per_kind.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write("BENCH_absint.json", &json).expect("cannot write BENCH_absint.json");
    std::fs::write("METRICS.json", dv_trace::metrics_json(dv_trace::global()))
        .expect("cannot write METRICS.json");
    println!("{json}");
    eprintln!("wrote BENCH_absint.json, METRICS.json");

    assert!(all_identical, "pruned search diverged from the full walk");
    assert!(total_pruned > 0, "the sweep must certify at least one cell");
    assert_eq!(
        dv_trace::global().counter("absint.cells_pruned").get(),
        total_pruned as u64,
        "registry counter must match the reported prune total"
    );
    assert!(
        det.auc_joint > 0.55 && det.auc_joint <= 1.0,
        "joint validator must separate SCCs from clean ({})",
        det.auc_joint
    );
    assert!(
        (0.0..=1.0).contains(&det.auc_bounds),
        "bounds AUC out of range ({})",
        det.auc_bounds
    );
}
