//! Reproduces **Table VI**: ROC-AUC of every single validator per layer,
//! the best transformation-specific single validator, and the joint
//! validator, for all eight corner-case kinds across the three datasets.

use dv_bench::Experiment;
use dv_core::ScoreWorkspace;
use dv_datasets::DatasetSpec;
use dv_eval::table::{fmt_score, TextTable};
use dv_eval::{roc_auc, EvaluationSet};
use dv_imgops::TransformKind;

fn main() {
    println!("== Table VI: ROC-AUC scores of Deep Validation ==\n");
    for spec in DatasetSpec::all() {
        run_dataset(spec);
    }
    println!("paper overall joint-validator AUCs: MNIST 0.9937, CIFAR-10 0.9805, SVHN 0.9506");
}

fn run_dataset(spec: DatasetSpec) {
    let exp = Experiment::prepare(spec);
    let outcomes = exp.search_corner_cases();
    let eval_set = exp.build_eval_set(&outcomes);
    let validator = exp.fit_validator();

    eprintln!(
        "[{}] scoring evaluation set ({} clean, {} corner cases, {} SCCs)...",
        spec.name(),
        eval_set.clean.len(),
        eval_set.corner.len(),
        eval_set.sccs().len()
    );

    // One discrepancy pass per image gives all single validators and the
    // joint validator at once.
    let clean_reports = validator.discrepancies_with_plan(&exp.plan, &eval_set.clean);
    let mut sw = ScoreWorkspace::new();
    let corner_reports: Vec<_> = eval_set
        .corner
        .iter()
        .map(|c| {
            validator
                .score(&exp.plan, &c.image, &mut sw)
                .expect("corner-case images are well-formed")
        })
        .collect();

    let layers = validator.num_validated_layers();
    let kinds: Vec<TransformKind> = eval_set.kinds();
    let mut headers = vec!["Validator".to_owned(), "Layer".to_owned()];
    headers.extend(kinds.iter().map(|k| k.label().to_owned()));
    headers.push("Overall".to_owned());
    let mut table = TextTable::new(headers.iter().map(String::as_str).collect());

    // Per-kind and overall AUC for an arbitrary score extractor.
    let auc_row =
        |score: &dyn Fn(usize) -> f32, clean: &[f32]| -> (Vec<Option<f64>>, Option<f64>) {
            let mut per_kind = Vec::new();
            for kind in &kinds {
                let pos: Vec<f32> = eval_set
                    .corner
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.successful && c.kind == *kind)
                    .map(|(i, _)| score(i))
                    .collect();
                per_kind.push(if pos.is_empty() {
                    None
                } else {
                    Some(roc_auc(clean, &pos))
                });
            }
            let all_pos: Vec<f32> = eval_set
                .corner
                .iter()
                .enumerate()
                .filter(|(_, c)| c.successful)
                .map(|(i, _)| score(i))
                .collect();
            let overall = if all_pos.is_empty() {
                None
            } else {
                Some(roc_auc(clean, &all_pos))
            };
            (per_kind, overall)
        };

    let mut best_per_kind: Vec<Option<f64>> = vec![None; kinds.len()];
    let mut best_overall_single: Option<f64> = None;
    for layer in 0..layers {
        let clean: Vec<f32> = clean_reports.iter().map(|r| r.per_layer[layer]).collect();
        let score = |i: usize| corner_reports[i].per_layer[layer];
        let (per_kind, overall) = auc_row(&score, &clean);
        for (slot, v) in best_per_kind.iter_mut().zip(&per_kind) {
            if let Some(v) = v {
                if slot.is_none_or(|s| *v > s) {
                    *slot = Some(*v);
                }
            }
        }
        if let Some(o) = overall {
            if best_overall_single.is_none_or(|s| o > s) {
                best_overall_single = Some(o);
            }
        }
        let mut cells = vec!["Single Validator".to_owned(), (layer + 1).to_string()];
        cells.extend(per_kind.iter().map(|v| fmt_score(*v)));
        cells.push(fmt_score(overall));
        table.row(cells);
    }

    let mut cells = vec![
        "Best Transformation-specific Single Validator".to_owned(),
        String::new(),
    ];
    cells.extend(best_per_kind.iter().map(|v| fmt_score(*v)));
    cells.push(fmt_score(best_overall_single));
    table.row(cells);

    let clean_joint: Vec<f32> = clean_reports.iter().map(|r| r.joint).collect();
    let joint_score = |i: usize| corner_reports[i].joint;
    let (joint_per_kind, joint_overall) = auc_row(&joint_score, &clean_joint);
    let mut cells = vec!["Joint Validator".to_owned(), String::new()];
    cells.extend(joint_per_kind.iter().map(|v| fmt_score(*v)));
    cells.push(fmt_score(joint_overall));
    table.row(cells);

    println!(
        "--- {} (stands in for {}) ---",
        spec.name(),
        spec.stands_in_for()
    );
    println!("{}", table.render());

    // Detection-rate summary the paper quotes in prose ("when constraining
    // the overall FPR to ~3%/7%/11%...").
    let fpr_budget = match spec {
        DatasetSpec::SynthDigits => 0.03,
        DatasetSpec::SynthObjects => 0.07,
        DatasetSpec::SynthStreetDigits => 0.11,
    };
    let threshold = dv_eval::threshold_at_fpr(&clean_joint, fpr_budget);
    let scc_scores: Vec<f32> = scc_joint_scores(&eval_set, &corner_reports);
    if !scc_scores.is_empty() {
        println!(
            "joint validator at FPR {:.2}: detection rate {:.4} on SCCs\n",
            fpr_budget,
            dv_eval::detection_rate(&scc_scores, threshold)
        );
    }
}

fn scc_joint_scores(
    eval_set: &EvaluationSet,
    corner_reports: &[dv_core::DiscrepancyReport],
) -> Vec<f32> {
    eval_set
        .corner
        .iter()
        .zip(corner_reports)
        .filter(|(c, _)| c.successful)
        .map(|(_, r)| r.joint)
        .collect()
}
