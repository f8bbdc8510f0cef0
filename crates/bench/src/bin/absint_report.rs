//! Certified-bounds detector benchmark: [`dv_detectors::BoundsDetector`]
//! against the OCSVM joint validator on the Table VI workload. The
//! synth-digits experiment pipeline (train, corner-case search,
//! evaluation set) scores clean images and successful corner cases
//! through both detectors, calibrated on the same validated taps, and
//! reports ROC-AUC side by side. Writes `BENCH_absint.json` into the
//! current directory; past its provenance the file holds AUCs and
//! counts only, so a rerun reproduces it byte for byte.

use std::path::Path;

use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_detectors::{BoundsDetector, Detector};
use dv_eval::roc_auc;
use dv_imgops::TransformKind;
use dv_tensor::Workspace;

fn main() {
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
    eprintln!(
        "[detector] overall AUC: joint {auc_joint:.4} bounds {auc_bounds:.4} ({} clean / {} SCCs)",
        eval_set.clean.len(),
        scc_joint.len()
    );

    let mut per_kind = Vec::new();
    for kind in eval_set.kinds() {
        let of_kind = |scores: &[f32]| -> Vec<f32> {
            kinds
                .iter()
                .zip(scores)
                .filter(|(k, _)| **k == kind)
                .map(|(_, &s)| s)
                .collect()
        };
        let (j, b) = (of_kind(&scc_joint), of_kind(&scc_bounds));
        if j.is_empty() {
            continue;
        }
        per_kind.push(format!(
            "      {{\"kind\": \"{}\", \"sccs\": {}, \"auc_joint_ocsvm\": {:.6}, \
             \"auc_bounds\": {:.6}}}",
            kind.label(),
            j.len(),
            roc_auc(&clean_joint, &j),
            roc_auc(&clean_bounds, &b),
        ));
    }

    let mut json = String::from("  \"detector\": {\n");
    json.push_str("    \"dataset\": \"synth-digits\",\n");
    json.push_str(&format!("    \"taps\": {},\n", taps.len()));
    json.push_str(&format!("    \"clean\": {},\n", eval_set.clean.len()));
    json.push_str(&format!("    \"sccs\": {},\n", scc_joint.len()));
    json.push_str(&format!("    \"auc_joint_ocsvm\": {auc_joint:.6},\n"));
    json.push_str(&format!("    \"auc_bounds\": {auc_bounds:.6},\n"));
    json.push_str("    \"per_kind\": [\n");
    json.push_str(&per_kind.join(",\n"));
    json.push_str("\n    ]\n");
    json.push_str("  }\n");
    dv_bench::artifact::write_bench(Path::new("."), "absint", false, &json)
        .expect("cannot write BENCH_absint.json");

    assert!(
        auc_joint > 0.55 && auc_joint <= 1.0,
        "joint validator must separate SCCs from clean ({auc_joint})"
    );
    assert!(
        auc_bounds > 0.55 && auc_bounds <= 1.0,
        "bounds detector must separate SCCs from clean ({auc_bounds})"
    );
}
