//! Ablations beyond the paper's tables, covering the knobs the paper
//! points at but does not evaluate:
//!
//! 1. the dependability/efficiency trade-off of Section VI — joint AUC
//!    and per-query cost vs how many rear layers are validated;
//! 2. the weighted joint validator suggested in Section IV-D3
//!    (per-layer z-scoring against clean data) vs the plain sum;
//! 3. the OCSVM ν parameter;
//! 4. the feature-reduction budget (`max_spatial`);
//! 5. the max-confidence baseline the paper's premise dismisses.

use dv_bench::Experiment;
use dv_core::{
    DeepValidator, DiscrepancyReport, JointCalibration, LayerSelection, ScoreWorkspace,
    ValidatorConfig,
};
use dv_datasets::DatasetSpec;
use dv_detectors::{Detector, MaxConfidence};
use dv_eval::roc_auc;
use dv_eval::table::TextTable;
use dv_tensor::Tensor;

fn main() {
    println!("== Ablations (digit model) ==\n");
    let mut exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let outcomes = exp.search_corner_cases();
    let eval_set = exp.build_eval_set(&outcomes);
    let sccs: Vec<Tensor> = eval_set
        .sccs()
        .into_iter()
        .map(|c| c.image.clone())
        .collect();
    let clean: Vec<Tensor> = eval_set.clean.clone();
    // Calibration uses clean images disjoint from the scored negatives.
    let calib_clean: Vec<Tensor> = exp.dataset.test.images[300..400].to_vec();
    eprintln!("{} clean vs {} SCCs", clean.len(), sccs.len());

    // --- 1 & 3 & 4: validator configuration sweeps --------------------
    println!("--- validated-layer count (Section VI trade-off), nu, max_spatial ---");
    let mut table = TextTable::new(vec![
        "Config",
        "AUC (joint)",
        "AUC (calibrated)",
        "fit (s)",
        "query (ms)",
    ]);
    let mut configs: Vec<(String, ValidatorConfig)> = Vec::new();
    for k in [1usize, 2, 4, 6] {
        configs.push((
            format!("LastK({k})"),
            ValidatorConfig {
                layers: LayerSelection::LastK(k),
                ..ValidatorConfig::default()
            },
        ));
    }
    for nu in [0.05f64, 0.2] {
        configs.push((
            format!("LastK(6), nu={nu}"),
            ValidatorConfig {
                layers: LayerSelection::LastK(6),
                nu,
                ..ValidatorConfig::default()
            },
        ));
    }
    for ms in [1usize, 2] {
        configs.push((
            format!("LastK(6), max_spatial={ms}"),
            ValidatorConfig {
                layers: LayerSelection::LastK(6),
                max_spatial: ms,
                ..ValidatorConfig::default()
            },
        ));
    }
    for (label, config) in configs {
        let t0 = dv_trace::Stopwatch::start();
        let validator = DeepValidator::fit(
            &exp.net,
            &exp.dataset.train.images,
            &exp.dataset.train.labels,
            &config,
        )
        .expect("fit failed");
        let fit_secs = t0.elapsed_secs_f64();

        let mut sw = ScoreWorkspace::new();
        let mut score = |img: &Tensor| {
            validator
                .score(&exp.plan, img, &mut sw)
                .expect("eval images are well-formed")
        };
        let t1 = dv_trace::Stopwatch::start();
        let neg: Vec<DiscrepancyReport> = clean.iter().map(&mut score).collect();
        let query_ms = t1.elapsed_secs_f64() * 1000.0 / clean.len() as f64;
        let pos: Vec<DiscrepancyReport> = sccs.iter().map(&mut score).collect();
        let joint = |reports: &[DiscrepancyReport]| -> Vec<f32> {
            reports.iter().map(|r| r.joint).collect()
        };
        let auc = roc_auc(&joint(&neg), &joint(&pos));

        let calibration = JointCalibration::fit(&validator, &exp.plan, &calib_clean);
        let calibrated = |reports: &[DiscrepancyReport]| -> Vec<f32> {
            reports.iter().map(|r| calibration.apply(r).joint).collect()
        };
        let auc_c = roc_auc(&calibrated(&neg), &calibrated(&pos));
        eprintln!("{label}: auc {auc:.4}, calibrated {auc_c:.4}");
        table.row(vec![
            label,
            format!("{auc:.4}"),
            format!("{auc_c:.4}"),
            format!("{fit_secs:.1}"),
            format!("{query_ms:.2}"),
        ]);
    }
    println!("{}", table.render());

    // --- 5: the confidence baseline -----------------------------------
    println!("--- max-confidence baseline (the paper's Table V premise) ---");
    let mut conf = MaxConfidence::new();
    let neg = conf.score_all(&mut exp.net, &exp.plan, &clean);
    let pos = conf.score_all(&mut exp.net, &exp.plan, &sccs);
    println!(
        "max-confidence AUC on SCCs: {:.4} (Deep Validation: see above)\n",
        roc_auc(&neg, &pos)
    );
    println!("(fewer validated layers trade detection quality for query cost;");
    println!(" calibration stabilizes the joint score; confidence alone is weaker)");
}
