//! Extension experiment: the full detector zoo on real-world corner
//! cases. Beyond the paper's Table VII (DV vs feature squeezing vs KDE),
//! this adds the Mahalanobis detector (Lee et al. 2018 — the paper's
//! reference \[32\]), ODIN (Liang et al. 2018) and the max-confidence
//! baseline, per dataset and per transformation kind.

use dv_bench::detector_adapters::JointValidatorDetector;
use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_detectors::{
    Detector, FeatureSqueezing, KdeDetector, MahalanobisDetector, MaxConfidence, OdinDetector,
};
use dv_eval::roc_auc;
use dv_eval::table::{fmt_score, TextTable};

fn main() {
    println!("== Extension: detector zoo on real-world corner cases ==\n");
    for spec in DatasetSpec::all() {
        run(spec);
    }
    println!("(extends Table VII with the OOD detectors the paper's related work cites)");
}

fn run(spec: DatasetSpec) {
    let mut exp = Experiment::prepare(spec);
    let outcomes = exp.search_corner_cases();
    let eval_set = exp.build_eval_set(&outcomes);
    let kinds = eval_set.kinds();

    let validator = exp.fit_validator();
    let mut dv = JointValidatorDetector::new(validator);
    let mut fs = if spec.is_grayscale() {
        FeatureSqueezing::mnist_default()
    } else {
        FeatureSqueezing::color_default()
    };
    let mut kde = KdeDetector::fit(
        &exp.plan,
        &exp.dataset.train.images,
        &exp.dataset.train.labels,
        200,
        None,
    )
    .expect("KDE fit failed");
    let mut maha = MahalanobisDetector::fit(
        &exp.plan,
        &exp.dataset.train.images,
        &exp.dataset.train.labels,
        200,
        0.01,
    )
    .expect("Mahalanobis fit failed");
    let mut odin = OdinDetector::defaults();
    let mut conf = MaxConfidence::new();

    let mut headers = vec!["Method".to_owned()];
    headers.extend(kinds.iter().map(|k| k.label().to_owned()));
    headers.push("Overall".to_owned());
    let mut table = TextTable::new(headers.iter().map(String::as_str).collect());

    // All detectors share one immutable plan for their forward passes.
    let plan = &exp.plan;
    let detectors: Vec<&mut dyn Detector> =
        vec![&mut dv, &mut fs, &mut kde, &mut maha, &mut odin, &mut conf];
    for detector in detectors {
        let clean = detector.score_all(&mut exp.net, plan, &eval_set.clean);
        let mut cells = vec![detector.name().to_owned()];
        for kind in &kinds {
            let images: Vec<_> = eval_set
                .sccs_of_kind(*kind)
                .into_iter()
                .map(|c| c.image.clone())
                .collect();
            let cell = if images.is_empty() {
                None
            } else {
                Some(roc_auc(
                    &clean,
                    &detector.score_all(&mut exp.net, plan, &images),
                ))
            };
            cells.push(fmt_score(cell));
        }
        let all: Vec<_> = eval_set
            .sccs()
            .into_iter()
            .map(|c| c.image.clone())
            .collect();
        let overall = if all.is_empty() {
            None
        } else {
            Some(roc_auc(
                &clean,
                &detector.score_all(&mut exp.net, plan, &all),
            ))
        };
        cells.push(fmt_score(overall));
        eprintln!("[{}] {} done", spec.name(), detector.name());
        table.row(cells);
    }

    println!("--- {} ---", spec.name());
    println!("{}", table.render());
}
