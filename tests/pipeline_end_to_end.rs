//! End-to-end integration test: the full experiment pipeline at the fast
//! profile — dataset generation, training, corner-case search, validator
//! fitting, and detection quality.

use std::sync::Once;

use deep_validation::bench::Experiment;
use deep_validation::core::ScoreWorkspace;
use deep_validation::datasets::DatasetSpec;
use deep_validation::eval::roc_auc;

static INIT: Once = Once::new();

/// Pins the fast profile and an isolated cache before any pipeline work.
fn init() {
    INIT.call_once(|| {
        std::env::set_var("DV_FAST", "1");
        std::env::set_var("DV_CACHE", std::env::temp_dir().join("dv-itest-cache"));
    });
}

#[test]
fn digit_pipeline_detects_corner_cases() {
    init();
    let exp = Experiment::prepare(DatasetSpec::SynthDigits);
    assert!(
        exp.model_stats.accuracy > 0.7,
        "fast-profile model too weak: {}",
        exp.model_stats.accuracy
    );

    let outcomes = exp.search_corner_cases();
    assert!(
        outcomes.iter().any(|o| o.chosen.is_some()),
        "no transformation produced corner cases"
    );

    let eval_set = exp.build_eval_set(&outcomes);
    assert!(!eval_set.clean.is_empty());
    let sccs: Vec<_> = eval_set.sccs().into_iter().cloned().collect();
    assert!(!sccs.is_empty(), "no successful corner cases");

    let validator = exp.fit_validator();
    assert_eq!(validator.num_validated_layers(), 6);

    let clean_scores: Vec<f32> = validator
        .discrepancies_with_plan(&exp.plan, &eval_set.clean)
        .iter()
        .map(|r| r.joint)
        .collect();
    let mut sw = ScoreWorkspace::new();
    let scc_scores: Vec<f32> = sccs
        .iter()
        .map(|c| validator.score(&exp.plan, &c.image, &mut sw).unwrap().joint)
        .collect();
    let auc = roc_auc(&clean_scores, &scc_scores);
    assert!(
        auc > 0.75,
        "joint validator AUC only {auc:.3} at the fast profile"
    );

    // The discrepancy distributions must be ordered as Figure 3 shows.
    let clean_mean: f32 = clean_scores.iter().sum::<f32>() / clean_scores.len() as f32;
    let scc_mean: f32 = scc_scores.iter().sum::<f32>() / scc_scores.len() as f32;
    assert!(
        scc_mean > clean_mean,
        "SCC mean {scc_mean} not above clean mean {clean_mean}"
    );
}

#[test]
fn search_results_are_cached_and_stable() {
    init();
    let exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let first = exp.search_corner_cases();
    let second = exp.search_corner_cases(); // cache hit
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.chosen, b.chosen);
        assert!((a.success_rate - b.success_rate).abs() < 1e-6);
    }
}

#[test]
fn validator_reports_are_consistent_between_calls() {
    init();
    let exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let validator = exp.fit_validator();
    let img = &exp.dataset.test.images[0];
    let mut sw = ScoreWorkspace::new();
    let a = validator.score(&exp.plan, img, &mut sw).unwrap();
    let b = validator.score(&exp.plan, img, &mut sw).unwrap();
    assert_eq!(a.predicted, b.predicted);
    assert_eq!(a.per_layer, b.per_layer);
    assert_eq!(a.joint, b.joint);
    let sum: f32 = a.per_layer.iter().sum();
    assert!((a.joint - sum).abs() < 1e-6);
}
