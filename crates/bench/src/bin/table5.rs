//! Reproduces **Table V** (success rates of the synthesized corner cases
//! with final parameters and mean confidence) and prints the search space
//! of **Table IV** for reference.

use dv_bench::pipeline::{MIN_SUCCESS_RATE, TARGET_SUCCESS_RATE};
use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_eval::search::SearchSpace;
use dv_eval::table::TextTable;

fn main() {
    println!("== Table IV: transformations and search space ==\n");
    let mut t4 = TextTable::new(vec!["Transformation", "Grid (weakest..strongest)", "Steps"]);
    for space in SearchSpace::catalogue(true) {
        let first = space
            .steps()
            .first()
            .expect("every catalogued search space defines at least one step")
            .describe();
        let last = space
            .steps()
            .last()
            .expect("every catalogued search space defines at least one step")
            .describe();
        t4.row(vec![
            space.kind().label().to_owned(),
            format!("{first} .. {last}"),
            space.steps().len().to_string(),
        ]);
    }
    println!("{}", t4.render());
    println!(
        "search stops at success rate >= {TARGET_SUCCESS_RATE}, discards below {MIN_SUCCESS_RATE}\n"
    );

    println!("== Table V: success rates of different kinds of corner cases ==\n");
    let mut t5 = TextTable::new(vec![
        "Dataset",
        "Transformation",
        "Configuration",
        "Success Rate",
        "Mean Top-1 Prediction Confidence",
    ]);
    for spec in DatasetSpec::all() {
        let exp = Experiment::prepare(spec);
        let outcomes = exp.search_corner_cases();
        for o in &outcomes {
            t5.row(vec![
                spec.name().to_owned(),
                o.kind.label().to_owned(),
                o.chosen.as_ref().map_or("-".to_owned(), |t| t.describe()),
                if o.chosen.is_some() {
                    format!("{:.3}", o.success_rate)
                } else {
                    "-".to_owned()
                },
                if o.chosen.is_some() {
                    format!("{:.4}", o.mean_confidence)
                } else {
                    "-".to_owned()
                },
            ]);
        }
    }
    println!("{}", t5.render());
    println!("(paper's shape: most single transformations reach ~0.6, combined ~0.85+;");
    println!(" contrast/complement unavailable on some datasets, matching the '-' cells)");
}
