//! Reproduces **Figure 3**: the distribution of the (normalized) joint
//! discrepancy for legitimate images vs successful corner cases, per
//! dataset. Prints a text histogram and writes CSVs under
//! `target/dv-out/fig3/`.

use dv_bench::cache::out_dir;
use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_eval::hist::DualHistogram;

fn main() {
    println!("== Figure 3: discrepancy distributions (legitimate vs SCCs) ==\n");
    let dir = out_dir("fig3");
    for spec in DatasetSpec::all() {
        let exp = Experiment::prepare(spec);
        let outcomes = exp.search_corner_cases();
        let eval_set = exp.build_eval_set(&outcomes);
        let validator = exp.fit_validator();

        // One shared plan and one reusable workspace score every image.
        let plan = &exp.plan;
        let mut sw = dv_core::ScoreWorkspace::new();
        let clean: Vec<f32> = eval_set
            .clean
            .iter()
            .map(|img| {
                validator
                    .score(plan, img, &mut sw)
                    .expect("eval-set images are well-formed")
                    .joint
            })
            .collect();
        let sccs: Vec<f32> = eval_set
            .corner
            .iter()
            .filter(|c| c.successful)
            .map(|c| {
                validator
                    .score(plan, &c.image, &mut sw)
                    .expect("corner-case images are well-formed")
                    .joint
            })
            .collect();
        if sccs.is_empty() {
            eprintln!("[{}] no SCCs", spec.name());
            continue;
        }

        // Normalize like the paper's plots: shift/scale by the pooled
        // mean and standard deviation so datasets share an axis scale.
        let pooled: Vec<f32> = clean.iter().chain(&sccs).copied().collect();
        let mean = dv_tensor::stats::mean(&pooled);
        let std = dv_tensor::stats::std_dev(&pooled).max(1e-6);
        let norm = |v: &[f32]| -> Vec<f32> { v.iter().map(|x| (x - mean) / std).collect() };
        let clean_n = norm(&clean);
        let sccs_n = norm(&sccs);

        // The paper bins Fig. 3 at 200; the text rendering uses fewer so
        // rows stay readable, the CSV keeps all 200.
        let hist_csv = DualHistogram::new(&clean_n, &sccs_n, 200, "legitimate", "scc");
        let csv_path = dir.join(format!("{}.csv", spec.name()));
        std::fs::write(&csv_path, hist_csv.to_csv()).expect("cannot write CSV");

        let hist_text = DualHistogram::new(&clean_n, &sccs_n, 30, "legitimate", "scc");
        println!("--- {} ---", spec.name());
        println!("{}", hist_text.render(50));

        // The separation statistic the figure is meant to show: nearly
        // all legitimate images sit below nearly all SCCs.
        let clean_mean = dv_tensor::stats::mean(&clean);
        let scc_mean = dv_tensor::stats::mean(&sccs);
        println!(
            "mean joint discrepancy: legitimate {clean_mean:.4}, SCCs {scc_mean:.4} (csv: {})\n",
            csv_path.display()
        );
    }
    println!("(paper's shape: two well-separated modes, legitimate mass below the SCC mass)");
}
