//! Reproduces **Figure 2**: example synthetic corner cases. Writes one
//! contact sheet per dataset (seed image + every successful
//! transformation) into `target/dv-out/fig2/` as PGM/PPM files.

use dv_bench::cache::out_dir;
use dv_bench::Experiment;
use dv_datasets::pnm::{contact_sheet, write_pnm};
use dv_datasets::DatasetSpec;

fn main() {
    println!("== Figure 2: examples of synthetic corner cases ==\n");
    let dir = out_dir("fig2");
    for spec in DatasetSpec::all() {
        let exp = Experiment::prepare(spec);
        let outcomes = exp.search_corner_cases();
        let (seeds, _) = exp.seeds();
        // One row per seed example: the clean seed followed by each
        // successful transformation applied to it.
        let chosen: Vec<_> = outcomes.iter().filter_map(|o| o.chosen.clone()).collect();
        if chosen.is_empty() {
            eprintln!("[{}] no successful transformations", spec.name());
            continue;
        }
        let mut tiles = Vec::new();
        for seed in seeds.iter().take(4) {
            tiles.push(seed.clone());
            for t in &chosen {
                tiles.push(t.apply(seed));
            }
        }
        let cols = chosen.len() + 1;
        let sheet = contact_sheet(&tiles, cols);
        let ext = if spec.is_grayscale() { "pgm" } else { "ppm" };
        let path = dir.join(format!("{}.{ext}", spec.name()));
        write_pnm(&path, &sheet).expect("cannot write contact sheet");
        println!(
            "[{}] wrote {} ({} tiles: column 1 = clean seed, then {})",
            spec.name(),
            path.display(),
            tiles.len(),
            chosen
                .iter()
                .map(|t| t.kind().label())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
