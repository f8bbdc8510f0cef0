//! Extension: the detection-rate sweeps the paper *omits* from Figure 4
//! ("the results for other settings show a similar trend and are thus
//! omitted here") — rotation, brightness and shear sweeps on the digit
//! model, same protocol as `fig4` (both detectors pinned at clean FPR
//! 0.059). Verifies the claimed "similar trend" actually holds.

use dv_bench::cache::out_dir;
use dv_bench::detector_adapters::JointValidatorDetector;
use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_detectors::{Detector, FeatureSqueezing};
use dv_eval::table::TextTable;
use dv_eval::{detection_rate, threshold_at_fpr};
use dv_imgops::Transform;
use dv_tensor::{Tensor, Workspace};

const FPR: f32 = 0.059;

fn sweeps() -> Vec<(&'static str, Vec<Transform>)> {
    vec![
        (
            "rotation",
            (1..=8)
                .map(|i| Transform::Rotation {
                    deg: i as f32 * 10.0,
                })
                .collect(),
        ),
        (
            "brightness",
            (1..=8)
                .map(|i| Transform::Brightness {
                    beta: i as f32 * 0.1,
                })
                .collect(),
        ),
        (
            "shear",
            (1..=8)
                .map(|i| Transform::Shear {
                    sh: i as f32 * 0.08,
                    sv: i as f32 * 0.08,
                })
                .collect(),
        ),
    ]
}

fn main() {
    println!("== Extension: detection-rate sweeps the paper omits from Fig. 4 ==\n");
    let mut exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let validator = exp.fit_validator();
    let mut dv = JointValidatorDetector::new(validator);
    let mut fs = FeatureSqueezing::mnist_default();

    let (seeds, seed_labels) = exp.seeds();
    let clean: Vec<Tensor> = exp.clean_negatives(seeds.len());
    let dv_threshold = threshold_at_fpr(&dv.score_all(&mut exp.net, &exp.plan, &clean), FPR);
    let fs_threshold = threshold_at_fpr(&fs.score_all(&mut exp.net, &exp.plan, &clean), FPR);
    println!("both detectors pinned at clean-data FPR {FPR}\n");

    let dir = out_dir("fig4_extended");
    let mut ws = Workspace::new();
    for (name, steps) in sweeps() {
        let mut table = TextTable::new(vec![
            "Config",
            "Success Rate",
            "DV SCC rate",
            "DV FCC rate",
            "FS SCC rate",
            "FS FCC rate",
        ]);
        let mut csv = String::from("config,success_rate,dv_scc,dv_fcc,fs_scc,fs_fcc\n");
        for transform in steps {
            let mut sccs = Vec::new();
            let mut fccs = Vec::new();
            for (seed, &label) in seeds.iter().zip(&seed_labels) {
                let img = transform.apply(seed);
                let (pred, _) = exp.plan.classify(&img, &mut ws);
                if pred != label {
                    sccs.push(img);
                } else {
                    fccs.push(img);
                }
            }
            let success_rate = sccs.len() as f32 / seeds.len() as f32;
            let rate = |d: &mut dyn Detector,
                        net: &mut dv_nn::Network,
                        images: &[Tensor],
                        threshold: f32| {
                if images.is_empty() {
                    None
                } else {
                    Some(detection_rate(
                        &d.score_all(net, &exp.plan, images),
                        threshold,
                    ))
                }
            };
            let dv_scc = rate(&mut dv, &mut exp.net, &sccs, dv_threshold);
            let dv_fcc = rate(&mut dv, &mut exp.net, &fccs, dv_threshold);
            let fs_scc = rate(&mut fs, &mut exp.net, &sccs, fs_threshold);
            let fs_fcc = rate(&mut fs, &mut exp.net, &fccs, fs_threshold);
            let fmt = |r: Option<f32>| r.map_or("-".to_owned(), |v| format!("{v:.3}"));
            table.row(vec![
                transform.describe(),
                format!("{success_rate:.3}"),
                fmt(dv_scc),
                fmt(dv_fcc),
                fmt(fs_scc),
                fmt(fs_fcc),
            ]);
            csv.push_str(&format!(
                "{},{success_rate},{},{},{},{}\n",
                transform.describe(),
                dv_scc.unwrap_or(f32::NAN),
                dv_fcc.unwrap_or(f32::NAN),
                fs_scc.unwrap_or(f32::NAN),
                fs_fcc.unwrap_or(f32::NAN),
            ));
        }
        println!("--- {name} sweep ---");
        println!("{}", table.render());
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).expect("cannot write CSV");
        println!("csv: {}\n", path.display());
    }
    println!("(the paper claims these sweeps mirror the scale sweep; compare with fig4)");
}
