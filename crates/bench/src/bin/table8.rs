//! Reproduces **Table VIII**: Deep Validation vs feature squeezing under
//! white-box attacks on the digit model — FGSM, BIM, CWinf, CW2, CW0 and
//! JSMA with the Next/LL target conventions, scored over SAEs (successful
//! adversarial examples) and over all AEs.

use dv_attacks::{Attack, Bim, CwL0, CwL2, CwLinf, Fgsm, Jsma, TargetMode};
use dv_bench::detector_adapters::JointValidatorDetector;
use dv_bench::Experiment;
use dv_datasets::DatasetSpec;
use dv_detectors::{Detector, FeatureSqueezing};
use dv_eval::roc_auc;
use dv_eval::table::TextTable;
use dv_tensor::Tensor;

struct Setting {
    name: &'static str,
    target: &'static str,
    attack: Box<dyn Attack>,
}

fn settings() -> Vec<Setting> {
    vec![
        Setting {
            name: "FGSM",
            target: "Untargeted",
            attack: Box::new(Fgsm::new(0.3, TargetMode::Untargeted)),
        },
        Setting {
            name: "BIM",
            target: "Untargeted",
            attack: Box::new(Bim::new(0.3, 0.06, 10, TargetMode::Untargeted)),
        },
        Setting {
            name: "CWinf",
            target: "Next",
            attack: Box::new(CwLinf::new(TargetMode::Next)),
        },
        Setting {
            name: "CWinf",
            target: "LL",
            attack: Box::new(CwLinf::new(TargetMode::LeastLikely)),
        },
        Setting {
            name: "CW2",
            target: "Next",
            attack: Box::new(CwL2::new(TargetMode::Next)),
        },
        Setting {
            name: "CW2",
            target: "LL",
            attack: Box::new(CwL2::new(TargetMode::LeastLikely)),
        },
        Setting {
            name: "CW0",
            target: "Next",
            attack: Box::new(CwL0::new(TargetMode::Next)),
        },
        Setting {
            name: "CW0",
            target: "LL",
            attack: Box::new(CwL0::new(TargetMode::LeastLikely)),
        },
        Setting {
            name: "JSMA",
            target: "Next",
            attack: Box::new(Jsma::new(0.15, TargetMode::Next)),
        },
        Setting {
            name: "JSMA",
            target: "LL",
            attack: Box::new(Jsma::new(0.15, TargetMode::LeastLikely)),
        },
    ]
}

fn main() {
    println!("== Table VIII: Deep Validation vs feature squeezing under white-box attacks ==");
    println!("(digit model, as the paper evaluates attacks on MNIST only)\n");

    let mut exp = Experiment::prepare(DatasetSpec::SynthDigits);
    let validator = exp.fit_validator();
    let mut dv = JointValidatorDetector::new(validator);
    let mut fs = FeatureSqueezing::mnist_default();

    // Seeds: correctly classified test images (the paper reuses the same
    // seed and clean sets as the corner-case evaluation).
    let (seeds, seed_labels) = exp.seeds();
    let n_attack = seeds.len().min(
        // dv-lint: allow(env-read, reason = "table8 driver-local knob bounding attack seed count for quick local runs; read once here and nowhere else")
        std::env::var("DV_ATTACK_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(60),
    );
    let seeds = &seeds[..n_attack];
    let seed_labels = &seed_labels[..n_attack];
    let clean: Vec<Tensor> = exp.clean_negatives(2 * n_attack);

    let clean_dv = dv.score_all(&mut exp.net, &exp.plan, &clean);
    let clean_fs = fs.score_all(&mut exp.net, &exp.plan, &clean);

    let mut table = TextTable::new(vec![
        "Attack",
        "Target",
        "Success Rate",
        "DV AUC (SAEs)",
        "FS AUC (SAEs)",
        "DV AUC (AEs)",
        "FS AUC (AEs)",
    ]);
    /// Per-setting score vectors: (dv_sae, fs_sae, dv_ae, fs_ae).
    type SettingScores = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);
    let mut overall: Vec<SettingScores> = Vec::new();

    for setting in settings() {
        eprintln!("running {} ({})...", setting.name, setting.target);
        let mut saes = Vec::new();
        let mut aes = Vec::new();
        for (img, &label) in seeds.iter().zip(seed_labels) {
            let result = setting.attack.run(&mut exp.net, img, label);
            if result.success {
                saes.push(result.adversarial.clone());
            }
            aes.push(result.adversarial);
        }
        let success_rate = saes.len() as f32 / aes.len() as f32;
        let dv_ae = dv.score_all(&mut exp.net, &exp.plan, &aes);
        let fs_ae = fs.score_all(&mut exp.net, &exp.plan, &aes);
        let dv_sae = dv.score_all(&mut exp.net, &exp.plan, &saes);
        let fs_sae = fs.score_all(&mut exp.net, &exp.plan, &saes);

        let auc = |pos: &[f32], clean: &[f32]| {
            if pos.is_empty() {
                "-".to_owned()
            } else {
                format!("{:.4}", roc_auc(clean, pos))
            }
        };
        table.row(vec![
            setting.name.to_owned(),
            setting.target.to_owned(),
            format!("{success_rate:.3}"),
            auc(&dv_sae, &clean_dv),
            auc(&fs_sae, &clean_fs),
            auc(&dv_ae, &clean_dv),
            auc(&fs_ae, &clean_fs),
        ]);
        overall.push((dv_sae, fs_sae, dv_ae, fs_ae));
    }

    // Overall rows (pooled across all settings, as the paper's last column).
    let pool = |idx: usize| -> Vec<f32> {
        overall
            .iter()
            .flat_map(|t| match idx {
                0 => t.0.clone(),
                1 => t.1.clone(),
                2 => t.2.clone(),
                _ => t.3.clone(),
            })
            .collect()
    };
    let dv_sae_all = pool(0);
    let fs_sae_all = pool(1);
    let dv_ae_all = pool(2);
    let fs_ae_all = pool(3);
    table.row(vec![
        "Overall".to_owned(),
        String::new(),
        String::new(),
        format!("{:.4}", roc_auc(&clean_dv, &dv_sae_all)),
        format!("{:.4}", roc_auc(&clean_fs, &fs_sae_all)),
        format!("{:.4}", roc_auc(&clean_dv, &dv_ae_all)),
        format!("{:.4}", roc_auc(&clean_fs, &fs_ae_all)),
    ]);

    println!("{}", table.render());
    println!(
        "paper (MNIST): overall SAEs DV 0.9755 vs FS 0.9971; overall AEs DV 0.9572 vs FS 0.9400"
    );
    println!("(shape: both strong on SAEs with FS slightly ahead; DV ahead once FAEs count too)");
}
