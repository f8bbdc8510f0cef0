//! The end-to-end experiment pipeline shared by all reproduction
//! binaries.

use dv_core::{DeepValidator, LayerSelection, ValidatorConfig};
use dv_datasets::{Dataset, DatasetSpec};
use dv_eval::search::{grid_search_with_plan, SearchOutcome, SearchSpace};
use dv_eval::EvaluationSet;
use dv_imgops::{Transform, TransformKind};
use dv_nn::optim::Adadelta;
use dv_nn::train::{evaluate, fit, predict_labels, EvalStats, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{cache_dir, model_cached, tensors_cached, validator_cached};
use crate::models::{default_epochs, model_for, validated_layers};

/// Grid-search stopping target (the paper stops at ~60% success rate).
pub const TARGET_SUCCESS_RATE: f32 = 0.6;
/// Transformations below this final success rate are discarded
/// (the `-` cells of Table V).
pub const MIN_SUCCESS_RATE: f32 = 0.3;

/// Data/compute sizes for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Training images.
    pub n_train: usize,
    /// Test images (seeds and clean negatives are drawn from these).
    pub n_test: usize,
    /// Seed images for corner-case synthesis (the paper uses 200).
    pub n_seeds: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Sizes {
    /// Default sizes for a dataset, or a fast profile when the `DV_FAST`
    /// environment variable is set (used by integration tests).
    pub fn for_spec(spec: DatasetSpec) -> Self {
        // dv-lint: allow(env-read, reason = "CI fast-profile switch for the bench driver; presence-only flag that scales experiment sizes, never read by library code")
        if std::env::var("DV_FAST").is_ok() {
            return Self {
                n_train: 300,
                n_test: 150,
                n_seeds: 40,
                epochs: 2,
            };
        }
        match spec {
            DatasetSpec::SynthDigits => Self {
                n_train: 2000,
                n_test: 1000,
                n_seeds: 200,
                epochs: default_epochs(spec),
            },
            DatasetSpec::SynthObjects | DatasetSpec::SynthStreetDigits => Self {
                n_train: 1500,
                n_test: 800,
                n_seeds: 150,
                epochs: default_epochs(spec),
            },
        }
    }
}

/// One dataset + trained model, ready for corner-case synthesis and
/// detector fitting.
pub struct Experiment {
    /// Which dataset this experiment runs on.
    pub spec: DatasetSpec,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The trained classifier. Attacks and ODIN's preprocessing need
    /// its gradients; everything else runs through [`plan`](Self::plan).
    pub net: Network,
    /// The classifier compiled for inference, once, after training.
    pub plan: InferencePlan,
    /// Test accuracy and mean confidence (Table III's columns).
    pub model_stats: EvalStats,
    /// The sizes used.
    pub sizes: Sizes,
    /// Cache key prefix of everything computed from the model (see
    /// [`with_model`](Self::with_model)).
    cache_prefix: String,
}

/// Cache key of the trained model: the dataset and size profile, so
/// fast-profile runs (DV_FAST) never collide with full-scale caches.
fn model_cache_name(spec: DatasetSpec, sizes: Sizes) -> String {
    format!(
        "{}-{}x{}e{}",
        spec.name(),
        sizes.n_train,
        sizes.n_test,
        sizes.epochs
    )
}

/// FNV-1a over the network's layer layout and every trainable
/// parameter bit, so two models share a fingerprint only when their
/// layers and parameters match bit for bit.
fn model_fingerprint(net: &mut Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(format!("{net:?}").as_bytes());
    for (param, _) in net.params_and_grads() {
        for x in param.data() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

impl Experiment {
    /// Generates the dataset and trains (or loads) the model.
    pub fn prepare(spec: DatasetSpec) -> Self {
        let sizes = Sizes::for_spec(spec);
        let dataset = spec.generate(41, sizes.n_train, sizes.n_test);
        let mut net = model_for(spec, 17);
        let cache_name = model_cache_name(spec, sizes);
        let hit = model_cached(&cache_dir(), &cache_name, &mut net, |net| {
            eprintln!(
                "[{}] training model ({} params)...",
                spec.name(),
                net.num_params()
            );
            // Adadelta with the paper's hyperparameters (lr 1.0, rho 0.95).
            let mut opt = Adadelta::new();
            let cfg = TrainConfig {
                epochs: sizes.epochs,
                batch_size: 32,
            };
            let mut rng = StdRng::seed_from_u64(23);
            let history = fit(
                net,
                &mut opt,
                &dataset.train.images,
                &dataset.train.labels,
                &cfg,
                &mut rng,
            );
            for h in &history {
                eprintln!(
                    "[{}]   epoch {}: loss {:.4}, train acc {:.4}",
                    spec.name(),
                    h.epoch,
                    h.loss,
                    h.accuracy
                );
            }
        });
        if hit {
            eprintln!("[{}] loaded cached model", spec.name());
        }
        Self::with_model(spec, dataset, net, sizes)
    }

    /// Wraps a trained model: compiles its plan, measures it on the test
    /// split, and keys the caches computed from it (the validator, the
    /// corner-case search) on its fingerprint. A model retrained over a
    /// stale checkpoint therefore never reuses results computed for the
    /// model it replaced.
    fn with_model(spec: DatasetSpec, dataset: Dataset, mut net: Network, sizes: Sizes) -> Self {
        let plan = net.plan();
        let model_stats = evaluate(&plan, &dataset.test.images, &dataset.test.labels);
        let cache_prefix = format!(
            "{}-{:016x}",
            model_cache_name(spec, sizes),
            model_fingerprint(&mut net)
        );
        Self {
            spec,
            dataset,
            net,
            plan,
            model_stats,
            sizes,
            cache_prefix,
        }
    }

    /// The seed set: the first `n_seeds` correctly classified test images
    /// (the paper fixes 200 correctly classified seeds per model).
    pub fn seeds(&self) -> (Vec<Tensor>, Vec<usize>) {
        let test = &self.dataset.test;
        let mut images = Vec::new();
        let mut labels = Vec::new();
        // Classify one seed-sized batch at a time (each batch fans out
        // across the dv-runtime pool) and stop as soon as the quota is
        // met, so the scan still terminates early like the original
        // per-image loop and picks the exact same seed prefix.
        let chunk = self.sizes.n_seeds.max(1);
        let mut start = 0;
        'scan: while start < test.images.len() {
            let end = (start + chunk).min(test.images.len());
            let preds = predict_labels(&self.plan, &test.images[start..end]);
            for ((img, &label), &pred) in test.images[start..end]
                .iter()
                .zip(&test.labels[start..end])
                .zip(&preds)
            {
                if pred == label {
                    images.push(img.clone());
                    labels.push(label);
                    if images.len() >= self.sizes.n_seeds {
                        break 'scan;
                    }
                }
            }
            start = end;
        }
        (images, labels)
    }

    /// Clean negatives: correctly-or-not classified test images *not*
    /// used as seeds, up to `n`.
    pub fn clean_negatives(&self, n: usize) -> Vec<Tensor> {
        self.dataset
            .test
            .images
            .iter()
            .rev() // disjoint from the seed prefix
            .take(n)
            .cloned()
            .collect()
    }

    /// Runs (or loads) the full corner-case grid search: every single
    /// transformation in the catalogue plus the per-dataset combined
    /// transformation (paper Section IV-B).
    pub fn search_corner_cases(&self) -> Vec<SearchOutcome> {
        let (seeds, seed_labels) = self.seeds();
        let cache_name = format!("{}-search", self.cache_prefix);
        let spec = self.spec;
        let plan = &self.plan;
        let encoded = tensors_cached(&cache_dir(), &cache_name, || {
            eprintln!("[{}] grid-searching corner cases...", spec.name());
            let spaces = SearchSpace::catalogue(spec.is_grayscale());
            // Each transformation family searches independently against
            // one shared immutable plan (no network cloning); `par_map`
            // keeps catalogue order, so the outcome list matches a
            // sequential loop at any thread count.
            let mut outcomes = dv_runtime::par_map(&spaces, |space| {
                grid_search_with_plan(
                    plan,
                    &seeds,
                    &seed_labels,
                    space,
                    TARGET_SUCCESS_RATE,
                    MIN_SUCCESS_RATE,
                )
            });
            for outcome in &outcomes {
                eprintln!(
                    "[{}]   {}: success rate {:.3} ({})",
                    spec.name(),
                    outcome.kind,
                    outcome.success_rate,
                    outcome
                        .chosen
                        .as_ref()
                        .map_or("discarded".to_owned(), |t| t.describe())
                );
            }
            if let Some(combined) = combined_transform(spec, &outcomes) {
                let (rate, conf) = dv_eval::search::success_rate_with_plan(
                    plan,
                    &mut Workspace::new(),
                    &apply_all(&combined, &seeds),
                    &seed_labels,
                );
                eprintln!(
                    "[{}]   Combined ({}): success rate {rate:.3}",
                    spec.name(),
                    combined.describe()
                );
                outcomes.push(SearchOutcome {
                    kind: TransformKind::Combined,
                    chosen: if rate >= MIN_SUCCESS_RATE {
                        Some(combined)
                    } else {
                        None
                    },
                    success_rate: rate,
                    mean_confidence: conf,
                });
            }
            encode_outcomes(&outcomes)
        });
        decode_outcomes(&encoded)
    }

    /// Builds the evaluation set (Section IV-D1): corner cases of every
    /// successful kind plus an equal number of clean test images.
    pub fn build_eval_set(&self, outcomes: &[SearchOutcome]) -> EvaluationSet {
        let (seeds, seed_labels) = self.seeds();
        let mut set = EvaluationSet::new();
        // One workspace classifies every corner-case batch.
        let mut ws = Workspace::new();
        for outcome in outcomes {
            let Some(transform) = &outcome.chosen else {
                continue;
            };
            let items: Vec<(Tensor, usize)> = transform
                .apply_batch(&seeds)
                .into_iter()
                .zip(seed_labels.iter().copied())
                .collect();
            set.extend_corner_with_plan(&self.plan, &mut ws, outcome.kind, items);
        }
        let clean = self.clean_negatives(set.corner.len().max(seeds.len()));
        set.extend_clean(clean);
        set
    }

    /// Fits (or loads) the Deep Validation detector for this model.
    pub fn fit_validator(&self) -> DeepValidator {
        let cache_name = format!("{}-dv", self.cache_prefix);
        let spec = self.spec;
        let layers = LayerSelection::LastK(validated_layers(spec));
        let net = &self.net;
        let dataset = &self.dataset;
        validator_cached(&cache_dir(), &cache_name, || {
            eprintln!("[{}] fitting Deep Validation (Algorithm 1)...", spec.name());
            let config = ValidatorConfig {
                layers,
                ..ValidatorConfig::default()
            };
            DeepValidator::fit(net, &dataset.train.images, &dataset.train.labels, &config)
                .expect("validator fit failed")
        })
    }
}

/// The per-dataset combined transformation of Table V: complement+scale
/// for the grayscale dataset, brightness+scale for the color datasets,
/// parameterized by the single-transformation search results.
pub fn combined_transform(spec: DatasetSpec, outcomes: &[SearchOutcome]) -> Option<Transform> {
    let chosen = |kind: TransformKind| -> Option<Transform> {
        outcomes
            .iter()
            .find(|o| o.kind == kind)
            .and_then(|o| o.chosen.clone())
    };
    let scale = chosen(TransformKind::Scale).unwrap_or(Transform::Scale { sx: 0.8, sy: 0.8 });
    // Soften the scale component (the paper picks the combination with the
    // smallest deformation that still works).
    let soft_scale = match scale {
        Transform::Scale { sx, sy } => Transform::Scale {
            sx: (sx + 1.0) / 2.0,
            sy: (sy + 1.0) / 2.0,
        },
        other => other,
    };
    if spec.is_grayscale() {
        Some(Transform::Compose(vec![Transform::Complement, soft_scale]))
    } else {
        let brightness = chosen(TransformKind::Brightness)?;
        let soft_brightness = match brightness {
            Transform::Brightness { beta } => Transform::Brightness { beta: beta * 0.75 },
            other => other,
        };
        Some(Transform::Compose(vec![soft_brightness, soft_scale]))
    }
}

fn apply_all(t: &Transform, images: &[Tensor]) -> Vec<Tensor> {
    t.apply_batch(images)
}

// --- search-outcome (de)serialization for the cache ---------------------

/// Encodes outcomes as named tensors: per kind a vector of
/// `[chosen_flag, success_rate, mean_confidence, params...]`.
fn encode_outcomes(outcomes: &[SearchOutcome]) -> std::collections::BTreeMap<String, Tensor> {
    let mut out = std::collections::BTreeMap::new();
    for o in outcomes {
        let mut v = vec![
            o.chosen.is_some() as u8 as f32,
            o.success_rate,
            o.mean_confidence,
        ];
        if let Some(t) = &o.chosen {
            v.extend(encode_transform(t));
        }
        let n = v.len();
        out.insert(
            format!("outcome.{}", o.kind.label()),
            Tensor::from_vec(v, &[n]),
        );
    }
    out
}

fn decode_outcomes(map: &std::collections::BTreeMap<String, Tensor>) -> Vec<SearchOutcome> {
    let mut outcomes = Vec::new();
    for kind in TransformKind::all() {
        let Some(t) = map.get(&format!("outcome.{}", kind.label())) else {
            continue;
        };
        let d = t.data();
        let chosen = if d[0] > 0.5 {
            Some(decode_transform(&d[3..]))
        } else {
            None
        };
        outcomes.push(SearchOutcome {
            kind,
            chosen,
            success_rate: d[1],
            mean_confidence: d[2],
        });
    }
    outcomes
}

/// Flat encoding of a transform: `[tag, p0, p1]`, recursively for
/// compositions (`[7, n, <inner>...]`).
fn encode_transform(t: &Transform) -> Vec<f32> {
    match t {
        Transform::Brightness { beta } => vec![0.0, *beta, 0.0],
        Transform::Contrast { alpha } => vec![1.0, *alpha, 0.0],
        Transform::Rotation { deg } => vec![2.0, *deg, 0.0],
        Transform::Shear { sh, sv } => vec![3.0, *sh, *sv],
        Transform::Scale { sx, sy } => vec![4.0, *sx, *sy],
        Transform::Translation { tx, ty } => vec![5.0, *tx, *ty],
        Transform::Complement => vec![6.0, 0.0, 0.0],
        Transform::Compose(parts) => {
            let mut v = vec![7.0, parts.len() as f32, 0.0];
            for p in parts {
                v.extend(encode_transform(p));
            }
            v
        }
    }
}

fn decode_transform(d: &[f32]) -> Transform {
    fn inner(d: &[f32], pos: &mut usize) -> Transform {
        let tag = d[*pos];
        let p0 = d[*pos + 1];
        let p1 = d[*pos + 2];
        *pos += 3;
        match tag as u8 {
            0 => Transform::Brightness { beta: p0 },
            1 => Transform::Contrast { alpha: p0 },
            2 => Transform::Rotation { deg: p0 },
            3 => Transform::Shear { sh: p0, sv: p1 },
            4 => Transform::Scale { sx: p0, sy: p1 },
            5 => Transform::Translation { tx: p0, ty: p1 },
            6 => Transform::Complement,
            7 => {
                let n = p0 as usize;
                let parts = (0..n).map(|_| inner(d, pos)).collect();
                Transform::Compose(parts)
            }
            other => panic!("bad transform tag {other}"),
        }
    }
    let mut pos = 0;
    inner(d, &mut pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_encoding_round_trips() {
        let cases = vec![
            Transform::Brightness { beta: 0.4 },
            Transform::Contrast { alpha: 3.0 },
            Transform::Rotation { deg: 44.0 },
            Transform::Shear { sh: 0.3, sv: 0.1 },
            Transform::Scale { sx: 0.7, sy: 0.6 },
            Transform::Translation { tx: 5.0, ty: 4.0 },
            Transform::Complement,
            Transform::Compose(vec![
                Transform::Complement,
                Transform::Scale { sx: 0.8, sy: 0.8 },
            ]),
        ];
        for t in cases {
            let encoded = encode_transform(&t);
            assert_eq!(decode_transform(&encoded), t, "{t:?}");
        }
    }

    #[test]
    fn outcome_encoding_round_trips() {
        let outcomes = vec![
            SearchOutcome {
                kind: TransformKind::Rotation,
                chosen: Some(Transform::Rotation { deg: 50.0 }),
                success_rate: 0.62,
                mean_confidence: 0.88,
            },
            SearchOutcome {
                kind: TransformKind::Contrast,
                chosen: None,
                success_rate: 0.1,
                mean_confidence: 0.0,
            },
        ];
        let decoded = decode_outcomes(&encode_outcomes(&outcomes));
        assert_eq!(decoded.len(), 2);
        // Order follows TransformKind::all(): contrast before rotation.
        assert_eq!(decoded[0].kind, TransformKind::Contrast);
        assert!(decoded[0].chosen.is_none());
        assert_eq!(decoded[1].kind, TransformKind::Rotation);
        assert_eq!(decoded[1].chosen, Some(Transform::Rotation { deg: 50.0 }));
        assert!((decoded[1].success_rate - 0.62).abs() < 1e-6);
    }

    #[test]
    fn combined_transform_uses_complement_for_grayscale() {
        let outcomes = vec![SearchOutcome {
            kind: TransformKind::Scale,
            chosen: Some(Transform::Scale { sx: 0.6, sy: 0.6 }),
            success_rate: 0.7,
            mean_confidence: 0.5,
        }];
        let t = combined_transform(DatasetSpec::SynthDigits, &outcomes).unwrap();
        match t {
            Transform::Compose(parts) => {
                assert_eq!(parts[0], Transform::Complement);
                assert_eq!(parts[1], Transform::Scale { sx: 0.8, sy: 0.8 });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Results computed from a model are keyed on that model: a model
    /// that replaced another under the same dataset, sizes and epochs
    /// (retrained over a checkpoint of another architecture, say) gets a
    /// cache prefix of its own, so its validator and search results are
    /// recomputed instead of loaded for the model it replaced.
    #[test]
    fn dependent_caches_are_keyed_on_the_model() {
        let spec = DatasetSpec::SynthDigits;
        let sizes = Sizes {
            n_train: 20,
            n_test: 10,
            n_seeds: 4,
            epochs: 1,
        };
        let prefix = |model_seed: u64| {
            let dataset = spec.generate(41, sizes.n_train, sizes.n_test);
            Experiment::with_model(spec, dataset, model_for(spec, model_seed), sizes).cache_prefix
        };
        let (a, b) = (prefix(17), prefix(18));
        assert_ne!(a, b, "two models must not share dependent caches");
        assert_eq!(a, prefix(17), "the same model keeps its caches");
        assert!(
            a.starts_with(&model_cache_name(spec, sizes)),
            "{a} names the model's own cache"
        );
    }

    #[test]
    fn combined_transform_needs_brightness_for_color() {
        // Without a successful brightness search there is no combined
        // transformation for color datasets.
        assert!(combined_transform(DatasetSpec::SynthObjects, &[]).is_none());
    }
}
