//! On-disk caching of trained models and fitted validators.
//!
//! Experiment binaries are independently runnable; the first one to need
//! a trained model pays for training, later ones load the checkpoint from
//! [`cache_dir`]. The loaders take the directory as a parameter, so
//! nothing below the drivers reads the environment.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use dv_core::DeepValidator;
use dv_nn::Network;
use dv_tensor::io::{read_named, write_named};
use dv_tensor::Tensor;

/// The drivers' cache directory (created on demand): `DV_CACHE` when
/// set (see [`dv_runtime::config::cache_dir`]), else `target/dv-cache`.
pub fn cache_dir() -> PathBuf {
    let dir = dv_runtime::config::cache_dir().unwrap_or_else(|| PathBuf::from("target/dv-cache"));
    fs::create_dir_all(&dir).expect("cannot create cache directory");
    dir
}

/// The output directory for generated artifacts (figures, CSVs).
pub fn out_dir(sub: &str) -> PathBuf {
    // dv-lint: allow(env-read, reason = "bench-driver output-directory override; affects only where figures and CSVs are written, never a measured result")
    let dir = std::env::var("DV_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/dv-out"))
        .join(sub);
    fs::create_dir_all(&dir).expect("cannot create output directory");
    dir
}

/// Loads a model cached in `dir` into `net`, or runs `train` and caches
/// the result. Returns whether the cache was hit.
pub fn model_cached(
    dir: &Path,
    name: &str,
    net: &mut Network,
    train: impl FnOnce(&mut Network),
) -> bool {
    let path = dir.join(format!("{name}.model.dvt"));
    if path.exists() {
        match net.load(&path) {
            Ok(()) => return true,
            Err(e) => eprintln!("warning: discarding stale model cache {path:?}: {e}"),
        }
    }
    train(net);
    if let Err(e) = net.save(&path) {
        eprintln!("warning: could not cache model to {path:?}: {e}");
    }
    false
}

/// Loads a validator cached in `dir`, or runs `fit` and caches the
/// result.
pub fn validator_cached(
    dir: &Path,
    name: &str,
    fit: impl FnOnce() -> DeepValidator,
) -> DeepValidator {
    let path = dir.join(format!("{name}.validator.dvt"));
    if path.exists() {
        match File::open(&path)
            .map_err(dv_tensor::io::DecodeError::Io)
            .and_then(|f| read_named(BufReader::new(f)))
        {
            Ok(entries) => return DeepValidator::from_named_tensors(&entries),
            Err(e) => eprintln!("warning: discarding stale validator cache {path:?}: {e}"),
        }
    }
    let validator = fit();
    let entries = validator.to_named_tensors();
    match File::create(&path) {
        Ok(f) => {
            if let Err(e) = write_named(BufWriter::new(f), &entries) {
                eprintln!("warning: could not cache validator to {path:?}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not cache validator to {path:?}: {e}"),
    }
    validator
}

/// Loads a named-tensor map cached in `dir`, or computes and caches it.
/// Used for any artifact expressible as tensors (scores, corner-case
/// images).
pub fn tensors_cached(
    dir: &Path,
    name: &str,
    compute: impl FnOnce() -> BTreeMap<String, Tensor>,
) -> BTreeMap<String, Tensor> {
    let path = dir.join(format!("{name}.dvt"));
    if path.exists() {
        match File::open(&path)
            .map_err(dv_tensor::io::DecodeError::Io)
            .and_then(|f| read_named(BufReader::new(f)))
        {
            Ok(entries) => return entries,
            Err(e) => eprintln!("warning: discarding stale cache {path:?}: {e}"),
        }
    }
    let entries = compute();
    match File::create(&path) {
        Ok(f) => {
            if let Err(e) = write_named(BufWriter::new(f), &entries) {
                eprintln!("warning: could not cache {path:?}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not cache {path:?}: {e}"),
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `f` against a fresh cache directory of its own (tests run in
    /// parallel, so each one gets a distinct `tag`), removed afterwards.
    fn with_temp_cache<T>(tag: &str, f: impl FnOnce(&Path) -> T) -> T {
        let dir = std::env::temp_dir().join(format!("dv_cache_test_{}_{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("cannot create the test cache directory");
        let result = f(&dir);
        fs::remove_dir_all(&dir).ok();
        result
    }

    #[test]
    fn model_cache_round_trips() {
        with_temp_cache("model", |dir| {
            let build = || {
                let mut rng = StdRng::seed_from_u64(1);
                let mut net = Network::new(&[4]);
                net.push(Flatten::new()).push(Dense::new(&mut rng, 4, 2));
                net
            };
            let mut first = build();
            let hit1 = model_cached(dir, "t", &mut first, |net| {
                // "Training": overwrite with a distinctive parameter set.
                let mut rng = StdRng::seed_from_u64(99);
                let p = Tensor::randn(&mut rng, &[2, 4], 1.0);
                net.params_and_grads()[0].0.clone_from(&p);
            });
            assert!(!hit1);
            let mut second = build();
            let hit2 = model_cached(dir, "t", &mut second, |_| panic!("must not retrain"));
            assert!(hit2);
            let x = Tensor::ones(&[1, 4]);
            assert_eq!(
                first.forward(&x, false).data(),
                second.forward(&x, false).data()
            );
        });
    }

    #[test]
    fn model_cache_retrains_over_another_architecture() {
        with_temp_cache("arch", |dir| {
            let build = |outputs: usize| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut net = Network::new(&[4]);
                net.push(Flatten::new())
                    .push(Dense::new(&mut rng, 4, outputs));
                net
            };
            // Another architecture cached under the same key.
            assert!(!model_cached(dir, "t", &mut build(3), |_| {}));
            let mut retrained = false;
            let hit = model_cached(dir, "t", &mut build(2), |_| retrained = true);
            assert!(!hit, "a foreign checkpoint must not count as a hit");
            assert!(retrained, "a foreign checkpoint must be retrained over");
            // The retrained model replaced the stale entry.
            assert!(model_cached(dir, "t", &mut build(2), |_| {
                panic!("must not retrain")
            }));
        });
    }

    #[test]
    fn tensors_cache_round_trips() {
        with_temp_cache("tensors", |dir| {
            let compute = || {
                let mut m = BTreeMap::new();
                m.insert("a".to_owned(), Tensor::ones(&[2, 2]));
                m
            };
            let first = tensors_cached(dir, "scores", compute);
            let second = tensors_cached(dir, "scores", || panic!("must not recompute"));
            assert_eq!(first, second);
        });
    }
}
