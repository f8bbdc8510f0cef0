//! The Deep Validation framework: Algorithm 1 (fit) and Algorithm 2
//! (discrepancy estimation).

use std::collections::BTreeMap;
use std::fmt;

use dv_nn::{InferencePlan, Network};
use dv_ocsvm::{FitError, OcsvmParams, OneClassSvm, ResolvedKernel, SvmParts};
use dv_tensor::{Tensor, Workspace};

use crate::config::ValidatorConfig;
use crate::error::{BadInput, ScoreError};
use crate::reducer::FeatureReducer;
use crate::report::DiscrepancyReport;

/// Batch size used when sweeping the training set through the network.
const SWEEP_BATCH: usize = 32;

/// Errors from [`DeepValidator::fit`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidatorError {
    /// The training set was empty or misaligned with labels.
    BadTrainingSet(String),
    /// A class had no correctly classified training images left after the
    /// Algorithm 1 filter, so its reference distribution cannot be fit.
    NoCorrectSamples {
        /// The offending class.
        class: usize,
    },
    /// An underlying SVM fit failed.
    Svm(FitError),
}

impl fmt::Display for ValidatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidatorError::BadTrainingSet(what) => write!(f, "bad training set: {what}"),
            ValidatorError::NoCorrectSamples { class } => {
                write!(
                    f,
                    "class {class} has no correctly classified training images"
                )
            }
            ValidatorError::Svm(e) => write!(f, "one-class SVM fit failed: {e}"),
        }
    }
}

impl std::error::Error for ValidatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidatorError::Svm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FitError> for ValidatorError {
    fn from(e: FitError) -> Self {
        ValidatorError::Svm(e)
    }
}

/// Reusable per-worker scratch for the allocation-free scoring path:
/// the kernel's scratch (inference-plan [`Workspace`], reduced
/// representation, tap list) plus the stacked input of
/// [`DeepValidator::score_batch_into`]. After the first image through a
/// given plan everything is warm and [`DeepValidator::score_into`]
/// touches the heap zero times.
#[derive(Debug, Default)]
pub struct ScoreWorkspace {
    scratch: Scratch,
    /// A batch's images, row-major and back to back.
    batch: Vec<f32>,
}

/// What the scoring kernel writes through on every call.
#[derive(Debug, Default)]
struct Scratch {
    ws: Workspace,
    rep: Vec<f32>,
    /// Probe indices of a masked (degraded) score's taps.
    taps: Vec<usize>,
}

impl ScoreWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every buffer's contents while keeping capacity. A workspace
    /// whose last request was aborted mid-forward (deadline, unwind) may
    /// hold stale tapped activations; reset guarantees the next score
    /// starts from a state indistinguishable from a fresh workspace —
    /// without giving up the allocation-free steady state.
    pub fn reset(&mut self) {
        self.scratch.ws.reset();
        self.scratch.rep.clear();
        self.scratch.taps.clear();
        self.batch.clear();
    }

    /// Read-only view of the underlying activation arena (diagnostics
    /// and tests; the serving path never needs it).
    pub fn workspace(&self) -> &Workspace {
        &self.scratch.ws
    }
}

/// Validates one image against a plan's input contract: the shape must
/// be the plan's input item shape (a leading batch axis of 1 is
/// accepted), and every pixel must be finite. This is the typed-error
/// front door that keeps malformed requests from panicking a scoring
/// worker.
///
/// # Errors
///
/// Returns [`BadInput`] naming the first violated property.
pub fn validate_plan_input(plan: &InferencePlan, image: &Tensor) -> Result<(), BadInput> {
    let dims = image.shape().dims();
    let item = plan.input_dims();
    let shape_ok =
        dims == item || (dims.len() == item.len() + 1 && dims[0] == 1 && &dims[1..] == item);
    if !shape_ok {
        return Err(BadInput::WrongShape {
            expected: item.to_vec(),
            got: dims.to_vec(),
        });
    }
    if let Some(index) = image.data().iter().position(|x| !x.is_finite()) {
        return Err(BadInput::NonFinite { index });
    }
    Ok(())
}

/// Index of the maximum element, first on ties — the exact semantics of
/// `Tensor::argmax`, applied to a borrowed logits row.
fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}

/// Max softmax probability of a logits row, streaming the exact
/// arithmetic of `stats::softmax(row).max()` (max-subtract, `exp`,
/// sequential sum, scale by `1/z`, `f32::max` fold) without
/// materializing the probability vector.
fn softmax_max(row: &[f32]) -> f32 {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = row.iter().map(|&x| (x - m).exp()).sum();
    let inv = 1.0 / z;
    row.iter()
        .map(|&x| (x - m).exp() * inv)
        .fold(f32::NEG_INFINITY, f32::max)
}

/// A fitted Deep Validation detector: one one-class SVM per
/// `(validated layer, class)` pair plus the feature reduction used to
/// build them.
#[derive(Debug, Clone)]
pub struct DeepValidator {
    /// `svms[v][k]` = SVM for validated probe `v`, class `k`.
    svms: Vec<Vec<OneClassSvm>>,
    /// Indices of validated probes within the network's probe list.
    probe_indices: Vec<usize>,
    num_classes: usize,
    reducer: FeatureReducer,
}

impl DeepValidator {
    /// Algorithm 1: fits the per-layer, per-class one-class SVMs.
    ///
    /// `images`/`labels` are the (clean) training set; images the network
    /// misclassifies are dropped first, exactly as the paper prescribes
    /// ("they are likely to be outliers and will do harm to the training
    /// of SVMs").
    ///
    /// # Errors
    ///
    /// Returns [`ValidatorError`] if the training set is empty or
    /// misaligned, a class ends up with no correct samples, or an SVM fit
    /// fails.
    pub fn fit(
        net: &Network,
        images: &[Tensor],
        labels: &[usize],
        config: &ValidatorConfig,
    ) -> Result<Self, ValidatorError> {
        if images.is_empty() {
            return Err(ValidatorError::BadTrainingSet("no images".into()));
        }
        if images.len() != labels.len() {
            return Err(ValidatorError::BadTrainingSet(format!(
                "{} images vs {} labels",
                images.len(),
                labels.len()
            )));
        }
        let num_classes = labels.iter().max().copied().unwrap_or(0) + 1;
        let total_probes = net.num_probes();
        if total_probes == 0 {
            return Err(ValidatorError::BadTrainingSet(
                "network declares no probe points".into(),
            ));
        }
        let probe_indices = config.layers.indices(total_probes);
        let reducer = FeatureReducer::new(config.max_spatial);

        // Sweep the training set: predicted class plus reduced probe
        // representations for every image. All batches run through one
        // shared immutable inference plan — nothing is cloned per worker;
        // each batch brings only a scratch workspace. Sequential and
        // parallel paths compute identical per-image values, and only the
        // validated probes are materialized (tap mask).
        let plan = net.plan();
        let batches: Vec<(usize, usize)> = (0..images.len())
            .step_by(SWEEP_BATCH)
            .map(|s| (s, (s + SWEEP_BATCH).min(images.len())))
            .collect();
        let plan_ref = &plan;
        let probe_ref = &probe_indices;
        let sweep_batch = |ws: &mut Workspace, &(start, end): &(usize, usize)| {
            let x = Tensor::stack(&images[start..end]);
            let out = plan_ref.forward_probed_into(&x, probe_ref, ws);
            let classes = out.num_classes();
            (0..end - start)
                .map(|bi| {
                    let predicted = argmax_row(&out.logits()[bi * classes..(bi + 1) * classes]);
                    let image_reps: Vec<Vec<f32>> = probe_ref
                        .iter()
                        .enumerate()
                        .map(|(t, &p)| {
                            let dims = plan_ref.probe_item_dims(p);
                            let item: usize = dims.iter().product();
                            let mut rep = Vec::new();
                            reducer.reduce_into(
                                dims,
                                &out.probe(t)[bi * item..(bi + 1) * item],
                                &mut rep,
                            );
                            rep
                        })
                        .collect();
                    (predicted, image_reps)
                })
                .collect::<Vec<_>>()
        };
        let per_image: Vec<(usize, Vec<Vec<f32>>)> = if dv_runtime::current_threads() <= 1 {
            let mut ws = Workspace::new();
            batches
                .iter()
                .flat_map(|range| sweep_batch(&mut ws, range))
                .collect()
        } else {
            dv_runtime::par_map(&batches, |range| sweep_batch(&mut Workspace::new(), range))
                .into_iter()
                .flatten()
                .collect()
        };

        // Keep the correctly classified images, grouped per
        // (validated probe, class), respecting the per-class cap —
        // sequential so the cap semantics stay order-deterministic.
        let mut reps: Vec<Vec<Vec<Vec<f32>>>> =
            vec![vec![Vec::new(); num_classes]; probe_indices.len()];
        let mut kept_per_class = vec![0usize; num_classes];
        for (global, (predicted, image_reps)) in per_image.into_iter().enumerate() {
            let label = labels[global];
            if predicted != label || kept_per_class[label] >= config.max_per_class {
                continue;
            }
            kept_per_class[label] += 1;
            for (v, rep) in image_reps.into_iter().enumerate() {
                reps[v][label].push(rep);
            }
        }
        for (class, &count) in kept_per_class.iter().enumerate() {
            if count == 0 {
                return Err(ValidatorError::NoCorrectSamples { class });
            }
        }

        // Fit SVM(i, k) for every validated layer and class: the
        // (layer, class) grid fans out across the pool. Results come back
        // in grid order, so the first error is the same one the
        // sequential nested loop would have hit.
        let params = OcsvmParams {
            nu: config.nu,
            kernel: config.kernel,
            tol: config.tol,
            max_iter: config.max_iter,
        };
        let pairs: Vec<(usize, usize)> = (0..probe_indices.len())
            .flat_map(|v| (0..num_classes).map(move |k| (v, k)))
            .collect();
        let reps_ref = &reps;
        let mut fitted =
            dv_runtime::par_map(&pairs, |&(v, k)| OneClassSvm::fit(&reps_ref[v][k], &params))
                .into_iter();
        let mut svms = Vec::with_capacity(probe_indices.len());
        for _ in 0..probe_indices.len() {
            let mut layer_svms = Vec::with_capacity(num_classes);
            for _ in 0..num_classes {
                layer_svms.push(fitted.next().expect("par_map preserves arity")?);
            }
            svms.push(layer_svms);
        }
        Ok(Self {
            svms,
            probe_indices,
            num_classes,
            reducer,
        })
    }

    /// Algorithm 2: scores one `[C, H, W]` image through `plan`, reusing
    /// `sw` for every scratch buffer. Only the validated probes are
    /// tapped.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::BadInput`] if the image shape does not match
    /// the plan input or a pixel is non-finite.
    pub fn score(
        &self,
        plan: &InferencePlan,
        image: &Tensor,
        sw: &mut ScoreWorkspace,
    ) -> Result<DiscrepancyReport, ScoreError> {
        dv_trace::span!("core.score");
        let mut per_layer = Vec::with_capacity(self.probe_indices.len());
        let (predicted, confidence) = self.score_into(plan, image, sw, &mut per_layer)?;
        Ok(DiscrepancyReport::new(predicted, confidence, per_layer))
    }

    /// [`score`](DeepValidator::score) without constructing a report:
    /// fills `per_layer` (cleared first) and returns
    /// `(predicted, confidence)`. With a warmed-up `sw` and `per_layer`
    /// this path performs zero heap allocations per image on the success
    /// path (the error path allocates only to describe the bad input).
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::BadInput`] if the image shape does not match
    /// the plan input or a pixel is non-finite.
    pub fn score_into(
        &self,
        plan: &InferencePlan,
        image: &Tensor,
        sw: &mut ScoreWorkspace,
        per_layer: &mut Vec<f32>,
    ) -> Result<(usize, f32), ScoreError> {
        dv_trace::span!("core.score_into");
        self.score_one(plan, image, None, sw, per_layer)
    }

    /// Degraded-mode scoring: like
    /// [`score_into`](DeepValidator::score_into) but evaluates only the
    /// validated probes whose positions are listed in `keep` (ascending
    /// indices into [`validated_probes`](DeepValidator::validated_probes)).
    /// The forward pass taps only those probes, so a deadline-squeezed
    /// server pays for exactly the layers it reports. Entries of
    /// `per_layer` are the same bits full scoring would produce for those
    /// positions; an empty `keep` degrades to prediction + confidence
    /// only.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::BadInput`] if the image shape does not match
    /// the plan input or a pixel is non-finite.
    pub fn score_masked_into(
        &self,
        plan: &InferencePlan,
        image: &Tensor,
        keep: &[usize],
        sw: &mut ScoreWorkspace,
        per_layer: &mut Vec<f32>,
    ) -> Result<(usize, f32), ScoreError> {
        dv_trace::span!("core.score_masked_into");
        self.score_one(plan, image, Some(keep), sw, per_layer)
    }

    /// One validated image through [`score_flat`](Self::score_flat).
    fn score_one(
        &self,
        plan: &InferencePlan,
        image: &Tensor,
        keep: Option<&[usize]>,
        sw: &mut ScoreWorkspace,
        per_layer: &mut Vec<f32>,
    ) -> Result<(usize, f32), ScoreError> {
        validate_plan_input(plan, image)?;
        let mut top = (0, 0.0);
        let scratch = &mut sw.scratch;
        self.score_flat(plan, image.data(), keep, scratch, per_layer, |p, c| {
            top = (p, c)
        });
        Ok(top)
    }

    /// Batched Algorithm 2: scores every image in `images` through one
    /// stacked forward pass. Per image, `results` receives
    /// `(predicted, confidence)` and `per_layer` receives one row of
    /// validated-layer discrepancies (`per_layer[bi * L + t]` is image
    /// `bi`'s tap `t`) — every value bit-identical to `B` separate
    /// [`score_into`](DeepValidator::score_into) calls, at any
    /// `DV_THREADS`. `results` and `per_layer` are cleared first.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::BadInput`] on the first malformed image;
    /// nothing is scored.
    pub fn score_batch_into(
        &self,
        plan: &InferencePlan,
        images: &[Tensor],
        sw: &mut ScoreWorkspace,
        results: &mut Vec<(usize, f32)>,
        per_layer: &mut Vec<f32>,
    ) -> Result<(), ScoreError> {
        let ScoreWorkspace { scratch, batch } = sw;
        batch.clear();
        for image in images {
            validate_plan_input(plan, image)?;
            batch.extend_from_slice(image.data());
        }
        dv_trace::span!("core.score_batch");
        results.clear();
        self.score_flat(plan, batch, None, scratch, per_layer, |p, c| {
            results.push((p, c));
        });
        Ok(())
    }

    /// The one per-image tap loop behind every scoring entry point.
    /// Scores the row-major images laid back to back in `input` through
    /// one forward pass over the validated-probe positions in `keep`
    /// (`None` = all of them), appending each image's discrepancy row to
    /// `per_layer` (cleared first) and handing its
    /// `(predicted, confidence)` to `on_image`, in image order. The
    /// reducer and SVM see the same bits for an image whatever the
    /// batch around it, which is what makes batch == singles.
    fn score_flat(
        &self,
        plan: &InferencePlan,
        input: &[f32],
        keep: Option<&[usize]>,
        scratch: &mut Scratch,
        per_layer: &mut Vec<f32>,
        mut on_image: impl FnMut(usize, f32),
    ) {
        per_layer.clear();
        let item: usize = plan.input_dims().iter().product();
        let n = input.len() / item;
        if n == 0 {
            return;
        }
        let Scratch { ws, rep, taps } = scratch;
        let taps: &[usize] = match keep {
            None => &self.probe_indices,
            Some(keep) => {
                debug_assert!(
                    keep.windows(2).all(|w| w[0] < w[1]),
                    "keep positions must be strictly ascending"
                );
                debug_assert!(
                    keep.iter().all(|&v| v < self.probe_indices.len()),
                    "keep positions must index the validated probe list"
                );
                taps.clear();
                taps.extend(keep.iter().map(|&v| self.probe_indices[v]));
                taps
            }
        };
        let out = plan.forward_probed_flat_into(input, n, taps, ws);
        let classes = out.num_classes();
        for bi in 0..n {
            let row = &out.logits()[bi * classes..(bi + 1) * classes];
            let predicted = argmax_row(row);
            for (t, &p) in taps.iter().enumerate() {
                // Position `v` in the validated list (= `t` unmasked):
                // the SVMs are indexed by validated position.
                let v = keep.map_or(t, |k| k[t]);
                let dims = plan.probe_item_dims(p);
                let len: usize = dims.iter().product();
                self.reducer
                    .reduce_into(dims, &out.probe(t)[bi * len..(bi + 1) * len], rep);
                per_layer.push(-(self.svms[v][predicted].decision(rep) as f32));
            }
            on_image(predicted, softmax_max(row));
        }
    }

    /// Algorithm 2 over many inputs through one shared immutable plan.
    ///
    /// Contiguous chunks of images run in parallel; every worker scores
    /// against the same `&InferencePlan` with its own [`ScoreWorkspace`]
    /// (nothing is cloned). Reports come back in input order and are
    /// bit-identical to the sequential loop at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if an image does not match the plan input or holds a
    /// non-finite pixel.
    pub fn discrepancies_with_plan(
        &self,
        plan: &InferencePlan,
        images: &[Tensor],
    ) -> Vec<DiscrepancyReport> {
        let threads = dv_runtime::current_threads();
        if threads <= 1 || images.len() <= 1 {
            let mut sw = ScoreWorkspace::new();
            return images
                .iter()
                .map(|img| {
                    self.score(plan, img, &mut sw)
                        .expect("eval-set images match the plan input and are finite")
                })
                .collect();
        }
        let chunks: Vec<&[Tensor]> = images.chunks(images.len().div_ceil(threads)).collect();
        dv_runtime::par_map(&chunks, |chunk| {
            let mut sw = ScoreWorkspace::new();
            chunk
                .iter()
                .map(|img| {
                    self.score(plan, img, &mut sw)
                        .expect("eval-set images match the plan input and are finite")
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Number of validated layers (rows of the paper's Table VI per
    /// dataset).
    pub fn num_validated_layers(&self) -> usize {
        self.probe_indices.len()
    }

    /// The validated probe indices within the network's probe list.
    pub fn validated_probes(&self) -> &[usize] {
        &self.probe_indices
    }

    /// Number of classes (SVMs per layer).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of fitted SVMs.
    pub fn num_svms(&self) -> usize {
        self.svms.iter().map(|l| l.len()).sum()
    }

    /// Serializes the validator into named tensors (for on-disk caching
    /// through `dv_tensor::io::write_named`).
    pub fn to_named_tensors(&self) -> BTreeMap<String, Tensor> {
        let mut out = BTreeMap::new();
        out.insert(
            "meta".to_owned(),
            Tensor::from_vec(
                vec![
                    self.num_classes as f32,
                    self.probe_indices.len() as f32,
                    self.reducer.max_spatial() as f32,
                ],
                &[3],
            ),
        );
        out.insert(
            "probes".to_owned(),
            Tensor::from_vec(
                self.probe_indices.iter().map(|&p| p as f32).collect(),
                &[self.probe_indices.len()],
            ),
        );
        for (v, layer) in self.svms.iter().enumerate() {
            for (k, svm) in layer.iter().enumerate() {
                let parts = svm.to_parts();
                let n = parts.support.len();
                let d = parts.support.first().map_or(1, |r| r.len());
                let mut flat = Vec::with_capacity(n * d);
                for row in &parts.support {
                    flat.extend_from_slice(row);
                }
                let prefix = format!("svm.{v:02}.{k:02}");
                out.insert(format!("{prefix}.support"), Tensor::from_vec(flat, &[n, d]));
                out.insert(
                    format!("{prefix}.alpha"),
                    Tensor::from_vec(parts.alpha.iter().map(|&a| a as f32).collect(), &[n]),
                );
                let (kind, gamma) = match parts.kernel {
                    ResolvedKernel::Rbf { gamma } => (0.0, gamma as f32),
                    ResolvedKernel::Linear => (1.0, 0.0),
                };
                out.insert(
                    format!("{prefix}.meta"),
                    Tensor::from_vec(vec![parts.rho as f32, kind, gamma], &[3]),
                );
            }
        }
        out
    }

    /// Rebuilds a validator from tensors produced by
    /// [`to_named_tensors`](DeepValidator::to_named_tensors).
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid map (missing keys, bad shapes) —
    /// cache corruption is a programming/environment error, not a user
    /// input.
    pub fn from_named_tensors(entries: &BTreeMap<String, Tensor>) -> Self {
        let meta = entries.get("meta").expect("missing meta");
        let num_classes = meta.data()[0] as usize;
        let num_layers = meta.data()[1] as usize;
        let max_spatial = meta.data()[2] as usize;
        let probes = entries.get("probes").expect("missing probes");
        let probe_indices: Vec<usize> = probes.data().iter().map(|&p| p as usize).collect();
        assert_eq!(probe_indices.len(), num_layers, "probe count mismatch");

        let mut svms = Vec::with_capacity(num_layers);
        for v in 0..num_layers {
            let mut layer = Vec::with_capacity(num_classes);
            for k in 0..num_classes {
                let prefix = format!("svm.{v:02}.{k:02}");
                let support_t = entries
                    .get(&format!("{prefix}.support"))
                    .unwrap_or_else(|| panic!("missing {prefix}.support"));
                let alpha_t = entries
                    .get(&format!("{prefix}.alpha"))
                    .unwrap_or_else(|| panic!("missing {prefix}.alpha"));
                let meta_t = entries
                    .get(&format!("{prefix}.meta"))
                    .unwrap_or_else(|| panic!("missing {prefix}.meta"));
                let n = support_t.shape().dim(0);
                let d = support_t.shape().dim(1);
                let support: Vec<Vec<f32>> = (0..n)
                    .map(|i| support_t.data()[i * d..(i + 1) * d].to_vec())
                    .collect();
                let alpha: Vec<f64> = alpha_t.data().iter().map(|&a| a as f64).collect();
                let rho = meta_t.data()[0] as f64;
                // dv-lint: allow(float-eq, reason = "kernel discriminant is a stored constant 0.0/1.0 round-tripped verbatim, not a computed value")
                let kernel = if meta_t.data()[1] == 0.0 {
                    ResolvedKernel::Rbf {
                        gamma: meta_t.data()[2] as f64,
                    }
                } else {
                    ResolvedKernel::Linear
                };
                layer.push(OneClassSvm::from_parts(SvmParts {
                    support,
                    alpha,
                    rho,
                    kernel,
                }));
            }
            svms.push(layer);
        }
        Self {
            svms,
            probe_indices,
            num_classes,
            reducer: FeatureReducer::new(max_spatial),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerSelection;
    use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
    use dv_nn::optim::Adam;
    use dv_nn::train::{fit as train_fit, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 3-class toy image problem: class = which third of the image the
    /// bright blob sits in.
    fn toy_data(rng: &mut StdRng, n: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 3;
            let mut img = Tensor::zeros(&[1, 12, 12]);
            let cx = 2 + class * 4;
            let cy = rng.gen_range(3usize..9);
            for dy in 0..3 {
                for dx in 0..3 {
                    img.set(&[0, cy + dy - 1, cx + dx - 1], rng.gen_range(0.7..1.0));
                }
            }
            images.push(img);
            labels.push(class);
        }
        (images, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(&[1, 12, 12]);
        net.push(Conv2d::new(&mut rng, 1, 4, 3))
            .push_probe(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push(Dense::new(&mut rng, 4 * 5 * 5, 16))
            .push_probe(Relu::new())
            .push(Dense::new(&mut rng, 16, 3));
        net
    }

    /// Algorithm 2 on one image with a fresh workspace.
    fn score(v: &DeepValidator, plan: &InferencePlan, img: &Tensor) -> DiscrepancyReport {
        v.score(plan, img, &mut ScoreWorkspace::new())
            .expect("toy images are well-formed")
    }

    fn trained_setup() -> (Network, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = toy_data(&mut rng, 120);
        let mut net = toy_net(1);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 16,
        };
        train_fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    #[test]
    fn fit_produces_one_svm_per_layer_and_class() {
        let (net, images, labels) = trained_setup();
        let v = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
        assert_eq!(v.num_validated_layers(), 2);
        assert_eq!(v.num_classes(), 3);
        assert_eq!(v.num_svms(), 6);
    }

    #[test]
    fn clean_inputs_score_below_garbage_inputs() {
        let (net, images, labels) = trained_setup();
        let v = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
        let plan = net.plan();
        let clean: f32 = images[..20]
            .iter()
            .map(|img| score(&v, &plan, img).joint)
            .sum::<f32>()
            / 20.0;
        // Garbage: uniform noise, far from any training manifold.
        let mut rng = StdRng::seed_from_u64(9);
        let noise: f32 = (0..20)
            .map(|_| {
                let img = Tensor::rand_uniform(&mut rng, &[1, 12, 12], 0.0, 1.0);
                score(&v, &plan, &img).joint
            })
            .sum::<f32>()
            / 20.0;
        assert!(
            noise > clean,
            "noise discrepancy {noise} not above clean {clean}"
        );
    }

    #[test]
    fn last_k_selection_validates_fewer_layers() {
        let (net, images, labels) = trained_setup();
        let cfg = ValidatorConfig {
            layers: LayerSelection::LastK(1),
            ..ValidatorConfig::default()
        };
        let v = DeepValidator::fit(&net, &images, &labels, &cfg).unwrap();
        assert_eq!(v.num_validated_layers(), 1);
        assert_eq!(v.validated_probes(), &[1]);
        let report = score(&v, &net.plan(), &images[0]);
        assert_eq!(report.per_layer.len(), 1);
    }

    #[test]
    fn report_prediction_matches_network() {
        let (mut net, images, labels) = trained_setup();
        let v = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
        let plan = net.plan();
        for img in images.iter().take(5) {
            let report = score(&v, &plan, img);
            let (label, conf) = net.classify(&Tensor::stack(std::slice::from_ref(img)));
            assert_eq!(report.predicted, label);
            assert!((report.confidence - conf).abs() < 1e-6);
        }
    }

    #[test]
    fn named_tensor_round_trip_preserves_scores() {
        let (net, images, labels) = trained_setup();
        let v = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()).unwrap();
        let entries = v.to_named_tensors();
        let v2 = DeepValidator::from_named_tensors(&entries);
        let plan = net.plan();
        for img in images.iter().take(5) {
            let a = score(&v, &plan, img);
            let b = score(&v2, &plan, img);
            assert_eq!(a.predicted, b.predicted);
            assert!(
                (a.joint - b.joint).abs() < 1e-4,
                "joint {} vs {}",
                a.joint,
                b.joint
            );
        }
    }

    #[test]
    fn streaming_softmax_matches_tensor_path() {
        let rows = [
            vec![0.3f32, -1.2, 2.5, 2.5],
            vec![1.0f32, 4.0, 4.0, -2.0],
            vec![0.0f32, 0.0],
            vec![-7.0f32, -7.0, -7.0],
            vec![80.0f32, -80.0, 79.5, 3.0],
            vec![1e4f32, 9999.0, -1e4],
            vec![-3.5f32, -0.25, -12.0, -0.25],
        ];
        for row in rows {
            let t = Tensor::from_vec(row.clone(), &[row.len()]);
            let probs = dv_tensor::stats::softmax(&t);
            assert_eq!(argmax_row(&row), t.argmax(), "argmax of {row:?}");
            assert_eq!(
                softmax_max(&row).to_bits(),
                probs.max().to_bits(),
                "max softmax of {row:?}"
            );
        }
    }

    #[test]
    fn mismatched_labels_are_rejected() {
        let (net, images, _) = trained_setup();
        let err = DeepValidator::fit(&net, &images, &[0], &ValidatorConfig::default()).unwrap_err();
        assert!(matches!(err, ValidatorError::BadTrainingSet(_)));
    }

    #[test]
    fn untrained_network_fails_with_no_correct_samples_or_fits_poorly() {
        // An untrained network predicts one class for nearly everything,
        // so some class ends up with zero correct samples.
        let mut rng = StdRng::seed_from_u64(5);
        let (images, labels) = toy_data(&mut rng, 60);
        let net = toy_net(6);
        match DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default()) {
            Err(ValidatorError::NoCorrectSamples { .. }) | Ok(_) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
