//! Certified grid-search pruning: skip cells the abstract interpreter
//! proves label-stable.
//!
//! The paper's grid search (see [`crate::search`]) walks a parameter
//! grid weakest-first and evaluates every seed at every step. Many of
//! those evaluations are provably wasted: if `dv-absint` certifies that
//! a seed keeps its label over the *whole parameter region* of a cell,
//! the concrete classification at the cell's grid point cannot be wrong
//! and need not run.
//!
//! A cell's region is the parameter interval between the previous grid
//! step (or the identity parameter — `beta = 0` for brightness,
//! `alpha = 1` for contrast) and the current step. For the pixel-value
//! transforms `dv-imgops` provides the *exact* interval image of a seed
//! under that region, so soundness of the interval propagation gives:
//! certified region ⇒ every parameter in the cell (including the grid
//! point itself) classifies to the seed's label. Affine transforms have
//! no such exact interval image; their cells simply fall back to full
//! concrete evaluation.
//!
//! The pruned walk is **bit-identical** to [`crate::search::grid_search_with_plan`]:
//! certified seeds are correct by construction, so they contribute
//! nothing to the error count or to the confidence sum — exactly what
//! the full walk would have computed for them — and the remaining seeds
//! are evaluated in the same order with the same arithmetic.

use dv_imgops::{brightness_interval, complement_interval, contrast_interval, PixelBox, Transform};
use dv_nn::InferencePlan;
use dv_tensor::{Tensor, Workspace};

use crate::search::{SearchOutcome, SearchSpace};

/// What the certified pruner skipped during one grid search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Grid cells visited before the stopping rule fired.
    pub cells_total: usize,
    /// Cells where *every* seed certified — no concrete evaluation ran.
    pub cells_pruned: usize,
    /// Cells that ran at least one concrete evaluation.
    pub cells_kept: usize,
    /// Distinct seeds certified in at least one cell.
    pub seeds_certified: usize,
    /// Concrete (transform + classify) evaluations skipped, summed over
    /// all `(seed, cell)` certifications.
    pub seed_evals_saved: usize,
}

impl PruneStats {
    /// Fraction of visited cells that were fully pruned.
    pub fn prune_rate(&self) -> f64 {
        if self.cells_total == 0 {
            0.0
        } else {
            self.cells_pruned as f64 / self.cells_total as f64
        }
    }
}

/// The exact pixel box covering `seed` under every parameter of the cell
/// `[prev, cur]`, or `None` when the transform family has no exact
/// interval image (affine warps) and the cell must be evaluated
/// concretely.
fn cell_box(seed: &Tensor, prev: Option<&Transform>, cur: &Transform) -> Option<PixelBox> {
    match cur {
        Transform::Brightness { beta } => {
            let prev_beta = match prev {
                Some(Transform::Brightness { beta }) => *beta,
                // The grid starts at the identity transform.
                _ => 0.0,
            };
            let (lo, hi) = ordered(prev_beta, *beta);
            Some(brightness_interval(seed, lo, hi))
        }
        Transform::Contrast { alpha } => {
            let prev_alpha = match prev {
                Some(Transform::Contrast { alpha }) => *alpha,
                _ => 1.0,
            };
            let (lo, hi) = ordered(prev_alpha, *alpha);
            Some(contrast_interval(seed, lo, hi))
        }
        // Parameterless: the cell region is the single transformed image.
        Transform::Complement => Some(complement_interval(seed)),
        Transform::Rotation { .. }
        | Transform::Shear { .. }
        | Transform::Scale { .. }
        | Transform::Translation { .. }
        | Transform::Compose(_) => None,
    }
}

fn ordered(a: f32, b: f32) -> (f32, f32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Grid search with certified cell pruning.
///
/// Produces the *same* [`SearchOutcome`] as
/// [`crate::search::grid_search_with_plan`] — bit-for-bit, including the
/// success rate and mean confidence — while skipping every concrete
/// evaluation the abstract interpreter proves redundant. The returned
/// [`PruneStats`] reports what was skipped; the same numbers are added
/// to the global metrics registry under `absint.cells_pruned`,
/// `absint.cells_kept` and `absint.seed_evals_saved`.
///
/// # Panics
///
/// Panics if `seeds` is empty or misaligned with `seed_labels`.
pub fn pruned_grid_search_with_plan(
    plan: &InferencePlan,
    seeds: &[Tensor],
    seed_labels: &[usize],
    space: &SearchSpace,
    target_rate: f32,
    min_rate: f32,
) -> (SearchOutcome, PruneStats) {
    dv_trace::span!("absint.pruned_search");
    assert!(!seeds.is_empty(), "no seed images");
    assert_eq!(seeds.len(), seed_labels.len(), "seed/label mismatch");
    let mut ws = Workspace::new();
    let mut stats = PruneStats::default();
    let mut ever_certified = vec![false; seeds.len()];
    let mut best: Option<(Transform, f32, f32)> = None;
    let mut prev: Option<&Transform> = None;
    for step in space.steps() {
        stats.cells_total += 1;
        // Certification pass: prove seeds label-stable over the cell's
        // whole parameter region.
        let mut certified = vec![false; seeds.len()];
        {
            dv_trace::span!("absint.certify_cell");
            for (s, seed) in seeds.iter().enumerate() {
                let stable = match cell_box(seed, prev, step) {
                    Some(b) => {
                        let prop = dv_absint::propagate(plan, &b.lo, &b.hi);
                        dv_absint::certified_label(&prop.logits) == Some(seed_labels[s])
                    }
                    None => false,
                };
                if stable {
                    certified[s] = true;
                    ever_certified[s] = true;
                    stats.seed_evals_saved += 1;
                }
            }
        }
        // Evaluation pass over the seeds that did not certify. A
        // certified seed is provably classified correctly at the grid
        // point, so — exactly as in the full walk — it adds nothing to
        // `wrong` or `conf_sum`; the surviving additions happen in the
        // same seed order with the same arithmetic.
        let mut wrong = 0usize;
        let mut conf_sum = 0.0f32;
        if certified.iter().all(|&c| c) {
            stats.cells_pruned += 1;
        } else {
            stats.cells_kept += 1;
            for (s, seed) in seeds.iter().enumerate() {
                if certified[s] {
                    continue;
                }
                let transformed = step.apply(seed);
                let (pred, conf) = plan.classify(&transformed, &mut ws);
                if pred != seed_labels[s] {
                    wrong += 1;
                    conf_sum += conf;
                }
            }
        }
        let rate = wrong as f32 / seeds.len() as f32;
        let mean_conf = if wrong > 0 {
            conf_sum / wrong as f32
        } else {
            0.0
        };
        // dv-lint: allow(tensor-clone, reason = "clones the small transform descriptor once per grid step, never per image")
        best = Some((step.clone(), rate, mean_conf));
        if rate >= target_rate {
            break;
        }
        prev = Some(step);
    }
    stats.seeds_certified = ever_certified.iter().filter(|&&c| c).count();

    let reg = dv_trace::global();
    reg.counter("absint.cells_pruned")
        .add(stats.cells_pruned as u64);
    reg.counter("absint.cells_kept")
        .add(stats.cells_kept as u64);
    reg.counter("absint.seed_evals_saved")
        .add(stats.seed_evals_saved as u64);

    let (chosen, success_rate, mean_confidence) = best.expect("non-empty grid");
    let outcome = if success_rate < min_rate {
        SearchOutcome {
            kind: space.kind(),
            chosen: None,
            success_rate,
            mean_confidence,
        }
    } else {
        SearchOutcome {
            kind: space.kind(),
            chosen: Some(chosen),
            success_rate,
            mean_confidence,
        }
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::grid_search_with_plan;
    use dv_imgops::TransformKind;
    use dv_nn::layers::{Dense, Flatten, Relu};
    use dv_nn::optim::Adam;
    use dv_nn::train::{fit, TrainConfig};
    use dv_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brightness-separable two-class data and a trained classifier.
    fn fixture(deep: bool) -> (Network, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let class = i % 2;
            let level = if class == 0 { 0.1 } else { 0.7 };
            images.push(Tensor::rand_uniform(
                &mut rng,
                &[1, 4, 4],
                level,
                level + 0.2,
            ));
            labels.push(class);
        }
        let mut net = Network::new(&[1, 4, 4]);
        if deep {
            net.push(Flatten::new())
                .push(Dense::new(&mut rng, 16, 8))
                .push_probe(Relu::new())
                .push(Dense::new(&mut rng, 8, 2));
        } else {
            // A shallow head keeps the interval bounds tight, so small
            // cells certify.
            net.push(Flatten::new())
                .push_probe(Dense::new(&mut rng, 16, 2));
        }
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
        };
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    fn correct_seeds(
        net: &mut Network,
        images: &[Tensor],
        labels: &[usize],
        class: usize,
    ) -> (Vec<Tensor>, Vec<usize>) {
        let mut seeds = Vec::new();
        let mut seed_labels = Vec::new();
        for (img, &l) in images.iter().zip(labels) {
            if l == class && net.classify(&Tensor::stack(std::slice::from_ref(img))).0 == l {
                seeds.push(img.clone());
                seed_labels.push(l);
            }
        }
        (seeds, seed_labels)
    }

    fn assert_same_outcome(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
        assert_eq!(a.mean_confidence.to_bits(), b.mean_confidence.to_bits());
    }

    #[test]
    fn pruned_brightness_search_is_bit_identical_to_full() {
        let (mut net, images, labels) = fixture(true);
        let (seeds, seed_labels) = correct_seeds(&mut net, &images, &labels, 0);
        assert!(seeds.len() >= 10);
        let plan = net.plan();
        let space = SearchSpace::brightness();
        let full = grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        let (pruned, stats) =
            pruned_grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        assert_same_outcome(&full, &pruned);
        assert_eq!(stats.cells_pruned + stats.cells_kept, stats.cells_total);
    }

    #[test]
    fn fine_cells_certify_on_a_shallow_model() {
        let (mut net, images, labels) = fixture(false);
        let (seeds, seed_labels) = correct_seeds(&mut net, &images, &labels, 0);
        assert!(seeds.len() >= 10);
        let plan = net.plan();
        // Tiny brightness biases cannot flip a confidently-correct linear
        // head; the certifier must prove at least some of them stable.
        let space = SearchSpace::new(
            TransformKind::Brightness,
            (1..=5)
                .map(|i| Transform::Brightness {
                    beta: i as f32 * 0.002,
                })
                .collect(),
        );
        let full = grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        let (pruned, stats) =
            pruned_grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        assert_same_outcome(&full, &pruned);
        assert!(
            stats.seed_evals_saved > 0,
            "no seed certified on the fine grid: {stats:?}"
        );
        assert!(stats.cells_pruned > 0, "no cell fully pruned: {stats:?}");
        assert_eq!(full.chosen, None, "tiny biases should not break the model");
    }

    #[test]
    fn contrast_and_complement_cells_are_supported() {
        let (mut net, images, labels) = fixture(true);
        let (seeds, seed_labels) = correct_seeds(&mut net, &images, &labels, 0);
        let plan = net.plan();
        for space in [SearchSpace::contrast(), SearchSpace::complement()] {
            let full = grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
            let (pruned, _stats) =
                pruned_grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
            assert_same_outcome(&full, &pruned);
        }
    }

    #[test]
    fn affine_cells_fall_back_to_full_evaluation() {
        let (mut net, images, labels) = fixture(true);
        let (seeds, seed_labels) = correct_seeds(&mut net, &images, &labels, 0);
        let plan = net.plan();
        let space = SearchSpace::rotation();
        let full = grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        let (pruned, stats) =
            pruned_grid_search_with_plan(&plan, &seeds, &seed_labels, &space, 0.6, 0.3);
        assert_same_outcome(&full, &pruned);
        assert_eq!(stats.cells_pruned, 0);
        assert_eq!(stats.seed_evals_saved, 0);
        assert_eq!(stats.cells_kept, stats.cells_total);
    }
}
