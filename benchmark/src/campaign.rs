//! The offline validation campaign: fit the validator (Algorithm 1),
//! grid-search the transformation catalogue for corner cases, assemble
//! the evaluation set, and score it (Algorithm 2).

use std::time::Instant;

use dv_core::{DeepValidator, DiscrepancyReport};
use dv_datasets::Split;
use dv_eval::search::{grid_search_with_plan, SearchOutcome, SearchSpace};
use dv_eval::EvaluationSet;
use dv_nn::InferencePlan;
use dv_tensor::{Tensor, Workspace};

use dv_bench::pipeline::{MIN_SUCCESS_RATE, TARGET_SUCCESS_RATE};

use crate::fixture::{self, Model};
use crate::serve;

/// Correctly classified seed images the search transforms (the paper
/// uses 200; 60 keeps one campaign near two seconds on two cores, so a
/// run holds several).
pub const N_SEEDS: usize = 60;
/// Test images drawn per campaign: the seeds come from the front, the
/// clean negatives from the rest.
pub const N_TEST: usize = 600;
/// Eval images per `discrepancies_with_plan` call. Each image's verdict
/// is available when its chunk returns, which gives the campaign a
/// per-image time to result.
pub const SCORE_CHUNK: usize = 64;

/// One campaign's timings, outputs and digest.
pub struct Campaign {
    pub wall_s: f64,
    pub search_s: f64,
    /// Per eval image: campaign start to the return of its chunk, µs.
    pub latencies_us: Vec<f64>,
    /// Eval images scored.
    pub n_eval: usize,
    /// Eval images whose report covers every validated layer.
    pub full_joint: usize,
    /// Joint-discrepancy ROC-AUC, successful corner cases vs clean.
    pub auc: f64,
    /// Grid steps the search evaluated, over every family.
    pub steps_walked: usize,
    /// Seed-image classifications the search made.
    pub seed_evals: usize,
    /// FNV-1a over the search outcomes and every eval report.
    pub digest: u64,
}

/// A campaign's eval images and the reports it scored them with.
pub struct Scored {
    pub images: Vec<Tensor>,
    pub reports: Vec<DiscrepancyReport>,
}

impl Scored {
    /// Reports whose bits differ from sequential `score_into` on their
    /// image: a change to the pool or the chunking that alters any bit
    /// shows here.
    pub fn mismatches(&self, validator: &DeepValidator, plan: &InferencePlan) -> usize {
        serve::references(validator, plan, &self.images)
            .iter()
            .zip(&self.reports)
            .filter(|(want, got)| !want.matches_report(got))
            .count()
    }
}

/// Runs one campaign and returns it with the validator it fitted and
/// what it scored. Call it inside the run's `dv_runtime::Pool`: the fit,
/// the per-family search and the scoring fan out across it.
pub fn run(model: &Model, test: &Split) -> (Campaign, DeepValidator, Scored) {
    let t0 = Instant::now();
    let validator = DeepValidator::fit(
        &model.net,
        &model.train.images,
        &model.train.labels,
        &fixture::validator_config(),
    )
    .expect("the trained digits model classifies every class correctly somewhere");

    let t = Instant::now();
    let plan = &*model.plan;
    let (seeds, seed_labels, after_seeds) = seed_set(plan, test);
    let spaces = SearchSpace::catalogue(true);
    // One family per task, all against the one shared plan, in catalogue
    // order (as `Experiment::search_corner_cases` runs it).
    let outcomes = dv_runtime::par_map(&spaces, |space| {
        grid_search_with_plan(
            plan,
            &seeds,
            &seed_labels,
            space,
            TARGET_SUCCESS_RATE,
            MIN_SUCCESS_RATE,
        )
    });
    let search_s = t.elapsed().as_secs_f64();
    let steps_walked: usize = spaces
        .iter()
        .zip(&outcomes)
        .map(|(space, o)| steps_walked(space, o))
        .sum();

    let mut set = EvaluationSet::new();
    let mut ws = Workspace::new();
    for outcome in &outcomes {
        let Some(transform) = &outcome.chosen else {
            continue;
        };
        let items = transform
            .apply_batch(&seeds)
            .into_iter()
            .zip(seed_labels.iter().copied());
        set.extend_corner_with_plan(plan, &mut ws, outcome.kind, items);
    }
    let n_clean = set.corner.len().min(test.len() - after_seeds);
    set.extend_clean(
        test.images[after_seeds..after_seeds + n_clean]
            .iter()
            .cloned(),
    );
    let EvaluationSet { clean, corner } = set;
    let mut images: Vec<Tensor> = clean;
    let mut successful = Vec::with_capacity(corner.len());
    for c in corner {
        successful.push(c.successful);
        images.push(c.image);
    }

    let mut reports: Vec<DiscrepancyReport> = Vec::with_capacity(images.len());
    let mut latencies_us = Vec::with_capacity(images.len());
    for chunk in images.chunks(SCORE_CHUNK) {
        reports.extend(validator.discrepancies_with_plan(plan, chunk));
        let done_us = t0.elapsed().as_secs_f64() * 1e6;
        latencies_us.extend(std::iter::repeat_n(done_us, chunk.len()));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (clean_reports, corner_reports) = reports.split_at(n_clean);
    let negatives: Vec<f32> = clean_reports.iter().map(|r| r.joint).collect();
    let positives: Vec<f32> = corner_reports
        .iter()
        .zip(&successful)
        .filter(|(_, &s)| s)
        .map(|(r, _)| r.joint)
        .collect();
    let auc = if negatives.is_empty() || positives.is_empty() {
        f64::NAN
    } else {
        dv_eval::roc_auc(&negatives, &positives)
    };
    let layers = validator.num_validated_layers();
    let campaign = Campaign {
        wall_s,
        search_s,
        n_eval: reports.len(),
        full_joint: reports
            .iter()
            .filter(|r| r.per_layer.len() == layers)
            .count(),
        latencies_us,
        auc,
        steps_walked,
        seed_evals: steps_walked * seeds.len(),
        digest: digest(&outcomes, &reports),
    };
    (campaign, validator, Scored { images, reports })
}

/// The first [`N_SEEDS`] correctly classified test images, their labels,
/// and the index just past the last one scanned.
fn seed_set(plan: &InferencePlan, test: &Split) -> (Vec<Tensor>, Vec<usize>, usize) {
    let mut ws = Workspace::new();
    let mut seeds = Vec::with_capacity(N_SEEDS);
    let mut labels = Vec::with_capacity(N_SEEDS);
    let mut next = 0;
    while seeds.len() < N_SEEDS && next < test.len() {
        let (pred, _) = plan.classify(&test.images[next], &mut ws);
        if pred == test.labels[next] {
            seeds.push(test.images[next].clone());
            labels.push(test.labels[next]);
        }
        next += 1;
    }
    (seeds, labels, next)
}

/// Grid steps `grid_search_with_plan` evaluated for `outcome`: it stops
/// at the first step reaching the target rate, and otherwise walks the
/// whole grid.
pub fn steps_walked(space: &SearchSpace, outcome: &SearchOutcome) -> usize {
    let stopped_at = outcome
        .chosen
        .as_ref()
        .filter(|_| outcome.success_rate >= TARGET_SUCCESS_RATE)
        .and_then(|t| space.steps().iter().position(|s| s == t));
    stopped_at.map_or(space.steps().len(), |i| i + 1)
}

/// FNV-1a over the search outcomes and the eval reports, bit for bit.
pub fn digest(outcomes: &[SearchOutcome], reports: &[DiscrepancyReport]) -> u64 {
    let mut h = Fnv::new();
    for o in outcomes {
        h.bytes(o.kind.label().as_bytes());
        h.bytes(format!("{:?}", o.chosen).as_bytes());
        h.u64(u64::from(o.success_rate.to_bits()));
        h.u64(u64::from(o.mean_confidence.to_bits()));
    }
    for r in reports {
        h.u64(r.predicted as u64);
        h.u64(u64::from(r.confidence.to_bits()));
        for d in &r.per_layer {
            h.u64(u64::from(d.to_bits()));
        }
        h.u64(u64::from(r.joint.to_bits()));
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_imgops::{Transform, TransformKind};

    fn outcome(chosen: Option<Transform>, rate: f32) -> SearchOutcome {
        SearchOutcome {
            kind: TransformKind::Rotation,
            chosen,
            success_rate: rate,
            mean_confidence: 0.5,
        }
    }

    #[test]
    fn steps_walked_follows_the_stopping_rule() {
        let space = SearchSpace::rotation();
        let third = Transform::Rotation { deg: 6.0 };
        assert_eq!(steps_walked(&space, &outcome(Some(third.clone()), 0.7)), 3);
        // Below target the search ran off the end of the grid.
        assert_eq!(steps_walked(&space, &outcome(Some(third), 0.4)), 35);
        assert_eq!(steps_walked(&space, &outcome(None, 0.1)), 35);
    }

    #[test]
    fn digest_changes_with_any_report_bit() {
        let outcomes = vec![outcome(None, 0.1)];
        let report = DiscrepancyReport::new(2, 0.75, vec![0.5, -0.25]);
        let base = digest(&outcomes, std::slice::from_ref(&report));
        assert_eq!(base, digest(&outcomes, std::slice::from_ref(&report)));
        let mut flipped = report.clone();
        flipped.joint = f32::from_bits(flipped.joint.to_bits() ^ 1);
        assert_ne!(base, digest(&outcomes, &[flipped]));
        let mut layer = report;
        layer.per_layer[0] = f32::from_bits(layer.per_layer[0].to_bits() ^ 1);
        assert_ne!(base, digest(&outcomes, &[layer]));
        assert_ne!(base, digest(&[outcome(None, 0.2)], &[]));
    }
}
