//! Certified-bounds detector: per-class activation boxes checked at
//! every validated tap.
//!
//! Deep Validation's OCSVMs learn a *statistical* envelope of each
//! layer's behavior; this detector keeps the geometry trivial — an
//! axis-aligned box per (tap, class) calibrated from correctly
//! classified training activations — but intersects it with the *sound*
//! reachable set computed by `dv-absint` over the whole input domain
//! `[0, 1]^D`. The clip certifies that no box extends past activations
//! the network can actually produce, so margin inflation cannot drift
//! the envelope into unreachable space.
//!
//! Scoring: run the plan, take the predicted class, and measure how far
//! each tapped activation exits its class box (normalized per element by
//! the calibrated width). In-distribution inputs land inside every box
//! (score ~ 0); corner cases excite at least one tap outside its class
//! envelope. Higher = more anomalous, like every [`Detector`].

use dv_absint::propagate;
use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};

use crate::detector::Detector;

/// Penalty per tap when an input predicts a class that had no correctly
/// classified calibration examples (nothing to compare against is
/// itself strong evidence of anomaly).
const MISSING_CLASS_SCORE: f32 = 1e3;

/// Per-(tap, class) calibrated box with precomputed score scaling.
struct ClassBox {
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// `1 / (width + eps)` per element, fixed at calibration.
    inv_width: Vec<f32>,
}

/// Anomaly detector flagging inputs whose tapped activations exit the
/// certified per-class boxes. See the module docs.
pub struct BoundsDetector {
    /// Validated probe indices, strictly ascending.
    taps: Vec<usize>,
    /// `boxes[tap_pos][class]`; `None` when no calibration data existed.
    boxes: Vec<Vec<Option<ClassBox>>>,
}

impl BoundsDetector {
    /// Calibrates boxes from the training set: for every image the
    /// network classifies correctly, its tapped activations extend the
    /// `(tap, label)` box; each box is then inflated by `margin`
    /// (a fraction of its per-element width) and clipped to the
    /// abstract-interpretation reachable set over the input domain
    /// `[0, 1]^D`.
    ///
    /// `taps` selects the validated probe indices (strictly ascending),
    /// mirroring the joint validator's layer subset. Activations come from
    /// `plan`, and the reachable set is computed over it.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or lengths mismatch, if `taps` is
    /// empty or out of range, or if no image is correctly classified.
    pub fn fit(
        plan: &InferencePlan,
        images: &[Tensor],
        labels: &[usize],
        taps: &[usize],
        margin: f32,
    ) -> Self {
        dv_trace::span!("bounds.fit");
        assert!(!images.is_empty(), "empty calibration set");
        assert_eq!(images.len(), labels.len(), "images/labels mismatch");
        assert!(!taps.is_empty(), "no validated taps");
        for w in taps.windows(2) {
            assert!(w[0] < w[1], "taps must be strictly ascending");
        }
        assert!(
            *taps.last().expect("non-empty taps") < plan.num_probes(),
            "tap out of range"
        );
        assert!(margin >= 0.0, "negative margin");
        let classes = plan.num_classes();

        // Raw per-(tap, class) min/max envelopes.
        type Envelope = Option<(Vec<f32>, Vec<f32>)>;
        let mut ws = Workspace::new();
        let mut mins: Vec<Vec<Envelope>> = (0..taps.len())
            .map(|_| (0..classes).map(|_| None).collect())
            .collect();
        let mut kept = 0usize;
        for (img, &label) in images.iter().zip(labels) {
            let out = plan.forward_probed_into(img, taps, &mut ws);
            if argmax_row(out.logits()) != label {
                continue; // calibrate only on correct behavior
            }
            kept += 1;
            for (t, row) in mins.iter_mut().enumerate() {
                let act = out.probe(t);
                match &mut row[label] {
                    Some((lo, hi)) => {
                        for (i, &v) in act.iter().enumerate() {
                            if v < lo[i] {
                                lo[i] = v;
                            }
                            if v > hi[i] {
                                hi[i] = v;
                            }
                        }
                    }
                    slot @ None => {
                        *slot = Some((act.to_vec(), act.to_vec()));
                    }
                }
            }
        }
        assert!(kept > 0, "no correctly classified calibration images");

        // Sound reachable envelope over the whole input domain [0, 1]^D:
        // boxes may not extend past what the network can produce at all.
        let item: usize = plan.input_dims().iter().product();
        let reach = propagate(plan, &vec![0.0f32; item], &vec![1.0f32; item]);

        let boxes = mins
            .into_iter()
            .enumerate()
            .map(|(t, per_class)| {
                let rb = &reach.taps[taps[t]];
                per_class
                    .into_iter()
                    .map(|env| {
                        env.map(|(mut lo, mut hi)| {
                            let mut inv_width = Vec::with_capacity(lo.len());
                            for i in 0..lo.len() {
                                let w = hi[i] - lo[i];
                                let pad = margin * w + 1e-6;
                                lo[i] = (lo[i] - pad).max(rb.lo[i] as f32);
                                hi[i] = (hi[i] + pad).min(rb.hi[i] as f32);
                                inv_width.push(1.0 / (hi[i] - lo[i] + 1e-6));
                            }
                            ClassBox { lo, hi, inv_width }
                        })
                    })
                    .collect()
            })
            .collect();
        Self {
            taps: taps.to_vec(),
            boxes,
        }
    }

    /// Number of validated taps.
    pub fn num_taps(&self) -> usize {
        self.taps.len()
    }
}

/// First-on-ties argmax over one logits row (the exact semantics of
/// `Tensor::argmax`).
fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}

impl Detector for BoundsDetector {
    fn name(&self) -> &str {
        "certified-bounds"
    }

    fn score(
        &mut self,
        _net: &mut Network,
        plan: &InferencePlan,
        ws: &mut Workspace,
        image: &Tensor,
    ) -> f32 {
        dv_trace::span!("bounds.score");
        let out = plan.forward_probed_into(image, &self.taps, ws);
        let label = argmax_row(out.logits());
        // Sum over taps of the largest normalized box-exit distance.
        let mut total = 0.0f32;
        for (t, per_class) in self.boxes.iter().enumerate() {
            match &per_class[label] {
                Some(b) => {
                    let mut worst = 0.0f32;
                    for (i, &v) in out.probe(t).iter().enumerate() {
                        let exit = (b.lo[i] - v).max(v - b.hi[i]);
                        if exit > 0.0 {
                            let e = exit * b.inv_width[i];
                            if e > worst {
                                worst = e;
                            }
                        }
                    }
                    total += worst;
                }
                None => total += MISSING_CLASS_SCORE,
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tiny two-class problem: dark images are class 0, bright class 1.
    fn fixture() -> (Network, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new(&[1, 6, 6]);
        net.push(Conv2d::new(&mut rng, 1, 3, 3))
            .push_probe(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push_probe(Dense::new(&mut rng, 12, 2));
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let bright = i % 2 == 1;
            let base = if bright { 0.8 } else { 0.2 };
            let data: Vec<f32> = (0..36).map(|_| base + 0.1 * rng.gen::<f32>()).collect();
            images.push(Tensor::from_vec(data, &[1, 6, 6]));
            labels.push(usize::from(bright));
        }
        let mut opt = dv_nn::optim::Sgd::new(0.5, 0.9);
        let config = dv_nn::train::TrainConfig {
            epochs: 30,
            batch_size: 8,
        };
        dv_nn::train::fit(&mut net, &mut opt, &images, &labels, &config, &mut rng);
        (net, images, labels)
    }

    #[test]
    fn clean_scores_low_and_shifted_scores_high() {
        let (mut net, images, labels) = fixture();
        let plan = net.plan();
        let mut ws = Workspace::new();
        let mut det = BoundsDetector::fit(&plan, &images, &labels, &[0, 1], 0.1);
        let clean = det.score(&mut net, &plan, &mut ws, &images[0]);
        // An extreme, out-of-envelope input must exit the boxes.
        let hot = Tensor::from_vec(vec![5.0f32; 36], &[1, 6, 6]);
        let anomalous = det.score(&mut net, &plan, &mut ws, &hot);
        assert!(clean < anomalous, "clean {clean} vs anomalous {anomalous}");
        assert!(clean < 0.5, "calibration data stays near its own boxes");
    }

    #[test]
    fn boxes_lie_inside_the_reachable_set() {
        let (net, images, labels) = fixture();
        let plan = net.plan();
        let reach = propagate(&plan, &[0.0f32; 36], &[1.0f32; 36]);
        // The large margin pads boxes past the reachable set on both sides.
        for margin in [0.1, 1e3] {
            let det = BoundsDetector::fit(&plan, &images, &labels, &[0, 1], margin);
            for (t, per_class) in det.boxes.iter().enumerate() {
                let rb = &reach.taps[det.taps[t]];
                for b in per_class.iter().flatten() {
                    let inside = (0..b.lo.len())
                        .all(|i| b.lo[i] >= rb.lo[i] as f32 && b.hi[i] <= rb.hi[i] as f32);
                    assert!(
                        inside,
                        "margin {margin}: a tap-{t} box leaves the reachable set"
                    );
                }
            }
            // Tap 0 follows a ReLU: no padded box may reach below zero.
            for b in det.boxes[0].iter().flatten() {
                assert!(b.lo.iter().all(|&v| v >= 0.0), "ReLU tap box below zero");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no correctly classified")]
    fn fit_rejects_all_wrong_labels() {
        let (net, images, labels) = fixture();
        let wrong: Vec<usize> = labels.iter().map(|&l| 1 - l).collect();
        let _ = BoundsDetector::fit(&net.plan(), &images, &wrong, &[0, 1], 0.1);
    }
}
