//! End-to-end thread-count parity: Algorithm 1 (fit), Algorithm 2
//! (discrepancy scoring) and batch inference must produce bit-identical
//! detectors, scores and labels whether the `dv-runtime` pool runs
//! sequentially or on four threads, on either kernel arm (the forced
//! scalar kernels and, where the CPU has AVX, the AVX kernels), and the
//! two arms must agree with each other.

use dv_core::{DeepValidator, DiscrepancyReport, ValidatorConfig};
use dv_nn::layers::{Dense, Flatten, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, predict_labels, TrainConfig};
use dv_nn::Network;
use dv_runtime::Pool;
use dv_tensor::{gemm, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Network, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..120 {
        let class = i % 2;
        let level = if class == 0 { 0.2 } else { 0.8 };
        images.push(Tensor::rand_uniform(
            &mut rng,
            &[1, 5, 5],
            level - 0.1,
            level + 0.1,
        ));
        labels.push(class);
    }
    let mut net = Network::new(&[1, 5, 5]);
    net.push(Flatten::new())
        .push(Dense::new(&mut rng, 25, 16))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 16, 16))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 16, 2));
    let mut opt = Adam::new(0.02);
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 16,
    };
    // Train inside a single-thread pool so both parity arms start from
    // the same weights regardless of the ambient global pool.
    Pool::new(1).install(|| fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng));
    (net, images, labels)
}

/// The SVM ensemble size, the discrepancy reports of the first 16
/// images and the batch-inference labels of one run.
type Run = (usize, Vec<DiscrepancyReport>, Vec<usize>);

fn assert_runs_equal(a: &Run, b: &Run, what: &str) {
    let ((svms_a, reports_a, labels_a), (svms_b, reports_b, labels_b)) = (a, b);
    assert_eq!(svms_a, svms_b, "{what}: SVM ensemble size differs");
    assert_eq!(labels_a, labels_b, "{what}: batch inference labels differ");
    assert_eq!(reports_a.len(), reports_b.len());
    for (i, (a, b)) in reports_a.iter().zip(reports_b).enumerate() {
        assert_eq!(
            a.predicted, b.predicted,
            "{what}: prediction differs on image {i}"
        );
        assert_eq!(
            a.joint.to_bits(),
            b.joint.to_bits(),
            "{what}: joint discrepancy differs on image {i}"
        );
        assert_eq!(a.per_layer.len(), b.per_layer.len());
        for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: per-layer score differs on image {i}"
            );
        }
    }
}

#[test]
fn validator_fit_and_scores_are_bit_identical_across_thread_counts() {
    // The only test in this file, so nothing else switches the
    // process-wide kernel arm while it runs.
    let [scalar, simd] = [true, false].map(|forced_scalar| {
        gemm::force_scalar_kernels(forced_scalar);
        let (net, images, labels) = setup();
        let plan = net.plan();
        let run = |threads: usize| -> Run {
            Pool::new(threads).install(|| {
                let validator =
                    DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
                        .expect("fit failed");
                let reports = validator.discrepancies_with_plan(&plan, &images[..16]);
                (
                    validator.num_svms(),
                    reports,
                    predict_labels(&plan, &images),
                )
            })
        };
        let one = run(1);
        assert_runs_equal(&one, &run(4), &format!("scalar={forced_scalar}"));
        one
    });
    gemm::force_scalar_kernels(false);
    assert_runs_equal(&scalar, &simd, "scalar vs simd arm");
}
