//! Soundness property suite: for random plans × random inputs × random
//! perturbation boxes, every concrete tapped activation (and the logits
//! row) lies inside the propagated box at every probe point; and
//! propagation is a bit-identical pure function (the CI matrix re-runs
//! this suite under `DV_THREADS=1`, so pool width cannot leak into
//! either the concrete or the abstract side).

use dv_absint::{propagate, Bounds};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::layers_extra::{BatchNorm2d, DenseBlock, Dropout};
use dv_nn::Network;
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random architecture per family, parameters seeded by `seed`.
fn random_net(family: usize, seed: u64) -> (Network, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => {
            // Conv stack: conv -> relu(probe) -> maxpool -> flatten ->
            // dense -> relu(probe) -> dense.
            let dims = vec![1usize, 6, 6];
            let mut net = Network::new(&dims);
            net.push(Conv2d::new(&mut rng, 1, 3, 3))
                .push_probe(Relu::new()) // 3x4x4
                .push(MaxPool2::new()) // 3x2x2
                .push(Flatten::new())
                .push(Dense::new(&mut rng, 12, 8))
                .push_probe(Relu::new())
                .push(Dense::new(&mut rng, 8, 3));
            (net, dims)
        }
        1 => {
            // Extra-layer stack: batchnorm -> denseblock(probe) ->
            // dropout -> maxpool -> flatten -> dense(probe).
            let dims = vec![2usize, 6, 6];
            let mut net = Network::new(&dims);
            let block = DenseBlock::new(&mut rng, 2, 2, 2);
            let out_c = block.out_channels();
            net.push(BatchNorm2d::new(2))
                .push_probe(block)
                .push(Dropout::new(0.25, seed))
                .push(MaxPool2::new())
                .push(Flatten::new())
                .push_probe(Dense::new(&mut rng, out_c * 9, 4));
            // Train a few batches so batchnorm's running stats move.
            for _ in 0..2 {
                let x = Tensor::randn(&mut rng, &[3, 2, 6, 6], 1.0);
                let _ = net.forward(&x, true);
            }
            (net, dims)
        }
        _ => {
            // Padded conv + MLP tail.
            let dims = vec![1usize, 5, 5];
            let mut net = Network::new(&dims);
            net.push(Conv2d::with_padding(&mut rng, 1, 2, 3, 1))
                .push_probe(Relu::new()) // 2x5x5
                .push(Flatten::new())
                .push(Dense::new(&mut rng, 50, 6))
                .push_probe(Relu::new())
                .push(Dense::new(&mut rng, 6, 2));
            (net, dims)
        }
    }
}

/// A random perturbation box `[x - r, x + r]` with per-element radii.
fn random_box(rng: &mut StdRng, x: &[f32], max_r: f32) -> (Vec<f32>, Vec<f32>) {
    let mut lo = Vec::with_capacity(x.len());
    let mut hi = Vec::with_capacity(x.len());
    for &v in x {
        let r = rng.gen::<f32>() * max_r;
        lo.push(v - r);
        hi.push(v + r);
    }
    (lo, hi)
}

/// Concrete points to check: both corners, the center, and random draws.
fn sample_points(rng: &mut StdRng, lo: &[f32], hi: &[f32], n: usize) -> Vec<Vec<f32>> {
    let mut pts = vec![lo.to_vec(), hi.to_vec()];
    for _ in 0..n {
        pts.push(
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| l + rng.gen::<f32>() * (h - l))
                .collect(),
        );
    }
    pts
}

fn assert_inside(b: &Bounds, x: &[f32], what: &str) {
    let v = b.max_violation(x);
    assert!(v <= 0.0, "{what}: concrete exits box by {v:e}");
}

#[test]
fn concrete_taps_lie_inside_propagated_boxes() {
    let mut ws = Workspace::new();
    for trial in 0..18u64 {
        let (net, dims) = random_net(trial as usize, 1000 + trial);
        let plan = net.plan();
        let taps: Vec<usize> = (0..plan.num_probes()).collect();
        let mut rng = StdRng::seed_from_u64(7000 + trial);
        let item: usize = dims.iter().product();
        let x: Vec<f32> = (0..item).map(|_| rng.gen::<f32>()).collect();
        let max_r = [0.0f32, 0.01, 0.1][trial as usize % 3];
        let (lo, hi) = random_box(&mut rng, &x, max_r);

        let prop = propagate(&plan, &lo, &hi);
        assert_eq!(prop.taps.len(), plan.num_probes());

        let mut item_dims = vec![1usize];
        item_dims.extend(&dims);
        for (p, pt) in sample_points(&mut rng, &lo, &hi, 6).into_iter().enumerate() {
            let t = Tensor::from_vec(pt, &item_dims);
            let out = plan.forward_probed_into(&t, &taps, &mut ws);
            for (v, tap_bounds) in prop.taps.iter().enumerate() {
                assert_inside(
                    tap_bounds,
                    out.probe(v),
                    &format!("trial {trial} pt {p} tap {v}"),
                );
            }
            assert_inside(
                &prop.logits,
                out.logits(),
                &format!("trial {trial} pt {p} logits"),
            );
        }
    }
}

#[test]
fn propagation_is_a_pure_function() {
    let (net, dims) = random_net(0, 42);
    let plan = net.plan();
    let item: usize = dims.iter().product();
    let mut rng = StdRng::seed_from_u64(5);
    let x: Vec<f32> = (0..item).map(|_| rng.gen::<f32>()).collect();
    let (lo, hi) = random_box(&mut rng, &x, 0.02);
    let a = propagate(&plan, &lo, &hi);
    let b = propagate(&plan, &lo, &hi);
    let key = |p: &dv_absint::Propagation| -> Vec<u64> {
        p.taps
            .iter()
            .chain(std::iter::once(&p.logits))
            .flat_map(|t| t.lo.iter().chain(&t.hi).map(|v| v.to_bits()))
            .collect()
    };
    assert_eq!(key(&a), key(&b), "propagation must be bit-identical");
}
