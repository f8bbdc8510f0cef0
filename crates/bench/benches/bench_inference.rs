//! Criterion bench: forward-pass latency of the three classifiers —
//! the baseline against which the validation overhead (Section IV-C's
//! "querying SVMs incurs negligible costs") is judged.

use criterion::{criterion_group, criterion_main, Criterion};
use dv_bench::models::model_for;
use dv_datasets::DatasetSpec;
use dv_tensor::{Tensor, Workspace};
use std::hint::black_box;

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for spec in DatasetSpec::all() {
        let plan = model_for(spec, 0).plan();
        let mut ws = Workspace::new();
        let taps: Vec<usize> = (0..plan.num_probes()).collect();
        let mut dims = vec![1usize];
        dims.extend(spec.image_dims());
        let x = Tensor::full(&dims, 0.5);
        group.bench_function(format!("forward/{}", spec.name()), |b| {
            b.iter(|| black_box(plan.forward(black_box(&x), &mut ws)))
        });
        group.bench_function(format!("forward_probed/{}", spec.name()), |b| {
            b.iter(|| {
                black_box(
                    plan.forward_probed_into(black_box(&x), &taps, &mut ws)
                        .logits()[0],
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
