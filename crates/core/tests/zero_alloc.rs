//! Proves the acceptance condition directly: once the workspace and
//! output buffer are warm, `DeepValidator::score_into` through a shared
//! [`InferencePlan`] performs **zero** heap allocations per image.
//!
//! The suite runs in both tracing modes (CI builds it with and without
//! `dv-trace/trace`). With the feature off every probe is a compiled-out
//! no-op; with it on, span recording writes into per-thread rings that
//! the warm-up image allocates once — either way the steady-state loop
//! must stay at zero allocations per image, and recording must never
//! change a score bit. It holds on both kernel arms.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dv_core::{DeepValidator, ScoreWorkspace, ValidatorConfig};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::Network;
use dv_runtime::Pool;
use dv_tensor::{gemm, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts every heap allocation made by the process so the steady-state
/// scoring loop can prove it stopped allocating.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to the system allocator with
// the caller's layout; the atomic counter is a side table that never
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout contract to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout contract to
    // `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn warmed_score_into_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..80 {
        let class = i % 2;
        let mut img = Tensor::zeros(&[1, 6, 6]);
        let cx = if class == 0 { 1 } else { 4 };
        for y in 0..6 {
            img.set(&[0, y, cx], rng.gen_range(0.7f32..1.0));
        }
        images.push(img);
        labels.push(class);
    }
    // Four conv channels: one whole block, so the AVX arm runs the
    // convolution's register tile.
    let mut net = Network::new(&[1, 6, 6]);
    net.push(Conv2d::new(&mut rng, 1, 4, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 4 * 2 * 2, 8))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 8, 2));
    let mut opt = Adam::new(0.01);
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 16,
    };

    // Everything runs inside one single-thread pool so no other worker's
    // bookkeeping can perturb the allocation counter.
    let pool = Pool::new(1);
    pool.install(|| {
        fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng);
        let validator = DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
            .expect("validator fit failed");
        let plan = net.plan();
        let mut sw = ScoreWorkspace::new();
        let mut per_layer = Vec::new();

        // On each kernel arm (the only test in this file, so nothing else
        // switches the process-wide arm): the scalar kernels, then the AVX
        // kernels where the CPU has them.
        for forced_scalar in [true, false] {
            gemm::force_scalar_kernels(forced_scalar);
            // Warm up: the first image grows every buffer to its steady
            // size on this arm (the AVX convolution gathers a band of
            // patch rows, the scalar one a single row). With tracing
            // compiled in this also emits the thread's first spans,
            // allocating its fixed-size ring exactly once.
            validator
                .score_into(&plan, &images[0], &mut sw, &mut per_layer)
                .expect("fixture images are well-formed");

            let allocs = allocations_during(|| {
                for img in &images {
                    let ok = validator.score_into(&plan, img, &mut sw, &mut per_layer);
                    std::hint::black_box(&per_layer);
                    std::hint::black_box(&ok);
                }
            });
            assert_eq!(
                allocs,
                0,
                "warmed score_into allocated {allocs} times over {} images \
                 (tracing_enabled = {}, scalar = {forced_scalar})",
                images.len(),
                dv_trace::tracing_enabled()
            );
        }
        gemm::force_scalar_kernels(false);
    });
}
