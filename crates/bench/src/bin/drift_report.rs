//! Drift-detection benchmark: detection latency vs window size under
//! metamorphic drift ramps, plus the dv-serve circuit breaker end to
//! end. Writes `BENCH_drift.json`.
//!
//! Phase 1 — monitor-level detection latency. For each seed, window
//! size, and metamorphic ramp (dv-imgops brightness / contrast /
//! center occlusion), a fresh [`MonitoredScorer`] replays the training
//! set cyclically: a stationary stretch (window sizes are multiples of
//! the 80-image replay cycle, so every live window is the same multiset
//! as the frozen reference and any alert is a true positive), then a
//! severity ramp from 0 to full over one window. Reported per cell:
//! false alarms on the stationary stretch (must be 0) and detection
//! latency in observations from ramp onset (every ramp must be
//! detected).
//!
//! Phase 2 — the dv-serve breaker on deterministic traffic: constant
//! clean image, then a brightness-shifted image until the breaker opens
//! (responses flip to `DriftDegraded`), then clean again until it
//! closes. Accounting must stay exact through both transitions.
//!
//! `--quick` shrinks the stationary stretch and window list for the CI
//! smoke run (and writes under `target/quick/`); the zero-false-alarm
//! and every-ramp-detected assertions hold in both modes.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dv_core::{DeepValidator, MonitoredScorer, ValidatorConfig};
use dv_drift::{DriftConfig, DriftEvent};
use dv_imgops::{occlude_center_fraction, Transform};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adam;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_runtime::Pool;
use dv_serve::{BreakerConfig, ServeConfig, ServedVia, Server, ShutdownPolicy};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replay-cycle length: the fixture's image count. Window sizes are
/// multiples of this so stationary cyclic replay gives KS exactly 0.
const CYCLE: usize = 80;

const SEEDS: &[u64] = &[11, 17, 23];

/// The seed-parameterized two-probe conv fixture from dv-core's
/// monitored-stream tests: a 2-class stripe problem on 6x6 images.
fn fixture(seed: u64) -> (Network, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..CYCLE {
        let class = i % 2;
        let mut img = Tensor::zeros(&[1, 6, 6]);
        let cx = if class == 0 { 1 } else { 4 };
        for y in 0..6 {
            img.set(&[0, y, cx], rng.gen_range(0.7f32..1.0));
        }
        images.push(img);
        labels.push(class);
    }
    let mut net = Network::new(&[1, 6, 6]);
    net.push(Conv2d::new(&mut rng, 1, 3, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 3 * 2 * 2, 8))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 8, 2));
    let mut opt = Adam::new(0.01);
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 16,
    };
    Pool::new(1).install(|| fit(&mut net, &mut opt, &images, &labels, &cfg, &mut rng));
    (net, images, labels)
}

#[derive(Clone, Copy)]
enum Ramp {
    Brightness,
    Contrast,
    Occlusion,
}

impl Ramp {
    const ALL: [Ramp; 3] = [Ramp::Brightness, Ramp::Contrast, Ramp::Occlusion];

    fn name(self) -> &'static str {
        match self {
            Ramp::Brightness => "brightness",
            Ramp::Contrast => "contrast",
            Ramp::Occlusion => "occlusion",
        }
    }

    /// Applies the ramp at severity `sev` in `[0, 1]`; `sev = 0` is the
    /// identity.
    fn apply(self, img: &Tensor, sev: f32) -> Tensor {
        match self {
            Ramp::Brightness => Transform::Brightness { beta: 0.6 * sev }.apply(img),
            Ramp::Contrast => Transform::Contrast {
                alpha: 1.0 + 1.5 * sev,
            }
            .apply(img),
            Ramp::Occlusion => occlude_center_fraction(img, 0.4 * sev, 0.0),
        }
    }
}

struct Cell {
    seed: u64,
    window: usize,
    ramp: &'static str,
    stationary_obs: u64,
    false_alarms: u64,
    latency_obs: Option<u64>,
}

/// One (seed, window, ramp) measurement with a fresh scorer.
fn run_cell(
    validator: &DeepValidator,
    plan: &InferencePlan,
    images: &[Tensor],
    seed: u64,
    window: usize,
    ramp: Ramp,
    stationary_cycles: usize,
) -> Cell {
    let cfg = DriftConfig {
        window,
        stride: (window / 4).max(1),
        sustain: 2,
        recover: 4,
        ..DriftConfig::default()
    };
    let mut scorer = MonitoredScorer::new(validator, plan, cfg);
    let mut i = 0usize;

    // Stationary stretch: calibration (one window) plus
    // `stationary_cycles` windows of evaluated cyclic replay.
    let stationary_obs = (window * (1 + stationary_cycles)) as u64;
    let mut false_alarms = 0u64;
    for _ in 0..stationary_obs {
        let img = &images[i % images.len()];
        i += 1;
        let score = scorer.score_next(img).expect("fixture images score");
        if score.event.is_some() {
            false_alarms += 1;
        }
    }

    // Ramp: severity 0 -> 1 over one window, then hold at full severity;
    // cap the episode at 4 windows past onset.
    let onset = scorer.monitor().observations();
    let ramp_len = window as u64;
    let cap = 4 * window as u64;
    let mut latency_obs = None;
    for t in 0..cap {
        #[allow(clippy::cast_precision_loss)]
        let sev = ((t as f32) / (ramp_len as f32)).min(1.0);
        let img = ramp.apply(&images[i % images.len()], sev);
        i += 1;
        let score = scorer.score_next(&img).expect("ramped images score");
        if let Some(DriftEvent::Raised(_)) = score.event {
            latency_obs = Some(scorer.monitor().observations() - onset);
            break;
        }
    }
    Cell {
        seed,
        window,
        ramp: ramp.name(),
        stationary_obs,
        false_alarms,
        latency_obs,
    }
}

struct ServePhase {
    submitted: u64,
    breaker_opened: u64,
    breaker_closed: u64,
    served_drift_degraded: u64,
    drift_obs_dropped: u64,
    accounting_exact: bool,
}

/// The breaker end to end, mirroring dv-serve's integration test:
/// deterministic single-image traffic so the constant discrepancy
/// stream cannot false-alarm.
fn serve_phase(
    validator: Arc<DeepValidator>,
    plan: Arc<InferencePlan>,
    clean: &Tensor,
) -> ServePhase {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 64,
        deadline: Duration::from_secs(5),
        shutdown: ShutdownPolicy::Drain,
        reduced_taps: 1,
        breaker: Some(BreakerConfig {
            drift: DriftConfig {
                window: 16,
                stride: 4,
                sustain: 2,
                recover: 2,
                ..DriftConfig::default()
            },
            probe_every: 4,
            obs_capacity: 1024,
        }),
        faults: None,
    };
    let probe_every = 4u64;
    let server = Server::start(validator, plan, cfg);
    let shifted = clean.map(|x| x + 0.6);

    let submit = |img: &Tensor| {
        server
            .try_submit(img.clone())
            .expect("serialized submissions never fill the queue")
            .wait()
            .expect("well-formed requests serve")
    };

    for _ in 0..64 {
        let resp = submit(clean);
        assert_eq!(
            resp.via,
            ServedVia::FullJoint,
            "false alarm on constant traffic"
        );
    }
    let mut opened = false;
    for _ in 0..2000 {
        if submit(&shifted).via == ServedVia::DriftDegraded {
            opened = true;
            break;
        }
    }
    assert!(opened, "the shifted stream must open the breaker");
    let mut closed = false;
    for _ in 0..4000 {
        let resp = submit(clean);
        if resp.via == ServedVia::FullJoint && resp.seq % probe_every != 0 {
            closed = true;
            break;
        }
    }
    assert!(closed, "clean traffic must close the breaker");

    let m = server.shutdown();
    ServePhase {
        submitted: m.submitted,
        breaker_opened: m.breaker_opened,
        breaker_closed: m.breaker_closed,
        served_drift_degraded: m.served_drift_degraded,
        drift_obs_dropped: m.drift_obs_dropped,
        accounting_exact: m.terminal_outcomes() == m.submitted,
    }
}

/// Median of a non-empty sorted slice.
fn median(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let windows: &[usize] = if quick { &[80, 160] } else { &[80, 160, 240] };
    let stationary_cycles = if quick { 2 } else { 4 };

    let mut cells: Vec<Cell> = Vec::new();
    let mut serve_fixture = None;
    for &seed in SEEDS {
        eprintln!("seed {seed}: training fixture");
        let (net, images, labels) = fixture(seed);
        let validator = Pool::new(1).install(|| {
            DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
                .expect("validator fit failed")
        });
        let plan = net.plan();
        Pool::new(1).install(|| {
            for &window in windows {
                for ramp in Ramp::ALL {
                    let cell = run_cell(
                        &validator,
                        &plan,
                        &images,
                        seed,
                        window,
                        ramp,
                        stationary_cycles,
                    );
                    eprintln!(
                        "  window {:>3} {:<10} false_alarms {} latency {:?}",
                        cell.window, cell.ramp, cell.false_alarms, cell.latency_obs
                    );
                    cells.push(cell);
                }
            }
        });
        if seed == SEEDS[0] {
            serve_fixture = Some((Arc::new(validator), Arc::new(plan), images[0].clone()));
        }
    }

    eprintln!("serve phase: breaker open/close on deterministic traffic");
    let (validator, plan, clean) = serve_fixture.expect("SEEDS is non-empty");
    let serve = serve_phase(validator, plan, &clean);

    let total_false_alarms: u64 = cells.iter().map(|c| c.false_alarms).sum();
    let undetected: Vec<String> = cells
        .iter()
        .filter(|c| c.latency_obs.is_none())
        .map(|c| format!("seed {} window {} ramp {}", c.seed, c.window, c.ramp))
        .collect();

    let mut json = format!(
        "  \"seeds\": [{}],\n",
        SEEDS
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str(&format!(
        "  \"total_false_alarms\": {total_false_alarms},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"seed\": {}, \"window\": {}, \"ramp\": \"{}\", \"stationary_obs\": {}, \
             \"false_alarms\": {}, \"detected\": {}, \"latency_obs\": {}}}{}\n",
            c.seed,
            c.window,
            c.ramp,
            c.stationary_obs,
            c.false_alarms,
            c.latency_obs.is_some(),
            c.latency_obs
                .map_or_else(|| "null".to_string(), |l| l.to_string()),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"latency_by_window\": [\n");
    for (wi, &window) in windows.iter().enumerate() {
        let mut lat: Vec<u64> = cells
            .iter()
            .filter(|c| c.window == window)
            .filter_map(|c| c.latency_obs)
            .collect();
        lat.sort_unstable();
        let (lo, mid, hi) = if lat.is_empty() {
            (0, 0, 0)
        } else {
            (lat[0], median(&lat), lat[lat.len() - 1])
        };
        json.push_str(&format!(
            "    {{\"window\": {}, \"detected\": {}, \"min_obs\": {}, \"median_obs\": {}, \
             \"max_obs\": {}}}{}\n",
            window,
            lat.len(),
            lo,
            mid,
            hi,
            if wi + 1 < windows.len() { "," } else { "" }
        ));
        eprintln!("window {window:>3}: latency min/median/max = {lo}/{mid}/{hi} obs");
    }
    json.push_str("  ],\n");
    json.push_str("  \"serve\": {\n");
    json.push_str(&format!("    \"submitted\": {},\n", serve.submitted));
    json.push_str(&format!(
        "    \"breaker_opened\": {},\n",
        serve.breaker_opened
    ));
    json.push_str(&format!(
        "    \"breaker_closed\": {},\n",
        serve.breaker_closed
    ));
    json.push_str(&format!(
        "    \"served_drift_degraded\": {},\n",
        serve.served_drift_degraded
    ));
    json.push_str(&format!(
        "    \"drift_obs_dropped\": {},\n",
        serve.drift_obs_dropped
    ));
    json.push_str(&format!(
        "    \"accounting_exact\": {}\n",
        serve.accounting_exact
    ));
    json.push_str("  }\n");
    dv_bench::artifact::write_bench(Path::new("."), "drift", quick, &json)
        .expect("cannot write BENCH_drift.json");

    assert_eq!(
        total_false_alarms, 0,
        "false alarms on stationary traffic (windows are cycle multiples; KS must be 0)"
    );
    assert!(undetected.is_empty(), "undetected ramps: {undetected:?}");
    assert!(serve.accounting_exact, "serve accounting does not balance");
    assert!(serve.breaker_opened >= 1 && serve.breaker_closed >= 1);
}
