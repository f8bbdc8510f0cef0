//! Property tests for the drift subsystem: sliding-window edge cases
//! (empty, single sample, constant stream, wrap-around), and KS
//! statistic invariants.

use dv_drift::{ks_statistic, AlertLevel, DriftConfig, DriftMonitor, SlidingWindow};
use proptest::prelude::*;

/// O(n·m) reference implementation: evaluate both empirical CDFs at
/// every sample point and take the largest gap.
fn naive_ks(a: &[f32], b: &[f32]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let cdf = |xs: &[f32], t: f32| {
        xs.iter()
            .filter(|&&x| x.total_cmp(&t) != std::cmp::Ordering::Greater)
            .count() as f64
            / xs.len() as f64
    };
    a.iter()
        .chain(b.iter())
        .map(|&t| (cdf(a, t) - cdf(b, t)).abs())
        .fold(0.0, f64::max)
}

fn sorted(mut xs: Vec<f32>) -> Vec<f32> {
    xs.sort_unstable_by(|a, b| a.total_cmp(b));
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_wrap_keeps_exactly_the_most_recent(
        xs in proptest::collection::vec(-10.0f32..10.0, 1..120),
        cap in 1usize..48,
    ) {
        let mut w = SlidingWindow::new(cap);
        for &x in &xs {
            w.push(x);
        }
        prop_assert_eq!(w.pushed(), xs.len() as u64);
        prop_assert_eq!(w.len(), xs.len().min(cap));
        let mut got = Vec::new();
        w.fill_ordered(&mut got);
        let tail: Vec<f32> = xs[xs.len().saturating_sub(cap)..].to_vec();
        prop_assert_eq!(got, tail);
    }

    #[test]
    fn constant_stream_ks_is_exactly_zero(
        value in -50.0f32..50.0,
        n in 1usize..64,
        m in 1usize..64,
    ) {
        let a = vec![value; n];
        let b = vec![value; m];
        // Identical distributions must give a bitwise-zero statistic —
        // the monitor's "no evidence" baseline, not merely a small one.
        prop_assert_eq!(ks_statistic(&a, &b).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn ks_matches_naive_and_is_symmetric(
        a in proptest::collection::vec(-5.0f32..5.0, 0..60),
        b in proptest::collection::vec(-5.0f32..5.0, 0..60),
    ) {
        let (a, b) = (sorted(a), sorted(b));
        let fast = ks_statistic(&a, &b);
        prop_assert!((fast - naive_ks(&a, &b)).abs() < 1e-12);
        prop_assert!((fast - ks_statistic(&b, &a)).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&fast));
    }

    #[test]
    fn single_sample_windows_are_well_behaved(x in -5.0f32..5.0, y in -5.0f32..5.0) {
        let stat = ks_statistic(&[x], &[y]);
        if x.total_cmp(&y) == std::cmp::Ordering::Equal {
            prop_assert_eq!(stat.to_bits(), 0.0f64.to_bits());
        } else {
            prop_assert!((stat - 1.0).abs() < 1e-12);
        }
        prop_assert_eq!(ks_statistic(&[], &[x]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn monitor_never_alerts_before_calibration(
        xs in proptest::collection::vec(-100.0f32..100.0, 0..63),
    ) {
        // Window 64 > stream length: reference never freezes, so no
        // evaluation — and certainly no alert — can happen.
        let mut m = DriftMonitor::new(DriftConfig::default().with_window(64));
        for &x in &xs {
            prop_assert!(m.observe(x, &[]).is_none());
        }
        prop_assert!(!m.calibrated());
        prop_assert_eq!(m.level(), AlertLevel::Nominal);
    }

    #[test]
    fn monitor_replay_is_bit_identical(
        xs in proptest::collection::vec(-10.0f32..10.0, 0..300),
    ) {
        let run = || {
            let cfg = DriftConfig {
                window: 32,
                stride: 8,
                ..DriftConfig::default()
            };
            let mut m = DriftMonitor::new(cfg);
            let mut events = 0u32;
            for &x in &xs {
                if m.observe(x, &[x * 0.5]).is_some() {
                    events += 1;
                }
            }
            (events, m.ks_stat().to_bits(), m.cusum_stat().to_bits(), m.level())
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn constant_stream_through_monitor_keeps_ks_zero() {
    // End-to-end version of the constant-window property: calibrate and
    // run on a constant stream; every evaluation must see KS exactly 0.
    let cfg = DriftConfig {
        window: 16,
        stride: 4,
        ..DriftConfig::default()
    };
    let mut m = DriftMonitor::new(cfg);
    for _ in 0..200 {
        assert!(m.observe(2.5, &[]).is_none());
        assert_eq!(m.ks_stat().to_bits(), 0.0f64.to_bits());
    }
    assert!(m.calibrated());
    assert_eq!(m.level(), AlertLevel::Nominal);
}
