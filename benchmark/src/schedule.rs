//! The open-loop arrival schedule: Poisson arrivals at a fixed rate,
//! computed from the workload seed before anything is timed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request: when it is due (relative to the start of the
/// schedule) and which traffic image it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the schedule starts.
    pub due_ns: u64,
    /// Index into the traffic pool.
    pub image: usize,
}

/// Poisson arrivals at `rate_per_s` over `seconds`, each carrying a
/// traffic image drawn uniformly from `pool_len` images. The same
/// arguments always give the same schedule.
///
/// # Panics
///
/// Panics unless `rate_per_s` and `seconds` are positive and `pool_len`
/// is non-zero.
pub fn poisson(seed: u64, rate_per_s: f64, seconds: f64, pool_len: usize) -> Vec<Arrival> {
    assert!(
        rate_per_s > 0.0 && seconds > 0.0,
        "rate and length must be positive"
    );
    assert!(pool_len > 0, "empty traffic pool");
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon_ns = seconds * 1e9;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut arrivals = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 − u lies in (0, 1], so ln is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= horizon_ns {
            return arrivals;
        }
        arrivals.push(Arrival {
            due_ns: t as u64,
            image: rng.gen_range(0..pool_len),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_rate_give_an_identical_schedule() {
        let a = poisson(11, 500.0, 2.0, 64);
        let b = poisson(11, 500.0, 2.0, 64);
        assert_eq!(a, b);
        assert_ne!(a, poisson(12, 500.0, 2.0, 64), "seed must matter");
    }

    #[test]
    fn mean_gap_matches_the_rate() {
        let rate = 2000.0;
        let s = poisson(3, rate, 20.0, 10);
        // 40k expected arrivals: the count's relative sd is 0.5%.
        let mean_gap_ns = s.last().expect("non-empty").due_ns as f64 / s.len() as f64;
        let expected = 1e9 / rate;
        assert!(
            (mean_gap_ns - expected).abs() / expected < 0.03,
            "mean gap {mean_gap_ns} ns vs {expected} ns"
        );
    }

    #[test]
    fn arrivals_are_ordered_and_images_in_range() {
        let s = poisson(5, 1000.0, 1.0, 7);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.image < 7 && a.due_ns < 1_000_000_000));
    }
}
