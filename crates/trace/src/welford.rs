//! Streaming mean and variance via Welford's algorithm.
//!
//! One pass, constant memory, and numerically stable where the naive
//! sum-of-squares formula cancels: dv-drift freezes a calibration
//! window's discrepancy mean and standard deviation with it.

/// Running count/mean/M2 over a stream of `f32` samples.
#[derive(Debug, Clone, Copy)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        let xf = f64::from(x);
        let d = xf - self.mean;
        self.mean += d / self.count as f64;
        let d2 = xf - self.mean;
        self.m2 += d * d2;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (M2 / n), or 0 when empty.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f32]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let var = xs
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean, var)
    }

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs = [3.5f32, -1.25, 0.0, 7.75, 2.5, -0.5, 100.0, 3.25];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = naive(&xs);
        assert!((w.mean() - mean).abs() < 1e-9, "{} vs {mean}", w.mean());
        assert!((w.variance() - var).abs() < 1e-6);
        assert_eq!(w.count(), xs.len() as u64);
    }
}
