//! Axis-aligned boxes over flat activation vectors.

/// Closed per-element interval bounds over a flat activation vector.
///
/// Endpoints are kept in `f64`: the abstract transfer functions then
/// contribute ~1e-16 relative rounding of their own, which is absorbed
/// (together with the much larger `f32` rounding of the *concrete*
/// forward pass) by the explicit slack terms each transfer adds. The
/// soundness contract is therefore against the concrete `f32` plan
/// outputs, not idealized real arithmetic.
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Per-element lower bounds.
    pub lo: Vec<f64>,
    /// Per-element upper bounds.
    pub hi: Vec<f64>,
}

impl Bounds {
    /// Builds bounds from `f32` endpoint slices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, non-finite endpoints, or `lo > hi`.
    pub fn from_f32(lo: &[f32], hi: &[f32]) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound endpoint length mismatch");
        let lo: Vec<f64> = lo.iter().map(|&v| v as f64).collect();
        let hi: Vec<f64> = hi.iter().map(|&v| v as f64).collect();
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l.is_finite() && h.is_finite(), "non-finite bound");
            assert!(l <= h, "inverted bound: {l} > {h}");
        }
        Self { lo, hi }
    }

    /// Degenerate (zero-width) bounds at a concrete point.
    pub fn point(x: &[f32]) -> Self {
        Self::from_f32(x, x)
    }

    /// Number of elements bounded.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// True if the box bounds zero elements.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// True if every element of `x` lies inside its interval.
    pub fn contains(&self, x: &[f32]) -> bool {
        self.max_violation(x) <= 0.0
    }

    /// Largest distance by which any element of `x` exits its interval
    /// (`<= 0` when `x` is inside the box).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn max_violation(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.lo.len(), "bounds/point length mismatch");
        let mut worst = f64::NEG_INFINITY;
        for (i, &v) in x.iter().enumerate() {
            let v = v as f64;
            let out = (self.lo[i] - v).max(v - self.hi[i]);
            if out > worst {
                worst = out;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_violation() {
        let b = Bounds::from_f32(&[0.0, -1.0], &[1.0, 1.0]);
        assert!(b.contains(&[0.5, 0.0]));
        assert!(b.contains(&[0.0, 1.0]));
        assert!(!b.contains(&[1.5, 0.0]));
        assert!((b.max_violation(&[1.5, 0.0]) - 0.5).abs() < 1e-9);
        assert!((b.max_violation(&[0.5, -3.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inverted bound")]
    fn inverted_bounds_panic() {
        let _ = Bounds::from_f32(&[1.0], &[0.0]);
    }
}
