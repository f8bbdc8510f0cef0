//! Hidden-representation reduction before SVM fitting.
//!
//! The paper fits SVMs on raw hidden representations; on this compute
//! budget raw conv maps (thousands of dimensions) would dominate kernel
//! cost, so convolutional feature maps are adaptively average-pooled to a
//! small spatial grid first (DESIGN.md §4.3). Fully connected
//! representations pass through unchanged.

/// Reduces a single hidden representation to the feature vector the
/// one-class SVMs consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureReducer {
    max_spatial: usize,
}

impl FeatureReducer {
    /// Creates a reducer that pools conv maps to at most
    /// `max_spatial x max_spatial` cells per channel.
    ///
    /// # Panics
    ///
    /// Panics if `max_spatial == 0`.
    pub fn new(max_spatial: usize) -> Self {
        assert!(max_spatial > 0, "max_spatial must be positive");
        Self { max_spatial }
    }

    /// The configured spatial cap.
    pub fn max_spatial(&self) -> usize {
        self.max_spatial
    }

    /// Reduces one representation (no batch axis) of shape `dims`, held
    /// row-major in `data`, into `out`:
    ///
    /// - rank-1 `[D]`: copied as-is,
    /// - rank-3 `[C, H, W]`: adaptive average pooling to
    ///   `[C, min(H, s), min(W, s)]`, flattened.
    ///
    /// `out` is cleared and refilled, so a warmed-up buffer makes the
    /// reduction allocation-free.
    ///
    /// # Panics
    ///
    /// Panics on other ranks or a dims/data length mismatch.
    pub fn reduce_into(&self, dims: &[usize], data: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            data.len(),
            dims.iter().product::<usize>(),
            "representation length mismatch"
        );
        out.clear();
        match dims.len() {
            1 => out.extend_from_slice(data),
            3 => {
                let (c, h, w) = (dims[0], dims[1], dims[2]);
                let oh = h.min(self.max_spatial);
                let ow = w.min(self.max_spatial);
                out.reserve(c * oh * ow);
                for ch in 0..c {
                    let base = ch * h * w;
                    for oy in 0..oh {
                        // Adaptive pooling: cell [y0, y1) x [x0, x1).
                        let y0 = oy * h / oh;
                        let y1 = ((oy + 1) * h).div_ceil(oh).min(h).max(y0 + 1);
                        for ox in 0..ow {
                            let x0 = ox * w / ow;
                            let x1 = ((ox + 1) * w).div_ceil(ow).min(w).max(x0 + 1);
                            let mut acc = 0.0f32;
                            for y in y0..y1 {
                                for x in x0..x1 {
                                    acc += data[base + y * w + x];
                                }
                            }
                            out.push(acc / ((y1 - y0) * (x1 - x0)) as f32);
                        }
                    }
                }
            }
            other => panic!("cannot reduce a rank-{other} representation"),
        }
    }

    /// Dimensionality of the reduced vector for a representation shape.
    ///
    /// # Panics
    ///
    /// Panics on unsupported ranks.
    pub fn reduced_dim(&self, dims: &[usize]) -> usize {
        match dims.len() {
            1 => dims[0],
            3 => dims[0] * dims[1].min(self.max_spatial) * dims[2].min(self.max_spatial),
            other => panic!("cannot reduce a rank-{other} representation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_tensor::Tensor;

    /// Reduces `t` into a fresh vector.
    fn reduce(r: &FeatureReducer, t: &Tensor) -> Vec<f32> {
        let mut out = Vec::new();
        r.reduce_into(t.shape().dims(), t.data(), &mut out);
        out
    }

    #[test]
    fn rank_one_passes_through() {
        let r = FeatureReducer::new(4);
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(reduce(&r, &t), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.reduced_dim(&[3]), 3);
    }

    #[test]
    fn small_conv_maps_pass_through() {
        let r = FeatureReducer::new(4);
        let t = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2]);
        assert_eq!(reduce(&r, &t), t.data().to_vec());
    }

    #[test]
    fn pooling_averages_cells() {
        let r = FeatureReducer::new(1);
        // One channel, 2x2: pooled to a single mean.
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        assert_eq!(reduce(&r, &t), vec![2.5]);
    }

    #[test]
    fn pooling_preserves_total_mean() {
        let r = FeatureReducer::new(2);
        let t = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 4]);
        let reduced = reduce(&r, &t);
        assert_eq!(reduced.len(), 4);
        let mean: f32 = reduced.iter().sum::<f32>() / 4.0;
        assert!((mean - t.mean()).abs() < 1e-5);
    }

    #[test]
    fn uneven_sizes_are_covered() {
        let r = FeatureReducer::new(2);
        // 5x3 map pooled to 2x2: all input pixels must contribute.
        let t = Tensor::ones(&[1, 5, 3]);
        let reduced = reduce(&r, &t);
        assert_eq!(reduced.len(), 4);
        for v in reduced {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn reduced_dim_matches_reduce() {
        let r = FeatureReducer::new(3);
        for dims in [vec![7usize], vec![4, 9, 6], vec![2, 2, 2]] {
            let t = Tensor::ones(&dims);
            assert_eq!(reduce(&r, &t).len(), r.reduced_dim(&dims));
        }
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn rank_two_panics() {
        let _ = reduce(&FeatureReducer::new(2), &Tensor::ones(&[2, 2]));
    }
}
