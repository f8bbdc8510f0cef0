//! `im2col` / `col2im` lowering for 2-D convolution.
//!
//! Convolution layers in [`dv-nn`](https://docs.rs/dv-nn) lower each input
//! image to a column matrix so the convolution becomes one dense matmul;
//! `col2im` is the exact adjoint used for input gradients.

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution over `[C, H, W]` inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_h(&self) -> usize {
        out_dim(self.in_h, self.kernel, self.stride, self.pad)
    }

    /// Output width after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_w(&self) -> usize {
        out_dim(self.in_w, self.kernel, self.stride, self.pad)
    }

    /// Number of rows of the column matrix: `C * k * k`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the column matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Lowers a `[C, H, W]` image into a `[C*k*k, out_h*out_w]` column matrix.
///
/// Column `p` holds the receptive field of output position `p` (row-major
/// over output coordinates); out-of-bounds taps read as zero (zero padding).
///
/// # Panics
///
/// Panics if `image` does not have shape `[C, H, W]` matching `geom`.
pub fn im2col(image: &Tensor, geom: &Conv2dGeom) -> Tensor {
    assert_eq!(
        image.shape().dims(),
        &[geom.in_channels, geom.in_h, geom.in_w],
        "im2col input shape mismatch"
    );
    let cols = geom.col_cols();
    let mut out = vec![0.0f32; geom.col_rows() * cols];
    im2col_into(image.data(), geom, &mut out);
    Tensor::from_vec(out, &[geom.col_rows(), cols])
}

/// [`im2col`] into a caller-provided buffer: `data` is the flat `[C, H, W]`
/// image, `out` receives the `[C*k*k, out_h*out_w]` column matrix. Every
/// element is written (padding taps as zero), so the buffer's previous
/// contents do not matter.
///
/// Each row is one `gather_patch_row` call; large lowerings fan rows out
/// across the pool. This is the allocation-free entry point the
/// convolution weight gradient uses.
///
/// # Panics
///
/// Panics if either slice length disagrees with `geom`.
pub fn im2col_into(data: &[f32], geom: &Conv2dGeom, out: &mut [f32]) {
    dv_trace::span!("tensor.im2col");
    assert_eq!(
        data.len(),
        geom.in_channels * geom.in_h * geom.in_w,
        "im2col_into image length mismatch"
    );
    let cols = geom.col_cols();
    assert_eq!(
        out.len(),
        geom.col_rows() * cols,
        "im2col_into out length mismatch"
    );
    let fill_row = |row: usize, dst: &mut [f32]| gather_patch_row(data, geom, row, 0, dst);
    // Each row (c, ky, kx) of the column matrix is an independent strided
    // copy into its own chunk, so large lowerings fan rows out across the
    // pool; small ones stay sequential to dodge fork/join overhead.
    if out.len() >= 1 << 14 && geom.col_rows() > 1 {
        dv_runtime::par_chunks_mut(out, cols, fill_row);
    } else {
        for (row, dst) in out.chunks_mut(cols).enumerate() {
            fill_row(row, dst);
        }
    }
}

/// Writes row `row` of the column matrix — kernel tap `(c, ky, kx)` —
/// for the whole output rows `oy0..oy0 + dst.len() / out_w` into `dst`.
/// Per output row the in-bounds run of the input row is copied in one
/// pass (a slice copy at stride 1) and only the padding is zero-filled,
/// so every element of `dst` is written. The one patch gather behind
/// both [`im2col_into`] and the convolution forward in [`crate::gemm`].
pub(crate) fn gather_patch_row(
    data: &[f32],
    geom: &Conv2dGeom,
    row: usize,
    oy0: usize,
    dst: &mut [f32],
) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let (kx, ky, c) = (row % k, (row / k) % k, row / (k * k));
    let chan_len = geom.in_h * geom.in_w;
    let chan = &data[c * chan_len..(c + 1) * chan_len];
    let ow = geom.out_w();
    debug_assert!(
        dst.len().is_multiple_of(ow) && oy0 * ow + dst.len() <= geom.out_h() * ow,
        "patch row length mismatch"
    );
    // Output columns `lo..hi` read input column `ox * s + kx - p`, which
    // lies in `0..in_w` exactly there; the same run holds for every row.
    let lo = p.saturating_sub(kx).div_ceil(s).min(ow);
    let hi = (geom.in_w + p).saturating_sub(kx).div_ceil(s).clamp(lo, ow);
    for (oy, out_row) in (oy0..).zip(dst.chunks_exact_mut(ow)) {
        let src_row = match (oy * s + ky).checked_sub(p) {
            Some(iy) if iy < geom.in_h && lo < hi => {
                &chan[iy * geom.in_w + lo * s + kx - p..(iy + 1) * geom.in_w]
            }
            _ => {
                out_row.fill(0.0);
                continue;
            }
        };
        out_row[..lo].fill(0.0);
        out_row[hi..].fill(0.0);
        let run = &mut out_row[lo..hi];
        if s == 1 {
            run.copy_from_slice(&src_row[..run.len()]);
        } else {
            for (d, &v) in run.iter_mut().zip(src_row.iter().step_by(s)) {
                *d = v;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a column-matrix gradient back to an image.
///
/// Overlapping receptive fields accumulate, which is exactly the gradient of
/// the im2col lowering.
///
/// # Panics
///
/// Panics if `cols` does not have shape `[C*k*k, out_h*out_w]`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(
        cols.shape().dims(),
        &[geom.col_rows(), oh * ow],
        "col2im input shape mismatch"
    );
    let k = geom.kernel;
    let ncols = oh * ow;
    let mut out = vec![0.0f32; geom.in_channels * geom.in_h * geom.in_w];
    let data = cols.data();
    let (h, w) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..geom.in_channels {
        let chan = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let src = &data[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w {
                            continue;
                        }
                        chan[iy as usize * geom.in_w + ix as usize] += src[oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[geom.in_channels, geom.in_h, geom.in_w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn output_dims_follow_formula() {
        let g = geom(1, 28, 28, 3, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (26, 26));
        let g = geom(1, 28, 28, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
        let g = geom(1, 28, 28, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (14, 14));
    }

    #[test]
    fn im2col_1x1_kernel_is_a_flatten() {
        let img = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let g = geom(1, 2, 2, 1, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.shape().dims(), &[1, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        // 3x3 image, 2x2 kernel, stride 1 -> 4 output positions.
        let img = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 3, 3]);
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // First output position (0,0) should see [1, 2, 4, 5] down the rows.
        let col0: Vec<f32> = (0..4).map(|r| cols.at(&[r, 0])).collect();
        assert_eq!(col0, vec![1.0, 2.0, 4.0, 5.0]);
        // Last output position (1,1) should see [5, 6, 8, 9].
        let col3: Vec<f32> = (0..4).map(|r| cols.at(&[r, 3])).collect();
        assert_eq!(col3, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_reads_zeros() {
        let img = Tensor::ones(&[1, 2, 2]);
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g);
        // Center tap of the kernel at output (0,0) is input (0,0) = 1;
        // top-left tap is out of bounds = 0.
        assert_eq!(cols.at(&[4, 0]), 1.0);
        assert_eq!(cols.at(&[0, 0]), 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y: the defining
        // property of the adjoint, checked on random tensors.
        let mut rng = StdRng::seed_from_u64(21);
        for &(c, h, w, k, s, p) in &[(1, 5, 5, 3, 1, 0), (2, 6, 7, 3, 1, 1), (3, 8, 8, 2, 2, 0)] {
            let g = geom(c, h, w, k, s, p);
            let x = Tensor::randn(&mut rng, &[c, h, w], 1.0);
            let y = Tensor::randn(&mut rng, &[g.col_rows(), g.col_cols()], 1.0);
            let lhs: f32 = im2col(&x, &g).mul(&y).sum();
            let rhs: f32 = x.mul(&col2im(&y, &g)).sum();
            assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {lhs} vs {rhs}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_input_shape_panics() {
        let g = geom(1, 4, 4, 3, 1, 0);
        let _ = im2col(&Tensor::zeros(&[1, 5, 5]), &g);
    }
}
