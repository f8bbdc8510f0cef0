//! Interval (box) domain: sound transfer functions for every
//! [`LayerSpec`] variant and the plan-walking propagator.
//!
//! Every transfer is *floating-point sound* against the concrete `f32`
//! plan: affine layers accumulate endpoint products in `f64` and then
//! widen outward by a slack term covering the worst-case rounding of the
//! concrete `f32` accumulation (a standard `n · eps · sum(|terms|)`
//! model with a generous constant), so a concrete activation can never
//! exit its box merely because the plan's kernels round differently.

use dv_nn::plan::{BatchNormSpec, ConvSpec, DenseSpec, LayerSpec};
use dv_nn::InferencePlan;

use crate::bounds::Bounds;

/// `f32` machine epsilon, widened to `f64` for slack arithmetic.
const EPS32: f64 = f32::EPSILON as f64;

/// Outward widening covering the `f32` rounding of an `n`-term concrete
/// accumulation whose terms have absolute sum at most `abs_sum`.
fn fp_slack(abs_sum: f64, n: usize) -> f64 {
    2.0 * (n as f64 + 8.0) * EPS32 * abs_sum + 1e-30
}

/// Result of propagating an input region through a frozen plan.
pub struct Propagation {
    /// Activation boxes at every declared probe point, in probe order.
    pub taps: Vec<Bounds>,
    /// Box over the final logits row.
    pub logits: Bounds,
}

/// Propagates the box `[input_lo, input_hi]` through the plan using the
/// interval domain, emitting per-tap activation boxes and the logits box.
///
/// `&self`-only and deterministic: the result is a pure function of the
/// plan parameters and the input region, bit-identical at any
/// `DV_THREADS`.
///
/// # Panics
///
/// Panics if the endpoint slices do not match the plan's input size or
/// describe an inverted/non-finite box.
pub fn propagate(plan: &InferencePlan, input_lo: &[f32], input_hi: &[f32]) -> Propagation {
    dv_trace::span!("absint.propagate");
    let item: usize = plan.input_dims().iter().product();
    assert_eq!(input_lo.len(), item, "input region size mismatch");
    let mut cur = Bounds::from_f32(input_lo, input_hi);
    let mut taps = Vec::with_capacity(plan.num_probes());
    let specs = plan.layer_specs();
    for (i, spec) in specs.iter().enumerate() {
        cur = transfer(spec, &cur, plan.op_in_dims(i));
        if plan.probe_points().binary_search(&i).is_ok() {
            taps.push(cur.clone());
        }
    }
    Propagation { taps, logits: cur }
}

/// Applies one op's interval transfer to `b`, whose layout follows
/// `in_dims` (item dims, no batch axis).
fn transfer(spec: &LayerSpec<'_>, b: &Bounds, in_dims: &[usize]) -> Bounds {
    match spec {
        LayerSpec::Identity { label: _ } => b.clone(),
        LayerSpec::Relu => {
            let mut out = b.clone();
            relu_in_place(&mut out);
            out
        }
        LayerSpec::MaxPool2 => {
            assert_eq!(in_dims.len(), 3, "maxpool expects [C, H, W] items");
            maxpool2(b, in_dims[0], in_dims[1], in_dims[2])
        }
        LayerSpec::Dense(d) => dense(d, b),
        LayerSpec::Conv2d(c) => {
            assert_eq!(in_dims.len(), 3, "conv expects [C, H, W] items");
            conv2d(c, b, in_dims[1], in_dims[2])
        }
        LayerSpec::BatchNorm2d(bn) => {
            assert_eq!(in_dims.len(), 3, "batchnorm expects [C, H, W] items");
            batchnorm(bn, b, in_dims[1] * in_dims[2])
        }
        LayerSpec::DenseBlock {
            stages,
            in_channels,
            growth,
        } => {
            assert_eq!(in_dims.len(), 3, "dense block expects [C, H, W] items");
            assert_eq!(in_dims[0], *in_channels, "dense block channel mismatch");
            dense_block(stages, b, *growth, in_dims[1], in_dims[2])
        }
    }
}

/// Exact ReLU transfer: clamp both endpoints at zero.
fn relu_in_place(b: &mut Bounds) {
    for v in &mut b.lo {
        *v = v.max(0.0);
    }
    for v in &mut b.hi {
        *v = v.max(0.0);
    }
}

/// Exact 2x2/stride-2 max-pool transfer: elementwise max over the window
/// of each endpoint (`max` commutes with the box abstraction and is
/// rounding-free).
fn maxpool2(b: &Bounds, c: usize, h: usize, w: usize) -> Bounds {
    assert_eq!(b.len(), c * h * w, "maxpool input size mismatch");
    let (oh, ow) = (h / 2, w / 2);
    let mut lo = vec![0.0f64; c * oh * ow];
    let mut hi = vec![0.0f64; c * oh * ow];
    for ch in 0..c {
        let base = ch * h * w;
        let obase = ch * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut l = f64::NEG_INFINITY;
                let mut u = f64::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = base + (2 * oy + dy) * w + (2 * ox + dx);
                        l = l.max(b.lo[idx]);
                        u = u.max(b.hi[idx]);
                    }
                }
                lo[obase + oy * ow + ox] = l;
                hi[obase + oy * ow + ox] = u;
            }
        }
    }
    Bounds { lo, hi }
}

/// Dense transfer: matmul over bound pairs (sign-split endpoint products)
/// plus `f32` rounding slack.
fn dense(d: &DenseSpec<'_>, b: &Bounds) -> Bounds {
    assert_eq!(b.len(), d.in_features, "dense input size mismatch");
    let mut lo = vec![0.0f64; d.out_features];
    let mut hi = vec![0.0f64; d.out_features];
    for j in 0..d.out_features {
        let bj = d.bias[j] as f64;
        let mut l = bj;
        let mut h = bj;
        let mut abs = bj.abs();
        let row = &d.weight[j * d.in_features..(j + 1) * d.in_features];
        for (i, &wf) in row.iter().enumerate() {
            let w = wf as f64;
            let a = w * b.lo[i];
            let c = w * b.hi[i];
            if a <= c {
                l += a;
                h += c;
            } else {
                l += c;
                h += a;
            }
            abs += w.abs() * b.lo[i].abs().max(b.hi[i].abs());
        }
        let s = fp_slack(abs, d.in_features + 1);
        lo[j] = l - s;
        hi[j] = h + s;
    }
    Bounds { lo, hi }
}

/// Convolution transfer: the im2col matmul interpreted directly over the
/// input geometry, endpoint products sign-split per weight, zero padding
/// contributing exactly zero.
fn conv2d(c: &ConvSpec<'_>, b: &Bounds, in_h: usize, in_w: usize) -> Bounds {
    let k = c.kernel;
    assert_eq!(b.len(), c.in_channels * in_h * in_w, "conv input mismatch");
    assert!(
        in_h + 2 * c.pad >= k && in_w + 2 * c.pad >= k,
        "kernel too large"
    );
    let out_h = in_h + 2 * c.pad - k + 1;
    let out_w = in_w + 2 * c.pad - k + 1;
    let row_len = c.in_channels * k * k;
    let mut lo = vec![0.0f64; c.out_channels * out_h * out_w];
    let mut hi = vec![0.0f64; c.out_channels * out_h * out_w];
    for oc in 0..c.out_channels {
        let wrow = &c.weight[oc * row_len..(oc + 1) * row_len];
        let bias = c.bias[oc] as f64;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut l = bias;
                let mut h = bias;
                let mut abs = bias.abs();
                for ic in 0..c.in_channels {
                    for ky in 0..k {
                        let iy = (oy + ky) as isize - c.pad as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox + kx) as isize - c.pad as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let w = wrow[(ic * k + ky) * k + kx] as f64;
                            let idx = (ic * in_h + iy as usize) * in_w + ix as usize;
                            let a = w * b.lo[idx];
                            let d = w * b.hi[idx];
                            if a <= d {
                                l += a;
                                h += d;
                            } else {
                                l += d;
                                h += a;
                            }
                            abs += w.abs() * b.lo[idx].abs().max(b.hi[idx].abs());
                        }
                    }
                }
                let s = fp_slack(abs, row_len + 1);
                let o = (oc * out_h + oy) * out_w + ox;
                lo[o] = l - s;
                hi[o] = h + s;
            }
        }
    }
    Bounds { lo, hi }
}

/// Batch-norm transfer: the per-channel affine map evaluated at both
/// endpoints (monotone either way depending on the sign of
/// `gamma * inv_std`), widened for the concrete three-op rounding.
fn batchnorm(bn: &BatchNormSpec<'_>, b: &Bounds, plane: usize) -> Bounds {
    let c = bn.gamma.len();
    assert_eq!(b.len(), c * plane, "batchnorm input size mismatch");
    let mut lo = vec![0.0f64; b.len()];
    let mut hi = vec![0.0f64; b.len()];
    for ch in 0..c {
        let mean = bn.means[ch] as f64;
        let inv = bn.inv_std[ch] as f64;
        let g = bn.gamma[ch] as f64;
        let beta = bn.beta[ch] as f64;
        for i in ch * plane..(ch + 1) * plane {
            let e1 = g * ((b.lo[i] - mean) * inv) + beta;
            let e2 = g * ((b.hi[i] - mean) * inv) + beta;
            let abs =
                (g * inv).abs() * (b.lo[i] - mean).abs().max((b.hi[i] - mean).abs()) + beta.abs();
            let s = fp_slack(abs, 4);
            lo[i] = e1.min(e2) - s;
            hi[i] = e1.max(e2) + s;
        }
    }
    Bounds { lo, hi }
}

/// DenseNet-block transfer: per stage, conv over the accumulated state,
/// exact ReLU, then channel concatenation (widthwise append — spatial
/// dims are preserved by the block's padded convolutions).
fn dense_block(stages: &[ConvSpec<'_>], b: &Bounds, growth: usize, h: usize, w: usize) -> Bounds {
    let mut state = b.clone();
    for st in stages {
        assert_eq!(
            st.in_channels * h * w,
            state.len(),
            "dense block stage input mismatch"
        );
        let mut feat = conv2d(st, &state, h, w);
        assert_eq!(
            feat.len(),
            growth * h * w,
            "dense block stage output mismatch"
        );
        relu_in_place(&mut feat);
        state.lo.extend_from_slice(&feat.lo);
        state.hi.extend_from_slice(&feat.hi);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(v: &[f32]) -> Bounds {
        Bounds::point(v)
    }

    #[test]
    fn relu_clamps_endpoints() {
        let mut b = Bounds::from_f32(&[-2.0, -1.0, 1.0], &[-1.0, 2.0, 3.0]);
        relu_in_place(&mut b);
        assert_eq!(b.lo, vec![0.0, 0.0, 1.0]);
        assert_eq!(b.hi, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn maxpool_takes_window_maxima() {
        // One channel, 2x2 -> 1x1.
        let b = Bounds::from_f32(&[0.0, 1.0, 2.0, -1.0], &[0.5, 1.5, 2.5, 0.0]);
        let out = maxpool2(&b, 1, 2, 2);
        assert_eq!(out.lo, vec![2.0]);
        assert_eq!(out.hi, vec![2.5]);
    }

    #[test]
    fn dense_point_input_is_tight() {
        let weight = [1.0f32, -2.0, 0.5, 3.0];
        let bias = [0.25f32, -0.5];
        let d = DenseSpec {
            weight: &weight,
            bias: &bias,
            in_features: 2,
            out_features: 2,
        };
        let b = point(&[1.0, 2.0]);
        let out = dense(&d, &b);
        // y0 = 1*1 - 2*2 + 0.25 = -2.75; y1 = 0.5*1 + 3*2 - 0.5 = 6.0
        // (near-tight: only the fp rounding slack separates the endpoints)
        assert!((out.lo[0] - -2.75).abs() < 1e-4 && (out.hi[0] - -2.75).abs() < 1e-4);
        assert!((out.lo[1] - 6.0).abs() < 1e-4 && (out.hi[1] - 6.0).abs() < 1e-4);
        assert!(out.lo[0] <= -2.75 && out.hi[0] >= -2.75, "outward widened");
    }

    #[test]
    fn dense_box_input_splits_weight_signs() {
        let weight = [1.0f32, -1.0];
        let bias = [0.0f32];
        let d = DenseSpec {
            weight: &weight,
            bias: &bias,
            in_features: 2,
            out_features: 1,
        };
        let b = Bounds::from_f32(&[0.0, 0.0], &[1.0, 1.0]);
        let out = dense(&d, &b);
        assert!(out.lo[0] <= -1.0 + 1e-6 && out.lo[0] > -1.1);
        assert!(out.hi[0] >= 1.0 - 1e-6 && out.hi[0] < 1.1);
    }
}
