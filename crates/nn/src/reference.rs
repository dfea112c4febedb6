//! Naive reference kernels.
//!
//! These are straight-line nested loops: per-element bounds checks and
//! flat index arithmetic, no hoisting, no slice stripes, no buffer reuse.
//! They exist as the independent oracle — golden tests assert the
//! optimized kernels in [`crate::layers`] agree with them bit for bit, and
//! the quickbench conv stages measure the speedup against them. Each one
//! fixes the summation order of every output element, which is the
//! contract the optimized kernels keep (DESIGN.md §4b).
//! Keep them dumb; their only virtue is obviousness.

use crate::arch::{Padding, PoolKind};
use crate::tensor::Tensor;

/// Output spatial dims and padding offsets, identical to the layers' own
/// `out_dims`.
fn out_dims(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: Padding,
) -> (usize, usize, isize, isize) {
    match padding {
        Padding::Valid => ((h - kh) / stride + 1, (w - kw) / stride + 1, 0, 0),
        Padding::Same => {
            let oh = h.div_ceil(stride);
            let ow = w.div_ceil(stride);
            let pad_h = (((oh - 1) * stride + kh).saturating_sub(h)) / 2;
            let pad_w = (((ow - 1) * stride + kw).saturating_sub(w)) / 2;
            (oh, ow, pad_h as isize, pad_w as isize)
        }
    }
}

/// Naive full convolution forward over a `[h, w, cin]` input with
/// `[kh][kw][cin][cout]` weights.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    kh: usize,
    kw: usize,
    cin: usize,
    cout: usize,
    stride: usize,
    padding: Padding,
) -> Tensor {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let (oh, ow, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut out = Tensor::zeros([oh, ow, cout]);
    for oy in 0..oh {
        for ox in 0..ow {
            for co in 0..cout {
                let mut acc = bias[co];
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        for ci in 0..cin {
                            acc += input.at3(iy as usize, ix as usize, ci)
                                * weights[((i * kw + j) * cin + ci) * cout + co];
                        }
                    }
                }
                *out.at3_mut(oy, ox, co) = acc;
            }
        }
    }
    out
}

/// Naive full convolution backward. Returns
/// `(grad_in, grad_weights, grad_bias)`.
///
/// Output pixels run in row-major order. Each pixel adds its bias and
/// weight-gradient terms element by element; its input-gradient share for
/// one `(tap, ci)` is the dot product over `cout`, summed from zero and
/// added as one term.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    input: &Tensor,
    grad_out: &Tensor,
    weights: &[f32],
    kh: usize,
    kw: usize,
    cin: usize,
    cout: usize,
    stride: usize,
    padding: Padding,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let [oh, ow, _]: [usize; 3] = grad_out.shape().try_into().expect("rank 3");
    let (_, _, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut grad_in = Tensor::zeros([h, w, cin]);
    let mut grad_weights = vec![0.0f32; kh * kw * cin * cout];
    let mut grad_bias = vec![0.0f32; cout];
    for oy in 0..oh {
        for ox in 0..ow {
            for (co, gb) in grad_bias.iter_mut().enumerate() {
                *gb += grad_out.at3(oy, ox, co);
            }
            for i in 0..kh {
                for j in 0..kw {
                    let iy = (oy * stride + i) as isize - ph;
                    let ix = (ox * stride + j) as isize - pw;
                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                        continue;
                    }
                    let (iy, ix) = (iy as usize, ix as usize);
                    for ci in 0..cin {
                        let mut dot = 0.0f32;
                        for co in 0..cout {
                            let g = grad_out.at3(oy, ox, co);
                            let widx = ((i * kw + j) * cin + ci) * cout + co;
                            grad_weights[widx] += g * input.at3(iy, ix, ci);
                            dot += g * weights[widx];
                        }
                        *grad_in.at3_mut(iy, ix, ci) += dot;
                    }
                }
            }
        }
    }
    (grad_in, grad_weights, grad_bias)
}

/// Naive depthwise convolution forward over a `[h, w, c]` input with
/// `[kh][kw][c]` weights.
pub fn dwconv2d_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    kh: usize,
    kw: usize,
    channels: usize,
    stride: usize,
    padding: Padding,
) -> Tensor {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let (oh, ow, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut out = Tensor::zeros([oh, ow, channels]);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..channels {
                let mut acc = bias[c];
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        acc += input.at3(iy as usize, ix as usize, c)
                            * weights[(i * kw + j) * channels + c];
                    }
                }
                *out.at3_mut(oy, ox, c) = acc;
            }
        }
    }
    out
}

/// Naive depthwise convolution backward. Returns
/// `(grad_in, grad_weights, grad_bias)`.
#[allow(clippy::too_many_arguments)]
pub fn dwconv2d_backward(
    input: &Tensor,
    grad_out: &Tensor,
    weights: &[f32],
    kh: usize,
    kw: usize,
    channels: usize,
    stride: usize,
    padding: Padding,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let [oh, ow, _]: [usize; 3] = grad_out.shape().try_into().expect("rank 3");
    let (_, _, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut grad_in = Tensor::zeros([h, w, channels]);
    let mut grad_weights = vec![0.0f32; kh * kw * channels];
    let mut grad_bias = vec![0.0f32; channels];
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..channels {
                let g = grad_out.at3(oy, ox, c);
                if g.to_bits() == 0 {
                    continue;
                }
                grad_bias[c] += g;
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let (iy, ix) = (iy as usize, ix as usize);
                        let widx = (i * kw + j) * channels + c;
                        grad_weights[widx] += g * input.at3(iy, ix, c);
                        *grad_in.at3_mut(iy, ix, c) += g * weights[widx];
                    }
                }
            }
        }
    }
    (grad_in, grad_weights, grad_bias)
}

/// Naive pooling forward over non-overlapping `sh × sw` windows, `sw`
/// clipped to the map width; the output width is `w / sw_requested`, at
/// least 1. Returns the output and, for max pooling, the flat input index
/// each output element took its value from (the window's first cell when
/// no cell beats −∞).
pub fn pool2d_forward(
    input: &Tensor,
    kind: PoolKind,
    sh: usize,
    sw_requested: usize,
) -> (Tensor, Vec<usize>) {
    let [h, w, c]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let (oh, ow, sw) = (h / sh, (w / sw_requested).max(1), sw_requested.min(w));
    let mut out = Tensor::zeros([oh, ow, c]);
    let mut argmax = vec![0; oh * ow * c];
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = ((oy * sh) * w + ox * sw) * c + ch;
                let mut acc = 0.0;
                let mut n = 0;
                for i in 0..sh {
                    for j in 0..sw {
                        let (iy, ix) = (oy * sh + i, ox * sw + j);
                        if iy >= h || ix >= w {
                            continue;
                        }
                        let v = input.at3(iy, ix, ch);
                        if v > best {
                            best = v;
                            best_idx = (iy * w + ix) * c + ch;
                        }
                        acc += v;
                        n += 1;
                    }
                }
                *out.at3_mut(oy, ox, ch) = match kind {
                    PoolKind::Max => best,
                    PoolKind::Avg => acc / n.max(1) as f32,
                };
                argmax[(oy * ow + ox) * c + ch] = best_idx;
            }
        }
    }
    (out, argmax)
}

/// Naive pooling backward: max pooling adds each output gradient at its
/// `argmax` (from [`pool2d_forward`]); avg pooling adds `g / cells` to every
/// in-map cell of the window.
pub fn pool2d_backward(
    input_shape: [usize; 3],
    grad_out: &Tensor,
    kind: PoolKind,
    sh: usize,
    sw_requested: usize,
    argmax: &[usize],
) -> Tensor {
    let [h, w, c] = input_shape;
    let [oh, ow, _]: [usize; 3] = grad_out.shape().try_into().expect("rank 3");
    let sw = sw_requested.min(w);
    let mut grad_in = Tensor::zeros([h, w, c]);
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let g = grad_out.at3(oy, ox, ch);
                match kind {
                    PoolKind::Max => {
                        grad_in.data_mut()[argmax[(oy * ow + ox) * c + ch]] += g;
                    }
                    PoolKind::Avg => {
                        let mut cells = Vec::new();
                        for i in 0..sh {
                            for j in 0..sw {
                                let (iy, ix) = (oy * sh + i, ox * sw + j);
                                if iy < h && ix < w {
                                    cells.push((iy, ix));
                                }
                            }
                        }
                        let share = g / cells.len().max(1) as f32;
                        for (iy, ix) in cells {
                            *grad_in.at3_mut(iy, ix, ch) += share;
                        }
                    }
                }
            }
        }
    }
    grad_in
}
