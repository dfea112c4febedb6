//! Instantiated layers with forward and backward passes.
//!
//! Layers read their input from, and write their output into, buffers the
//! caller owns ([`crate::Model`] keeps one per activation and reuses them
//! across samples), so a training step allocates nothing once the buffers
//! have seen their shapes. Backward receives the same input (and output)
//! the forward saw instead of a cached copy. It accumulates parameter
//! gradients internally and writes the input gradient only when the caller
//! asks for it. Gradients accumulate across samples until the optimizer
//! consumes them, enabling simple minibatch training.
//!
//! Every kernel keeps the per-element floating-point order of the naive
//! loops in [`crate::reference`]: each output element receives its terms in
//! the same sequence, so loop interchanges and skipped zero terms change
//! speed, never bits (DESIGN.md §4b).

use rand::Rng;

use crate::arch::{LayerSpec, Padding, PoolKind};
use crate::tensor::Tensor;

/// An instantiated layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution.
    Conv(Conv2d),
    /// Depthwise 2-D convolution.
    DwConv(DwConv2d),
    /// Max/avg pooling.
    Pool(Pool2d),
    /// Per-channel normalization with learned affine.
    Norm(ChannelNorm),
    /// ReLU.
    Relu(Relu),
    /// Flatten.
    Flatten(Flatten),
    /// Fully connected.
    Dense(Dense),
    /// Dropout (training-time regularization).
    Dropout(Dropout),
}

impl Layer {
    /// Instantiates a layer for `spec` with the input shape known from the
    /// spec's shape inference.
    pub(crate) fn instantiate(
        spec: &LayerSpec,
        before: crate::arch::Shape,
        rng: &mut impl Rng,
    ) -> Layer {
        use crate::arch::Shape;
        match (spec, before) {
            (
                LayerSpec::Conv {
                    filters,
                    kernel,
                    stride,
                    padding,
                },
                Shape::Map([_, w, cin]),
            ) => Layer::Conv(Conv2d::new(
                cin,
                *filters,
                *kernel,
                (*kernel).min(w),
                *stride,
                *padding,
                rng,
            )),
            (
                LayerSpec::DwConv {
                    kernel,
                    stride,
                    padding,
                },
                Shape::Map([_, w, c]),
            ) => Layer::DwConv(DwConv2d::new(
                c,
                *kernel,
                (*kernel).min(w),
                *stride,
                *padding,
                rng,
            )),
            (LayerSpec::Pool { kind, size }, Shape::Map([_, w, _])) => {
                Layer::Pool(Pool2d::new(*kind, *size, (*size).min(w)))
            }
            (LayerSpec::Norm, shape) => {
                let channels = match shape {
                    Shape::Map([_, _, c]) => c,
                    Shape::Flat(n) => n,
                };
                Layer::Norm(ChannelNorm::new(channels))
            }
            (LayerSpec::Relu, _) => Layer::Relu(Relu),
            (LayerSpec::Flatten, _) => Layer::Flatten(Flatten),
            (LayerSpec::Dense { units }, Shape::Flat(n)) => {
                Layer::Dense(Dense::new(n, *units, rng))
            }
            (LayerSpec::Dropout { permille }, _) => {
                Layer::Dropout(Dropout::new(*permille as f32 / 1000.0, rng.gen()))
            }
            _ => unreachable!("spec validated before instantiation"),
        }
    }

    /// Forward pass from `input` into `out` (reshaped as needed), keeping
    /// whatever backward needs beyond its input and output (pooling
    /// argmaxes, dropout masks) and, in training, updating norm statistics.
    pub fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, training: bool) {
        match self {
            Layer::Conv(l) => l.forward_into(input, out),
            Layer::DwConv(l) => l.forward_into(input, out),
            Layer::Pool(l) => l.forward_into(input, out),
            Layer::Norm(l) => l.forward_into(input, out, training),
            Layer::Relu(l) => l.forward_into(input, out),
            Layer::Flatten(l) => l.forward_into(input, out),
            Layer::Dense(l) => l.forward_into(input, out),
            Layer::Dropout(l) => l.forward_into(input, out, training),
        }
    }

    /// Backward pass for the most recent forward, which read `input` and
    /// wrote `output`. Accumulates parameter gradients internally and, when
    /// `grad_in` is given, overwrites it with the gradient w.r.t. `input`.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        match self {
            Layer::Conv(l) => l.backward_into(input, grad_out, grad_in),
            Layer::DwConv(l) => l.backward_into(input, grad_out, grad_in),
            Layer::Pool(l) => l.backward_into(input, grad_out, grad_in),
            Layer::Norm(l) => l.backward_into(input, grad_out, grad_in),
            Layer::Relu(l) => l.backward_into(output, grad_out, grad_in),
            Layer::Flatten(l) => l.backward_into(input, grad_out, grad_in),
            Layer::Dense(l) => l.backward_into(input, grad_out, grad_in),
            Layer::Dropout(l) => l.backward_into(grad_out, grad_in),
        }
    }

    /// Mutable views of `(parameter, gradient)` vectors, empty for
    /// parameterless layers.
    ///
    /// Handing out the weights may change them, so the layers' transposed
    /// weight copies are dropped here and rebuilt by the next backward that
    /// needs them.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Vec<f32>, &mut Vec<f32>)> {
        match self {
            Layer::Conv(l) => {
                l.weights_t.clear();
                vec![
                    (&mut l.weights, &mut l.grad_weights),
                    (&mut l.bias, &mut l.grad_bias),
                ]
            }
            Layer::DwConv(l) => vec![
                (&mut l.weights, &mut l.grad_weights),
                (&mut l.bias, &mut l.grad_bias),
            ],
            Layer::Dense(l) => {
                l.weights_t.clear();
                vec![
                    (&mut l.weights, &mut l.grad_weights),
                    (&mut l.bias, &mut l.grad_bias),
                ]
            }
            Layer::Norm(l) => vec![
                (&mut l.scale, &mut l.grad_scale),
                (&mut l.shift, &mut l.grad_shift),
            ],
            _ => Vec::new(),
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

fn he_std(fan_in: usize) -> f32 {
    (2.0 / fan_in.max(1) as f32).sqrt()
}

fn init_weights(rng: &mut impl Rng, n: usize, fan_in: usize) -> Vec<f32> {
    let std = he_std(fan_in);
    (0..n)
        .map(|_| rng.gen_range(-2.0f32..2.0) * std / 2.0)
        .collect()
}

fn dims3(t: &Tensor) -> [usize; 3] {
    t.shape().try_into().expect("feature map is rank 3")
}

/// Sets `live[p]` for every `width`-long row of `grad` holding a bit other
/// than +0. A row of +0 contributes nothing to any accumulator (DESIGN.md
/// §4b), so the backward kernels skip it; the test is on bit patterns, so
/// it is exact and float-eq-free.
fn mark_live_rows(live: &mut Vec<bool>, grad: &[f32], width: usize) {
    live.clear();
    live.extend(
        grad.chunks_exact(width)
            .map(|row| row.iter().any(|g| g.to_bits() != 0)),
    );
}

/// Calls `$kernel::<N>($args)` with `N` = `$width` as a compile-time
/// constant when `$width` is 1 (a single-channel input) or a filter count
/// the architecture sampler draws, so a stripe of that width lives in
/// registers; any other width runs the same kernel as `$kernel::<0>`,
/// which reads the width at run time. Both compute the same bits.
macro_rules! by_width {
    ($width:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $width {
            1 => $kernel::<1>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            12 => $kernel::<12>($($arg),*),
            16 => $kernel::<16>($($arg),*),
            24 => $kernel::<24>($($arg),*),
            32 => $kernel::<32>($($arg),*),
            _ => $kernel::<0>($($arg),*),
        }
    };
}

/// `out[k] += Σ_r xs[r] · rows[r][k]` for the `out.len()`-wide rows of
/// `rows`, every `out[k]` taking its terms in ascending `r`. On a zeroed
/// `out` this is a set of dot products `xs · column k`, each summed from +0
/// in ascending `r` — the input-gradient form, over transposed weights.
#[inline(always)]
fn mac_rows<const N: usize>(out: &mut [f32], xs: &[f32], rows: &[f32]) {
    let n = if N == 0 { out.len() } else { N };
    let out = &mut out[..n];
    for (&xv, row) in xs.iter().zip(rows.chunks_exact(n)) {
        let row = &row[..n];
        for k in 0..n {
            out[k] += xv * row[k];
        }
    }
}

/// `out[r] += g · cols[·][r]`: each dot product over the `g.len()` rows
/// of `cols` is summed from +0 in ascending row order ([`mac_rows`] on a
/// zeroed accumulator), then added to `out[r]` as one term. With a
/// compile-time width the accumulator is a register array, so successive
/// calls do not queue behind one another through memory; other widths use
/// `scratch`.
#[inline(always)]
fn add_dots<const N: usize>(out: &mut [f32], g: &[f32], cols: &[f32], scratch: &mut Vec<f32>) {
    let mut acc = [0.0f32; N];
    let dots: &mut [f32] = if N == 0 {
        scratch.clear();
        scratch.resize(out.len(), 0.0);
        scratch
    } else {
        &mut acc
    };
    mac_rows::<N>(dots, g, cols);
    for (o, &d) in out.iter_mut().zip(dots.iter()) {
        *o += d;
    }
}

/// `out[c] += g[c] · x[c]` for each `(g, x)` pair in order: one term per
/// pair for every element. With a compile-time width `out` is held in a
/// register array for the whole sequence.
#[inline(always)]
fn add_products<'a, const N: usize>(
    out: &mut [f32],
    pairs: impl Iterator<Item = (&'a [f32], &'a [f32])>,
) {
    let mut acc = [0.0f32; N];
    let sums: &mut [f32] = if N == 0 {
        out
    } else {
        acc.copy_from_slice(out);
        &mut acc
    };
    for (g, x) in pairs {
        for ((s, &gv), &xv) in sums.iter_mut().zip(g).zip(x) {
            *s += gv * xv;
        }
    }
    if N != 0 {
        out.copy_from_slice(&acc);
    }
}

/// Outer-product update `rows[r][k] += g[k] · xs[r]` over the
/// `g.len()`-wide rows of `rows`: one term per element.
#[inline(always)]
fn add_outer<const N: usize>(rows: &mut [f32], xs: &[f32], g: &[f32]) {
    let n = if N == 0 { g.len() } else { N };
    let g = &g[..n];
    for (&xv, row) in xs.iter().zip(rows.chunks_exact_mut(n)) {
        let row = &mut row[..n];
        for k in 0..n {
            row[k] += g[k] * xv;
        }
    }
}

/// Fills an empty `out` with the transpose of each `rows × cols` block of
/// `blocks`; a filled `out` is kept as it is. Layers empty their transposed
/// copy whenever their weights may have changed
/// ([`Layer::params_and_grads`]), so one transpose serves every backward
/// of a minibatch.
fn transpose_blocks(blocks: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    if !out.is_empty() {
        return;
    }
    out.resize(blocks.len(), 0.0);
    for (src, dst) in blocks
        .chunks_exact(rows * cols)
        .zip(out.chunks_exact_mut(rows * cols))
    {
        for (r, row) in src.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                dst[c * rows + r] = v;
            }
        }
    }
}

/// Kernel geometry shared by the full and depthwise convolutions.
#[derive(Debug, Clone, Copy)]
struct Window {
    kh: usize,
    kw: usize,
    stride: usize,
    padding: Padding,
}

/// Where a kernel sits on one `[h, w]` input: output dims and the
/// top/left padding.
#[derive(Debug, Clone, Copy)]
struct Placement {
    oh: usize,
    ow: usize,
    ph: usize,
    pw: usize,
}

impl Window {
    fn place(&self, h: usize, w: usize) -> Placement {
        match self.padding {
            Padding::Valid => Placement {
                oh: (h - self.kh) / self.stride + 1,
                ow: (w - self.kw) / self.stride + 1,
                ph: 0,
                pw: 0,
            },
            Padding::Same => {
                let oh = h.div_ceil(self.stride);
                let ow = w.div_ceil(self.stride);
                Placement {
                    oh,
                    ow,
                    ph: (((oh - 1) * self.stride + self.kh).saturating_sub(h)) / 2,
                    pw: (((ow - 1) * self.stride + self.kw).saturating_sub(w)) / 2,
                }
            }
        }
    }

    /// Output positions `lo..hi` along one axis whose input position
    /// `o·stride + tap − pad` lands inside `0..len`.
    fn span(&self, tap: usize, pad: usize, len: usize, out_len: usize) -> std::ops::Range<usize> {
        let s = self.stride;
        let lo = pad.saturating_sub(tap).div_ceil(s);
        let hi = (len + pad).saturating_sub(tap).div_ceil(s).min(out_len);
        lo..hi.max(lo)
    }

    /// For every kernel tap `(i, j)` that reaches the output, in row-major
    /// order (or its reverse): the output rows and columns it reaches and
    /// the input offset `(dy, dx)` with `iy = oy·stride + dy`,
    /// `ix = ox·stride + dx`. A tap that only ever lands in the padding
    /// (a Same-padded kernel wider than its input) contributes nothing and
    /// is left out.
    fn taps(self, at: Placement, h: usize, w: usize, reverse: bool) -> impl Iterator<Item = Tap> {
        let n = self.kh * self.kw;
        (0..n)
            .map(move |t| {
                let t = if reverse { n - 1 - t } else { t };
                let (i, j) = (t / self.kw, t % self.kw);
                Tap {
                    index: t,
                    rows: self.span(i, at.ph, h, at.oh),
                    cols: self.span(j, at.pw, w, at.ow),
                    dy: i as isize - at.ph as isize,
                    dx: j as isize - at.pw as isize,
                }
            })
            .filter(|tap| !tap.rows.is_empty() && !tap.cols.is_empty())
    }
}

/// One kernel tap's reach over the output map.
struct Tap {
    /// Row-major tap index `i·kw + j`.
    index: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    dy: isize,
    dx: isize,
}

impl Tap {
    /// The tap's reach one output row at a time: the first output pixel of
    /// the row's run and the input pixel under it. The run's `k`-th output
    /// pixel (`k < cols.len()`) lies over input pixel `first + k·stride`.
    fn runs(
        &self,
        out_w: usize,
        in_w: usize,
        stride: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ix = ((self.cols.start * stride) as isize + self.dx) as usize;
        self.rows.clone().map(move |oy| {
            let iy = ((oy * stride) as isize + self.dy) as usize;
            (oy * out_w + self.cols.start, iy * in_w + ix)
        })
    }
}

/// 2-D convolution over `[h, w, c]` maps. Kernels may be rectangular when
/// the input is narrower than the requested square kernel.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    filters: usize,
    window: Window,
    /// `[kh][kw][cin][cout]`, flattened row-major.
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_weights: Vec<f32>,
    pub(crate) grad_bias: Vec<f32>,
    /// Backward scratch: which output pixels carry a nonzero gradient.
    live: Vec<bool>,
    /// Each tap's weight block transposed to `[cout][cin]`, for the
    /// input-gradient dot products; empty until a backward needs it.
    weights_t: Vec<f32>,
    /// Backward scratch for input-gradient dot products of unusual widths.
    dots: Vec<f32>,
}

impl Conv2d {
    fn new(
        in_channels: usize,
        filters: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: Padding,
        rng: &mut impl Rng,
    ) -> Self {
        let n = kh * kw * in_channels * filters;
        Self {
            in_channels,
            filters,
            window: Window {
                kh,
                kw,
                stride,
                padding,
            },
            weights: init_weights(rng, n, kh * kw * in_channels),
            bias: vec![0.0; filters],
            grad_weights: vec![0.0; n],
            grad_bias: vec![0.0; filters],
            live: Vec::new(),
            weights_t: Vec::new(),
            dots: Vec::new(),
        }
    }

    /// Builds a free-standing conv layer (benches and golden tests; model
    /// construction goes through [`Layer::instantiate`]).
    pub fn standalone(
        in_channels: usize,
        filters: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: Padding,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(in_channels, filters, kh, kw, stride, padding, rng)
    }

    /// The `[kh][kw][cin][cout]` weight block, flattened.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Per-filter bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Accumulated weight gradients (same layout as [`Conv2d::weights`]).
    pub fn grad_weights(&self) -> &[f32] {
        &self.grad_weights
    }

    /// Accumulated bias gradients.
    pub fn grad_bias(&self) -> &[f32] {
        &self.grad_bias
    }

    /// Forward pass, tap-outer and pixel-inner: each kernel tap's
    /// `cin × cout` weight block stays hot while the tap sweeps the output
    /// pixels it reaches, and a pixel's `cout` stripe stays in registers
    /// across its `cin` terms. Each output element still receives its
    /// `(i, j, ci)` terms in row-major order after the bias, so the result
    /// is bit-exact against [`crate::reference::conv2d_forward`].
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (cin, cout, s) = (self.in_channels, self.filters, self.window.stride);
        out.reset(&[at.oh, at.ow, cout]);
        let o = out.data_mut();
        for orow in o.chunks_exact_mut(cout) {
            orow.copy_from_slice(&self.bias);
        }
        let x = input.data();
        for tap in self.window.taps(at, h, w, false) {
            let block = &self.weights[tap.index * cin * cout..][..cin * cout];
            let n = tap.cols.len();
            for (p0, q0) in tap.runs(at.ow, w, s) {
                let orun = o[p0 * cout..][..n * cout].chunks_exact_mut(cout);
                let xpixels = x[q0 * cin..].chunks_exact(cin).step_by(s);
                for (orow, xpix) in orun.zip(xpixels) {
                    by_width!(cout, mac_rows(orow, xpix, block));
                }
            }
        }
    }

    /// Backward pass. Weight and bias gradients take their per-pixel terms
    /// in output-pixel order, as the naive loop does. The input gradient is
    /// a dot product over `cout` per `(pixel, tap, ci)`, added in
    /// output-pixel order; walking the taps in reverse row-major order
    /// while the pixels run forward is what delivers that order to every
    /// input element ([`crate::reference::conv2d_backward`]). All-zero
    /// gradient rows are skipped, and with `grad_in` absent (the first
    /// layer) the dot products are not computed at all.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (cin, cout, s) = (self.in_channels, self.filters, self.window.stride);
        let (x, go) = (input.data(), grad_out.data());
        mark_live_rows(&mut self.live, go, cout);
        for (grow, _) in go.chunks_exact(cout).zip(&self.live).filter(|(_, &l)| l) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(grow) {
                *gb += g;
            }
        }
        let mut gi = grad_in.map(|t| {
            t.reset(&[h, w, cin]);
            t.fill_zero();
            t.data_mut()
        });
        if gi.is_some() {
            transpose_blocks(&self.weights, cin, cout, &mut self.weights_t);
        }
        let block_len = cin * cout;
        for tap in self.window.taps(at, h, w, true) {
            let block = tap.index * block_len..(tap.index + 1) * block_len;
            let gwblock = &mut self.grad_weights[block.clone()];
            let wt = self.weights_t.get(block).unwrap_or_default();
            let n = tap.cols.len();
            for (p0, q0) in tap.runs(at.ow, w, s) {
                let grows = go[p0 * cout..][..n * cout].chunks_exact(cout);
                let pixels = grows
                    .zip(&self.live[p0..][..n])
                    .zip(x[q0 * cin..].chunks_exact(cin).step_by(s));
                match gi.as_deref_mut() {
                    None => {
                        for ((grow, _), xpix) in pixels.filter(|((_, &live), _)| live) {
                            by_width!(cout, add_outer(gwblock, xpix, grow));
                        }
                    }
                    Some(gi) => {
                        let gipixels = gi[q0 * cin..].chunks_exact_mut(cin).step_by(s);
                        for (((grow, _), xpix), gipix) in
                            pixels.zip(gipixels).filter(|(((_, &live), _), _)| live)
                        {
                            by_width!(cout, add_outer(gwblock, xpix, grow));
                            by_width!(cin, add_dots(gipix, grow, wt, &mut self.dots));
                        }
                    }
                }
            }
        }
    }
}

/// Depthwise 2-D convolution: one spatial filter per input channel.
#[derive(Debug, Clone)]
pub struct DwConv2d {
    channels: usize,
    window: Window,
    /// `[kh][kw][c]`, flattened.
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_weights: Vec<f32>,
    pub(crate) grad_bias: Vec<f32>,
    /// Backward scratch: which output pixels carry a nonzero gradient.
    live: Vec<bool>,
}

impl DwConv2d {
    fn new(
        channels: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: Padding,
        rng: &mut impl Rng,
    ) -> Self {
        let n = kh * kw * channels;
        Self {
            channels,
            window: Window {
                kh,
                kw,
                stride,
                padding,
            },
            weights: init_weights(rng, n, kh * kw),
            bias: vec![0.0; channels],
            grad_weights: vec![0.0; n],
            grad_bias: vec![0.0; channels],
            live: Vec::new(),
        }
    }

    /// Builds a free-standing depthwise conv layer (benches and golden
    /// tests).
    pub fn standalone(
        channels: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: Padding,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(channels, kh, kw, stride, padding, rng)
    }

    /// The `[kh][kw][c]` weight block, flattened.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Per-channel bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Accumulated weight gradients (same layout as [`DwConv2d::weights`]).
    pub fn grad_weights(&self) -> &[f32] {
        &self.grad_weights
    }

    /// Accumulated bias gradients.
    pub fn grad_bias(&self) -> &[f32] {
        &self.grad_bias
    }

    /// Forward pass, tap-outer and pixel-inner: for one tap and one output
    /// row, the reached pixels form a run of output and (at stride 1) a
    /// contiguous run of input, so a single-channel map is one flat
    /// multiply-add over the run. Each output element receives its `(i, j)`
    /// terms in row-major order after the bias: bit-exact against
    /// [`crate::reference::dwconv2d_forward`].
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (c_n, s) = (self.channels, self.window.stride);
        out.reset(&[at.oh, at.ow, c_n]);
        let o = out.data_mut();
        for orow in o.chunks_exact_mut(c_n) {
            orow.copy_from_slice(&self.bias);
        }
        let x = input.data();
        for tap in self.window.taps(at, h, w, false) {
            let wrow = &self.weights[tap.index * c_n..][..c_n];
            let run = tap.cols.len();
            for (p0, q0) in tap.runs(at.ow, w, s) {
                let orun = &mut o[p0 * c_n..][..run * c_n];
                let xrun = &x[q0 * c_n..];
                if c_n == 1 && s == 1 {
                    let wv = wrow[0];
                    for (ov, &xv) in orun.iter_mut().zip(xrun) {
                        *ov += xv * wv;
                    }
                } else {
                    let xpixels = xrun.chunks(c_n).step_by(s);
                    for (opix, xpix) in orun.chunks_exact_mut(c_n).zip(xpixels) {
                        for ((ov, &xv), &wv) in opix.iter_mut().zip(xpix).zip(wrow) {
                            *ov += xv * wv;
                        }
                    }
                }
            }
        }
    }

    /// Backward pass: per element the same terms in the same order as
    /// [`crate::reference::dwconv2d_backward`] — weight and bias gradients
    /// in output-pixel order, input gradients in output-pixel order by
    /// walking the taps in reverse. All-zero gradient rows are skipped.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (c_n, s) = (self.channels, self.window.stride);
        let (x, go) = (input.data(), grad_out.data());
        mark_live_rows(&mut self.live, go, c_n);
        for (grow, _) in go.chunks_exact(c_n).zip(&self.live).filter(|(_, &l)| l) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(grow) {
                *gb += g;
            }
        }
        let mut gi = grad_in.map(|t| {
            t.reset(&[h, w, c_n]);
            t.fill_zero();
            t.data_mut()
        });
        for tap in self.window.taps(at, h, w, true) {
            let wrow = &self.weights[tap.index * c_n..][..c_n];
            let gwrow = &mut self.grad_weights[tap.index * c_n..][..c_n];
            let n = tap.cols.len();
            for (p0, q0) in tap.runs(at.ow, w, s) {
                let grows = go[p0 * c_n..][..n * c_n].chunks_exact(c_n);
                let xpixels = x[q0 * c_n..].chunks_exact(c_n).step_by(s);
                let pixels = grows.zip(&self.live[p0..][..n]).zip(xpixels);
                let live_pixels = pixels.clone().filter(|((_, &live), _)| live);
                by_width!(
                    c_n,
                    add_products(gwrow, live_pixels.map(|((g, _), x)| (g, x)))
                );
                if let Some(gi) = gi.as_deref_mut() {
                    let gipixels = gi[q0 * c_n..].chunks_exact_mut(c_n).step_by(s);
                    for (((grow, _), _), gipix) in
                        pixels.zip(gipixels).filter(|(((_, &live), _), _)| live)
                    {
                        for ((giv, &g), &wv) in gipix.iter_mut().zip(grow).zip(wrow) {
                            *giv += g * wv;
                        }
                    }
                }
            }
        }
    }
}

/// Max/avg pooling with non-overlapping windows.
#[derive(Debug, Clone)]
pub struct Pool2d {
    kind: PoolKind,
    sh: usize,
    sw: usize,
    /// For max pooling: flat input index chosen per output element.
    argmax: Vec<usize>,
}

/// One pooling window: its output pixel and the input rows and columns it
/// covers (clipped to the map).
struct PoolWindow {
    out_pixel: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
}

impl PoolWindow {
    fn cells(&self) -> usize {
        self.rows.len() * self.cols.len()
    }
}

impl Pool2d {
    fn new(kind: PoolKind, sh: usize, sw: usize) -> Self {
        Self {
            kind,
            sh,
            sw,
            argmax: Vec::new(),
        }
    }

    /// Output dims for a `[h, w]` input and the windows in output order.
    fn windows(&self, h: usize, w: usize) -> ([usize; 2], impl Iterator<Item = PoolWindow>) {
        let (oh, ow) = (h / self.sh, (w / self.sw).max(1));
        let (sh, sw) = (self.sh, self.sw.min(w));
        let windows = (0..oh).flat_map(move |oy| {
            (0..ow).map(move |ox| PoolWindow {
                out_pixel: oy * ow + ox,
                rows: oy * sh..(oy * sh + sh).min(h),
                cols: ox * sw..(ox * sw + sw).min(w),
            })
        });
        ([oh, ow], windows)
    }

    /// Forward pass over contiguous channel stripes: each window's cells
    /// are visited in row-major order and every channel of a cell at once.
    /// Max pooling keeps the first strict maximum per channel and starts
    /// from the window's first cell, so a window without a finite maximum
    /// (all NaN or −∞) still routes its gradient inside itself.
    /// Bit-exact against [`crate::reference::pool2d_forward`].
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        let [h, w, c] = dims3(input);
        let ([oh, ow], windows) = self.windows(h, w);
        out.reset(&[oh, ow, c]);
        let (x, o) = (input.data(), out.data_mut());
        match self.kind {
            PoolKind::Max => {
                self.argmax.clear();
                self.argmax.resize(oh * ow * c, 0);
                for win in windows {
                    let orow = &mut o[win.out_pixel * c..][..c];
                    let arow = &mut self.argmax[win.out_pixel * c..][..c];
                    orow.fill(f32::NEG_INFINITY);
                    let first = (win.rows.start * w + win.cols.start) * c;
                    for (ch, a) in arow.iter_mut().enumerate() {
                        *a = first + ch;
                    }
                    for iy in win.rows.clone() {
                        for ix in win.cols.clone() {
                            let off = (iy * w + ix) * c;
                            for (ch, ((best, a), &v)) in orow
                                .iter_mut()
                                .zip(arow.iter_mut())
                                .zip(&x[off..][..c])
                                .enumerate()
                            {
                                // Selects rather than branches: which
                                // cell wins is data-dependent.
                                let wins = v > *best;
                                *best = if wins { v } else { *best };
                                *a = if wins { off + ch } else { *a };
                            }
                        }
                    }
                }
            }
            PoolKind::Avg => {
                for win in windows {
                    let orow = &mut o[win.out_pixel * c..][..c];
                    orow.fill(0.0);
                    for iy in win.rows.clone() {
                        for ix in win.cols.clone() {
                            for (acc, &v) in orow.iter_mut().zip(&x[(iy * w + ix) * c..][..c]) {
                                *acc += v;
                            }
                        }
                    }
                    let n = win.cells().max(1) as f32;
                    for acc in orow.iter_mut() {
                        *acc /= n;
                    }
                }
            }
        }
    }

    /// Backward pass: max pooling adds each gradient at its window's
    /// argmax, avg pooling adds `g / cells` to every cell of the window.
    /// Bit-exact against [`crate::reference::pool2d_backward`].
    fn backward_into(&mut self, input: &Tensor, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(gi) = grad_in else {
            return;
        };
        let [h, w, c] = dims3(input);
        gi.reset(&[h, w, c]);
        gi.fill_zero();
        let (gi, go) = (gi.data_mut(), grad_out.data());
        match self.kind {
            PoolKind::Max => {
                for (&idx, &g) in self.argmax.iter().zip(go) {
                    gi[idx] += g;
                }
            }
            PoolKind::Avg => {
                let (_, windows) = self.windows(h, w);
                for win in windows {
                    let grow = &go[win.out_pixel * c..][..c];
                    let n = win.cells().max(1) as f32;
                    for iy in win.rows.clone() {
                        for ix in win.cols.clone() {
                            let girow = &mut gi[(iy * w + ix) * c..][..c];
                            for (giv, &g) in girow.iter_mut().zip(grow) {
                                *giv += g / n;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Per-channel normalization with a learned affine, using running statistics
/// (inference-mode batch norm semantics; the running stats update during
/// training with fixed momentum and are treated as constants for gradients).
#[derive(Debug, Clone)]
pub struct ChannelNorm {
    channels: usize,
    pub(crate) scale: Vec<f32>,
    pub(crate) shift: Vec<f32>,
    pub(crate) grad_scale: Vec<f32>,
    pub(crate) grad_shift: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

impl ChannelNorm {
    const MOMENTUM: f32 = 0.05;
    const EPS: f32 = 1e-5;

    fn new(channels: usize) -> Self {
        Self {
            channels,
            scale: vec![1.0; channels],
            shift: vec![0.0; channels],
            grad_scale: vec![0.0; channels],
            grad_shift: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
        }
    }

    /// Elements per channel stripe: the trailing dim of a map, the whole
    /// vector for a flat input.
    fn stripe(&self, t: &Tensor) -> usize {
        match t.shape() {
            [_, _, c] => *c,
            _ => self.channels,
        }
    }

    fn std(&self, c: usize) -> f32 {
        (self.running_var[c] + Self::EPS).sqrt()
    }

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, training: bool) {
        let stripe = self.stripe(input);
        if training {
            // Update running stats from this sample, each channel summed
            // in element order.
            let mut sums = vec![0.0f64; stripe];
            let mut sqs = vec![0.0f64; stripe];
            for row in input.data().chunks_exact(stripe) {
                for ((s, q), &v) in sums.iter_mut().zip(sqs.iter_mut()).zip(row) {
                    *s += v as f64;
                    *q += (v * v) as f64;
                }
            }
            let count = (input.len() / stripe) as f64;
            if count > 0.0 {
                for c in 0..stripe {
                    let mean = (sums[c] / count) as f32;
                    let var = (sqs[c] / count) as f32 - mean * mean;
                    self.running_mean[c] =
                        (1.0 - Self::MOMENTUM) * self.running_mean[c] + Self::MOMENTUM * mean;
                    self.running_var[c] = (1.0 - Self::MOMENTUM) * self.running_var[c]
                        + Self::MOMENTUM * var.max(0.0);
                }
            }
        }
        out.reset(input.shape());
        let std: Vec<f32> = (0..stripe).map(|c| self.std(c)).collect();
        for (orow, xrow) in out
            .data_mut()
            .chunks_exact_mut(stripe)
            .zip(input.data().chunks_exact(stripe))
        {
            for (c, (ov, &v)) in orow.iter_mut().zip(xrow).enumerate() {
                let xhat = (v - self.running_mean[c]) / std[c];
                *ov = xhat * self.scale[c] + self.shift[c];
            }
        }
    }

    /// Backward pass; the normalized input is recomputed from `input` with
    /// the statistics the forward used, which is the same f32 value the
    /// forward produced.
    fn backward_into(&mut self, input: &Tensor, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let stripe = self.stripe(grad_out);
        let std: Vec<f32> = (0..stripe).map(|c| self.std(c)).collect();
        for (grow, xrow) in grad_out
            .data()
            .chunks_exact(stripe)
            .zip(input.data().chunks_exact(stripe))
        {
            for (c, (&g, &v)) in grow.iter().zip(xrow).enumerate() {
                let xhat = (v - self.running_mean[c]) / std[c];
                self.grad_scale[c] += g * xhat;
                self.grad_shift[c] += g;
            }
        }
        if let Some(gi) = grad_in {
            gi.reset(grad_out.shape());
            let factor: Vec<f32> = (0..stripe).map(|c| self.scale[c] / std[c]).collect();
            for (girow, grow) in gi
                .data_mut()
                .chunks_exact_mut(stripe)
                .zip(grad_out.data().chunks_exact(stripe))
            {
                for ((giv, &g), &k) in girow.iter_mut().zip(grow).zip(&factor) {
                    *giv = g * k;
                }
            }
        }
    }
}

/// ReLU activation. Stateless: backward reads the forward's output, which
/// is positive exactly where the input was.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        out.reset(input.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
    }

    fn backward_into(&self, output: &Tensor, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(gi) = grad_in else {
            return;
        };
        gi.reset(grad_out.shape());
        for ((giv, &g), &y) in gi
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(output.data())
        {
            *giv = if y > 0.0 { g } else { 0.0 };
        }
    }
}

/// Flattens a feature map to a vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

impl Flatten {
    fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        out.reset(&[input.len()]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn backward_into(&self, input: &Tensor, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        if let Some(gi) = grad_in {
            gi.reset(input.shape());
            gi.data_mut().copy_from_slice(grad_out.data());
        }
    }
}

/// Inverted dropout: during training, zeroes each activation with
/// probability `rate` and scales survivors by `1/(1-rate)`; identity at
/// inference. Carries its own xorshift state so the layer API stays
/// RNG-free (seeded at instantiation, so runs remain deterministic).
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    state: u64,
    mask: Vec<bool>,
}

impl Dropout {
    fn new(rate: f32, seed: u64) -> Self {
        Self {
            rate,
            state: seed | 1,
            mask: Vec::new(),
        }
    }

    fn next_unit(&mut self) -> f32 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f32 / (1u64 << 53) as f32
    }

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, training: bool) {
        self.mask.clear();
        if !training || self.rate <= 0.0 {
            self.mask.resize(input.len(), true);
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        for _ in 0..input.len() {
            let kept = self.next_unit() < keep;
            self.mask.push(kept);
        }
        out.reset(input.shape());
        for ((o, &v), &k) in out.data_mut().iter_mut().zip(input.data()).zip(&self.mask) {
            *o = if k { v * scale } else { 0.0 };
        }
    }

    fn backward_into(&self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(gi) = grad_in else {
            return;
        };
        let keep = 1.0 - self.rate;
        let scale = if self.rate > 0.0 { 1.0 / keep } else { 1.0 };
        gi.reset(grad_out.shape());
        for ((giv, &g), &k) in gi
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(&self.mask)
        {
            *giv = if k { g * scale } else { 0.0 };
        }
    }
}

/// Fully connected layer.
#[derive(Debug, Clone)]
pub struct Dense {
    inputs: usize,
    units: usize,
    /// `[inputs][units]`, flattened.
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_weights: Vec<f32>,
    pub(crate) grad_bias: Vec<f32>,
    /// The weights transposed to `[units][inputs]`, for the input-gradient
    /// dot products; empty until a backward needs it.
    weights_t: Vec<f32>,
}

impl Dense {
    fn new(inputs: usize, units: usize, rng: &mut impl Rng) -> Self {
        Self {
            inputs,
            units,
            weights: init_weights(rng, inputs * units, inputs),
            bias: vec![0.0; units],
            grad_weights: vec![0.0; inputs * units],
            grad_bias: vec![0.0; units],
            weights_t: Vec::new(),
        }
    }

    fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        debug_assert_eq!(input.len(), self.inputs, "dense input size mismatch");
        out.reset(&[self.units]);
        let o = out.data_mut();
        o.copy_from_slice(&self.bias);
        for (&x, row) in input
            .data()
            .iter()
            .zip(self.weights.chunks_exact(self.units))
        {
            if x == 0.0 {
                continue;
            }
            for (ov, &w) in o.iter_mut().zip(row) {
                *ov += x * w;
            }
        }
    }

    /// Backward pass. A zero input's weight-gradient terms are all ±0 and
    /// the accumulators start at +0, so skipping them is exact (DESIGN.md
    /// §4b). The input gradient is a dot product per input over `units`,
    /// taken over the transposed weights so all inputs advance together.
    fn backward_into(&mut self, input: &Tensor, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let go = grad_out.data();
        for (gb, &g) in self.grad_bias.iter_mut().zip(go) {
            *gb += g;
        }
        for (&x, gwrow) in input
            .data()
            .iter()
            .zip(self.grad_weights.chunks_exact_mut(self.units))
        {
            if x == 0.0 {
                continue;
            }
            for (gw, &g) in gwrow.iter_mut().zip(go) {
                *gw += g * x;
            }
        }
        if let Some(gi) = grad_in {
            gi.reset(&[self.inputs]);
            gi.fill_zero();
            transpose_blocks(&self.weights, self.inputs, self.units, &mut self.weights_t);
            mac_rows::<0>(gi.data_mut(), go, &self.weights_t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{LayerSpec, ModelSpec};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn make(spec: LayerSpec, input_shape: [usize; 3]) -> Layer {
        // Build a one-layer spec to get shape checking, then instantiate.
        let full = ModelSpec::new(
            input_shape,
            vec![spec, LayerSpec::flatten(), LayerSpec::dense(2)],
        )
        .expect("valid layer under test");
        Layer::instantiate(&full.layers()[0], full.shape_before(0), &mut rng())
    }

    fn forward(layer: &mut Layer, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros([1]);
        layer.forward_into(x, &mut out, true);
        out
    }

    /// Forward then backward; returns the input gradient.
    fn backward(layer: &mut Layer, x: &Tensor, grad_out: &Tensor) -> Tensor {
        let y = forward(layer, x);
        let mut grad_in = Tensor::zeros([1]);
        layer.backward_into(x, &y, grad_out, Some(&mut grad_in));
        grad_in
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Layer::Relu(Relu);
        let x = Tensor::from_vec([4], vec![-1.0, 0.5, -0.2, 2.0]);
        assert_eq!(forward(&mut relu, &x).data(), &[0.0, 0.5, 0.0, 2.0]);
        let g = backward(&mut relu, &x, &Tensor::from_vec([4], vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Layer::Flatten(Flatten);
        let x = Tensor::zeros([2, 3, 4]);
        assert_eq!(forward(&mut f, &x).shape(), &[24]);
        let g = backward(&mut f, &x, &Tensor::zeros([24]));
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn dense_forward_is_affine() {
        let mut d = Dense::new(2, 2, &mut rng());
        d.weights = vec![1.0, 2.0, 3.0, 4.0]; // [in][out]
        d.bias = vec![0.5, -0.5];
        let y = forward(&mut Layer::Dense(d), &Tensor::from_vec([2], vec![1.0, 1.0]));
        assert_eq!(y.data(), &[1.0 + 3.0 + 0.5, 2.0 + 4.0 - 0.5]);
    }

    #[test]
    fn dense_backward_matches_manual() {
        let mut d = Dense::new(2, 1, &mut rng());
        d.weights = vec![2.0, -3.0];
        d.bias = vec![0.0];
        let mut layer = Layer::Dense(d);
        let x = Tensor::from_vec([2], vec![0.5, 1.5]);
        let gin = backward(&mut layer, &x, &Tensor::from_vec([1], vec![2.0]));
        // dL/dx = g * W
        assert_eq!(gin.data(), &[4.0, -6.0]);
        let Layer::Dense(d) = &layer else {
            unreachable!()
        };
        // dL/dW = g * x
        assert_eq!(d.grad_weights, vec![1.0, 3.0]);
        assert_eq!(d.grad_bias, vec![2.0]);
    }

    #[test]
    fn dense_input_gradient_covers_every_row_chunk() {
        // Nine inputs: two four-row chains plus a remainder row.
        let mut d = Dense::new(9, 3, &mut rng());
        d.weights = (0..27).map(|i| i as f32 * 0.25 - 3.0).collect();
        let mut layer = Layer::Dense(d.clone());
        let x = Tensor::from_vec([9], vec![1.0; 9]);
        let g = [0.5f32, -1.0, 2.0];
        let gin = backward(&mut layer, &x, &Tensor::from_vec([3], g.to_vec()));
        for (i, row) in d.weights.chunks_exact(3).enumerate() {
            let want = row.iter().zip(&g).fold(0.0f32, |acc, (&w, &g)| acc + g * w);
            assert_eq!(gin.data()[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut p = Layer::Pool(Pool2d::new(PoolKind::Max, 2, 2));
        let x = Tensor::from_vec([2, 2, 1], vec![1.0, 5.0, 2.0, 3.0]);
        assert_eq!(forward(&mut p, &x).data(), &[5.0]);
        let g = backward(&mut p, &x, &Tensor::from_vec([1, 1, 1], vec![7.0]));
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_without_a_finite_maximum_keeps_gradient_in_its_window() {
        // The second window (columns 2..4) is all NaN and −∞: no cell beats
        // the −∞ start, so the gradient goes to the window's first cell,
        // not to the tensor's first element.
        let mut p = Layer::Pool(Pool2d::new(PoolKind::Max, 2, 2));
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            [2, 4, 1],
            vec![1.0, 2.0, f32::NAN, ninf, 3.0, 4.0, ninf, f32::NAN],
        );
        let y = forward(&mut p, &x);
        assert_eq!(y.data()[0], 4.0);
        assert_eq!(y.data()[1], ninf);
        let g = backward(&mut p, &x, &Tensor::from_vec([1, 2, 1], vec![1.0, 10.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 10.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_distributes_gradient() {
        let mut p = Layer::Pool(Pool2d::new(PoolKind::Avg, 2, 2));
        let x = Tensor::from_vec([2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(forward(&mut p, &x).data(), &[2.5]);
        let g = backward(&mut p, &x, &Tensor::from_vec([1, 1, 1], vec![4.0]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn conv_identity_kernel_passes_signal() {
        let mut layer = make(LayerSpec::conv(1, 1, 1, Padding::Valid), [3, 3, 1]);
        if let Layer::Conv(c) = &mut layer {
            c.weights = vec![1.0];
            c.bias = vec![0.0];
        }
        let x = Tensor::from_vec([3, 3, 1], (0..9).map(|i| i as f32).collect());
        assert_eq!(forward(&mut layer, &x).data(), x.data());
    }

    /// Central-difference check of the input gradient of `sum(layer(x))`.
    fn gradient_check(mut layer: Layer, x: &Tensor, what: &str) {
        let y = forward(&mut layer, x);
        // Loss = sum of outputs → grad_out = ones.
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let gin = backward(&mut layer, x, &ones);
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp: f32 = forward(&mut layer, &xp).data().iter().sum();
            let ym: f32 = forward(&mut layer, &xm).data().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gin.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "{what} grad mismatch at {idx}: numeric {num}, analytic {ana}"
            );
        }
    }

    #[test]
    fn conv_gradient_check() {
        let layer = make(LayerSpec::conv(2, 2, 1, Padding::Valid), [3, 3, 1]);
        let x = Tensor::from_vec([3, 3, 1], (0..9).map(|i| (i as f32) / 9.0 - 0.4).collect());
        gradient_check(layer, &x, "conv");
    }

    #[test]
    fn dwconv_gradient_check() {
        let layer = make(LayerSpec::dw_conv(2, 1, Padding::Valid), [3, 3, 2]);
        let x = Tensor::from_vec(
            [3, 3, 2],
            (0..18).map(|i| (i as f32) / 18.0 - 0.3).collect(),
        );
        gradient_check(layer, &x, "dwconv");
    }

    #[test]
    fn same_padding_conv_keeps_spatial_dims() {
        let mut layer = make(LayerSpec::conv(3, 3, 1, Padding::Same), [5, 4, 2]);
        let y = forward(&mut layer, &Tensor::zeros([5, 4, 2]));
        assert_eq!(y.shape(), &[5, 4, 3]);
    }

    #[test]
    fn norm_standardizes_and_learns_affine() {
        let mut n = Layer::Norm(ChannelNorm::new(1));
        let x = Tensor::from_vec([4, 1, 1], vec![1.0, 2.0, 3.0, 4.0]);
        // Train a few passes so running stats adapt.
        for _ in 0..200 {
            let _ = forward(&mut n, &x);
        }
        let mut y = Tensor::zeros([1]);
        n.forward_into(&x, &mut y, false);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 0.2, "normalized mean near zero, got {mean}");
        // Backward accumulates affine gradients.
        let _ = backward(&mut n, &x, &Tensor::from_vec([4, 1, 1], vec![1.0; 4]));
        let Layer::Norm(n) = &n else { unreachable!() };
        assert!(n.grad_shift[0] == 4.0);
    }

    #[test]
    fn first_layer_backward_skips_only_the_input_gradient() {
        // With and without an input gradient requested, parameter
        // gradients come out bit-identical.
        let x = Tensor::from_vec([5, 4, 2], (0..40).map(|i| (i as f32 * 0.3).sin()).collect());
        for spec in [
            LayerSpec::conv(3, 3, 1, Padding::Same),
            LayerSpec::dw_conv(3, 2, Padding::Valid),
        ] {
            let mut a = make(spec.clone(), [5, 4, 2]);
            let mut b = a.clone();
            let y = forward(&mut a, &x);
            let _ = forward(&mut b, &x);
            let g = Tensor::from_vec(
                y.shape().to_vec(),
                (0..y.len()).map(|i| i as f32 - 3.0).collect(),
            );
            let mut gi = Tensor::zeros([1]);
            a.backward_into(&x, &y, &g, Some(&mut gi));
            b.backward_into(&x, &y, &g, None);
            let bits = |l: &mut Layer| -> Vec<u32> {
                l.params_and_grads()
                    .iter()
                    .flat_map(|(_, g)| g.iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&mut a), bits(&mut b), "{spec}");
        }
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut d = Layer::Dense(Dense::new(4, 3, &mut rng()));
        let x = Tensor::from_vec([4], vec![1.0; 4]);
        let _ = backward(&mut d, &x, &Tensor::from_vec([3], vec![1.0; 3]));
        let Layer::Dense(dense) = &d else {
            unreachable!()
        };
        assert!(dense.grad_weights.iter().any(|&g| g != 0.0));
        d.zero_grads();
        let Layer::Dense(dense) = &d else {
            unreachable!()
        };
        assert!(dense.grad_weights.iter().all(|&g| g == 0.0));
    }
    /// Inputs drawn from a small value set so ties, zeros and the
    /// occasional NaN and −∞ occur.
    fn pool_input(shape: [usize; 3], picks: &[u8]) -> Tensor {
        const VALUES: [f32; 8] = [
            -1.5,
            -0.0,
            0.0,
            0.25,
            0.25,
            2.0,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n)
                .map(|k| VALUES[picks[k % picks.len()] as usize % 8])
                .collect(),
        )
    }

    proptest::proptest! {
        #[test]
        fn pooling_matches_the_naive_reference_bit_for_bit(
            h in 1usize..9,
            w in 1usize..9,
            c in 1usize..5,
            size in 1usize..5,
            kind in 0u8..2,
            picks in proptest::collection::vec(0u8..8, 1..64),
            grads in proptest::collection::vec(-2.0f32..2.0, 1..32),
        ) {
            let size = size.min(h);
            let kind = if kind == 0 { PoolKind::Max } else { PoolKind::Avg };
            let x = pool_input([h, w, c], &picks);
            let mut layer = Layer::Pool(Pool2d::new(kind, size, size.min(w)));
            let y = forward(&mut layer, &x);
            let (want_y, argmax) = crate::reference::pool2d_forward(&x, kind, size, size.min(w));
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(y.shape(), want_y.shape());
            proptest::prop_assert_eq!(bits(&y), bits(&want_y));
            let g = Tensor::from_vec(
                y.shape().to_vec(),
                (0..y.len()).map(|k| grads[k % grads.len()]).collect(),
            );
            let mut gi = Tensor::zeros([1]);
            layer.backward_into(&x, &y, &g, Some(&mut gi));
            let want_gi = crate::reference::pool2d_backward(
                [h, w, c], &g, kind, size, size.min(w), &argmax,
            );
            proptest::prop_assert_eq!(bits(&gi), bits(&want_gi));
        }
    }
}
