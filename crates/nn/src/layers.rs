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

/// Picks `$kernel::<C>` with `C` = `$c`, or `$kernel::<CI, CO>` with
/// `CI` = `$ci` and `CO` = `$co`, instantiated with the widths as
/// compile-time constants when they are widths the kernels are compiled
/// for; otherwise `$kernel::<0>` or `$kernel::<0, 0>`, the same kernel
/// reading its widths at run time (a convolution's fallback takes the
/// whole input stripe as one block). Both compute the same bits. Layers
/// pick once per pass and call the kernel once per tap or per pass.
///
/// A channel stripe (`C`, and a convolution's `CO` filters) is compiled
/// for the sampler's filter counts up to 16, and `C` also for width 1 (a
/// single-channel map); wider stripes are rare and carry enough work per
/// step to amortize run-time loops. `CI` is the width of the blocks a
/// convolution walks its input channels in, ascending ([`cin_block`]).
/// Fifteen `(CI, CO)` pairs bound the copies each conv pass is compiled
/// into; the full cross product of the sampler's widths tripled the
/// crate's build time.
macro_rules! by_widths {
    ($c:expr => $kernel:ident) => {
        by_widths!(@one ($c) $kernel [1 4 6 8 12 16])
    };
    ($ci:expr, $co:expr => $kernel:ident) => {
        by_widths!(@two ($ci, $co) $kernel [
            (1 4) (1 6) (1 8) (1 12) (1 16) (4 4) (4 6) (4 8) (4 12) (4 16)
            (6 4) (6 6) (6 8) (6 12) (6 16)
        ])
    };
    (@one ($c:expr) $kernel:ident [$($w:literal)*]) => {
        match $c {
            $($w => $kernel::<$w>,)*
            _ => $kernel::<0>,
        }
    };
    (@two ($ci:expr, $co:expr) $kernel:ident [$(($i:literal $o:literal))*]) => {
        match ($ci, $co) {
            $(($i, $o) => $kernel::<$i, $o>,)*
            _ => $kernel::<0, 0>,
        }
    };
}

/// A conv input-gradient tap kernel: `(gi, grad_out, transposed weights,
/// tap, dot scratch)`.
type InputGradKernel = fn(&mut [f32], &[f32], &[f32], &Tap, &mut [f32]);

/// A depthwise backward tap kernel: `(layer, gi, grad_out, input, tap)`.
type DwBackwardKernel = fn(&mut DwConv2d, Option<&mut [f32]>, &[f32], &[f32], &Tap);

/// The width of the blocks a convolution walks its `cin` input channels
/// in: the widest of 6, 4 and 1 that divides `cin`. Wide blocks give the
/// input-gradient dot products independent lanes to overlap.
fn cin_block(cin: usize) -> usize {
    [6, 4]
        .into_iter()
        .find(|&b| cin.is_multiple_of(b))
        .unwrap_or(1)
}

/// `N` when it is a compile-time width, the run-time `n` when `N` is 0.
#[inline(always)]
fn width<const N: usize>(n: usize) -> usize {
    if N == 0 {
        n
    } else {
        N
    }
}

/// Runs `f` over `mem` through a local `R × N` copy when both are
/// compile-time widths and the copy fits in registers (at most 32
/// elements), so the accumulators stay there for the whole call and are
/// written back once; otherwise `f` works on `mem` itself. The same
/// operations happen in the same order either way.
#[inline(always)]
fn accumulate<const R: usize, const N: usize>(mem: &mut [f32], f: impl FnOnce(&mut [f32])) {
    if R == 0 || N == 0 || R * N > 32 {
        return f(mem);
    }
    let mut local = [[0.0f32; N]; R];
    let local = local.as_flattened_mut();
    local.copy_from_slice(mem);
    f(local);
    mem.copy_from_slice(local);
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
                    out_w: at.ow,
                    in_w: w,
                    stride: self.stride,
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
    out_w: usize,
    in_w: usize,
    stride: usize,
}

impl Tap {
    /// The tap's reach one output row at a time: the first output pixel of
    /// the row's run and the input pixel under it. The run's `k`-th output
    /// pixel (`k < cols.len()`) lies over input pixel `first + k·stride`.
    fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ix = ((self.cols.start * self.stride) as isize + self.dx) as usize;
        self.rows.clone().map(move |oy| {
            let iy = ((oy * self.stride) as isize + self.dy) as usize;
            (oy * self.out_w + self.cols.start, iy * self.in_w + ix)
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
    /// Each tap's weight block transposed to `[cout][cin]`, for the
    /// input-gradient dot products; empty until a backward needs it.
    weights_t: Vec<f32>,
    /// Backward scratch: one input pixel's dot products.
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
            weights_t: Vec::new(),
            dots: vec![0.0; in_channels],
        }
    }

    /// Builds a free-standing conv layer (benches and golden tests; model
    /// construction goes through `Layer::instantiate`).
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

    /// Forward pass, tap-outer and pixel-inner: each kernel tap sweeps the
    /// output pixels it reaches one row run at a time
    /// (`conv_forward_tap`). Each output element still receives its
    /// `(i, j, ci)` terms in row-major order after the bias, so the result
    /// is bit-exact against [`crate::reference::conv2d_forward`].
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (cin, cout) = (self.in_channels, self.filters);
        out.reset(&[at.oh, at.ow, cout]);
        let o = out.data_mut();
        for orow in o.chunks_exact_mut(cout) {
            orow.copy_from_slice(&self.bias);
        }
        let kernel: fn(&mut [f32], &[f32], &[f32], &Tap, usize) =
            by_widths!(cin_block(cin), cout => conv_forward_tap);
        for tap in self.window.taps(at, h, w, false) {
            let wtap = &self.weights[tap.index * cin * cout..][..cin * cout];
            kernel(o, input.data(), wtap, &tap, cin);
        }
    }

    /// Backward pass. Weight and bias gradients take their per-pixel terms
    /// in output-pixel order, as the naive loop does. The input gradient is
    /// a dot product over `cout` per `(pixel, tap, ci)`, added in
    /// output-pixel order; walking the taps in reverse row-major order
    /// while the pixels run forward is what delivers that order to every
    /// input element ([`crate::reference::conv2d_backward`]). With
    /// `grad_in` absent (the first layer) the dot products are not
    /// computed at all.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let (cin, cout) = (self.in_channels, self.filters);
        let (x, go) = (input.data(), grad_out.data());
        for grow in go.chunks_exact(cout) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(grow) {
                *gb += g;
            }
        }
        let cb = cin_block(cin);
        let weight_kernel: fn(&mut [f32], &[f32], &[f32], &Tap, usize) =
            by_widths!(cb, cout => conv_weight_grads_tap);
        let input_kernel: InputGradKernel = by_widths!(cb, cout => conv_input_grads_tap);
        let mut gi = grad_in.map(|t| {
            t.reset(&[h, w, cin]);
            t.fill_zero();
            t.data_mut()
        });
        if gi.is_some() {
            transpose_blocks(&self.weights, cin, cout, &mut self.weights_t);
        }
        for tap in self.window.taps(at, h, w, true) {
            let block = tap.index * cin * cout..(tap.index + 1) * cin * cout;
            let gwtap = &mut self.grad_weights[block.clone()];
            weight_kernel(gwtap, go, x, &tap, cin);
            if let Some(gi) = gi.as_deref_mut() {
                let wt = &self.weights_t[block];
                input_kernel(gi, go, wt, &tap, &mut self.dots);
            }
        }
    }
}

/// Adds one tap's terms to the output pixels it reaches (`CO` filters
/// each; 0: read at run time). A pixel's output stripe is held in
/// registers while it takes the tap's `cin` terms, walked in ascending
/// blocks of `CI` channels.
fn conv_forward_tap<const CI: usize, const CO: usize>(
    o: &mut [f32],
    x: &[f32],
    wtap: &[f32],
    tap: &Tap,
    cin: usize,
) {
    let (cb, co) = (width::<CI>(cin), width::<CO>(wtap.len() / cin));
    let (n, s) = (tap.cols.len(), tap.stride);
    for (p0, q0) in tap.runs() {
        let orun = &mut o[p0 * co..][..n * co];
        for (k, orow) in orun.chunks_exact_mut(co).enumerate() {
            let xpix = &x[(q0 + k * s) * cin..][..cin];
            accumulate::<1, CO>(orow, |acc| {
                for (xs, wblock) in xpix.chunks_exact(cb).zip(wtap.chunks_exact(cb * co)) {
                    for (&xv, wrow) in xs.iter().zip(wblock.chunks_exact(co)) {
                        for (a, &wv) in acc.iter_mut().zip(wrow) {
                            *a += xv * wv;
                        }
                    }
                }
            });
        }
    }
}

/// Adds one tap's weight-gradient terms: each `CI × CO` block of the
/// tap's gradients is held in registers while the tap sweeps its
/// output pixels in order.
fn conv_weight_grads_tap<const CI: usize, const CO: usize>(
    gwtap: &mut [f32],
    go: &[f32],
    x: &[f32],
    tap: &Tap,
    cin: usize,
) {
    let (cb, co) = (width::<CI>(cin), width::<CO>(gwtap.len() / cin));
    let (n, s) = (tap.cols.len(), tap.stride);
    for (c0, gwblock) in (0..cin).step_by(cb).zip(gwtap.chunks_exact_mut(cb * co)) {
        accumulate::<CI, CO>(gwblock, |acc| {
            for (p0, q0) in tap.runs() {
                let grun = &go[p0 * co..][..n * co];
                let xrun = &x[q0 * cin + c0..];
                for (k, grow) in grun.chunks_exact(co).enumerate() {
                    let xs = &xrun[k * s * cin..][..cb];
                    for (&xv, arow) in xs.iter().zip(acc.chunks_exact_mut(co)) {
                        for (a, &g) in arow.iter_mut().zip(grow) {
                            *a += g * xv;
                        }
                    }
                }
            }
        });
    }
}

/// Adds one tap's input-gradient terms: per output pixel, each of a
/// `CI`-channel block's dot products over the `CO` gradients is summed
/// from +0 in ascending filter order, over the tap's transposed weights,
/// and added as one term. `dots` (one per input channel) holds the sums
/// when the widths are read at run time.
fn conv_input_grads_tap<const CI: usize, const CO: usize>(
    gi: &mut [f32],
    go: &[f32],
    wt: &[f32],
    tap: &Tap,
    dots: &mut [f32],
) {
    let cin = dots.len();
    let (cb, co) = (width::<CI>(cin), width::<CO>(wt.len() / cin));
    let (n, s) = (tap.cols.len(), tap.stride);
    let dots = &mut dots[..cb];
    for (p0, q0) in tap.runs() {
        let grun = &go[p0 * co..][..n * co];
        let girun = &mut gi[q0 * cin..];
        for (k, grow) in grun.chunks_exact(co).enumerate() {
            let gipix = girun[k * s * cin..][..cin].chunks_exact_mut(cb);
            for (c0, gis) in (0..cin).step_by(cb).zip(gipix) {
                accumulate::<1, CI>(dots, |sums| {
                    sums.fill(0.0);
                    for (&g, wrow) in grow.iter().zip(wt.chunks_exact(cin)) {
                        for (d, &wv) in sums.iter_mut().zip(&wrow[c0..][..cb]) {
                            *d += g * wv;
                        }
                    }
                    for (giv, &d) in gis.iter_mut().zip(sums.iter()) {
                        *giv += d;
                    }
                });
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

    /// Forward pass, tap-outer and pixel-inner (`dw_forward_tap`). Each
    /// output element receives its `(i, j)` terms in row-major order after
    /// the bias: bit-exact against [`crate::reference::dwconv2d_forward`].
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let c = self.channels;
        out.reset(&[at.oh, at.ow, c]);
        let o = out.data_mut();
        for orow in o.chunks_exact_mut(c) {
            orow.copy_from_slice(&self.bias);
        }
        let kernel: fn(&mut [f32], &[f32], &[f32], &Tap) = by_widths!(c => dw_forward_tap);
        for tap in self.window.taps(at, h, w, false) {
            kernel(o, input.data(), &self.weights[tap.index * c..][..c], &tap);
        }
    }

    /// Backward pass: per element the same terms in the same order as
    /// [`crate::reference::dwconv2d_backward`] — weight and bias gradients
    /// in output-pixel order, input gradients in output-pixel order by
    /// walking the taps in reverse.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        let [h, w, _] = dims3(input);
        let at = self.window.place(h, w);
        let c = self.channels;
        let (x, go) = (input.data(), grad_out.data());
        for grow in go.chunks_exact(c) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(grow) {
                *gb += g;
            }
        }
        let kernel: DwBackwardKernel = by_widths!(c => dw_backward_tap);
        let mut gi = grad_in.map(|t| {
            t.reset(&[h, w, c]);
            t.fill_zero();
            t.data_mut()
        });
        for tap in self.window.taps(at, h, w, true) {
            kernel(self, gi.as_deref_mut(), go, x, &tap);
        }
    }
}

/// Adds one depthwise tap's terms to the output pixels it reaches (`C`
/// channels each; 0: read at run time). A single-channel map at stride 1
/// reads a contiguous run of input, so each run is one flat multiply-add.
fn dw_forward_tap<const C: usize>(o: &mut [f32], x: &[f32], wrow: &[f32], tap: &Tap) {
    let c = width::<C>(wrow.len());
    let (n, s) = (tap.cols.len(), tap.stride);
    for (p0, q0) in tap.runs() {
        let orun = &mut o[p0 * c..][..n * c];
        if c == 1 && s == 1 {
            let wv = wrow[0];
            for (ov, &xv) in orun.iter_mut().zip(&x[q0..][..n]) {
                *ov += xv * wv;
            }
            continue;
        }
        for (k, orow) in orun.chunks_exact_mut(c).enumerate() {
            let xs = &x[(q0 + k * s) * c..][..c];
            for ((ov, &xv), &wv) in orow.iter_mut().zip(xs).zip(wrow) {
                *ov += xv * wv;
            }
        }
    }
}

/// Adds one depthwise tap's weight-gradient terms, the tap's row of
/// gradients held in registers while the tap sweeps its output pixels
/// in order, then its input-gradient terms when `gi` is given.
fn dw_backward_tap<const C: usize>(
    dw: &mut DwConv2d,
    gi: Option<&mut [f32]>,
    go: &[f32],
    x: &[f32],
    tap: &Tap,
) {
    let c = width::<C>(dw.channels);
    let (n, s) = (tap.cols.len(), tap.stride);
    let row = tap.index * c..(tap.index + 1) * c;
    accumulate::<1, C>(&mut dw.grad_weights[row.clone()], |acc| {
        for (p0, q0) in tap.runs() {
            for (k, grow) in go[p0 * c..][..n * c].chunks_exact(c).enumerate() {
                let xs = &x[(q0 + k * s) * c..][..c];
                for ((a, &g), &xv) in acc.iter_mut().zip(grow).zip(xs) {
                    *a += g * xv;
                }
            }
        }
    });
    let Some(gi) = gi else {
        return;
    };
    let wrow = &dw.weights[row];
    for (p0, q0) in tap.runs() {
        for (k, grow) in go[p0 * c..][..n * c].chunks_exact(c).enumerate() {
            let gis = &mut gi[(q0 + k * s) * c..][..c];
            for ((giv, &g), &wv) in gis.iter_mut().zip(grow).zip(wrow) {
                *giv += g * wv;
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

    /// Forward pass over contiguous channel stripes ([`pool_forward`]):
    /// each window's cells are visited in row-major order and every channel
    /// of a cell at once. Max pooling keeps the first strict maximum per
    /// channel and starts from the window's first cell, so a window without
    /// a finite maximum (all NaN or −∞) still routes its gradient inside
    /// itself. Bit-exact against [`crate::reference::pool2d_forward`].
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        let [h, w, c] = dims3(input);
        let ([oh, ow], _) = self.windows(h, w);
        out.reset(&[oh, ow, c]);
        if self.kind == PoolKind::Max {
            self.argmax.clear();
            self.argmax.resize(oh * ow * c, 0);
        }
        let kernel: fn(&mut Self, &[f32], &mut [f32], [usize; 3]) = by_widths!(c => pool_forward);
        kernel(self, input.data(), out.data_mut(), [h, w, c]);
    }

    /// Backward pass: max pooling adds each gradient at its window's
    /// argmax, avg pooling adds `g / cells` to every cell of the window
    /// ([`avg_pool_backward`]). Bit-exact against
    /// [`crate::reference::pool2d_backward`].
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
                let kernel: fn(&Self, &[f32], &mut [f32], [usize; 3]) =
                    by_widths!(c => avg_pool_backward);
                kernel(self, go, gi, [h, w, c]);
            }
        }
    }
}

/// [`Pool2d::forward_into`] over a `C`-wide channel stripe (0: read at run
/// time), each window's running maxima, or its sums, held in registers
/// across the window's cells.
fn pool_forward<const C: usize>(pool: &mut Pool2d, x: &[f32], o: &mut [f32], dims: [usize; 3]) {
    let [h, w, c] = dims;
    let c = width::<C>(c);
    let (_, windows) = pool.windows(h, w);
    for win in windows {
        let orow = &mut o[win.out_pixel * c..][..c];
        match pool.kind {
            PoolKind::Max => {
                let arow = &mut pool.argmax[win.out_pixel * c..][..c];
                let first = (win.rows.start * w + win.cols.start) * c;
                for (ch, a) in arow.iter_mut().enumerate() {
                    *a = first + ch;
                }
                accumulate::<1, C>(orow, |best| {
                    best.fill(f32::NEG_INFINITY);
                    for iy in win.rows.clone() {
                        for ix in win.cols.clone() {
                            let off = (iy * w + ix) * c;
                            let cell = best.iter_mut().zip(arow.iter_mut()).zip(&x[off..][..c]);
                            for (ch, ((b, a), &v)) in cell.enumerate() {
                                // Selects rather than branches: which cell
                                // wins is data-dependent.
                                let wins = v > *b;
                                *b = if wins { v } else { *b };
                                *a = if wins { off + ch } else { *a };
                            }
                        }
                    }
                });
            }
            PoolKind::Avg => {
                accumulate::<1, C>(orow, |acc| {
                    acc.fill(0.0);
                    for iy in win.rows.clone() {
                        for ix in win.cols.clone() {
                            for (a, &v) in acc.iter_mut().zip(&x[(iy * w + ix) * c..][..c]) {
                                *a += v;
                            }
                        }
                    }
                    let n = win.cells().max(1) as f32;
                    for a in acc.iter_mut() {
                        *a /= n;
                    }
                });
            }
        }
    }
}

/// Avg pooling's input gradient over a `C`-wide channel stripe (0: read at
/// run time): every cell of a window takes `g / cells`.
fn avg_pool_backward<const C: usize>(pool: &Pool2d, go: &[f32], gi: &mut [f32], dims: [usize; 3]) {
    let [h, w, c] = dims;
    let c = width::<C>(c);
    let (_, windows) = pool.windows(h, w);
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
            let gi = gi.data_mut();
            for (&g, row) in go.iter().zip(self.weights_t.chunks_exact(self.inputs)) {
                for (giv, &wv) in gi.iter_mut().zip(row) {
                    *giv += g * wv;
                }
            }
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

    /// Channel stripes the pooling kernels are compiled for, then widths
    /// that take the run-time-width kernel.
    const POOL_WIDTHS: [usize; 8] = [1, 4, 6, 8, 12, 16, 3, 24];

    /// Pools `x` forward and backward and checks both bit for bit against
    /// the reference.
    fn check_pool(kind: PoolKind, size: usize, x: &Tensor, grads: &[f32]) -> Result<(), String> {
        let [h, w, c] = dims3(x);
        let mut layer = Layer::Pool(Pool2d::new(kind, size, size.min(w)));
        let y = forward(&mut layer, x);
        let (want_y, argmax) = crate::reference::pool2d_forward(x, kind, size, size.min(w));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let label = format!("{kind:?} {size} on [{h}, {w}, {c}]");
        if y.shape() != want_y.shape() || bits(&y) != bits(&want_y) {
            return Err(format!("{label}: forward"));
        }
        let g = Tensor::from_vec(
            y.shape().to_vec(),
            (0..y.len()).map(|k| grads[k % grads.len()]).collect(),
        );
        let mut gi = Tensor::zeros([1]);
        layer.backward_into(x, &y, &g, Some(&mut gi));
        let want_gi =
            crate::reference::pool2d_backward([h, w, c], &g, kind, size, size.min(w), &argmax);
        if bits(&gi) != bits(&want_gi) {
            return Err(format!("{label}: input gradient"));
        }
        Ok(())
    }

    #[test]
    fn pooling_matches_the_reference_at_every_channel_width() {
        let picks: Vec<u8> = (0..61u8).map(|k| k.wrapping_mul(37) % 8).collect();
        let grads = [0.5f32, -1.25, 2.0, 0.0, -0.75];
        for c in POOL_WIDTHS {
            for kind in [PoolKind::Max, PoolKind::Avg] {
                for (h, w, size) in [(6, 5, 2), (5, 4, 3), (4, 1, 2)] {
                    let x = pool_input([h, w, c], &picks);
                    check_pool(kind, size, &x, &grads).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn pooling_matches_the_reference_at_sampled_widths(
            h in 1usize..9,
            w in 1usize..9,
            width in 0usize..8,
            size in 1usize..5,
            kind in 0u8..2,
            picks in proptest::collection::vec(0u8..8, 1..64),
            grads in proptest::collection::vec(-2.0f32..2.0, 1..32),
        ) {
            let kind = if kind == 0 { PoolKind::Max } else { PoolKind::Avg };
            let x = pool_input([h, w, POOL_WIDTHS[width]], &picks);
            let checked = check_pool(kind, size.min(h), &x, &grads);
            proptest::prop_assert!(checked.is_ok(), "{:?}", checked);
        }
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
