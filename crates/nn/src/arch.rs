//! Declarative model architectures with shape inference and cost accounting.
//!
//! A [`ModelSpec`] is the unit the NAS mutates: a validated sequence of
//! [`LayerSpec`]s with a fixed input shape. Everything the search constraints
//! need — per-layer MACs ([`MacSummary`]), parameter count, memory footprint
//! — is computed from the spec alone, without allocating weights.

use std::fmt;

/// Workload class of a layer, as seen by the energy model. The paper's
/// layer-wise inference energy model (§IV-A1) regresses one coefficient per
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerClass {
    /// Standard convolution.
    Conv,
    /// Depthwise convolution.
    DwConv,
    /// Fully connected.
    Dense,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Channel normalization.
    Norm,
    /// Element-wise activation (counted with its producer for MACs).
    Activation,
}

impl LayerClass {
    /// All classes that carry MACs, in a stable order (the regression
    /// feature order of the energy model).
    pub const ALL: [LayerClass; 6] = [
        LayerClass::Conv,
        LayerClass::DwConv,
        LayerClass::Dense,
        LayerClass::MaxPool,
        LayerClass::AvgPool,
        LayerClass::Norm,
    ];
}

impl fmt::Display for LayerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerClass::Conv => "conv",
            LayerClass::DwConv => "dwconv",
            LayerClass::Dense => "dense",
            LayerClass::MaxPool => "maxpool",
            LayerClass::AvgPool => "avgpool",
            LayerClass::Norm => "norm",
            LayerClass::Activation => "activation",
        };
        f.write_str(s)
    }
}

/// Convolution/pooling padding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding; output shrinks by `kernel − 1`.
    Valid,
    /// Zero padding so `stride == 1` preserves spatial size.
    Same,
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Mean over the window.
    Avg,
}

/// One layer of a [`ModelSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// 2-D convolution with square `kernel`, `filters` outputs.
    Conv {
        /// Number of output channels.
        filters: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Padding mode.
        padding: Padding,
    },
    /// Depthwise 2-D convolution (one filter per input channel).
    DwConv {
        /// Square kernel size.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Padding mode.
        padding: Padding,
    },
    /// 2-D pooling with a square window (stride equals the window).
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window (and stride) size.
        size: usize,
    },
    /// Per-channel normalization with learned affine.
    Norm,
    /// ReLU activation.
    Relu,
    /// Flattens a feature map to a vector.
    Flatten,
    /// Fully connected layer.
    Dense {
        /// Number of output units.
        units: usize,
    },
    /// Dropout regularization (training only; identity at inference).
    /// The rate is stored in permille so the spec stays `Eq`/`Hash`.
    Dropout {
        /// Drop probability in permille (`500` = 0.5).
        permille: u16,
    },
}

impl LayerSpec {
    /// Convolution shorthand.
    pub fn conv(filters: usize, kernel: usize, stride: usize, padding: Padding) -> Self {
        LayerSpec::Conv {
            filters,
            kernel,
            stride,
            padding,
        }
    }

    /// Depthwise convolution shorthand.
    pub fn dw_conv(kernel: usize, stride: usize, padding: Padding) -> Self {
        LayerSpec::DwConv {
            kernel,
            stride,
            padding,
        }
    }

    /// Max-pool shorthand.
    pub fn max_pool(size: usize) -> Self {
        LayerSpec::Pool {
            kind: PoolKind::Max,
            size,
        }
    }

    /// Average-pool shorthand.
    pub fn avg_pool(size: usize) -> Self {
        LayerSpec::Pool {
            kind: PoolKind::Avg,
            size,
        }
    }

    /// Norm shorthand.
    pub fn norm() -> Self {
        LayerSpec::Norm
    }

    /// ReLU shorthand.
    pub fn relu() -> Self {
        LayerSpec::Relu
    }

    /// Flatten shorthand.
    pub fn flatten() -> Self {
        LayerSpec::Flatten
    }

    /// Dense shorthand.
    pub fn dense(units: usize) -> Self {
        LayerSpec::Dense { units }
    }

    /// Dropout shorthand (rate in `[0, 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn dropout(rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        LayerSpec::Dropout {
            permille: (rate * 1000.0).round() as u16,
        }
    }

    /// The workload class of this layer.
    pub fn class(&self) -> LayerClass {
        match self {
            LayerSpec::Conv { .. } => LayerClass::Conv,
            LayerSpec::DwConv { .. } => LayerClass::DwConv,
            LayerSpec::Dense { .. } => LayerClass::Dense,
            LayerSpec::Pool {
                kind: PoolKind::Max,
                ..
            } => LayerClass::MaxPool,
            LayerSpec::Pool {
                kind: PoolKind::Avg,
                ..
            } => LayerClass::AvgPool,
            LayerSpec::Norm => LayerClass::Norm,
            LayerSpec::Relu | LayerSpec::Flatten | LayerSpec::Dropout { .. } => {
                LayerClass::Activation
            }
        }
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerSpec::Conv {
                filters,
                kernel,
                stride,
                padding,
            } => write!(
                f,
                "conv{kernel}x{kernel}x{filters}/s{stride}{}",
                pad(padding)
            ),
            LayerSpec::DwConv {
                kernel,
                stride,
                padding,
            } => write!(f, "dwconv{kernel}x{kernel}/s{stride}{}", pad(padding)),
            LayerSpec::Pool { kind, size } => match kind {
                PoolKind::Max => write!(f, "maxpool{size}"),
                PoolKind::Avg => write!(f, "avgpool{size}"),
            },
            LayerSpec::Norm => f.write_str("norm"),
            LayerSpec::Relu => f.write_str("relu"),
            LayerSpec::Flatten => f.write_str("flatten"),
            LayerSpec::Dense { units } => write!(f, "dense{units}"),
            LayerSpec::Dropout { permille } => write!(f, "dropout{permille}"),
        }
    }
}

fn pad(p: &Padding) -> &'static str {
    match p {
        Padding::Valid => "v",
        Padding::Same => "s",
    }
}

/// An architecture failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchError {
    /// Index of the offending layer (or `layers.len()` for global issues).
    pub layer: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid architecture at layer {}: {}",
            self.layer, self.reason
        )
    }
}

impl std::error::Error for ArchError {}

/// Per-class MAC totals for a model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MacSummary {
    macs: [u64; 6],
}

impl MacSummary {
    /// MACs for a class.
    pub fn class(&self, class: LayerClass) -> u64 {
        match class {
            LayerClass::Conv => self.macs[0],
            LayerClass::DwConv => self.macs[1],
            LayerClass::Dense => self.macs[2],
            LayerClass::MaxPool => self.macs[3],
            LayerClass::AvgPool => self.macs[4],
            LayerClass::Norm => self.macs[5],
            LayerClass::Activation => 0,
        }
    }

    /// Adds MACs to a class (activations are ignored).
    pub fn add(&mut self, class: LayerClass, macs: u64) {
        let slot = match class {
            LayerClass::Conv => 0,
            LayerClass::DwConv => 1,
            LayerClass::Dense => 2,
            LayerClass::MaxPool => 3,
            LayerClass::AvgPool => 4,
            LayerClass::Norm => 5,
            LayerClass::Activation => return,
        };
        self.macs[slot] += macs;
    }

    /// Total MACs across classes.
    pub fn total(&self) -> u64 {
        self.macs.iter().sum()
    }

    /// MACs as a feature vector in [`LayerClass::ALL`] order.
    pub fn as_features(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        for (i, c) in LayerClass::ALL.iter().enumerate() {
            out[i] = self.class(*c) as f64;
        }
        out
    }
}

/// A validated architecture: input shape plus layer sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    input_shape: [usize; 3],
    layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Creates and validates a spec for inputs of shape `[h, w, c]`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] naming the first offending layer when shapes
    /// cannot propagate (e.g. a kernel larger than its input, a `Dense` on an
    /// unflattened map, or a spatial dimension shrinking to zero).
    pub fn new(input_shape: [usize; 3], layers: Vec<LayerSpec>) -> Result<Self, ArchError> {
        let spec = Self {
            input_shape,
            layers,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The input shape `[h, w, c]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// The layer sequence.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Shape after every layer, starting with the input shape. `None` in a
    /// slot means the tensor is flat at that point and carries the length in
    /// the first element.
    fn shapes(&self) -> Result<Vec<Shape>, ArchError> {
        let mut shapes = vec![Shape::Map(self.input_shape)];
        let mut cur = Shape::Map(self.input_shape);
        for (i, layer) in self.layers.iter().enumerate() {
            cur = propagate(cur, layer).map_err(|reason| ArchError { layer: i, reason })?;
            shapes.push(cur);
        }
        Ok(shapes)
    }

    fn validate(&self) -> Result<(), ArchError> {
        if self.input_shape.iter().any(|&d| d == 0) {
            return Err(ArchError {
                layer: 0,
                reason: format!("zero-sized input shape {:?}", self.input_shape),
            });
        }
        let shapes = self.shapes()?;
        // The final output must be a flat class-score vector.
        match shapes.last().expect("shapes include input") {
            Shape::Flat(_) => Ok(()),
            Shape::Map(_) => Err(ArchError {
                layer: self.layers.len(),
                reason: "model must end in a flat (Dense/Flatten) output".into(),
            }),
        }
    }

    /// The output dimensionality (number of class scores).
    pub fn output_units(&self) -> usize {
        match self.shapes().expect("validated spec").last() {
            Some(Shape::Flat(n)) => *n,
            _ => unreachable!("validated spec ends flat"),
        }
    }

    /// Shape entering layer `i` (for instantiation).
    pub(crate) fn shape_before(&self, i: usize) -> Shape {
        self.shapes().expect("validated spec")[i]
    }

    /// Per-class MAC totals.
    pub fn mac_summary(&self) -> MacSummary {
        let shapes = self.shapes().expect("validated spec");
        let mut summary = MacSummary::default();
        for (i, layer) in self.layers.iter().enumerate() {
            summary.add(layer.class(), layer_macs(shapes[i], shapes[i + 1], layer));
        }
        summary
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        let shapes = self.shapes().expect("validated spec");
        self.layers
            .iter()
            .enumerate()
            .map(|(i, layer)| layer_params(shapes[i], layer))
            .sum()
    }

    /// Estimated RAM footprint in bytes: parameters (f32) plus the two
    /// largest consecutive activations (the classic ping-pong buffer bound
    /// used by tinyML deployment tools).
    pub fn memory_bytes(&self) -> usize {
        let shapes = self.shapes().expect("validated spec");
        let sizes: Vec<usize> = shapes.iter().map(|s| s.elements()).collect();
        let peak_pair = sizes
            .windows(2)
            .map(|w| w[0] + w[1])
            .max()
            .unwrap_or_else(|| sizes.first().copied().unwrap_or(0));
        self.param_count() * 4 + peak_pair * 4
    }

    /// A compact human-readable description, e.g.
    /// `"[20x9x1] conv3x3x8/s1s relu maxpool2 flatten dense10"`.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "[{}x{}x{}]",
            self.input_shape[0], self.input_shape[1], self.input_shape[2]
        );
        for layer in &self.layers {
            out.push(' ');
            out.push_str(&layer.to_string());
        }
        out
    }
}

/// Internal shape: a feature map or a flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `[h, w, c]` feature map.
    Map([usize; 3]),
    /// Flat vector of the given length.
    Flat(usize),
}

impl Shape {
    pub(crate) fn elements(&self) -> usize {
        match self {
            Shape::Map([h, w, c]) => h * w * c,
            Shape::Flat(n) => *n,
        }
    }
}

fn conv_out(dim: usize, kernel: usize, stride: usize, padding: Padding) -> Result<usize, String> {
    if stride == 0 {
        return Err("stride must be positive".into());
    }
    match padding {
        Padding::Valid => {
            if kernel > dim {
                return Err(format!("kernel {kernel} exceeds input dim {dim}"));
            }
            Ok((dim - kernel) / stride + 1)
        }
        Padding::Same => Ok(dim.div_ceil(stride)),
    }
}

fn propagate(shape: Shape, layer: &LayerSpec) -> Result<Shape, String> {
    match (shape, layer) {
        (
            Shape::Map([h, w, c]),
            LayerSpec::Conv {
                filters,
                kernel,
                stride,
                padding,
            },
        ) => {
            if *filters == 0 || *kernel == 0 {
                return Err("conv filters and kernel must be positive".into());
            }
            let oh = conv_out(h, *kernel, *stride, *padding)?;
            let ow = conv_out(w, (*kernel).min(w), *stride, *padding)?;
            if oh == 0 || ow == 0 {
                return Err("conv output collapsed to zero".into());
            }
            let _ = c;
            Ok(Shape::Map([oh, ow, *filters]))
        }
        (
            Shape::Map([h, w, c]),
            LayerSpec::DwConv {
                kernel,
                stride,
                padding,
            },
        ) => {
            if *kernel == 0 {
                return Err("dwconv kernel must be positive".into());
            }
            let oh = conv_out(h, *kernel, *stride, *padding)?;
            let ow = conv_out(w, (*kernel).min(w), *stride, *padding)?;
            if oh == 0 || ow == 0 {
                return Err("dwconv output collapsed to zero".into());
            }
            Ok(Shape::Map([oh, ow, c]))
        }
        (Shape::Map([h, w, c]), LayerSpec::Pool { size, .. }) => {
            if *size == 0 {
                return Err("pool size must be positive".into());
            }
            let effective_w = (*size).min(w);
            if *size > h {
                return Err(format!("pool window {size} exceeds input height {h}"));
            }
            let oh = h / size;
            let ow = (w / effective_w).max(1);
            if oh == 0 {
                return Err("pool output collapsed to zero".into());
            }
            Ok(Shape::Map([oh, ow, c]))
        }
        (Shape::Map(s), LayerSpec::Norm | LayerSpec::Relu | LayerSpec::Dropout { .. }) => {
            Ok(Shape::Map(s))
        }
        (Shape::Flat(n), LayerSpec::Norm | LayerSpec::Relu | LayerSpec::Dropout { .. }) => {
            Ok(Shape::Flat(n))
        }
        (Shape::Map([h, w, c]), LayerSpec::Flatten) => Ok(Shape::Flat(h * w * c)),
        (Shape::Flat(n), LayerSpec::Flatten) => Ok(Shape::Flat(n)),
        (Shape::Flat(n), LayerSpec::Dense { units }) => {
            if *units == 0 {
                return Err("dense units must be positive".into());
            }
            let _ = n;
            Ok(Shape::Flat(*units))
        }
        (Shape::Map(_), LayerSpec::Dense { .. }) => {
            Err("dense requires a flattened input (insert Flatten)".into())
        }
        (
            Shape::Flat(_),
            LayerSpec::Conv { .. } | LayerSpec::DwConv { .. } | LayerSpec::Pool { .. },
        ) => Err("spatial layer after flatten".into()),
    }
}

fn layer_macs(before: Shape, after: Shape, layer: &LayerSpec) -> u64 {
    match (before, after, layer) {
        (Shape::Map([_, _, cin]), Shape::Map([oh, ow, cout]), LayerSpec::Conv { kernel, .. }) => {
            (oh * ow * cout * kernel * kernel * cin) as u64
        }
        (Shape::Map(_), Shape::Map([oh, ow, c]), LayerSpec::DwConv { kernel, .. }) => {
            (oh * ow * c * kernel * kernel) as u64
        }
        (Shape::Map(_), Shape::Map([oh, ow, c]), LayerSpec::Pool { size, .. }) => {
            (oh * ow * c * size * size) as u64
        }
        (before, _, LayerSpec::Norm) => (2 * before.elements()) as u64,
        (Shape::Flat(n), Shape::Flat(m), LayerSpec::Dense { .. }) => (n * m) as u64,
        _ => 0,
    }
}

fn layer_params(before: Shape, layer: &LayerSpec) -> usize {
    match (before, layer) {
        (
            Shape::Map([_, _, cin]),
            LayerSpec::Conv {
                filters, kernel, ..
            },
        ) => kernel * kernel * cin * filters + filters,
        (Shape::Map([_, _, c]), LayerSpec::DwConv { kernel, .. }) => kernel * kernel * c + c,
        (Shape::Map([_, _, c]), LayerSpec::Norm) => 2 * c,
        (Shape::Flat(n), LayerSpec::Norm) => 2 * n,
        (Shape::Flat(n), LayerSpec::Dense { units }) => n * units + units,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn() -> ModelSpec {
        ModelSpec::new(
            [20, 9, 1],
            vec![
                LayerSpec::conv(8, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::conv(16, 3, 1, Padding::Valid),
                LayerSpec::relu(),
                LayerSpec::flatten(),
                LayerSpec::dense(10),
            ],
        )
        .expect("valid architecture")
    }

    #[test]
    fn shapes_propagate() {
        let spec = tiny_cnn();
        assert_eq!(spec.output_units(), 10);
    }

    #[test]
    fn same_padding_preserves_size() {
        let spec = ModelSpec::new(
            [10, 10, 3],
            vec![
                LayerSpec::conv(4, 3, 1, Padding::Same),
                LayerSpec::flatten(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        // conv keeps 10×10, so flatten sees 10*10*4.
        assert_eq!(spec.param_count(), 3 * 3 * 3 * 4 + 4 + 400 * 2 + 2);
    }

    #[test]
    fn valid_padding_shrinks() {
        let spec = ModelSpec::new(
            [10, 10, 1],
            vec![
                LayerSpec::conv(2, 3, 1, Padding::Valid),
                LayerSpec::flatten(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        // 8×8×2 out of the conv.
        let macs = spec.mac_summary();
        assert_eq!(macs.class(LayerClass::Conv), 8 * 8 * 2 * 9);
    }

    #[test]
    fn dense_macs_are_in_times_out() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                LayerSpec::flatten(),
                LayerSpec::dense(8),
                LayerSpec::dense(3),
            ],
        )
        .expect("valid");
        assert_eq!(spec.mac_summary().class(LayerClass::Dense), 4 * 8 + 8 * 3);
    }

    #[test]
    fn kernel_too_large_is_error() {
        let err = ModelSpec::new(
            [4, 4, 1],
            vec![
                LayerSpec::conv(2, 5, 1, Padding::Valid),
                LayerSpec::flatten(),
                LayerSpec::dense(2),
            ],
        )
        .expect_err("kernel exceeds input");
        assert_eq!(err.layer, 0);
        assert!(err.reason.contains("exceeds"));
    }

    #[test]
    fn dense_on_map_is_error() {
        let err = ModelSpec::new([4, 4, 1], vec![LayerSpec::dense(2)]).expect_err("needs flatten");
        assert!(err.reason.contains("Flatten"));
    }

    #[test]
    fn conv_after_flatten_is_error() {
        let err = ModelSpec::new(
            [4, 4, 1],
            vec![
                LayerSpec::flatten(),
                LayerSpec::conv(2, 2, 1, Padding::Valid),
                LayerSpec::dense(2),
            ],
        )
        .expect_err("spatial after flatten");
        assert!(err.reason.contains("flatten"));
    }

    #[test]
    fn model_must_end_flat() {
        let err = ModelSpec::new([4, 4, 1], vec![LayerSpec::conv(2, 2, 1, Padding::Valid)])
            .expect_err("map output");
        assert!(err.reason.contains("flat"));
    }

    #[test]
    fn narrow_inputs_clamp_kernel_width() {
        // A 1-wide "image" (single-channel time series) accepts 3×3 kernels
        // by clamping the width dimension.
        let spec = ModelSpec::new(
            [20, 1, 1],
            vec![
                LayerSpec::conv(4, 3, 1, Padding::Valid),
                LayerSpec::flatten(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid for 1-wide input");
        assert!(spec.mac_summary().total() > 0);
    }

    #[test]
    fn memory_counts_params_and_activations() {
        let spec = tiny_cnn();
        let params = spec.param_count();
        assert!(spec.memory_bytes() > params * 4);
    }

    #[test]
    fn mac_summary_feature_order_is_stable() {
        let spec = tiny_cnn();
        let features = spec.mac_summary().as_features();
        assert_eq!(
            features[0],
            spec.mac_summary().class(LayerClass::Conv) as f64
        );
        assert_eq!(
            features[2],
            spec.mac_summary().class(LayerClass::Dense) as f64
        );
    }

    #[test]
    fn pool_and_norm_count_macs() {
        let spec = ModelSpec::new(
            [8, 8, 2],
            vec![
                LayerSpec::norm(),
                LayerSpec::avg_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let m = spec.mac_summary();
        assert_eq!(m.class(LayerClass::Norm), 2 * 8 * 8 * 2);
        assert_eq!(m.class(LayerClass::AvgPool), 4 * 4 * 2 * 4);
        assert_eq!(m.class(LayerClass::MaxPool), 0);
    }

    #[test]
    fn describe_is_readable() {
        let spec = tiny_cnn();
        let d = spec.describe();
        assert!(d.starts_with("[20x9x1]"));
        assert!(d.contains("conv3x3x8/s1s"));
        assert!(d.contains("dense10"));
    }

    #[test]
    fn clone_and_eq_agree() {
        let spec = tiny_cnn();
        let clone = spec.clone();
        assert_eq!(spec, clone);
    }
}
