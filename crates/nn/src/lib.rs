//! A from-scratch tinyML neural-network engine.
//!
//! The NAS loops in `solarml-nas` need to *actually train* candidate
//! architectures — the paper's accuracy numbers are real trained accuracies,
//! not proxies — so this crate implements the complete pipeline for the
//! microcontroller-scale models the paper searches over:
//!
//! * [`Tensor`] — a minimal row-major dense tensor;
//! * [`arch`] — declarative [`ModelSpec`]s with shape inference, per-layer
//!   MAC counts ([`MacSummary`]) and memory estimates, all computable
//!   *without* instantiating weights (what the NAS constraints consume);
//! * [`layers`] — Conv2D, depthwise Conv2D, Dense, max/avg pooling, channel
//!   norm, ReLU, flatten — each with forward and backward passes;
//! * [`Model`] — an instantiated network supporting training and inference;
//! * the [`Adam`] optimizer and a [`fit`]/[`evaluate`] loop over
//!   [`ClassDataset`]s.
//!
//! # Examples
//!
//! Train a tiny classifier on synthetic two-class data:
//!
//! ```
//! use rand::SeedableRng;
//! use solarml_nn::{arch::{LayerSpec, ModelSpec}, ClassDataset, Model, Tensor};
//! use solarml_nn::train::{evaluate, fit, TrainConfig};
//!
//! # fn main() -> Result<(), solarml_nn::ArchError> {
//! let spec = ModelSpec::new(
//!     [4, 1, 1],
//!     vec![LayerSpec::flatten(), LayerSpec::dense(8), LayerSpec::relu(), LayerSpec::dense(2)],
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut model = Model::from_spec(&spec, &mut rng);
//! // Class 0: rising ramps; class 1: falling ramps.
//! let inputs: Vec<Tensor> = (0..40)
//!     .map(|i| {
//!         let up = i % 2 == 0;
//!         let v: Vec<f32> = (0..4)
//!             .map(|t| if up { t as f32 } else { 3.0 - t as f32 } / 3.0)
//!             .collect();
//!         Tensor::from_vec(vec![4, 1, 1], v)
//!     })
//!     .collect();
//! let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let data = ClassDataset::new(inputs, labels, 2);
//! fit(&mut model, &data, &TrainConfig { epochs: 30, ..TrainConfig::default() }, &mut rng);
//! assert!(evaluate(&mut model, &data) > 0.9);
//! # Ok(())
//! # }
//! ```

// Panicking on violated shape/sampling invariants is the right contract for
// the tensor and search internals: every shape is validated once at
// `ModelSpec` construction, and threading `Result` through each layer
// micro-op would bury the math. The five physics crates keep the strict
// `unwrap_used`/`expect_used` deny — enforced by `cargo xtask lint`.
#![allow(clippy::expect_used, clippy::unwrap_used)]

pub mod arch;
pub mod dataset;
pub mod layers;
pub mod loss;
pub mod model;
pub mod multi_exit;
pub mod optimizer;
pub mod reference;
pub mod sampler;
pub mod tensor;
pub mod train;

pub use arch::{ArchError, LayerClass, LayerSpec, MacSummary, ModelSpec, Padding, PoolKind};
pub use dataset::ClassDataset;
pub use loss::softmax_cross_entropy;
pub use model::Model;
pub use multi_exit::{ExitDecision, MultiExitModel};
pub use optimizer::Adam;
pub use sampler::ArchSampler;
pub use tensor::Tensor;
pub use train::{evaluate, fit, TrainConfig, TrainReport};
