//! Signal-processing front-ends for the SolarML pipelines.
//!
//! Two acquisition pipelines feed the paper's models:
//!
//! * **Gesture** — nine solar-cell channels sampled by the ADC. The eNAS
//!   search space (Table II) exposes the number of channels `n`, sampling
//!   rate `r`, resolution class `b` (int/float) and quantization depth `q`.
//!   [`gesture`] implements channel selection, resampling and quantization.
//! * **KWS audio** — the onboard PDM microphone at 16 kHz. The search space
//!   exposes window stripe `s`, window duration `d` and feature count `f`;
//!   [`mfcc`] implements the framing → FFT → mel → DCT chain.
//!
//! Every stage also reports a CPU *cycle estimate* so `solarml-mcu` can
//! convert preprocessing work into energy — this is the `E_S` software
//! component that eNAS trades against model accuracy.

pub mod fft;
pub mod gesture;
pub mod mfcc;
pub mod params;
pub mod quantize;
pub mod window;

pub use fft::{fft_cycles, Complex, FftPlan};
pub use gesture::{preprocess_gesture, GesturePreprocessOutput};
pub use mfcc::{mfcc_cycles, standardize, MelFilterbank, MfccExtractor, MfccScratch};
pub use params::{AudioFrontendParams, GestureSensingParams, Resolution};
pub use quantize::{quantization_levels, quantize_value};
pub use window::{hamming, FrameSpec};
