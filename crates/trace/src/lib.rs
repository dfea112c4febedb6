//! Power-trace recording and analysis for the SolarML simulators.
//!
//! The paper measures every energy number with a Qoitech OTII power analyzer
//! sampling at 50 kHz. This crate is the simulated equivalent: a
//! [`PowerTrace`] collects timestamped power samples emitted by the circuit
//! and MCU simulators, supports labelled segments (so a trace can be split
//! into the paper's `E_E` / `E_S` / `E_M` phases), and integrates power over
//! time to produce energies.
//!
//! # Examples
//!
//! ```
//! use solarml_trace::PowerTrace;
//! use solarml_units::{Frequency, Power};
//!
//! let mut trace = PowerTrace::with_sample_rate(Frequency::new(1000.0));
//! trace.begin_segment("sleep");
//! for _ in 0..100 {
//!     trace.push(Power::from_micro_watts(2.0));
//! }
//! trace.begin_segment("inference");
//! for _ in 0..10 {
//!     trace.push(Power::from_milli_watts(15.0));
//! }
//! let sleep = trace.segment_energy("sleep").expect("segment exists");
//! assert!(sleep.as_micro_joules() > 0.0);
//! assert!(trace.total_energy() > sleep);
//! ```

mod analysis;
pub mod bytes;
pub mod json;
pub mod seed;
mod stats;
mod trace;

pub use analysis::{detect_phases, Phase};
pub use bytes::{
    fnv1a64, fnv1a64_x4, write_atomic, ByteReader, ByteWriter, CodecError, Envelope, EnvelopeError,
    KeyHasher,
};
pub use json::JsonObject;
pub use stats::{error_cdf, mean, mean_absolute_percent_error, median, percentile, r_squared};
pub use trace::{PowerTrace, Sample, Segment, SegmentSummary};
