//! The sensing-parameter types of the paper's Table II.
//!
//! These are the *searchable* knobs eNAS optimizes jointly with the model
//! architecture. Each type validates the paper's ranges on construction, so
//! an invalid candidate can never reach the evaluators.

use std::fmt;

use solarml_units::Hertz;

/// Sample resolution class: integer (`q ∈ [1,8]` bits) or floating point
/// (`q ∈ [9,32]` bits of effective precision), per Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Integer samples; quantization depth 1–8 bits.
    Int,
    /// Floating-point samples; effective precision 9–32 bits.
    Float,
}

impl Resolution {
    /// The legal quantization range for this resolution class.
    pub fn quant_range(self) -> std::ops::RangeInclusive<u8> {
        match self {
            Resolution::Int => 1..=8,
            Resolution::Float => 9..=32,
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resolution::Int => "int",
            Resolution::Float => "float",
        })
    }
}

/// Gesture sensing parameters (Table II, gesture recognition rows):
/// `n ∈ [1,9]` channels, `r ∈ [10,200]` Hz, resolution `b ∈ {int,float}`,
/// quantization `q` within the class range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GestureSensingParams {
    channels: u8,
    rate_hz: u16,
    resolution: Resolution,
    quant_bits: u8,
}

impl GestureSensingParams {
    /// Legal channel range.
    pub const CHANNEL_RANGE: std::ops::RangeInclusive<u8> = 1..=9;
    /// Legal sampling-rate range in hertz.
    pub const RATE_RANGE: std::ops::RangeInclusive<u16> = 10..=200;

    /// Creates a validated parameter set.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter when out of range.
    pub fn new(
        channels: u8,
        rate_hz: u16,
        resolution: Resolution,
        quant_bits: u8,
    ) -> Result<Self, String> {
        if !Self::CHANNEL_RANGE.contains(&channels) {
            return Err(format!("channels must be 1..=9, got {channels}"));
        }
        if !Self::RATE_RANGE.contains(&rate_hz) {
            return Err(format!("rate must be 10..=200 Hz, got {rate_hz}"));
        }
        if !resolution.quant_range().contains(&quant_bits) {
            return Err(format!(
                "quantization {quant_bits} outside {resolution} range {:?}",
                resolution.quant_range()
            ));
        }
        Ok(Self {
            channels,
            rate_hz,
            resolution,
            quant_bits,
        })
    }

    /// The paper's default full-fidelity configuration: all 9 channels at
    /// 200 Hz, 12-bit float pipeline.
    pub fn full() -> Self {
        #[allow(clippy::expect_used)] // literal arguments are inside the validated Table II ranges
        Self::new(9, 200, Resolution::Float, 12).expect("full config is valid")
    }

    /// Number of sensing channels used.
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Sampling rate.
    pub fn rate(&self) -> Hertz {
        Hertz::new(self.rate_hz as f64)
    }

    /// Sampling rate in hertz as an integer.
    pub fn rate_hz(&self) -> u16 {
        self.rate_hz
    }

    /// Resolution class.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Quantization depth in bits.
    pub fn quant_bits(&self) -> u8 {
        self.quant_bits
    }

    /// Samples per channel over a gesture of `duration_s` seconds.
    pub fn samples_per_channel(&self, duration_s: f64) -> usize {
        (self.rate_hz as f64 * duration_s).round().max(1.0) as usize
    }
}

impl fmt::Display for GestureSensingParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} r={}Hz b={} q={}",
            self.channels, self.rate_hz, self.resolution, self.quant_bits
        )
    }
}

/// KWS audio front-end parameters (Table II, KWS rows): window stripe
/// `s ∈ [10,30]` ms, window duration `d ∈ [18,30]` ms, feature count
/// `f ∈ [10,40]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AudioFrontendParams {
    stripe_ms: u8,
    duration_ms: u8,
    features: u8,
}

impl AudioFrontendParams {
    /// Legal stripe range in milliseconds.
    pub const STRIPE_RANGE: std::ops::RangeInclusive<u8> = 10..=30;
    /// Legal window-duration range in milliseconds.
    pub const DURATION_RANGE: std::ops::RangeInclusive<u8> = 18..=30;
    /// Legal feature-count range.
    pub const FEATURE_RANGE: std::ops::RangeInclusive<u8> = 10..=40;

    /// Creates a validated parameter set.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter when out of range.
    pub fn new(stripe_ms: u8, duration_ms: u8, features: u8) -> Result<Self, String> {
        if !Self::STRIPE_RANGE.contains(&stripe_ms) {
            return Err(format!("stripe must be 10..=30 ms, got {stripe_ms}"));
        }
        if !Self::DURATION_RANGE.contains(&duration_ms) {
            return Err(format!("duration must be 18..=30 ms, got {duration_ms}"));
        }
        if !Self::FEATURE_RANGE.contains(&features) {
            return Err(format!("features must be 10..=40, got {features}"));
        }
        Ok(Self {
            stripe_ms,
            duration_ms,
            features,
        })
    }

    /// A standard 20 ms / 25 ms / 13-feature MFCC configuration.
    pub fn standard() -> Self {
        #[allow(clippy::expect_used)] // literal arguments are inside the validated Table II ranges
        Self::new(20, 25, 13).expect("standard config is valid")
    }

    /// Hop between consecutive windows, in milliseconds.
    pub fn stripe_ms(&self) -> u8 {
        self.stripe_ms
    }

    /// Window length, in milliseconds.
    pub fn duration_ms(&self) -> u8 {
        self.duration_ms
    }

    /// Number of MFCC features per frame.
    pub fn features(&self) -> u8 {
        self.features
    }

    /// Number of frames covering a clip of `clip_ms` milliseconds.
    pub fn frames_for_clip(&self, clip_ms: u32) -> usize {
        if clip_ms < self.duration_ms as u32 {
            return 0;
        }
        1 + ((clip_ms - self.duration_ms as u32) / self.stripe_ms as u32) as usize
    }

    /// Window length in samples at `rate_hz`.
    pub fn window_samples(&self, rate_hz: f64) -> usize {
        (self.duration_ms as f64 * 1e-3 * rate_hz).round() as usize
    }

    /// Hop length in samples at `rate_hz`.
    pub fn hop_samples(&self, rate_hz: f64) -> usize {
        ((self.stripe_ms as f64 * 1e-3 * rate_hz).round() as usize).max(1)
    }
}

impl fmt::Display for AudioFrontendParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "s={}ms d={}ms f={}",
            self.stripe_ms, self.duration_ms, self.features
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gesture_params_validate_ranges() {
        assert!(GestureSensingParams::new(0, 100, Resolution::Int, 8).is_err());
        assert!(GestureSensingParams::new(10, 100, Resolution::Int, 8).is_err());
        assert!(GestureSensingParams::new(5, 9, Resolution::Int, 8).is_err());
        assert!(GestureSensingParams::new(5, 201, Resolution::Int, 8).is_err());
        assert!(GestureSensingParams::new(5, 100, Resolution::Int, 9).is_err());
        assert!(GestureSensingParams::new(5, 100, Resolution::Float, 8).is_err());
        assert!(GestureSensingParams::new(5, 100, Resolution::Float, 32).is_ok());
    }

    #[test]
    fn gesture_error_messages_name_the_parameter() {
        let err = GestureSensingParams::new(0, 100, Resolution::Int, 8).expect_err("invalid");
        assert!(err.contains("channels"));
        let err = GestureSensingParams::new(5, 5, Resolution::Int, 8).expect_err("invalid");
        assert!(err.contains("rate"));
    }

    #[test]
    fn samples_per_channel_scales_with_rate() {
        let p = GestureSensingParams::new(3, 50, Resolution::Int, 8).expect("valid");
        assert_eq!(p.samples_per_channel(2.0), 100);
        let p = GestureSensingParams::new(3, 200, Resolution::Float, 16).expect("valid");
        assert_eq!(p.samples_per_channel(2.0), 400);
    }

    #[test]
    fn audio_params_validate_ranges() {
        assert!(AudioFrontendParams::new(9, 25, 13).is_err());
        assert!(AudioFrontendParams::new(31, 25, 13).is_err());
        assert!(AudioFrontendParams::new(20, 17, 13).is_err());
        assert!(AudioFrontendParams::new(20, 31, 13).is_err());
        assert!(AudioFrontendParams::new(20, 25, 9).is_err());
        assert!(AudioFrontendParams::new(20, 25, 41).is_err());
        assert!(AudioFrontendParams::new(10, 18, 10).is_ok());
        assert!(AudioFrontendParams::new(30, 30, 40).is_ok());
    }

    #[test]
    fn frame_count_for_one_second_clip() {
        let p = AudioFrontendParams::standard();
        // (1000 - 25) / 20 + 1 = 49 frames.
        assert_eq!(p.frames_for_clip(1000), 49);
        assert_eq!(p.frames_for_clip(10), 0);
    }

    #[test]
    fn window_and_hop_samples_at_16khz() {
        let p = AudioFrontendParams::standard();
        assert_eq!(p.window_samples(16_000.0), 400);
        assert_eq!(p.hop_samples(16_000.0), 320);
    }

    #[test]
    fn displays_are_compact() {
        let g = GestureSensingParams::full();
        assert_eq!(g.to_string(), "n=9 r=200Hz b=float q=12");
        let a = AudioFrontendParams::standard();
        assert_eq!(a.to_string(), "s=20ms d=25ms f=13");
    }

    proptest! {
        #[test]
        fn valid_gesture_params_always_construct(
            ch in 1u8..=9,
            rate in 10u16..=200,
            q_int in 1u8..=8,
            q_float in 9u8..=32,
        ) {
            prop_assert!(GestureSensingParams::new(ch, rate, Resolution::Int, q_int).is_ok());
            prop_assert!(GestureSensingParams::new(ch, rate, Resolution::Float, q_float).is_ok());
        }

        #[test]
        fn more_stripe_means_fewer_frames(s1 in 10u8..=29, clip in 500u32..2000) {
            let s2 = s1 + 1;
            let p1 = AudioFrontendParams::new(s1, 25, 13).expect("valid");
            let p2 = AudioFrontendParams::new(s2, 25, 13).expect("valid");
            prop_assert!(p2.frames_for_clip(clip) <= p1.frames_for_clip(clip));
        }
    }
}
