//! Acquisition peripheral power models: the SAADC (gesture channels) and the
//! PDM microphone interface (KWS audio).

use solarml_units::{Hertz, Power, Seconds};

/// Per-conversion energy constants for the successive-approximation ADC.
/// Conversion cost grows with resolution (longer charge-redistribution
/// sequence) and each stored sample pays a per-byte copy cost.
const ADC_FIXED_NJ: f64 = 126.0;
const ADC_PER_BIT_NJ: f64 = 42.0;
const STORE_PER_BYTE_NJ: f64 = 84.0;

/// SAADC configuration for gesture sampling: how many solar-cell channels,
/// at what rate, quantized to how many bits.
///
/// These are exactly the sensing parameters eNAS searches over for the
/// gesture task (paper Table II: `n`, `r`, `q`); the float-vs-int choice `b`
/// shows up as bit widths above 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdcConfig {
    channels: u8,
    rate_hz: u32,
    bits: u8,
}

impl AdcConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or greater than 9 (the sensing block has
    /// nine cells), if `bits` is zero or greater than 32, or if the rate is
    /// zero.
    pub fn new(channels: u8, rate: Hertz, bits: u8) -> Self {
        assert!(
            (1..=9).contains(&channels),
            "gesture sensing uses 1..=9 channels, got {channels}"
        );
        assert!((1..=32).contains(&bits), "bits must be 1..=32, got {bits}");
        let rate_hz = rate.as_hertz();
        assert!(rate_hz > 0.0, "sampling rate must be positive");
        Self {
            channels,
            rate_hz: rate_hz.round() as u32,
            bits,
        }
    }

    /// Number of channels sampled.
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Per-channel sampling rate.
    pub fn rate(&self) -> Hertz {
        Hertz::new(self.rate_hz as f64)
    }

    /// Sample bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Bytes occupied by one stored sample.
    pub fn bytes_per_sample(&self) -> u8 {
        self.bits.div_ceil(8)
    }

    /// Average power of the conversion + storage stream (excluding the
    /// tickless base): `channels × rate × (E_conv(bits) + E_store(bytes))`.
    pub fn conversion_power(&self) -> Power {
        let e_conv_nj = ADC_FIXED_NJ + ADC_PER_BIT_NJ * self.bits as f64;
        let e_store_nj = STORE_PER_BYTE_NJ * self.bytes_per_sample() as f64;
        let per_second =
            self.channels as f64 * self.rate_hz as f64 * (e_conv_nj + e_store_nj) * 1e-9;
        Power::new(per_second)
    }

    /// Total samples produced over the given duration.
    pub fn samples_over(&self, duration: Seconds) -> usize {
        (self.channels as f64 * self.rate_hz as f64 * duration.as_seconds()).round() as usize
    }
}

/// PDM microphone interface configuration for KWS audio capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdmConfig {
    rate_hz: u32,
}

impl Default for PdmConfig {
    fn default() -> Self {
        Self { rate_hz: 16_000 }
    }
}

impl PdmConfig {
    /// Creates a configuration with the given PCM output rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn new(rate: Hertz) -> Self {
        let rate_hz = rate.as_hertz();
        assert!(rate_hz > 0.0, "PDM rate must be positive");
        Self {
            rate_hz: rate_hz.round() as u32,
        }
    }

    /// PCM output sample rate.
    pub fn rate(&self) -> Hertz {
        Hertz::new(self.rate_hz as f64)
    }

    /// Power of the PDM interface + microphone (excluding the tickless
    /// base). The decimation filter cost scales with the output rate.
    pub fn interface_power(&self) -> Power {
        // ~1.4 mW microphone + interface at 16 kHz, scaling mildly with rate.
        let base = 0.9e-3;
        let per_hz = 3.2e-8;
        Power::new(base + per_hz * self.rate_hz as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adc_power_monotone_in_every_parameter() {
        let base = AdcConfig::new(4, Hertz::new(100.0), 12).conversion_power();
        assert!(AdcConfig::new(5, Hertz::new(100.0), 12).conversion_power() > base);
        assert!(AdcConfig::new(4, Hertz::new(150.0), 12).conversion_power() > base);
        assert!(AdcConfig::new(4, Hertz::new(100.0), 16).conversion_power() > base);
    }

    #[test]
    fn gesture_full_config_power_order() {
        // 9 channels × 200 Hz × 12-bit — the most expensive gesture config —
        // stays in the low-milliwatt conversion regime, far above the
        // cheapest configuration (the headroom eNAS exploits).
        let p = AdcConfig::new(9, Hertz::new(200.0), 12).conversion_power();
        assert!(p.as_micro_watts() < 2000.0);
        assert!(p.as_micro_watts() > 100.0);
        let cheap = AdcConfig::new(1, Hertz::new(10.0), 1).conversion_power();
        assert!(
            p.as_watts() / cheap.as_watts() > 100.0,
            "full/cheap conversion ratio should be large"
        );
    }

    #[test]
    #[should_panic(expected = "1..=9 channels")]
    fn too_many_channels_rejected() {
        let _ = AdcConfig::new(10, Hertz::new(100.0), 12);
    }

    #[test]
    #[should_panic(expected = "bits must be 1..=32")]
    fn zero_bits_rejected() {
        let _ = AdcConfig::new(1, Hertz::new(100.0), 0);
    }

    #[test]
    fn bytes_per_sample_rounds_up() {
        assert_eq!(AdcConfig::new(1, Hertz::new(10.0), 8).bytes_per_sample(), 1);
        assert_eq!(AdcConfig::new(1, Hertz::new(10.0), 9).bytes_per_sample(), 2);
        assert_eq!(
            AdcConfig::new(1, Hertz::new(10.0), 32).bytes_per_sample(),
            4
        );
    }

    #[test]
    fn samples_over_counts_all_channels() {
        let cfg = AdcConfig::new(3, Hertz::new(50.0), 12);
        assert_eq!(cfg.samples_over(Seconds::new(2.0)), 300);
    }

    #[test]
    fn pdm_power_is_a_couple_milliwatts() {
        let p = PdmConfig::default().interface_power();
        assert!((1.0..3.0).contains(&p.as_milli_watts()));
    }

    #[test]
    fn pdm_power_scales_with_rate() {
        let lo = PdmConfig::new(Hertz::new(8000.0)).interface_power();
        let hi = PdmConfig::new(Hertz::new(16000.0)).interface_power();
        assert!(hi > lo);
    }

    proptest! {
        #[test]
        fn adc_power_positive(ch in 1u8..=9, rate in 10.0f64..200.0, bits in 1u8..=32) {
            let p = AdcConfig::new(ch, Hertz::new(rate), bits).conversion_power();
            prop_assert!(p.as_watts() > 0.0);
        }

        #[test]
        fn int_quantization_cheaper_than_float(ch in 1u8..=9, rate in 10.0f64..200.0) {
            // Table II: int → q ∈ [1,8]; float → q ∈ [9,32].
            let int_cfg = AdcConfig::new(ch, Hertz::new(rate), 8);
            let float_cfg = AdcConfig::new(ch, Hertz::new(rate), 32);
            prop_assert!(int_cfg.conversion_power() < float_cfg.conversion_power());
        }
    }
}
