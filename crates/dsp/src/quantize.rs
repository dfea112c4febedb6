//! Sample quantization.
//!
//! The gesture search space (Table II) includes the quantization depth `q`:
//! integer pipelines use 1–8 bits, float pipelines 9–32 bits of effective
//! precision. Quantizing the *training and inference data* identically lets
//! the NAS observe the real accuracy cost of cheap acquisition.

/// Number of representable levels for a quantization depth.
///
/// Depths of 32 bits or more are treated as continuous (`u64::MAX` levels
/// would overflow f32 anyway).
pub fn quantization_levels(bits: u8) -> u64 {
    if bits >= 32 {
        u64::MAX
    } else {
        1u64 << bits
    }
}

/// Quantizes a value in `[0, 1]` to `bits` of depth (mid-rise uniform
/// quantizer). Values outside `[0, 1]` are clamped first. Depths ≥ 24 bits
/// pass through unchanged (indistinguishable in `f32`).
pub fn quantize_value(x: f32, bits: u8) -> f32 {
    let x = x.clamp(0.0, 1.0);
    if bits >= 24 {
        return x;
    }
    let levels = quantization_levels(bits) as f32;
    let q = (x * (levels - 1.0)).round();
    q / (levels - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_bit_is_binary() {
        assert_eq!(quantize_value(0.2, 1), 0.0);
        assert_eq!(quantize_value(0.8, 1), 1.0);
    }

    #[test]
    fn endpoints_are_exact() {
        for bits in 1..=16 {
            assert_eq!(quantize_value(0.0, bits), 0.0);
            assert_eq!(quantize_value(1.0, bits), 1.0);
        }
    }

    #[test]
    fn deep_quantization_passes_through() {
        let x = 0.123456789f32;
        assert_eq!(quantize_value(x, 24), x);
        assert_eq!(quantize_value(x, 32), x);
    }

    #[test]
    fn out_of_range_clamped() {
        assert_eq!(quantize_value(-0.5, 8), 0.0);
        assert_eq!(quantize_value(1.5, 8), 1.0);
    }

    #[test]
    fn levels_double_per_bit() {
        assert_eq!(quantization_levels(1), 2);
        assert_eq!(quantization_levels(8), 256);
        assert_eq!(quantization_levels(16), 65536);
    }

    proptest! {
        #[test]
        fn quantization_error_bounded(x in 0.0f32..1.0, bits in 1u8..=16) {
            let q = quantize_value(x, bits);
            let step = 1.0 / (quantization_levels(bits) as f32 - 1.0);
            prop_assert!((q - x).abs() <= step / 2.0 + 1e-6);
        }

        #[test]
        fn more_bits_never_worse(x in 0.0f32..1.0, bits in 1u8..=15) {
            let coarse = (quantize_value(x, bits) - x).abs();
            let fine = (quantize_value(x, bits + 1) - x).abs();
            // Halving the step cannot double the error bound.
            let coarse_step = 1.0 / (quantization_levels(bits) as f32 - 1.0);
            prop_assert!(fine <= coarse + 1e-6 || coarse <= coarse_step / 2.0 + 1e-6);
        }

        #[test]
        fn idempotent(x in 0.0f32..1.0, bits in 1u8..=16) {
            let q = quantize_value(x, bits);
            prop_assert!((quantize_value(q, bits) - q).abs() < 1e-6);
        }
    }
}
