//! Framing and windowing of 1-D signals.

/// Frame extraction specification: window length and hop, in samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSpec {
    /// Samples per frame.
    pub window: usize,
    /// Samples between consecutive frame starts.
    pub hop: usize,
}

impl FrameSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `hop` is zero.
    pub fn new(window: usize, hop: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(hop > 0, "hop must be positive");
        Self { window, hop }
    }

    /// Number of complete frames available in a signal of `len` samples.
    pub fn frame_count(&self, len: usize) -> usize {
        if len < self.window {
            0
        } else {
            1 + (len - self.window) / self.hop
        }
    }
}

/// The Hamming window of length `n`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn hamming(n: usize) -> Vec<f32> {
    assert!(n > 0, "window length must be positive");
    if n == 1 {
        return vec![1.0];
    }
    (0..n)
        .map(|i| {
            let x = 2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64;
            (0.54 - 0.46 * x.cos()) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hamming_endpoints_and_symmetry() {
        let w = hamming(51);
        assert!((w[0] - 0.08).abs() < 1e-3);
        assert!((w[25] - 1.0).abs() < 1e-3);
        for i in 0..w.len() {
            assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn hamming_length_one() {
        assert_eq!(hamming(1), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn hamming_zero_panics() {
        let _ = hamming(0);
    }

    #[test]
    fn frame_count_matches_formula() {
        let spec = FrameSpec::new(400, 320);
        assert_eq!(spec.frame_count(16_000), 49);
        assert_eq!(spec.frame_count(399), 0);
        assert_eq!(spec.frame_count(400), 1);
        assert_eq!(spec.frame_count(720), 2);
    }

    proptest! {
        #[test]
        fn frame_count_never_overruns(
            len in 0usize..5000,
            window in 1usize..500,
            hop in 1usize..500,
        ) {
            let spec = FrameSpec::new(window, hop);
            let n = spec.frame_count(len);
            if n > 0 {
                prop_assert!((n - 1) * hop + window <= len);
                // One more frame would overrun.
                prop_assert!(n * hop + window > len);
            } else {
                prop_assert!(len < window);
            }
        }
    }
}
