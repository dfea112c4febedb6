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

/// Splits `signal` into overlapping frames, each multiplied by `window_fn`
/// (pass a slice of ones for a rectangular window).
///
/// Returns a vector of frames; partial trailing data is dropped, matching
/// embedded implementations that only process complete windows.
///
/// # Panics
///
/// Panics if `window_fn.len() != spec.window`.
pub fn frame_signal(signal: &[f32], spec: FrameSpec, window_fn: &[f32]) -> Vec<Vec<f32>> {
    assert_eq!(
        window_fn.len(),
        spec.window,
        "window function length must match frame length"
    );
    let count = spec.frame_count(signal.len());
    let mut frames = Vec::with_capacity(count);
    for k in 0..count {
        let start = k * spec.hop;
        let frame: Vec<f32> = signal[start..start + spec.window]
            .iter()
            .zip(window_fn)
            .map(|(s, w)| s * w)
            .collect();
        frames.push(frame);
    }
    frames
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

    #[test]
    fn frames_apply_window() {
        let signal = vec![1.0f32; 10];
        let spec = FrameSpec::new(4, 2);
        let win = vec![0.5f32; 4];
        let frames = frame_signal(&signal, spec, &win);
        assert_eq!(frames.len(), 4);
        for f in &frames {
            assert!(f.iter().all(|&v| (v - 0.5).abs() < 1e-6));
        }
    }

    #[test]
    fn frames_overlap_correctly() {
        let signal: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let spec = FrameSpec::new(4, 2);
        let ones = vec![1.0f32; 4];
        let frames = frame_signal(&signal, spec, &ones);
        assert_eq!(frames[0], vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(frames[1], vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(frames[2], vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "window function length")]
    fn mismatched_window_panics() {
        let _ = frame_signal(&[0.0; 10], FrameSpec::new(4, 2), &[1.0; 3]);
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
