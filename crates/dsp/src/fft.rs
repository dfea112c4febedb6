//! Iterative radix-2 FFT, sized for microcontroller-scale windows.

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex value.
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two (or is zero).
pub fn fft_in_place(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length must be a power of two, got {n}"
    );
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos() as f32, ang.sin() as f32);
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half].mul(w);
                chunk[k] = u.add(v);
                chunk[k + half] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// One-sided power spectrum of a real signal, zero-padded to the next power
/// of two. Returns `n_fft/2 + 1` bins.
///
/// # Panics
///
/// Panics if `signal` is empty.
pub fn power_spectrum(signal: &[f32]) -> Vec<f32> {
    assert!(!signal.is_empty(), "power spectrum of empty signal");
    let n = signal.len().next_power_of_two();
    let mut buf: Vec<Complex> = signal
        .iter()
        .map(|&s| Complex::new(s, 0.0))
        .chain(std::iter::repeat(Complex::default()))
        .take(n)
        .collect();
    fft_in_place(&mut buf);
    buf[..n / 2 + 1]
        .iter()
        .map(|c| c.norm_sq() / n as f32)
        .collect()
}

/// Cycle estimate for one `n`-point FFT on a Cortex-M4-class core:
/// ≈ `12·n·log2(n)` cycles (CMSIS-DSP radix-2 with float math).
pub fn fft_cycles(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let n = n.next_power_of_two() as f64;
    12.0 * n * n.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_dft(signal: &[f32]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (t, &x) in signal.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64;
                    acc = acc.add(Complex::new(x * ang.cos() as f32, x * ang.sin() as f32));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let signal: Vec<f32> = (0..16).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let mut buf: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
        fft_in_place(&mut buf);
        let reference = naive_dft(&signal);
        for (a, b) in buf.iter().zip(&reference) {
            assert!((a.re - b.re).abs() < 1e-3, "{a:?} vs {b:?}");
            assert!((a.im - b.im).abs() < 1e-3, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::default(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-6);
            assert!(c.im.abs() < 1e-6);
        }
    }

    #[test]
    fn sine_peaks_at_its_bin() {
        let n = 64;
        let freq_bin = 5;
        let signal: Vec<f32> = (0..n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * freq_bin as f64 * i as f64 / n as f64).sin() as f32
            })
            .collect();
        let spec = power_spectrum(&signal);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(peak, freq_bin);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut buf = vec![Complex::default(); 12];
        fft_in_place(&mut buf);
    }

    #[test]
    fn power_spectrum_pads_to_power_of_two() {
        let spec = power_spectrum(&[1.0; 400]);
        // 400 → 512-point FFT → 257 bins.
        assert_eq!(spec.len(), 257);
    }

    #[test]
    fn cycles_grow_superlinearly() {
        assert_eq!(fft_cycles(1), 0.0);
        let c256 = fft_cycles(256);
        let c512 = fft_cycles(512);
        assert!(c512 > 2.0 * c256);
        // 512-point ≈ 55k cycles ≈ 0.9 ms at 64 MHz — plausible for M4.
        assert!((40_000.0..80_000.0).contains(&c512));
    }

    proptest! {
        #[test]
        fn parseval_energy_preserved(signal in proptest::collection::vec(-1.0f32..1.0, 32)) {
            let time_energy: f32 = signal.iter().map(|s| s * s).sum();
            let mut buf: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
            fft_in_place(&mut buf);
            let freq_energy: f32 = buf.iter().map(|c| c.norm_sq()).sum::<f32>() / 32.0;
            prop_assert!((time_energy - freq_energy).abs() <= 1e-3 * (1.0 + time_energy));
        }

        #[test]
        fn linearity(a in proptest::collection::vec(-1.0f32..1.0, 16), k in -2.0f32..2.0) {
            let mut fa: Vec<Complex> = a.iter().map(|&s| Complex::new(s, 0.0)).collect();
            fft_in_place(&mut fa);
            let scaled: Vec<f32> = a.iter().map(|&s| k * s).collect();
            let mut fs: Vec<Complex> = scaled.iter().map(|&s| Complex::new(s, 0.0)).collect();
            fft_in_place(&mut fs);
            for (x, y) in fa.iter().zip(&fs) {
                prop_assert!((x.re * k - y.re).abs() <= 1e-3);
                prop_assert!((x.im * k - y.im).abs() <= 1e-3);
            }
        }
    }
}
