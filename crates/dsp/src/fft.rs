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

/// A precomputed radix-2 FFT of one power-of-two length: the bit-reversal
/// permutation and every stage's twiddle sequence, built once and reused
/// for every transform of that length.
///
/// Each stage's twiddles come from the same f32 recurrence
/// (`w ← w·w_len`, starting at 1) the butterflies would otherwise run per
/// block, so a planned transform is bit-identical to recomputing them.
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    /// Index pairs `(i, j)`, `i < j`, swapped by the bit-reversal.
    swaps: Vec<(usize, usize)>,
    /// Stage twiddles, concatenated: the stage of block length `len` keeps
    /// its `len/2` factors at offset `len/2 − 1`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plans an `n`-point transform.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (or is zero).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = (i as u32)
                    .reverse_bits()
                    .checked_shr(32 - bits)
                    .unwrap_or(0) as usize;
                (i < j).then_some((i, j))
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::new(ang.cos() as f32, ang.sin() as f32);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w.mul(wlen);
            }
            len <<= 1;
        }
        Self { swaps, twiddles }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.twiddles.len() + 1
    }

    /// Whether the plan is for a single point (a no-op transform).
    pub fn is_empty(&self) -> bool {
        self.twiddles.is_empty()
    }

    /// In-place iterative radix-2 Cooley–Tukey FFT.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned length.
    pub fn transform(&self, buf: &mut [Complex]) {
        let n = self.len();
        assert_eq!(buf.len(), n, "buffer length must match the planned FFT");
        for &(i, j) in &self.swaps {
            buf.swap(i, j);
        }
        let mut half = 1;
        while half < n {
            let tw = &self.twiddles[half - 1..2 * half - 1];
            for chunk in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let t = v.mul(w);
                    let a = *u;
                    *u = a.add(t);
                    *v = a.sub(t);
                }
            }
            half <<= 1;
        }
    }

    /// One-sided power spectrum of a real signal, zero-padded to the
    /// planned length: `n/2 + 1` bins written to `out`, with `buf` as the
    /// transform's scratch. Samples are multiplied by `window` on the way
    /// in (pass `None` for a rectangular window).
    ///
    /// # Panics
    ///
    /// Panics if `signal` is longer than the plan, `window` is shorter than
    /// `signal`, or `out` does not hold `n/2 + 1` bins.
    pub fn power_spectrum_into(
        &self,
        signal: &[f32],
        window: Option<&[f32]>,
        buf: &mut Vec<Complex>,
        out: &mut [f32],
    ) {
        let n = self.len();
        assert!(signal.len() <= n, "signal longer than the planned FFT");
        assert_eq!(out.len(), n / 2 + 1, "spectrum size mismatch");
        buf.clear();
        match window {
            Some(win) => {
                assert!(win.len() >= signal.len(), "window shorter than signal");
                buf.extend(
                    signal
                        .iter()
                        .zip(win)
                        .map(|(&s, &w)| Complex::new(s * w, 0.0)),
                );
            }
            None => buf.extend(signal.iter().map(|&s| Complex::new(s, 0.0))),
        }
        buf.resize(n, Complex::default());
        self.transform(buf);
        for (o, c) in out.iter_mut().zip(buf.iter()) {
            *o = c.norm_sq() / n as f32;
        }
    }
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

    /// Plans and runs one transform.
    fn fft_in_place(buf: &mut [Complex]) {
        FftPlan::new(buf.len()).transform(buf);
    }

    /// The rectangular-window power spectrum of `signal` on an `n`-point
    /// plan.
    fn spectrum(signal: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0; n / 2 + 1];
        FftPlan::new(n).power_spectrum_into(signal, None, &mut Vec::new(), &mut out);
        out
    }

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

    /// The unplanned transform: twiddles recomputed by the recurrence in
    /// every block of every stage.
    fn fft_recurrence(buf: &mut [Complex]) {
        let n = buf.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32)
                .reverse_bits()
                .checked_shr(32 - bits)
                .unwrap_or(0)) as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
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

    #[test]
    fn planned_transform_is_bit_identical_to_the_recurrence() {
        for bits in 0..=10 {
            let n = 1usize << bits;
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
                .collect();
            let mut planned = signal.clone();
            FftPlan::new(n).transform(&mut planned);
            let mut oracle = signal;
            fft_recurrence(&mut oracle);
            for (k, (a, b)) in planned.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "n = {n}, bin {k}"
                );
            }
        }
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
        let spec = spectrum(&signal, n);
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
        // 400 samples on a 512-point plan read as the explicitly padded
        // signal.
        let mut padded = vec![1.0; 400];
        padded.resize(512, 0.0);
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(spectrum(&[1.0; 400], 512)),
            bits(spectrum(&padded, 512))
        );
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
