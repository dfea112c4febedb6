//! MFCC feature extraction: framing → Hamming → FFT → mel filterbank →
//! log → DCT-II. The KWS front-end searched by eNAS (stripe `s`, duration
//! `d`, features `f`, Table II).

use crate::fft::{fft_cycles, Complex, FftPlan};
use crate::params::AudioFrontendParams;
use crate::window::{hamming, FrameSpec};

/// Converts hertz to mel.
fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel to hertz.
fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank over one-sided FFT bins.
#[derive(Debug, Clone, PartialEq)]
pub struct MelFilterbank {
    filters: Vec<Vec<(usize, f32)>>,
    n_bins: usize,
}

impl MelFilterbank {
    /// Builds `n_filters` triangular filters covering `[f_min, f_max]` hertz
    /// for a spectrum of `n_bins` one-sided bins at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `n_filters` is zero, `n_bins < 2`, or the band is empty.
    pub fn new(n_filters: usize, n_bins: usize, sample_rate: f64, f_min: f64, f_max: f64) -> Self {
        assert!(n_filters > 0, "need at least one filter");
        assert!(n_bins >= 2, "need at least two spectrum bins");
        assert!(f_min < f_max, "empty frequency band");
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        // n_filters + 2 anchor points, evenly spaced on the mel scale.
        let anchors: Vec<f64> = (0..n_filters + 2)
            .map(|i| {
                let mel = mel_lo + (mel_hi - mel_lo) * i as f64 / (n_filters + 1) as f64;
                mel_to_hz(mel)
            })
            .collect();
        let nyquist = sample_rate / 2.0;
        let bin_of = |hz: f64| (hz / nyquist * (n_bins - 1) as f64).round() as usize;
        let mut filters = Vec::with_capacity(n_filters);
        for m in 0..n_filters {
            let (lo, mid, hi) = (
                bin_of(anchors[m]),
                bin_of(anchors[m + 1]),
                bin_of(anchors[m + 2]),
            );
            let mut taps = Vec::new();
            for b in lo..=hi.min(n_bins - 1) {
                let w = if b < mid && mid > lo {
                    (b - lo) as f32 / (mid - lo) as f32
                } else if b >= mid && hi > mid {
                    (hi - b) as f32 / (hi - mid) as f32
                } else if b == mid {
                    1.0
                } else {
                    0.0
                };
                if w > 0.0 {
                    taps.push((b, w));
                }
            }
            // Degenerate narrow filters keep at least their centre bin.
            if taps.is_empty() {
                taps.push((mid.min(n_bins - 1), 1.0));
            }
            filters.push(taps);
        }
        Self { filters, n_bins }
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the bank has no filters (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Applies the bank to a one-sided power spectrum, into a reused
    /// buffer (its contents are replaced).
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len()` differs from the bank's bin count.
    pub fn apply_into(&self, spectrum: &[f32], out: &mut Vec<f32>) {
        assert_eq!(spectrum.len(), self.n_bins, "spectrum size mismatch");
        out.clear();
        out.extend(
            self.filters
                .iter()
                .map(|taps| taps.iter().map(|&(b, w)| spectrum[b] * w).sum::<f32>()),
        );
    }
}

/// A DCT-II of fixed length with its cosine basis tabulated once:
/// `cos(π/n · (i + ½) · k)` in f64 for every kept coefficient `k` and input
/// `i`. The values are the ones a per-call `f64::cos` would produce, and
/// each coefficient sums its terms in the same ascending-`i` order, so the
/// table changes speed only.
#[derive(Debug, Clone, PartialEq)]
struct DctTable {
    n: usize,
    /// Row `k` holds the `n` basis values of coefficient `k`.
    cos: Vec<f64>,
}

impl DctTable {
    /// Tabulates an `n`-point DCT-II keeping `n_out` coefficients (at most
    /// `n`).
    fn new(n: usize, n_out: usize) -> Self {
        let cos = (0..n_out.min(n))
            .flat_map(|k| {
                (0..n).map(move |i| {
                    let ang = std::f64::consts::PI / n as f64 * (i as f64 + 0.5) * k as f64;
                    ang.cos()
                })
            })
            .collect();
        Self { n, cos }
    }

    /// Appends the kept coefficients of `input` (`n` values) to `out`.
    fn apply(&self, input: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), self.n, "DCT input length");
        for basis in self.cos.chunks_exact(self.n) {
            let mut acc = 0.0f64;
            for (&x, &c) in input.iter().zip(basis) {
                acc += x as f64 * c;
            }
            out.push(acc as f32);
        }
    }
}

/// Standardizes a clip's features in place to zero mean and unit variance
/// (the standard deviation floored at 1e-6) — the per-clip normalization
/// shared by the training datasets and streaming inference.
pub fn standardize(features: &mut [f32]) {
    let n = features.len() as f32;
    let mean = features.iter().sum::<f32>() / n;
    let var = features.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    for v in features.iter_mut() {
        *v = (*v - mean) / std;
    }
}

/// The complete MFCC extractor for a given front-end parameterization.
///
/// # Examples
///
/// ```
/// use solarml_dsp::{AudioFrontendParams, MfccExtractor, MfccScratch};
///
/// # fn main() -> Result<(), String> {
/// let params = AudioFrontendParams::new(20, 25, 13)?;
/// let extractor = MfccExtractor::new(params, 16_000.0);
/// let clip = vec![0.1f32; 16_000]; // 1 s of audio
/// let mut features = Vec::new();
/// extractor.extract_into(&clip, &mut MfccScratch::default(), &mut features);
/// assert_eq!(extractor.feature_width(), 13); // coefficients per frame
/// assert_eq!(features.len(), 49 * 13);       // 49 frames
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    params: AudioFrontendParams,
    sample_rate: f64,
    window_fn: Vec<f32>,
    spec: FrameSpec,
    fft: FftPlan,
    bank: MelFilterbank,
    dct: DctTable,
}

/// Reusable buffers for [`MfccExtractor::extract_into`]: one set serves
/// every frame of every clip an extractor processes.
#[derive(Debug, Clone, Default)]
pub struct MfccScratch {
    fft: Vec<Complex>,
    spectrum: Vec<f32>,
    mel: Vec<f32>,
}

impl MfccExtractor {
    /// Builds an extractor for `params` at `sample_rate` Hz.
    pub fn new(params: AudioFrontendParams, sample_rate: f64) -> Self {
        let window = params.window_samples(sample_rate);
        let hop = params.hop_samples(sample_rate);
        let spec = FrameSpec::new(window, hop);
        let n_fft = window.next_power_of_two();
        let bank = MelFilterbank::new(
            params.features() as usize,
            n_fft / 2 + 1,
            sample_rate,
            20.0,
            sample_rate / 2.0,
        );
        let features = params.features() as usize;
        Self {
            params,
            sample_rate,
            window_fn: hamming(window),
            spec,
            fft: FftPlan::new(n_fft),
            dct: DctTable::new(bank.len(), features),
            bank,
        }
    }

    /// The front-end parameters.
    pub fn params(&self) -> AudioFrontendParams {
        self.params
    }

    /// The audio sample rate.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Coefficients per frame: `f`.
    pub fn feature_width(&self) -> usize {
        self.dct.cos.len() / self.dct.n
    }

    /// Extracts MFCC features into one flat row-major buffer (its contents
    /// are replaced: [`MfccExtractor::feature_width`] coefficients per
    /// frame), with every intermediate buffer taken from `scratch`.
    pub fn extract_into(&self, clip: &[f32], scratch: &mut MfccScratch, out: &mut Vec<f32>) {
        let MfccScratch { fft, spectrum, mel } = scratch;
        let frames = self.spec.frame_count(clip.len());
        out.clear();
        out.reserve(frames * self.feature_width());
        spectrum.resize(self.fft.len() / 2 + 1, 0.0);
        for k in 0..frames {
            let frame = &clip[k * self.spec.hop..][..self.spec.window];
            self.fft
                .power_spectrum_into(frame, Some(&self.window_fn), fft, spectrum);
            self.bank.apply_into(spectrum, mel);
            for e in mel.iter_mut() {
                *e = e.max(1e-10).ln();
            }
            self.dct.apply(mel, out);
        }
    }

    /// CPU cycle estimate for extracting features from a clip of
    /// `clip_ms` milliseconds — the software half of the KWS `E_S`.
    pub fn cycles_for_clip(&self, clip_ms: u32) -> f64 {
        let frames = self.params.frames_for_clip(clip_ms) as f64;
        let window = self.params.window_samples(self.sample_rate);
        let n_fft = window.next_power_of_two();
        let f = self.params.features() as f64;
        // Per frame: windowing (~4 cycles/sample), FFT, mel (~6 cycles/tap,
        // ≈ 2·n_bins taps total), log (~60 cycles each), DCT (f² MACs at
        // ~8 cycles each).
        let per_frame = 4.0 * window as f64
            + fft_cycles(n_fft)
            + 6.0 * (n_fft / 2 + 1) as f64 * 2.0
            + 60.0 * f
            + 8.0 * f * f;
        frames * per_frame
    }
}

/// Convenience: cycle estimate for a parameterization without building the
/// extractor.
pub fn mfcc_cycles(params: AudioFrontendParams, sample_rate: f64, clip_ms: u32) -> f64 {
    MfccExtractor::new(params, sample_rate).cycles_for_clip(clip_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One row of coefficients per frame.
    fn extract(ex: &MfccExtractor, clip: &[f32]) -> Vec<Vec<f32>> {
        let mut flat = Vec::new();
        ex.extract_into(clip, &mut MfccScratch::default(), &mut flat);
        flat.chunks_exact(ex.feature_width())
            .map(<[f32]>::to_vec)
            .collect()
    }

    fn apply(bank: &MelFilterbank, spectrum: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        bank.apply_into(spectrum, &mut out);
        out
    }

    #[test]
    fn mel_scale_roundtrip() {
        for hz in [100.0, 440.0, 1000.0, 4000.0, 8000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() / hz < 1e-9);
        }
    }

    #[test]
    fn filterbank_covers_all_filters() {
        let bank = MelFilterbank::new(13, 257, 16_000.0, 20.0, 8000.0);
        assert_eq!(bank.len(), 13);
        let flat = vec![1.0f32; 257];
        let out = apply(&bank, &flat);
        assert!(out.iter().all(|&e| e > 0.0), "every filter has taps");
    }

    #[test]
    fn filterbank_many_narrow_filters_survive() {
        // 40 filters over a small FFT: narrow filters must not vanish.
        let bank = MelFilterbank::new(40, 129, 16_000.0, 20.0, 8000.0);
        let flat = vec![1.0f32; 129];
        let out = apply(&bank, &flat);
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|&e| e > 0.0));
    }

    #[test]
    #[should_panic(expected = "spectrum size mismatch")]
    fn wrong_spectrum_size_panics() {
        let bank = MelFilterbank::new(13, 257, 16_000.0, 20.0, 8000.0);
        let _ = apply(&bank, &[0.0; 100]);
    }

    /// The per-call-cosine DCT-II the table replaced.
    fn dct_ii(input: &[f32], n_out: usize) -> Vec<f32> {
        let n = input.len();
        (0..n_out.min(n))
            .map(|k| {
                let mut acc = 0.0f64;
                for (i, &x) in input.iter().enumerate() {
                    let ang = std::f64::consts::PI / n as f64 * (i as f64 + 0.5) * k as f64;
                    acc += x as f64 * ang.cos();
                }
                acc as f32
            })
            .collect()
    }

    fn table_dct(input: &[f32], n_out: usize) -> Vec<f32> {
        let mut out = Vec::new();
        DctTable::new(input.len(), n_out).apply(input, &mut out);
        out
    }

    #[test]
    fn dct_of_constant_concentrates_in_dc() {
        let out = table_dct(&[1.0; 16], 4);
        assert!(out[0].abs() > 10.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn table_dct_is_bit_identical_to_per_call_cosines() {
        for f in 10..=40usize {
            let input: Vec<f32> = (0..f)
                .map(|i| ((i * 7 + f) as f32 * 0.31).sin() * 4.0 - 9.0)
                .collect();
            let want: Vec<u32> = dct_ii(&input, f).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = table_dct(&input, f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{f} features");
        }
    }

    #[test]
    fn extractor_shapes_follow_params() {
        let params = AudioFrontendParams::new(10, 30, 20).expect("valid");
        let ex = MfccExtractor::new(params, 16_000.0);
        let clip = vec![0.0f32; 16_000];
        let feats = extract(&ex, &clip);
        assert_eq!(feats.len(), params.frames_for_clip(1000));
        assert_eq!(feats[0].len(), 20);
    }

    #[test]
    fn different_tones_produce_different_features() {
        let params = AudioFrontendParams::standard();
        let ex = MfccExtractor::new(params, 16_000.0);
        let tone = |freq: f64| -> Vec<f32> {
            (0..16_000)
                .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / 16_000.0).sin() as f32)
                .collect()
        };
        let low = extract(&ex, &tone(300.0));
        let high = extract(&ex, &tone(3000.0));
        let dist: f32 = low[10]
            .iter()
            .zip(&high[10])
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        assert!(dist > 1.0, "distinct tones must separate in MFCC space");
    }

    #[test]
    fn cycles_scale_with_feature_count_and_frames() {
        let small = mfcc_cycles(
            AudioFrontendParams::new(30, 25, 10).expect("valid"),
            16_000.0,
            1000,
        );
        let more_features = mfcc_cycles(
            AudioFrontendParams::new(30, 25, 40).expect("valid"),
            16_000.0,
            1000,
        );
        let more_frames = mfcc_cycles(
            AudioFrontendParams::new(10, 25, 10).expect("valid"),
            16_000.0,
            1000,
        );
        assert!(more_features > small);
        assert!(more_frames > 2.0 * small);
    }

    #[test]
    fn one_second_mfcc_is_a_few_million_cycles() {
        let c = mfcc_cycles(AudioFrontendParams::standard(), 16_000.0, 1000);
        // ~49 frames × ~80k cycles ≈ 4M cycles ≈ 60 ms at 64 MHz.
        assert!((1e6..2e7).contains(&c), "got {c:.0}");
    }

    proptest! {
        #[test]
        fn extract_never_panics_on_valid_params(
            s in 10u8..=30,
            d in 18u8..=30,
            f in 10u8..=40,
            seed in 0u64..1000,
        ) {
            let params = AudioFrontendParams::new(s, d, f).expect("valid");
            let ex = MfccExtractor::new(params, 16_000.0);
            // Deterministic pseudo-noise clip.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let clip: Vec<f32> = (0..8000)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                })
                .collect();
            let feats = extract(&ex, &clip);
            prop_assert_eq!(feats.len(), params.frames_for_clip(500));
            for row in &feats {
                prop_assert_eq!(row.len(), f as usize);
                prop_assert!(row.iter().all(|v| v.is_finite()));
            }
        }
    }
}
