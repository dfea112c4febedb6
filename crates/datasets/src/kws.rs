//! Synthetic keyword-spotting audio.
//!
//! Each keyword class is a sequence of two "phonemes"; each phoneme is a
//! harmonic stack around class-specific formant frequencies with an
//! amplitude envelope. Per-utterance jitter (pitch, formant drift, timing,
//! noise) spreads the classes realistically. This is not speech, but it
//! exercises exactly the code path the paper's KWS pipeline exercises:
//! PCM → framing → MFCC → CNN.

use std::ops::Range;

use rand::Rng;
use solarml_dsp::{standardize, AudioFrontendParams, MfccExtractor, MfccScratch};
use solarml_nn::{ClassDataset, Tensor};

use crate::gesture::split_by_class;

/// The ten keyword classes (mirroring the Speech Commands core set the
/// tinyMLPerf KWS task uses).
pub const KEYWORDS: [&str; 10] = [
    "yes", "no", "up", "down", "left", "right", "on", "off", "stop", "go",
];

/// PCM sample rate of the synthesized clips.
pub const AUDIO_RATE_HZ: f64 = 16_000.0;

/// Clip length in milliseconds.
pub const CLIP_MS: u32 = 1000;

/// Per-class formant recipes: two phonemes of `(f1, f2)` formants in hertz.
fn keyword_formants(class: usize) -> [(f64, f64); 2] {
    // Spread across the vowel space so classes are separable but neighbours
    // overlap under coarse front-ends.
    const TABLE: [[(f64, f64); 2]; 10] = [
        [(300.0, 2300.0), (600.0, 1200.0)], // yes
        [(500.0, 900.0), (700.0, 1100.0)],  // no
        [(350.0, 1200.0), (500.0, 1700.0)], // up
        [(600.0, 1000.0), (800.0, 1400.0)], // down
        [(400.0, 2000.0), (350.0, 1500.0)], // left
        [(450.0, 1800.0), (600.0, 2200.0)], // right
        [(550.0, 800.0), (450.0, 1000.0)],  // on
        [(500.0, 1400.0), (400.0, 800.0)],  // off
        [(300.0, 1600.0), (700.0, 900.0)],  // stop
        [(650.0, 1300.0), (550.0, 1900.0)], // go
    ];
    TABLE[class]
}

/// Configuration for generating a KWS corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwsDatasetBuilder {
    /// Utterances generated per keyword.
    pub samples_per_class: usize,
    /// RNG seed.
    pub seed: u64,
    /// Background noise amplitude.
    pub noise: f64,
}

impl Default for KwsDatasetBuilder {
    fn default() -> Self {
        Self {
            samples_per_class: 16,
            seed: 0xA0D10,
            noise: 0.12,
        }
    }
}

impl KwsDatasetBuilder {
    /// Generates the corpus.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_class` is zero.
    pub fn build(&self) -> KwsDataset {
        self.build_with(render_phoneme)
    }

    /// Draws the corpus, adding each phoneme to its clip with `render`.
    fn build_with(&self, render: PhonemeRenderer) -> KwsDataset {
        assert!(
            self.samples_per_class > 0,
            "need at least one sample per class"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let total = (AUDIO_RATE_HZ * CLIP_MS as f64 / 1000.0) as usize;
        let mut clips = Vec::new();
        let mut labels = Vec::new();
        for class in 0..KEYWORDS.len() {
            let formants = keyword_formants(class);
            for _ in 0..self.samples_per_class {
                let pitch = rng.gen_range(85.0f64..180.0); // f0
                let drift = rng.gen_range(0.86f64..1.16);
                let onset = rng.gen_range(0.05f64..0.2); // fraction of clip
                let phoneme_len = rng.gen_range(0.25f64..0.35);
                let mut clip = vec![0.0f32; total];
                for (p, &(f1, f2)) in formants.iter().enumerate() {
                    let start = onset + p as f64 * (phoneme_len + 0.05);
                    let end = (start + phoneme_len).min(0.98);
                    let s0 = (start * total as f64) as usize;
                    let s1 = (end * total as f64) as usize;
                    render(&mut clip, s0..s1, pitch, (f1 * drift, f2 * drift));
                }
                // Background noise over the whole clip.
                for s in clip.iter_mut() {
                    *s += (rng.gen_range(-1.0f64..1.0) * self.noise) as f32;
                }
                clips.push(clip);
                labels.push(class);
            }
        }
        KwsDataset { clips, labels }
    }
}

/// Adds one phoneme to a clip: the span of samples it covers, its pitch `f0`,
/// and its (drifted) formants `(f1, f2)`.
type PhonemeRenderer = fn(&mut [f32], Range<usize>, f64, (f64, f64));

/// The harmonics of `pitch` below 4 kHz that carry weight, as
/// `(frequency, amplitude)` in ascending harmonic order: each harmonic is
/// weighted by its proximity to the formants `f1` and `f2`, and those at or
/// below `1e-3` are dropped.
fn harmonic_partials(pitch: f64, f1: f64, f2: f64) -> Vec<(f64, f64)> {
    let mut partials = Vec::new();
    let mut h = 1.0;
    while h * pitch < 4000.0 {
        let f = h * pitch;
        let w1 = (-(f - f1).powi(2) / (2.0 * 120.0f64.powi(2))).exp();
        let w2 = 0.7 * (-(f - f2).powi(2) / (2.0 * 180.0f64.powi(2))).exp();
        let amp = (w1 + w2) / h.sqrt();
        if amp > 1e-3 {
            partials.push((f, amp));
        }
        h += 1.0;
    }
    partials
}

/// Adds a harmonic stack under a raised-cosine envelope over `span`. The
/// partials are weighted once per phoneme; each sample then sums the same
/// terms, in the same order, that a per-sample weighting would keep.
fn render_phoneme(clip: &mut [f32], span: Range<usize>, pitch: f64, (f1, f2): (f64, f64)) {
    let partials = harmonic_partials(pitch, f1, f2);
    let (s0, s1) = (span.start, span.end);
    for s in s0..s1.min(clip.len()) {
        let t = s as f64 / AUDIO_RATE_HZ;
        // Raised-cosine envelope over the phoneme.
        let u = (s - s0) as f64 / (s1 - s0).max(1) as f64;
        let env = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * u).cos());
        let v = partials.iter().fold(0.0, |v, &(f, amp)| {
            v + amp * (2.0 * std::f64::consts::PI * f * t).sin()
        });
        clip[s] += (0.4 * env * v) as f32;
    }
}

/// A corpus of synthesized keyword clips at [`AUDIO_RATE_HZ`].
#[derive(Debug, Clone)]
pub struct KwsDataset {
    clips: Vec<Vec<f32>>,
    labels: Vec<usize>,
}

impl KwsDataset {
    /// Number of clips.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// Whether the corpus is empty (never true after building).
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// One clip and its label.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn clip(&self, i: usize) -> (&[f32], usize) {
        (&self.clips[i], self.labels[i])
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Applies the searchable MFCC front-end, producing inputs of shape
    /// `[frames, features, 1]`.
    pub fn to_class_dataset(&self, params: &AudioFrontendParams) -> ClassDataset {
        let extractor = MfccExtractor::new(*params, AUDIO_RATE_HZ);
        let mut scratch = MfccScratch::default();
        let f = params.features() as usize;
        let inputs: Vec<Tensor> = self
            .clips
            .iter()
            .map(|clip| {
                let mut flat = Vec::new();
                extractor.extract_into(clip, &mut scratch, &mut flat);
                // Per-clip standardization keeps training well-conditioned.
                standardize(&mut flat);
                Tensor::from_vec([flat.len() / f, f, 1], flat)
            })
            .collect();
        ClassDataset::new(inputs, self.labels.clone(), KEYWORDS.len())
    }

    /// Composes a continuous audio stream from the given clip indices,
    /// separated by `gap_ms` of near-silence (low-level noise). Returns the
    /// stream plus the ground-truth `(onset_seconds, label)` of each planted
    /// keyword — the input for streaming-detection evaluation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn compose_stream(&self, indices: &[usize], gap_ms: u32) -> (Vec<f32>, Vec<(f64, usize)>) {
        use rand::{Rng as _, SeedableRng as _};
        let gap_samples = (AUDIO_RATE_HZ * gap_ms as f64 / 1000.0) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57AE);
        let mut stream: Vec<f32> = Vec::new();
        let mut truth = Vec::new();
        let silence = |rng: &mut rand::rngs::StdRng, out: &mut Vec<f32>| {
            for _ in 0..gap_samples {
                out.push(rng.gen_range(-0.005f32..0.005));
            }
        };
        silence(&mut rng, &mut stream);
        for &i in indices {
            let (clip, label) = self.clip(i);
            truth.push((stream.len() as f64 / AUDIO_RATE_HZ, label));
            stream.extend_from_slice(clip);
            silence(&mut rng, &mut stream);
        }
        (stream, truth)
    }

    /// Splits into train/test corpora per class, moving every clip into one
    /// of the halves.
    ///
    /// # Panics
    ///
    /// Panics if the fraction does not leave both halves non-empty per class.
    pub fn split(self, test_fraction: f64) -> (KwsDataset, KwsDataset) {
        split_by_class(self.clips, self.labels, KEYWORDS.len(), test_fraction)
            .map_tuple(|(clips, labels)| KwsDataset { clips, labels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-sample renderer the partial table replaced: every sample
    /// re-weights every harmonic below 4 kHz.
    fn render_phoneme_per_sample(
        clip: &mut [f32],
        span: Range<usize>,
        pitch: f64,
        (f1, f2): (f64, f64),
    ) {
        let (s0, s1) = (span.start, span.end);
        for s in s0..s1.min(clip.len()) {
            let t = s as f64 / AUDIO_RATE_HZ;
            let u = (s - s0) as f64 / (s1 - s0).max(1) as f64;
            let env = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * u).cos());
            let mut v = 0.0;
            let mut h = 1.0;
            while h * pitch < 4000.0 {
                let f = h * pitch;
                let w1 = (-(f - f1).powi(2) / (2.0 * 120.0f64.powi(2))).exp();
                let w2 = 0.7 * (-(f - f2).powi(2) / (2.0 * 180.0f64.powi(2))).exp();
                let amp = (w1 + w2) / h.sqrt();
                if amp > 1e-3 {
                    v += amp * (2.0 * std::f64::consts::PI * f * t).sin();
                }
                h += 1.0;
            }
            clip[s] += (0.4 * env * v) as f32;
        }
    }

    #[test]
    fn partial_table_is_bit_identical_to_per_sample_weights() {
        let builders = [
            (1, 0x50AA, 0.12),
            (3, 0xA0D10, 0.12),
            (1, 7, 0.0),
            (3, 0xDEAD_BEEF, 0.3),
            (1, 42, 0.05),
        ];
        for (samples_per_class, seed, noise) in builders {
            let builder = KwsDatasetBuilder {
                samples_per_class,
                seed,
                noise,
            };
            let got = builder.build();
            let want = builder.build_with(render_phoneme_per_sample);
            assert_eq!(got.labels(), want.labels());
            for i in 0..want.len() {
                let bits = |c: &KwsDataset| -> Vec<u32> {
                    c.clip(i).0.iter().map(|v| v.to_bits()).collect()
                };
                assert!(
                    bits(&got) == bits(&want),
                    "{samples_per_class} per class, seed {seed:#x}, noise {noise}: clip {i}"
                );
            }
        }
    }

    fn small_corpus() -> KwsDataset {
        KwsDatasetBuilder {
            samples_per_class: 3,
            ..KwsDatasetBuilder::default()
        }
        .build()
    }

    #[test]
    fn corpus_size_and_clip_length() {
        let d = small_corpus();
        assert_eq!(d.len(), 30);
        assert_eq!(d.clip(0).0.len(), 16_000);
    }

    #[test]
    fn deterministic_generation() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.clip(13).0, b.clip(13).0);
    }

    #[test]
    fn clips_have_signal_above_noise() {
        let d = small_corpus();
        let (clip, _) = d.clip(0);
        let rms: f32 = (clip.iter().map(|v| v * v).sum::<f32>() / clip.len() as f32).sqrt();
        assert!(rms > 0.02, "keyword clips should carry energy, rms={rms}");
    }

    #[test]
    fn classes_separate_in_spectral_mean() {
        let d = KwsDatasetBuilder {
            samples_per_class: 4,
            noise: 0.0,
            ..KwsDatasetBuilder::default()
        }
        .build();
        let params = AudioFrontendParams::standard();
        let ds = d.to_class_dataset(&params);
        // Class centroids in flattened feature space differ pairwise for a
        // few spot-checked pairs.
        let centroid = |class: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; ds.inputs()[0].len()];
            let mut n = 0;
            for i in 0..ds.len() {
                let (x, l) = ds.sample(i);
                if l == class {
                    for (a, &v) in acc.iter_mut().zip(x.data()) {
                        *a += v;
                    }
                    n += 1;
                }
            }
            acc.iter().map(|v| v / n as f32).collect()
        };
        let c0 = centroid(0);
        let c1 = centroid(1);
        let dist: f32 = c0.iter().zip(&c1).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(dist > 1.0, "yes/no centroids must differ, dist={dist}");
    }

    #[test]
    fn to_class_dataset_shapes_follow_frontend() {
        let d = small_corpus();
        let params = AudioFrontendParams::new(30, 30, 10).expect("valid");
        let ds = d.to_class_dataset(&params);
        let frames = params.frames_for_clip(CLIP_MS);
        assert_eq!(ds.input_shape(), &[frames, 10, 1]);
    }

    #[test]
    fn split_partitions_classes() {
        let d = small_corpus();
        let (train, test) = d.split(0.34);
        assert_eq!(train.len() + test.len(), 30);
        for class in 0..10 {
            assert!(train.labels().iter().any(|&l| l == class));
            assert!(test.labels().iter().any(|&l| l == class));
        }
    }

    #[test]
    fn compose_stream_places_keywords_at_reported_onsets() {
        let d = small_corpus();
        let (stream, truth) = d.compose_stream(&[0, 5], 500);
        // 0.5 s gap + 1 s clip + 0.5 s gap + 1 s clip + 0.5 s gap = 3.5 s.
        assert_eq!(stream.len(), 56_000);
        assert_eq!(truth.len(), 2);
        assert!((truth[0].0 - 0.5).abs() < 1e-9);
        assert!((truth[1].0 - 2.0).abs() < 1e-9);
        // The planted spans carry signal, the gaps are near-silent.
        let rms = |a: &[f32]| (a.iter().map(|v| v * v).sum::<f32>() / a.len() as f32).sqrt();
        let clip_span = &stream[(0.6 * 16_000.0) as usize..(1.3 * 16_000.0) as usize];
        let gap_span = &stream[..(0.4 * 16_000.0) as usize];
        assert!(rms(clip_span) > 5.0 * rms(gap_span));
    }

    #[test]
    fn features_are_standardized() {
        let d = small_corpus();
        let ds = d.to_class_dataset(&AudioFrontendParams::standard());
        let x = &ds.inputs()[0];
        let mean: f32 = x.data().iter().sum::<f32>() / x.len() as f32;
        assert!(mean.abs() < 1e-3);
    }
}
