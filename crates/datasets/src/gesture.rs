//! Synthetic digit-gesture recordings over the 3×3 sensing block.
//!
//! A hand (modelled as a Gaussian shadow blob) traces a digit-shaped
//! polyline over the unit square in which the nine sensing cells sit on a
//! 3×3 grid. Each cell's channel reports its illumination, dropping as the
//! blob passes over it. Per-sample jitter (position offset, scale, speed,
//! sensor noise) makes the classes realistically overlapping.

use rand::Rng;
use solarml_dsp::{preprocess_gesture, GestureSensingParams};
use solarml_nn::{ClassDataset, Tensor};

/// Raw sampling rate of the recordings (the hardware's maximum, Table II).
pub const RAW_RATE_HZ: f64 = 200.0;

/// Duration of one gesture recording in seconds.
pub const GESTURE_SECONDS: f64 = 2.0;

/// Number of digit classes.
pub const NUM_DIGITS: usize = 10;

/// Waypoint polylines for digits 0–9 on the unit square (x right, y down).
fn digit_path(digit: usize) -> Vec<(f64, f64)> {
    match digit {
        0 => vec![
            (0.5, 0.1),
            (0.15, 0.3),
            (0.15, 0.7),
            (0.5, 0.9),
            (0.85, 0.7),
            (0.85, 0.3),
            (0.5, 0.1),
        ],
        1 => vec![(0.5, 0.1), (0.5, 0.9)],
        2 => vec![
            (0.15, 0.25),
            (0.5, 0.1),
            (0.85, 0.3),
            (0.15, 0.9),
            (0.85, 0.9),
        ],
        3 => vec![
            (0.15, 0.15),
            (0.8, 0.2),
            (0.45, 0.5),
            (0.8, 0.75),
            (0.15, 0.9),
        ],
        4 => vec![(0.7, 0.9), (0.7, 0.1), (0.15, 0.65), (0.9, 0.65)],
        5 => vec![
            (0.85, 0.1),
            (0.2, 0.1),
            (0.2, 0.5),
            (0.7, 0.5),
            (0.85, 0.75),
            (0.2, 0.9),
        ],
        6 => vec![
            (0.7, 0.1),
            (0.25, 0.45),
            (0.2, 0.75),
            (0.55, 0.9),
            (0.8, 0.7),
            (0.3, 0.55),
        ],
        7 => vec![(0.15, 0.1), (0.85, 0.1), (0.35, 0.9)],
        8 => vec![
            (0.5, 0.5),
            (0.2, 0.3),
            (0.5, 0.1),
            (0.8, 0.3),
            (0.2, 0.7),
            (0.5, 0.9),
            (0.8, 0.7),
            (0.5, 0.5),
        ],
        9 => vec![
            (0.75, 0.35),
            (0.4, 0.1),
            (0.2, 0.35),
            (0.55, 0.5),
            (0.75, 0.35),
            (0.7, 0.9),
        ],
        _ => panic!("digit must be 0..=9, got {digit}"),
    }
}

/// Cell centre positions of the 3×3 sensing block, row-major.
fn cell_centers() -> [(f64, f64); 9] {
    let mut out = [(0.0, 0.0); 9];
    for r in 0..3 {
        for c in 0..3 {
            out[r * 3 + c] = (c as f64 / 2.0 * 0.7 + 0.15, r as f64 / 2.0 * 0.7 + 0.15);
        }
    }
    out
}

/// Position along a polyline at parameter `t ∈ [0, 1]` (arc-length
/// parameterized over segments of equal weight).
fn along_path(path: &[(f64, f64)], t: f64) -> (f64, f64) {
    if path.len() == 1 {
        return path[0];
    }
    let segs = path.len() - 1;
    let scaled = t.clamp(0.0, 1.0) * segs as f64;
    let i = (scaled.floor() as usize).min(segs - 1);
    let frac = scaled - i as f64;
    let (x0, y0) = path[i];
    let (x1, y1) = path[i + 1];
    (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)
}

/// The canonical (jitter-free) shading of the nine sensing cells while a
/// digit gesture is `t01 ∈ [0, 1]` of the way through its stroke.
///
/// This is the *physical* stimulus behind the synthetic recordings — the
/// platform's circuit simulation can replay it over the analog sensing path
/// (`solarml-platform`'s replay module) to cross-check the two pipelines.
///
/// # Panics
///
/// Panics if `digit > 9`.
pub fn canonical_shading(digit: usize, t01: f64, hand_radius: f64) -> [f64; 9] {
    let path = digit_path(digit);
    let (hx, hy) = along_path(&path, t01);
    let centers = cell_centers();
    let mut out = [0.0; 9];
    for (c, &(cx, cy)) in centers.iter().enumerate() {
        let d2 = (hx - cx).powi(2) + (hy - cy).powi(2);
        out[c] = (-d2 / (2.0 * hand_radius * hand_radius)).exp();
    }
    out
}

/// Configuration for generating a gesture corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GestureDatasetBuilder {
    /// Recordings generated per digit class.
    pub samples_per_class: usize,
    /// RNG seed (the corpus is fully determined by the builder).
    pub seed: u64,
    /// Sensor noise standard deviation (normalized units).
    pub noise: f64,
    /// Hand-shadow blob radius (fraction of the array width).
    pub hand_radius: f64,
}

impl Default for GestureDatasetBuilder {
    fn default() -> Self {
        Self {
            samples_per_class: 16,
            seed: 0xD161,
            noise: 0.20,
            hand_radius: 0.28,
        }
    }
}

impl GestureDatasetBuilder {
    /// Generates the corpus.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_class` is zero.
    pub fn build(&self) -> GestureDataset {
        assert!(
            self.samples_per_class > 0,
            "need at least one sample per class"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let centers = cell_centers();
        let total_samples = (RAW_RATE_HZ * GESTURE_SECONDS) as usize;
        let mut recordings = Vec::new();
        let mut labels = Vec::new();
        for digit in 0..NUM_DIGITS {
            let path = digit_path(digit);
            for _ in 0..self.samples_per_class {
                // Per-recording jitter.
                let dx = rng.gen_range(-0.12f64..0.12);
                let dy = rng.gen_range(-0.12f64..0.12);
                let scale = rng.gen_range(0.75f64..1.25);
                let speed_warp = rng.gen_range(0.7f64..1.4);
                let radius = self.hand_radius * rng.gen_range(0.8f64..1.25);
                let mut channels = vec![Vec::with_capacity(total_samples); 9];
                for s in 0..total_samples {
                    let t =
                        ((s as f64 / (total_samples - 1) as f64).powf(speed_warp)).clamp(0.0, 1.0);
                    let (hx, hy) = along_path(&path, t);
                    let (hx, hy) = (0.5 + (hx - 0.5) * scale + dx, 0.5 + (hy - 0.5) * scale + dy);
                    for (c, &(cx, cy)) in centers.iter().enumerate() {
                        let d2 = (hx - cx).powi(2) + (hy - cy).powi(2);
                        let shading = (-d2 / (2.0 * radius * radius)).exp();
                        let lit = 1.0 - 0.9 * shading;
                        let noisy = lit + rng.gen_range(-1.0f64..1.0) * self.noise;
                        channels[c].push(noisy.clamp(0.0, 1.2) as f32);
                    }
                }
                recordings.push(channels);
                labels.push(digit);
            }
        }
        GestureDataset { recordings, labels }
    }
}

/// A corpus of raw 9-channel gesture recordings at [`RAW_RATE_HZ`].
#[derive(Debug, Clone)]
pub struct GestureDataset {
    recordings: Vec<Vec<Vec<f32>>>,
    labels: Vec<usize>,
}

impl GestureDataset {
    /// Number of recordings.
    pub fn len(&self) -> usize {
        self.recordings.len()
    }

    /// Whether the corpus is empty (never true after building).
    pub fn is_empty(&self) -> bool {
        self.recordings.is_empty()
    }

    /// One raw recording: `[channel][sample]` plus its digit label.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn recording(&self, i: usize) -> (&[Vec<f32>], usize) {
        (&self.recordings[i], self.labels[i])
    }

    /// The digit labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Applies the searchable front-end and produces a training set whose
    /// input tensors have shape `[time, channels, 1]`.
    pub fn to_class_dataset(&self, params: &GestureSensingParams) -> ClassDataset {
        let inputs: Vec<Tensor> = self
            .recordings
            .iter()
            .map(|rec| {
                let out = preprocess_gesture(rec, RAW_RATE_HZ, params);
                let t = out.samples.len();
                let n = params.channels() as usize;
                let flat: Vec<f32> = out.samples.into_iter().flatten().collect();
                Tensor::from_vec([t, n, 1], flat)
            })
            .collect();
        ClassDataset::new(inputs, self.labels.clone(), NUM_DIGITS)
    }

    /// Splits into train/test corpora with `test_fraction` of each class's
    /// samples held out (samples are grouped by class in generation order).
    ///
    /// # Panics
    ///
    /// Panics if the fraction does not leave at least one sample on each
    /// side per class.
    pub fn split(&self, test_fraction: f64) -> (GestureDataset, GestureDataset) {
        split_by_class(&self.recordings, &self.labels, NUM_DIGITS, test_fraction).map_tuple(
            |(r, l)| GestureDataset {
                recordings: r,
                labels: l,
            },
        )
    }
}

/// Splits parallel sample/label vectors per class.
pub(crate) struct SplitResult<T> {
    pub(crate) train: (Vec<T>, Vec<usize>),
    pub(crate) test: (Vec<T>, Vec<usize>),
}

impl<T> SplitResult<T> {
    pub(crate) fn map_tuple<U>(self, f: impl Fn((Vec<T>, Vec<usize>)) -> U) -> (U, U) {
        (f(self.train), f(self.test))
    }
}

pub(crate) fn split_by_class<T: Clone>(
    samples: &[T],
    labels: &[usize],
    num_classes: usize,
    test_fraction: f64,
) -> SplitResult<T> {
    assert!(
        (0.0..1.0).contains(&test_fraction) && test_fraction > 0.0,
        "test fraction must be in (0,1)"
    );
    let mut train = (Vec::new(), Vec::new());
    let mut test = (Vec::new(), Vec::new());
    for class in 0..num_classes {
        let idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        let n_test = ((idx.len() as f64 * test_fraction).round() as usize)
            .clamp(1, idx.len().saturating_sub(1).max(1));
        assert!(
            idx.len() >= 2,
            "class {class} needs at least 2 samples to split"
        );
        for (k, &i) in idx.iter().enumerate() {
            if k < idx.len() - n_test {
                train.0.push(samples[i].clone());
                train.1.push(labels[i]);
            } else {
                test.0.push(samples[i].clone());
                test.1.push(labels[i]);
            }
        }
    }
    SplitResult { train, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_dsp::Resolution;

    fn small_corpus() -> GestureDataset {
        GestureDatasetBuilder {
            samples_per_class: 4,
            ..GestureDatasetBuilder::default()
        }
        .build()
    }

    #[test]
    fn corpus_has_expected_size_and_shape() {
        let d = small_corpus();
        assert_eq!(d.len(), 40);
        let (rec, label) = d.recording(0);
        assert_eq!(label, 0);
        assert_eq!(rec.len(), 9);
        assert_eq!(rec[0].len(), 400);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.recording(7).0, b.recording(7).0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_corpus();
        let b = GestureDatasetBuilder {
            samples_per_class: 4,
            seed: 1,
            ..GestureDatasetBuilder::default()
        }
        .build();
        assert_ne!(a.recording(0).0, b.recording(0).0);
    }

    #[test]
    fn gestures_shade_the_cells() {
        let d = small_corpus();
        let (rec, _) = d.recording(0);
        // Some channel must dip well below fully lit at some point.
        let min = rec
            .iter()
            .flat_map(|ch| ch.iter())
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(min < 0.5, "hand shadow should dip channels, min={min}");
    }

    #[test]
    fn classes_are_distinguishable_by_mean_profile() {
        // Mean per-channel energy differs between digit 1 (vertical center
        // stroke) and digit 7 (top stroke + diagonal).
        let d = GestureDatasetBuilder {
            samples_per_class: 6,
            noise: 0.0,
            ..GestureDatasetBuilder::default()
        }
        .build();
        let profile = |digit: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; 9];
            let mut n = 0;
            for i in 0..d.len() {
                let (rec, label) = d.recording(i);
                if label != digit {
                    continue;
                }
                for (c, ch) in rec.iter().enumerate() {
                    acc[c] += ch.iter().sum::<f32>() / ch.len() as f32;
                }
                n += 1;
            }
            acc.iter().map(|v| v / n as f32).collect()
        };
        let p1 = profile(1);
        let p7 = profile(7);
        let dist: f32 = p1.iter().zip(&p7).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(dist > 0.01, "digit profiles must differ, dist={dist}");
    }

    #[test]
    fn to_class_dataset_respects_sensing_params() {
        let d = small_corpus();
        let params = GestureSensingParams::new(4, 50, Resolution::Int, 6).expect("valid");
        let ds = d.to_class_dataset(&params);
        assert_eq!(ds.len(), 40);
        assert_eq!(ds.input_shape(), &[100, 4, 1]);
        assert_eq!(ds.num_classes(), 10);
    }

    #[test]
    fn split_holds_out_per_class() {
        let d = small_corpus();
        let (train, test) = d.split(0.25);
        assert_eq!(train.len(), 30);
        assert_eq!(test.len(), 10);
        // Every class appears in both.
        for class in 0..10 {
            assert!(train.labels().iter().any(|&l| l == class));
            assert!(test.labels().iter().any(|&l| l == class));
        }
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn bad_fraction_rejected() {
        let _ = small_corpus().split(0.0);
    }

    #[test]
    fn along_path_endpoints() {
        let path = vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)];
        assert_eq!(along_path(&path, 0.0), (0.0, 0.0));
        assert_eq!(along_path(&path, 1.0), (1.0, 1.0));
        let (x, y) = along_path(&path, 0.5);
        assert!((x - 1.0).abs() < 1e-9 && y.abs() < 1e-9);
    }

    #[test]
    fn all_digit_paths_inside_unit_square() {
        for digit in 0..10 {
            for (x, y) in digit_path(digit) {
                assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
            }
        }
    }
}
