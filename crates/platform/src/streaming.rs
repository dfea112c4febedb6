//! Streaming keyword spotting: continuous detection over a long audio
//! stream.
//!
//! The paper's KWS evaluation is clip-based (the platform wakes, records a
//! one-second window, infers once). A deployed always-listening system
//! instead slides windows over a continuous stream and fires on confident,
//! smoothed posteriors. This module provides that deployment layer on top
//! of the clip classifier: an energy gate skips silent windows (so quiet
//! stretches cost no inference), posteriors are averaged over consecutive
//! windows, and a refractory period suppresses duplicate detections.

use solarml_dsp::{standardize, AudioFrontendParams, MfccExtractor, MfccScratch};
use solarml_nn::{Model, Tensor};
use solarml_units::Seconds;

/// Configuration of the streaming detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingKwsConfig {
    /// The MFCC front-end (must match the classifier's training front-end).
    pub frontend: AudioFrontendParams,
    /// PCM sample rate of the stream.
    pub sample_rate: f64,
    /// Analysis window length in milliseconds (the classifier's clip size).
    pub window_ms: u32,
    /// Hop between analysis windows in milliseconds.
    pub hop_ms: u32,
    /// Minimum smoothed posterior to fire a detection.
    pub confidence_threshold: f32,
    /// Number of consecutive windows averaged for the posterior.
    pub smoothing_windows: usize,
    /// Minimum window RMS to run inference at all (the energy gate).
    pub min_rms: f32,
    /// Dead time after a detection during which no new detection fires.
    pub refractory_ms: u32,
}

impl StreamingKwsConfig {
    /// Sensible defaults for 16 kHz streams and one-second classifiers.
    pub fn standard(frontend: AudioFrontendParams) -> Self {
        Self {
            frontend,
            sample_rate: 16_000.0,
            window_ms: 1000,
            hop_ms: 250,
            confidence_threshold: 0.65,
            smoothing_windows: 1,
            min_rms: 0.01,
            refractory_ms: 750,
        }
    }
}

/// One fired detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Predicted keyword class.
    pub class: usize,
    /// Time of the *start* of the window that fired.
    pub at: Seconds,
    /// Smoothed posterior at firing time.
    pub confidence: f32,
}

/// Statistics of one streaming pass.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingReport {
    /// Detections fired, in time order.
    pub detections: Vec<Detection>,
    /// Analysis windows examined.
    pub windows: usize,
    /// Windows skipped by the energy gate (no inference paid).
    pub gated_windows: usize,
    /// Inferences actually executed.
    pub inferences: usize,
}

/// A streaming KWS detector wrapping a trained clip classifier.
#[derive(Debug)]
pub struct StreamingKws {
    model: Model,
    extractor: MfccExtractor,
    config: StreamingKwsConfig,
}

impl StreamingKws {
    /// Wraps a trained model. The model's input shape must match the
    /// front-end's `[frames, features, 1]` for the configured window.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero hop or window).
    pub fn new(model: Model, config: StreamingKwsConfig) -> Self {
        assert!(
            config.window_ms > 0 && config.hop_ms > 0,
            "degenerate windowing"
        );
        assert!(
            config.smoothing_windows > 0,
            "need at least one smoothing window"
        );
        let extractor = MfccExtractor::new(config.frontend, config.sample_rate);
        Self {
            model,
            extractor,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamingKwsConfig {
        &self.config
    }

    /// Scans a PCM stream and returns the detections plus gating stats.
    pub fn detect(&mut self, stream: &[f32]) -> StreamingReport {
        let cfg = self.config;
        let window = (cfg.sample_rate * cfg.window_ms as f64 / 1000.0) as usize;
        let hop = (cfg.sample_rate * cfg.hop_ms as f64 / 1000.0) as usize;
        let mut detections: Vec<Detection> = Vec::new();
        let mut posterior_history: Vec<Vec<f32>> = Vec::new();
        let mut scratch = MfccScratch::default();
        let mut windows = 0usize;
        let mut gated = 0usize;
        let mut inferences = 0usize;
        // Peak picking: confident windows within one refractory span are
        // merged, keeping the most confident (a partial-overlap window that
        // fires first must not mask the aligned window right behind it).
        let mut pending: Option<Detection> = None;

        let mut start = 0usize;
        while start + window <= stream.len() {
            windows += 1;
            let slice = &stream[start..start + window];
            let t = start as f64 / cfg.sample_rate;
            let rms = (slice.iter().map(|s| s * s).sum::<f32>() / window as f32).sqrt();
            if rms < cfg.min_rms {
                gated += 1;
                posterior_history.clear();
            } else {
                let mut flat = Vec::new();
                self.extractor.extract_into(slice, &mut scratch, &mut flat);
                // Same per-clip standardization as the training pipeline.
                standardize(&mut flat);
                let f = cfg.frontend.features() as usize;
                let x = Tensor::from_vec([flat.len() / f, f, 1], flat);
                let scores = self.model.infer(&x);
                inferences += 1;
                posterior_history.push(softmax(scores.data()));
                if posterior_history.len() > cfg.smoothing_windows {
                    posterior_history.remove(0);
                }
                if posterior_history.len() == cfg.smoothing_windows {
                    let k = posterior_history[0].len();
                    let smoothed: Vec<f32> = (0..k)
                        .map(|c| {
                            posterior_history.iter().map(|p| p[c]).sum::<f32>()
                                / cfg.smoothing_windows as f32
                        })
                        .collect();
                    let (class, confidence) = smoothed
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(c, &v)| (c, v))
                        .unwrap_or((0, 0.0));
                    // Partial-overlap windows produce confident nonsense, but
                    // rarely the *same* nonsense twice: require every window
                    // in the smoothing history to agree on the argmax.
                    let stable = posterior_history.iter().all(|p| {
                        p.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(c, _)| c == class)
                            .unwrap_or(false)
                    });
                    if stable && confidence >= cfg.confidence_threshold {
                        let candidate = Detection {
                            class,
                            at: Seconds::new(t),
                            confidence,
                        };
                        let refractory = cfg.refractory_ms as f64 / 1000.0;
                        match &mut pending {
                            Some(p) if t - p.at.as_seconds() <= refractory => {
                                if candidate.confidence > p.confidence {
                                    *p = candidate;
                                }
                            }
                            Some(p) => {
                                detections.push(p.clone());
                                pending = Some(candidate);
                            }
                            None => pending = Some(candidate),
                        }
                    }
                }
            }
            start += hop;
        }
        if let Some(p) = pending {
            detections.push(p);
        }
        StreamingReport {
            detections,
            windows,
            gated_windows: gated,
            inferences,
        }
    }
}

fn softmax(scores: &[f32]) -> Vec<f32> {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use solarml_datasets::KwsDatasetBuilder;
    use solarml_nn::{
        arch::{LayerSpec, ModelSpec, Padding},
        fit, TrainConfig,
    };

    fn trained_setup() -> (StreamingKws, solarml_datasets::KwsDataset) {
        let frontend = AudioFrontendParams::standard();
        let corpus = KwsDatasetBuilder {
            samples_per_class: 10,
            ..KwsDatasetBuilder::default()
        }
        .build();
        let train = corpus.to_class_dataset(&frontend);
        let shape = train.input_shape();
        let spec = ModelSpec::new(
            [shape[0], shape[1], shape[2]],
            vec![
                LayerSpec::conv(8, 3, 2, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(10),
            ],
        )
        .expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57A);
        let mut model = Model::from_spec(&spec, &mut rng);
        fit(
            &mut model,
            &train,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            &mut rng,
        );
        (
            StreamingKws::new(model, StreamingKwsConfig::standard(frontend)),
            corpus,
        )
    }

    #[test]
    fn detects_planted_keywords_near_their_onsets() {
        let (mut detector, corpus) = trained_setup();
        // Plant four keywords of different classes (training clips — this
        // tests the streaming plumbing, not generalization).
        let indices = [0usize, 10, 20, 30];
        let (stream, truth) = corpus.compose_stream(&indices, 1500);
        let report = detector.detect(&stream);
        assert!(
            report.detections.len() >= 3,
            "expected ≥3 of 4 keywords, got {:?}",
            report.detections
        );
        // Every detection is near a planted onset with the right label.
        for d in &report.detections {
            let matched = truth
                .iter()
                .any(|&(onset, label)| (d.at.as_seconds() - onset).abs() < 1.2 && d.class == label);
            assert!(matched, "spurious detection {d:?} (truth: {truth:?})");
        }
    }

    #[test]
    fn silence_is_gated_and_fires_nothing() {
        let (mut detector, _) = trained_setup();
        let silence = vec![0.002f32; 4 * 16_000];
        let report = detector.detect(&silence);
        assert!(report.detections.is_empty());
        assert_eq!(report.gated_windows, report.windows);
        assert_eq!(report.inferences, 0, "gated windows must not pay inference");
    }

    #[test]
    fn refractory_prevents_duplicate_fires() {
        let (mut detector, corpus) = trained_setup();
        let (stream, _) = corpus.compose_stream(&[0], 1000);
        let report = detector.detect(&stream);
        // One planted keyword → at most one detection despite several
        // overlapping confident windows.
        assert!(report.detections.len() <= 1, "{:?}", report.detections);
    }

    #[test]
    fn gating_saves_inferences_on_sparse_streams() {
        let (mut detector, corpus) = trained_setup();
        let (stream, _) = corpus.compose_stream(&[0, 15], 4000);
        let report = detector.detect(&stream);
        assert!(
            report.gated_windows > report.inferences,
            "long gaps should be mostly gated: {report:?}"
        );
    }

    #[test]
    #[should_panic(expected = "degenerate windowing")]
    fn zero_hop_rejected() {
        let (detector, _) = trained_setup();
        let mut config = *detector.config();
        config.hop_ms = 0;
        let model_spec = detector.model.spec().clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let model = Model::from_spec(&model_spec, &mut rng);
        let _ = StreamingKws::new(model, config);
    }
}
