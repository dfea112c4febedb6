//! Task contexts: everything needed to evaluate a candidate end to end.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::Rng;
use solarml_datasets::{GestureDataset, GestureDatasetBuilder, KwsDataset, KwsDatasetBuilder};
use solarml_dsp::{AudioFrontendParams, GestureSensingParams, Resolution};
use solarml_energy::corpus::{
    audio_sensing_corpus, gesture_sensing_corpus, inference_corpus_banded, random_audio_params,
    random_gesture_params,
};
use solarml_energy::device::{AudioSensingGround, GestureSensingGround, InferenceGround};
use solarml_energy::models::{
    AudioSensingModel, GestureSensingModel, LayerwiseMacModel, TotalMacModel,
};
use solarml_nn::{evaluate, fit, ArchSampler, ClassDataset, Model, TrainConfig};
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};

/// How many consecutive constraint-violating samples a search draws before
/// concluding the constraints reject the entire candidate space.
pub(crate) const MAX_SAMPLE_ATTEMPTS: usize = 500;

/// The two applications the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Digit recognition via the solar-cell array.
    GestureDigits,
    /// Audio keyword spotting via the PDM microphone.
    Kws,
}

/// The search constraints (§V-D: 100 KB memory, 30 M MACs, task error
/// bounds of 0.25/0.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum model memory footprint in bytes.
    pub max_memory_bytes: usize,
    /// Maximum total MACs per inference.
    pub max_macs: u64,
    /// Maximum acceptable error rate (`1 − accuracy`).
    pub max_error: f64,
    /// Optional inference latency bound (µNAS emphasizes latency; the
    /// paper's configurations leave it unconstrained).
    pub max_latency: Option<solarml_units::Seconds>,
}

impl Constraints {
    /// The paper's gesture-task constraints.
    pub fn gesture_paper() -> Self {
        Self {
            max_memory_bytes: 100 * 1024,
            max_macs: 30_000_000,
            max_error: 0.25,
            max_latency: None,
        }
    }

    /// The paper's KWS-task constraints.
    pub fn kws_paper() -> Self {
        Self {
            max_memory_bytes: 100 * 1024,
            max_macs: 30_000_000,
            max_error: 0.30,
            max_latency: None,
        }
    }
}

/// The result of a search run: every trained candidate plus the incumbent.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Every evaluated candidate, in evaluation order.
    pub history: Vec<Evaluated>,
    /// The best candidate under the run's final objective.
    pub best: Evaluated,
    /// Observed energy envelope from phase 1 (`E_min`, `E_max`).
    pub energy_envelope: (Energy, Energy),
    /// Aging evolution's evaluation groups, in order: how many cycles that
    /// trained each group planned ahead and sent to the workers together.
    /// A function of the inputs, never of the worker count; empty for
    /// random search.
    pub groups: Vec<usize>,
}

impl SearchOutcome {
    /// Renders the history as CSV for external plotting: one row per
    /// evaluated candidate with cycle, accuracy, estimated/true energy (µJ),
    /// feasibility, sensing config and model description.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cycle,accuracy,estimated_uj,true_uj,meets_accuracy,memory_bytes,total_macs,sensing,model\n",
        );
        for e in &self.history {
            out.push_str(&format!(
                "{},{:.4},{:.2},{:.2},{},{},{},{},{}\n",
                e.cycle,
                e.accuracy,
                e.estimated_energy.as_micro_joules(),
                e.true_energy.as_micro_joules(),
                e.meets_accuracy,
                e.candidate.spec.memory_bytes(),
                e.candidate.spec.mac_summary().total(),
                e.candidate.sensing,
                e.candidate.spec.describe().replace(',', ";"),
            ));
        }
        out
    }
}

/// Shared, immutable train/test pair for one sensing configuration.
pub type CachedDatasets = Arc<(ClassDataset, ClassDataset)>;

/// Owns the corpora, fitted energy models and constraints for one task.
///
/// Construction fits the energy estimators against fresh measurement
/// corpora (the paper's 300-measurement protocol), so the search consults
/// *estimates* while reported results use the noise-free ground truth.
///
/// The context is `Send + Sync`: both internal caches sit behind a
/// `Mutex`, so worker threads in [`crate::parallel::EvalEngine`] can
/// evaluate candidates against one shared `&TaskContext`. Neither lock is
/// contended: the evaluation memo is read and written only on the serial
/// control path, and the dataset cache is looked up once per training.
pub struct TaskContext {
    kind: TaskKind,
    gesture_corpus: Option<(GestureDataset, GestureDataset)>,
    kws_corpus: Option<(KwsDataset, KwsDataset)>,
    dataset_cache: Mutex<HashMap<SensingConfig, CachedDatasets>>,
    eval_cache: Mutex<HashMap<Candidate, Evaluated>>,
    inference_model: LayerwiseMacModel,
    total_mac_model: TotalMacModel,
    gesture_model: Option<GestureSensingModel>,
    audio_model: Option<AudioSensingModel>,
    inference_ground: InferenceGround,
    gesture_ground: GestureSensingGround,
    audio_ground: AudioSensingGround,
    /// Active constraint set.
    pub constraints: Constraints,
    /// Training hyperparameters for candidate evaluation.
    pub train_config: TrainConfig,
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("kind", &self.kind)
            .field("constraints", &self.constraints)
            .finish_non_exhaustive()
    }
}

impl TaskContext {
    /// Builds the gesture-digits task: generates the corpus, fits the
    /// inference and gesture-sensing energy models.
    pub fn gesture(samples_per_class: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let corpus = GestureDatasetBuilder {
            samples_per_class,
            seed,
            ..GestureDatasetBuilder::default()
        }
        .build();
        let (train, test) = corpus.split(0.2);
        let (inference_model, total_mac_model) = fit_inference_models(&mut rng);
        let gesture_ground = GestureSensingGround::default();
        let (sense_corpus, _) = gesture_sensing_corpus(300, &gesture_ground, &mut rng);
        let mut gesture_model = GestureSensingModel::new();
        gesture_model.fit(&sense_corpus);
        Self {
            kind: TaskKind::GestureDigits,
            gesture_corpus: Some((train, test)),
            kws_corpus: None,
            dataset_cache: Mutex::default(),
            eval_cache: Mutex::default(),
            inference_model,
            total_mac_model,
            gesture_model: Some(gesture_model),
            audio_model: None,
            inference_ground: InferenceGround::default(),
            gesture_ground,
            audio_ground: AudioSensingGround::default(),
            constraints: Constraints::gesture_paper(),
            train_config: TrainConfig::default(),
        }
    }

    /// Builds the KWS task analogously.
    pub fn kws(samples_per_class: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let corpus = KwsDatasetBuilder {
            samples_per_class,
            seed,
            ..KwsDatasetBuilder::default()
        }
        .build();
        let (train, test) = corpus.split(0.2);
        let (inference_model, total_mac_model) = fit_inference_models(&mut rng);
        let audio_ground = AudioSensingGround::default();
        let (sense_corpus, _) = audio_sensing_corpus(300, &audio_ground, &mut rng);
        let mut audio_model = AudioSensingModel::new(audio_ground.clip_ms);
        audio_model.fit(&sense_corpus);
        Self {
            kind: TaskKind::Kws,
            gesture_corpus: None,
            kws_corpus: Some((train, test)),
            dataset_cache: Mutex::default(),
            eval_cache: Mutex::default(),
            inference_model,
            total_mac_model,
            gesture_model: None,
            audio_model: Some(audio_model),
            inference_ground: InferenceGround::default(),
            gesture_ground: GestureSensingGround::default(),
            audio_ground,
            constraints: Constraints::kws_paper(),
            train_config: TrainConfig::default(),
        }
    }

    /// Which task this context evaluates.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Samples a random sensing configuration from the Table II space.
    pub fn random_sensing(&self, rng: &mut impl Rng) -> SensingConfig {
        match self.kind {
            TaskKind::GestureDigits => SensingConfig::Gesture(random_gesture_params(rng)),
            TaskKind::Kws => SensingConfig::Audio(random_audio_params(rng)),
        }
    }

    /// All single-step sensing morphisms of `s` (Table II's "Morphisms"
    /// column): the local grid eNAS searches every `R`-th cycle.
    pub fn sensing_neighbors(&self, s: SensingConfig) -> Vec<SensingConfig> {
        match s {
            SensingConfig::Gesture(p) => gesture_neighbors(&p)
                .into_iter()
                .map(SensingConfig::Gesture)
                .collect(),
            SensingConfig::Audio(p) => audio_neighbors(&p)
                .into_iter()
                .map(SensingConfig::Audio)
                .collect(),
        }
    }

    /// Model input shape implied by a sensing configuration.
    pub fn input_shape(&self, s: SensingConfig) -> [usize; 3] {
        match s {
            SensingConfig::Gesture(p) => {
                let t = p.samples_per_channel(self.gesture_ground.window.as_seconds());
                [t, p.channels() as usize, 1]
            }
            SensingConfig::Audio(p) => {
                let frames = p.frames_for_clip(self.audio_ground.clip_ms);
                [frames.max(1), p.features() as usize, 1]
            }
        }
    }

    /// The architecture sampler for a sensing configuration.
    pub fn sampler(&self, s: SensingConfig) -> ArchSampler {
        ArchSampler::for_task(self.input_shape(s), 10)
    }

    /// Samples a random candidate satisfying the static (memory/MAC)
    /// constraints.
    ///
    /// # Panics
    ///
    /// Panics if 500 (`MAX_SAMPLE_ATTEMPTS`) consecutive samples violate the
    /// static constraints.
    pub fn random_candidate(&self, rng: &mut impl Rng) -> Candidate {
        for _ in 0..MAX_SAMPLE_ATTEMPTS {
            let sensing = self.random_sensing(rng);
            let spec = self.sampler(sensing).sample(rng);
            let cand = Candidate { sensing, spec };
            if self.satisfies_static(&cand) {
                return cand;
            }
        }
        panic!("constraints reject the entire candidate space");
    }

    /// Mutates the candidate's *model* half (a µNAS-style morphism),
    /// keeping sensing fixed. Falls back to the parent on repeated
    /// constraint violations.
    pub fn mutate_model(&self, cand: &Candidate, rng: &mut impl Rng) -> Candidate {
        let sampler = self.sampler(cand.sensing);
        for _ in 0..50 {
            let spec = sampler.mutate(&cand.spec, rng);
            let child = Candidate {
                sensing: cand.sensing,
                spec,
            };
            if self.satisfies_static(&child) {
                return child;
            }
        }
        cand.clone()
    }

    /// Whether a candidate's model satisfies the memory, MAC and (when
    /// configured) latency bounds.
    pub fn satisfies_static(&self, cand: &Candidate) -> bool {
        let within_latency = match self.constraints.max_latency {
            Some(limit) => self.inference_ground.latency(&cand.spec) <= limit,
            None => true,
        };
        cand.spec.memory_bytes() <= self.constraints.max_memory_bytes
            && cand.spec.mac_summary().total() <= self.constraints.max_macs
            && within_latency
    }

    /// The search-facing energy estimate `Ê_S + Ê_M` using the paper's
    /// layer-wise model.
    pub fn estimated_energy(&self, cand: &Candidate) -> Energy {
        self.sensing_estimate(cand.sensing) + self.inference_model.estimate(&cand.spec)
    }

    /// The µNAS-style estimate: sensing is *not* modelled (the baseline does
    /// not know sensing varies); inference uses the total-MACs proxy.
    pub fn munas_estimated_energy(&self, cand: &Candidate) -> Energy {
        self.total_mac_model.estimate(&cand.spec)
    }

    /// Ground-truth end-to-end `E_S + E_M`.
    pub fn true_energy(&self, cand: &Candidate) -> Energy {
        let sensing = match cand.sensing {
            SensingConfig::Gesture(p) => self.gesture_ground.true_energy(&p),
            SensingConfig::Audio(p) => self.audio_ground.true_energy(&p),
        };
        sensing + self.inference_ground.true_energy(&cand.spec)
    }

    fn sensing_estimate(&self, s: SensingConfig) -> Energy {
        match s {
            SensingConfig::Gesture(p) => self
                .gesture_model
                .as_ref()
                .expect("gesture context has a gesture model")
                .estimate(&p),
            SensingConfig::Audio(p) => self
                .audio_model
                .as_ref()
                .expect("kws context has an audio model")
                .estimate(&p),
        }
    }

    /// Train/test datasets for a sensing configuration (cached — repeated
    /// evaluations at the same front-end reuse the transformed corpus).
    ///
    /// The dataset transform is a pure function of the sensing parameters,
    /// so racing threads that compute the same pair concurrently converge
    /// on identical data. The pair is built outside the lock; the first
    /// insert wins and later callers share it.
    pub fn datasets(&self, s: SensingConfig) -> CachedDatasets {
        let hit = lock(&self.dataset_cache).get(&s).cloned();
        if let Some(hit) = hit {
            return hit;
        }
        let built = match s {
            SensingConfig::Gesture(p) => {
                let (train, test) = self
                    .gesture_corpus
                    .as_ref()
                    .expect("gesture context has a corpus");
                Arc::new((train.to_class_dataset(&p), test.to_class_dataset(&p)))
            }
            SensingConfig::Audio(p) => {
                let (train, test) = self.kws_corpus.as_ref().expect("kws context has a corpus");
                Arc::new((train.to_class_dataset(&p), test.to_class_dataset(&p)))
            }
        };
        Arc::clone(lock(&self.dataset_cache).entry(s).or_insert(built))
    }

    /// Trains and evaluates a candidate. Returns `None` if the static
    /// constraints reject it (nothing is trained in that case).
    ///
    /// This is the raw, uncached path: the caller owns the RNG and the
    /// result is not memoized. Searches go through
    /// [`crate::parallel::EvalEngine`], which layers caching and
    /// deterministic seeding on top.
    pub fn evaluate(
        &self,
        cand: &Candidate,
        cycle: usize,
        rng: &mut impl Rng,
    ) -> Option<Evaluated> {
        if !self.satisfies_static(cand) {
            return None;
        }
        let data = self.datasets(cand.sensing);
        let mut model = Model::from_spec(&cand.spec, rng);
        fit(&mut model, &data.0, &self.train_config, rng);
        let accuracy = evaluate(&mut model, &data.1);
        Some(Evaluated {
            candidate: cand.clone(),
            accuracy,
            estimated_energy: self.estimated_energy(cand),
            true_energy: self.true_energy(cand),
            meets_accuracy: (1.0 - accuracy) <= self.constraints.max_error,
            cycle,
        })
    }

    /// [`TaskContext::evaluate`] with a fresh RNG seeded from `seed` —
    /// the worker-thread entry point, where evaluation order must not
    /// influence results.
    pub fn evaluate_seeded(&self, cand: &Candidate, cycle: usize, seed: u64) -> Option<Evaluated> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.evaluate(cand, cycle, &mut rng)
    }

    /// Memoized evaluation for `cand`, if one has been stored. The cached
    /// `cycle` is whatever the first evaluation recorded; callers rewrite
    /// it to their own cycle.
    pub fn cached_evaluation(&self, cand: &Candidate) -> Option<Evaluated> {
        lock(&self.eval_cache).get(cand).cloned()
    }

    /// Stores `eval` as the memoized result for `cand`. First write wins,
    /// so a duplicate computed by a racing worker cannot replace the value
    /// other threads already observed.
    pub fn store_evaluation(&self, cand: &Candidate, eval: &Evaluated) {
        lock(&self.eval_cache)
            .entry(cand.clone())
            .or_insert_with(|| eval.clone());
    }

    /// Number of memoized evaluations (for tests and bench reporting).
    pub fn eval_cache_len(&self) -> usize {
        lock(&self.eval_cache).len()
    }
}

/// Locks one of [`TaskContext`]'s caches.
fn lock<K, V>(cache: &Mutex<HashMap<K, V>>) -> MutexGuard<'_, HashMap<K, V>> {
    cache.lock().expect("cache lock poisoned")
}

fn fit_inference_models(rng: &mut impl Rng) -> (LayerwiseMacModel, TotalMacModel) {
    // The measurement corpus spans layer mixes at comparable scale
    // (the paper's 300-model protocol).
    let sampler = ArchSampler::for_measurement([20, 9, 1], 10);
    let ground = InferenceGround::default();
    let (corpus, _) = inference_corpus_banded(300, &ground, &sampler, Some((20_000, 400_000)), rng);
    let mut layerwise = LayerwiseMacModel::new();
    layerwise.fit(&corpus);
    let mut total = TotalMacModel::new();
    total.fit(&corpus);
    (layerwise, total)
}

fn gesture_neighbors(p: &GestureSensingParams) -> Vec<GestureSensingParams> {
    let mut out = Vec::new();
    let (n, r, b, q) = (p.channels(), p.rate_hz(), p.resolution(), p.quant_bits());
    // n ± 1
    for nn in [n.wrapping_sub(1), n + 1] {
        if let Ok(v) = GestureSensingParams::new(nn, r, b, q) {
            out.push(v);
        }
    }
    // r ± 2
    for rr in [r.saturating_sub(2), r + 2] {
        if let Ok(v) = GestureSensingParams::new(n, rr, b, q) {
            out.push(v);
        }
    }
    // q ± 1
    for qq in [q.wrapping_sub(1), q + 1] {
        if let Ok(v) = GestureSensingParams::new(n, r, b, qq) {
            out.push(v);
        }
    }
    // b replace: switch class, mapping q to the nearest legal depth.
    let (nb, nq) = match b {
        Resolution::Int => (Resolution::Float, 9),
        Resolution::Float => (Resolution::Int, 8),
    };
    if let Ok(v) = GestureSensingParams::new(n, r, nb, nq) {
        out.push(v);
    }
    out
}

fn audio_neighbors(p: &AudioFrontendParams) -> Vec<AudioFrontendParams> {
    let mut out = Vec::new();
    let (s, d, f) = (p.stripe_ms(), p.duration_ms(), p.features());
    for ss in [s.wrapping_sub(1), s + 1] {
        if let Ok(v) = AudioFrontendParams::new(ss, d, f) {
            out.push(v);
        }
    }
    for dd in [d.wrapping_sub(1), d + 1] {
        if let Ok(v) = AudioFrontendParams::new(s, dd, f) {
            out.push(v);
        }
    }
    for ff in [f.wrapping_sub(1), f + 1] {
        if let Ok(v) = AudioFrontendParams::new(s, d, ff) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn tiny_gesture() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 1);
        ctx.train_config = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        ctx
    }

    #[test]
    fn random_candidates_satisfy_static_constraints() {
        let ctx = tiny_gesture();
        let mut r = rng();
        for _ in 0..20 {
            let cand = ctx.random_candidate(&mut r);
            assert!(ctx.satisfies_static(&cand));
        }
    }

    #[test]
    fn gesture_neighbors_step_per_table2() {
        let p = GestureSensingParams::new(5, 100, Resolution::Int, 4).expect("valid");
        let neighbors = gesture_neighbors(&p);
        // n±1, r±2, q±1, b-replace = 7 neighbors from an interior point.
        assert_eq!(neighbors.len(), 7);
        assert!(neighbors
            .iter()
            .any(|v| v.channels() == 4 && v.rate_hz() == 100));
        assert!(neighbors.iter().any(|v| v.rate_hz() == 102));
        assert!(neighbors
            .iter()
            .any(|v| v.resolution() == Resolution::Float && v.quant_bits() == 9));
    }

    #[test]
    fn gesture_neighbors_respect_boundaries() {
        let p = GestureSensingParams::new(1, 10, Resolution::Int, 1).expect("valid");
        let neighbors = gesture_neighbors(&p);
        // Only upward steps exist at the lower corner (+ b replace).
        assert!(neighbors.iter().all(|v| v.channels() >= 1));
        assert!(neighbors.iter().all(|v| v.rate_hz() >= 10));
        assert_eq!(neighbors.len(), 4);
    }

    #[test]
    fn audio_neighbors_step_by_one() {
        let p = AudioFrontendParams::new(20, 25, 13).expect("valid");
        let neighbors = audio_neighbors(&p);
        assert_eq!(neighbors.len(), 6);
    }

    #[test]
    fn input_shape_tracks_sensing() {
        let ctx = tiny_gesture();
        let p = GestureSensingParams::new(4, 50, Resolution::Int, 8).expect("valid");
        assert_eq!(ctx.input_shape(SensingConfig::Gesture(p)), [100, 4, 1]);
    }

    #[test]
    fn dataset_cache_returns_same_arc() {
        let ctx = tiny_gesture();
        let p = SensingConfig::Gesture(
            GestureSensingParams::new(2, 20, Resolution::Int, 4).expect("valid"),
        );
        let a = ctx.datasets(p);
        let b = ctx.datasets(p);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn task_context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaskContext>();
    }

    #[test]
    fn eval_cache_round_trips_and_keeps_first_write() {
        let ctx = tiny_gesture();
        let mut r = rng();
        let cand = ctx.random_candidate(&mut r);
        assert_eq!(ctx.eval_cache_len(), 0);
        assert!(ctx.cached_evaluation(&cand).is_none());
        let eval = ctx.evaluate(&cand, 0, &mut r).expect("feasible");
        ctx.store_evaluation(&cand, &eval);
        assert_eq!(ctx.eval_cache_len(), 1);
        let hit = ctx.cached_evaluation(&cand).expect("stored");
        assert_eq!(hit, eval);
        // A second store with different numbers does not clobber the first.
        let mut other = eval.clone();
        other.accuracy = -1.0;
        ctx.store_evaluation(&cand, &other);
        assert_eq!(ctx.cached_evaluation(&cand).expect("stored"), eval);
    }

    #[test]
    fn evaluate_produces_consistent_energies() {
        let ctx = tiny_gesture();
        let mut r = rng();
        let cand = ctx.random_candidate(&mut r);
        let eval = ctx.evaluate(&cand, 0, &mut r).expect("feasible");
        assert!(eval.accuracy >= 0.0 && eval.accuracy <= 1.0);
        assert!(eval.estimated_energy.as_joules() > 0.0);
        assert!(eval.true_energy.as_joules() > 0.0);
        // Estimate within 3x of truth (the models are fitted, not exact).
        let ratio = eval.estimated_energy / eval.true_energy;
        assert!((0.33..3.0).contains(&ratio), "ratio={ratio:.2}");
    }

    #[test]
    fn latency_constraint_rejects_slow_models() {
        let mut ctx = tiny_gesture();
        // A 1 µs latency bound rejects everything.
        ctx.constraints.max_latency = Some(solarml_units::Seconds::from_micros(1.0));
        let p = SensingConfig::Gesture(
            GestureSensingParams::new(2, 20, Resolution::Int, 4).expect("valid"),
        );
        let spec = ArchSampler::for_task(ctx.input_shape(p), 10).sample(&mut rng());
        let cand = Candidate { sensing: p, spec };
        assert!(!ctx.satisfies_static(&cand));
        // A generous 10 s bound accepts tinyML-scale models.
        ctx.constraints.max_latency = Some(solarml_units::Seconds::new(10.0));
        assert!(ctx.satisfies_static(&cand));
    }

    #[test]
    fn evaluate_rejects_static_violations() {
        let mut ctx = tiny_gesture();
        ctx.constraints.max_macs = 1; // nothing fits
        let p = SensingConfig::Gesture(
            GestureSensingParams::new(2, 20, Resolution::Int, 4).expect("valid"),
        );
        let spec = ArchSampler::for_task(ctx.input_shape(p), 10).sample(&mut rng());
        let cand = Candidate { sensing: p, spec };
        assert!(ctx.evaluate(&cand, 0, &mut rng()).is_none());
    }

    #[test]
    fn search_outcome_csv_has_header_and_rows() {
        let ctx = tiny_gesture();
        let mut r = rng();
        let cand = ctx.random_candidate(&mut r);
        let eval = ctx.evaluate(&cand, 3, &mut r).expect("feasible");
        let outcome = SearchOutcome {
            history: vec![eval.clone()],
            best: eval,
            energy_envelope: (Energy::ZERO, Energy::new(1.0)),
            groups: Vec::new(),
        };
        let csv = outcome.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("cycle,accuracy,estimated_uj,true_uj,meets_accuracy,memory_bytes,total_macs,sensing,model")
        );
        let row = lines.next().expect("one data row");
        assert!(row.starts_with("3,"));
        // Model descriptions never smuggle in extra commas.
        assert_eq!(row.matches(',').count(), 8, "row: {row}");
    }

    #[test]
    fn kws_context_builds_and_evaluates() {
        let mut ctx = TaskContext::kws(3, 2);
        ctx.train_config = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut r = rng();
        let cand = ctx.random_candidate(&mut r);
        let eval = ctx.evaluate(&cand, 0, &mut r).expect("feasible");
        assert!(
            eval.true_energy.as_milli_joules() > 1.0,
            "KWS E_S is mJ-scale"
        );
    }
}
