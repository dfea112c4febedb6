//! The µNAS baseline: model-only aging evolution with random scalarization
//! and the total-MACs energy proxy.
//!
//! µNAS does not know the sensing parameters exist: it searches only the
//! architecture at whatever fixed front-end it is handed (the paper
//! evaluates it at 20 random sensing configurations, §V-D), and its energy
//! signal is the coarse `E = a·MACs + b` proxy.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::parallel::{EvalEngine, EvalRequest};
use crate::task::{SearchOutcome, TaskContext};

/// µNAS hyperparameters (matched to the eNAS run for fairness, §V-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MunasConfig {
    /// Population size.
    pub population: usize,
    /// Tournament size.
    pub sample_size: usize,
    /// Evolutionary cycles.
    pub cycles: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for candidate evaluation (0 = available parallelism).
    pub workers: usize,
}

impl MunasConfig {
    /// The paper's full-scale settings.
    pub fn paper() -> Self {
        Self {
            population: 50,
            sample_size: 20,
            cycles: 150,
            seed: 0x33A5,
            workers: 0,
        }
    }

    /// Reduced settings for tests and quick demos.
    pub fn quick() -> Self {
        Self {
            population: 8,
            sample_size: 4,
            cycles: 12,
            seed: 0x33A5,
            workers: 0,
        }
    }
}

/// Runs µNAS at a fixed sensing configuration.
///
/// Selection uses *random scalarization*: each cycle draws a fresh weight
/// `w ~ U(0,1)` and ranks by `w·A − (1−w)·Ê_norm`, where `Ê` is the
/// total-MACs proxy normalized by the population's running envelope. The
/// reported `best` maximizes accuracy among accuracy-feasible candidates
/// (falling back to raw accuracy when none are feasible).
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero.
pub fn run_munas(ctx: &TaskContext, sensing: SensingConfig, config: &MunasConfig) -> SearchOutcome {
    assert!(config.population > 0, "population must be positive");
    assert!(config.sample_size > 0, "sample size must be positive");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let engine = EvalEngine::new(ctx, config.seed, config.workers);
    let sampler = ctx.sampler(sensing);

    // Phase 1 in parallel rounds: sampled specs may violate the static
    // constraints (unlike `random_candidate`, the sampler does not retry),
    // so keep batching until the population fills.
    let mut population: Vec<Evaluated> = Vec::with_capacity(config.population);
    let mut history: Vec<Evaluated> = Vec::new();
    while population.len() < config.population {
        let needed = config.population - population.len();
        let requests: Vec<EvalRequest> = (0..needed)
            .map(|_| {
                let spec = sampler.sample(&mut rng);
                EvalRequest::new(Candidate { sensing, spec }, 0)
            })
            .collect();
        for eval in engine.evaluate_batch(&requests).into_iter().flatten() {
            let eval = proxy_override(ctx, eval);
            history.push(eval.clone());
            population.push(eval);
        }
    }

    for cycle in 1..=config.cycles {
        // Random scalarization: fresh weight every cycle.
        let w: f64 = rng.gen_range(0.0..1.0);
        let (e_lo, e_hi) = proxy_envelope(&population);
        let score = |e: &Evaluated| -> f64 {
            let span = (e_hi - e_lo).max(1e-12);
            let norm = ((e.estimated_energy.as_micro_joules() - e_lo) / span).clamp(0.0, 1.0);
            let base = w * e.accuracy - (1.0 - w) * norm;
            if e.meets_accuracy {
                base
            } else {
                base - 10.0
            }
        };
        let sample: Vec<&Evaluated> = population
            .choose_multiple(&mut rng, config.sample_size.min(population.len()))
            .collect();
        let parent = sample
            .iter()
            .max_by(|a, b| score(a).total_cmp(&score(b)))
            .expect("non-empty sample")
            .candidate
            .clone();
        let child = ctx.mutate_model(&parent, &mut rng);
        if let Some(eval) = engine.evaluate_one(child, cycle) {
            let eval = proxy_override(ctx, eval);
            history.push(eval.clone());
            population.push(eval);
            population.remove(0);
        }
    }

    // Report the most accurate feasible candidate.
    let best = history
        .iter()
        .filter(|e| e.meets_accuracy)
        .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
        .or_else(|| {
            history
                .iter()
                .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
        })
        .expect("history is non-empty")
        .clone();
    let envelope = proxy_envelope(&population);
    SearchOutcome {
        history,
        best,
        energy_envelope: (
            solarml_units::Energy::from_micro_joules(envelope.0),
            solarml_units::Energy::from_micro_joules(envelope.1),
        ),
    }
}

/// Rewrites `estimated_energy` with the µNAS total-MACs proxy (the true
/// energy is still recorded for reporting). Applied after cache retrieval,
/// so memoized evaluations keep the base layer-wise estimate and this
/// override stays a pure function of the candidate.
fn proxy_override(ctx: &TaskContext, mut eval: Evaluated) -> Evaluated {
    eval.estimated_energy = ctx.munas_estimated_energy(&eval.candidate);
    eval
}

fn proxy_envelope(population: &[Evaluated]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for e in population {
        lo = lo.min(e.estimated_energy.as_micro_joules());
        hi = hi.max(e.estimated_energy.as_micro_joules());
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskContext;
    use solarml_dsp::{GestureSensingParams, Resolution};
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 5);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    fn fixed_sensing() -> SensingConfig {
        SensingConfig::Gesture(GestureSensingParams::new(6, 60, Resolution::Int, 8).expect("valid"))
    }

    #[test]
    fn munas_runs_at_fixed_sensing() {
        let ctx = tiny_ctx();
        let out = run_munas(&ctx, fixed_sensing(), &MunasConfig::quick());
        assert!(!out.history.is_empty());
        // Every candidate carries the same sensing config.
        for e in &out.history {
            assert_eq!(e.candidate.sensing, fixed_sensing());
        }
    }

    #[test]
    fn munas_best_is_max_accuracy_feasible() {
        let ctx = tiny_ctx();
        let out = run_munas(&ctx, fixed_sensing(), &MunasConfig::quick());
        if out.best.meets_accuracy {
            for e in out.history.iter().filter(|e| e.meets_accuracy) {
                assert!(e.accuracy <= out.best.accuracy + 1e-12);
            }
        }
    }

    #[test]
    fn munas_is_deterministic() {
        let ctx = tiny_ctx();
        let cfg = MunasConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            seed: 4,
            ..MunasConfig::quick()
        };
        let a = run_munas(&ctx, fixed_sensing(), &cfg);
        let b = run_munas(&ctx, fixed_sensing(), &cfg);
        assert_eq!(a.best.candidate, b.best.candidate);
    }
}
