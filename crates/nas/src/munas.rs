//! The µNAS baseline: model-only aging evolution with random scalarization
//! and the total-MACs energy proxy.
//!
//! µNAS does not know the sensing parameters exist: it searches only the
//! architecture at whatever fixed front-end it is handed (the paper
//! evaluates it at 20 random sensing configurations, §V-D), and its energy
//! signal is the coarse `E = a·MACs + b` proxy.

use rand::Rng;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::evolution::{aging_evolution, envelope, most_accurate, reestimated, Aging, Energies};
use crate::parallel::{EvalEngine, EvalRequest};
use crate::task::{SearchOutcome, TaskContext, MAX_SAMPLE_ATTEMPTS};

/// µNAS hyperparameters (matched to the eNAS run for fairness, §V-D), also
/// taken by the HarvNet-style and random-search baselines.
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
/// Panics if `population` or `sample_size` is zero, or if no sampled model
/// in 500 consecutive phase-1 slots evaluates.
pub fn run_munas(ctx: &TaskContext, sensing: SensingConfig, config: &MunasConfig) -> SearchOutcome {
    assert!(config.population > 0, "population must be positive");
    assert!(config.sample_size > 0, "sample size must be positive");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let engine = EvalEngine::new(ctx, config.seed, config.workers);
    let sampler = ctx.sampler(sensing);
    let estimate = |c: &Candidate| ctx.munas_estimated_energy(c);

    // Phase 1 in parallel rounds: sampled specs may violate the static
    // constraints (unlike `random_candidate`, the sampler does not retry),
    // so keep batching until the population fills, giving up after as many
    // consecutive empty slots as `random_candidate` tries.
    let mut population: Vec<Evaluated> = Vec::with_capacity(config.population);
    let mut empty_slots = 0;
    while population.len() < config.population {
        let requests: Vec<EvalRequest> = (population.len()..config.population)
            .map(|_| {
                let spec = sampler.sample(&mut rng);
                EvalRequest::new(Candidate { sensing, spec }, 0)
            })
            .collect();
        for slot in engine.evaluate_batch(&requests) {
            if let Some(eval) = slot {
                empty_slots = 0;
                population.push(reestimated(eval, estimate));
            } else {
                empty_slots += 1;
                assert!(
                    empty_slots < MAX_SAMPLE_ATTEMPTS,
                    "constraints reject the entire candidate space"
                );
            }
        }
    }

    let aging = Aging {
        engine: &engine,
        estimate,
        cycles: config.cycles,
        sample_size: config.sample_size,
    };
    let evolved = aging_evolution(
        &aging,
        &mut rng,
        population,
        scalarized,
        |parent, _, rng| vec![ctx.mutate_model(parent, rng)],
    );

    let (e_lo, e_hi) = micro_joules(envelope(&evolved.population));
    SearchOutcome {
        best: most_accurate(&evolved.history),
        history: evolved.history,
        energy_envelope: (
            Energy::from_micro_joules(e_lo),
            Energy::from_micro_joules(e_hi),
        ),
        groups: evolved.groups,
    }
}

/// µNAS's random scalarization: a fresh weight `w ~ U(0,1)` each cycle,
/// ranking by `w·A − (1−w)·Ê_norm` with `Ê` normalized by the population's
/// running envelope, and candidates missing the accuracy constraint pushed
/// far down.
pub(crate) fn scalarized(population: &Energies, rng: &mut impl Rng) -> impl Fn(&Evaluated) -> f64 {
    let w: f64 = rng.gen_range(0.0..1.0);
    let (e_lo, e_hi) = micro_joules(population.envelope());
    move |e: &Evaluated| {
        let span = (e_hi - e_lo).max(1e-12);
        let norm = ((e.estimated_energy.as_micro_joules() - e_lo) / span).clamp(0.0, 1.0);
        let base = w * e.accuracy - (1.0 - w) * norm;
        if e.meets_accuracy {
            base
        } else {
            base - 10.0
        }
    }
}

/// An energy envelope in µJ, the unit µNAS scores in (and reports through,
/// so the reported bits stay those of the µJ values).
fn micro_joules((lo, hi): (Energy, Energy)) -> (f64, f64) {
    (lo.as_micro_joules(), hi.as_micro_joules())
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

    #[test]
    #[should_panic(expected = "constraints reject the entire candidate space")]
    fn munas_panics_when_constraints_reject_every_model() {
        let mut ctx = tiny_ctx();
        ctx.constraints.max_macs = 0;
        let _ = run_munas(&ctx, fixed_sensing(), &MunasConfig::quick());
    }
}
