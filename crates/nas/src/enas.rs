//! eNAS — the paper's Algorithm 1.
//!
//! Phase 1 samples `population` random constraint-satisfying candidates to
//! establish the energy envelope `E_min`/`E_max`. Phase 2 runs aging
//! evolution: each cycle tournaments `sample_size` population members,
//! mutates the winner's *model* half, and every `grid_period`-th cycle
//! instead performs a local grid search over the winner's *sensing*
//! neighbours (Table II morphisms) — the paper's `GRIDMUTATE`, rate-limited
//! by `R` because sensing changes invalidate the trained-model cache and
//! pay the highest evaluation cost.

use rand::seq::SliceRandom;
use rand::Rng;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated};
use crate::parallel::{EvalEngine, EvalRequest};
use crate::task::{SearchOutcome, TaskContext};

/// Which energy estimator the search consults — the paper's layer-wise
/// model, or (as an ablation) the µNAS-style total-MACs proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnergyProxy {
    /// The paper's layer-wise-MACs linear model plus the sensing model.
    #[default]
    Layerwise,
    /// Ablation: the coarse `E = a·MACs + b` proxy, sensing unmodelled.
    TotalMacs,
}

/// eNAS hyperparameters. Paper defaults: population 50, sample 20,
/// 150 cycles, `R` = 20.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnasConfig {
    /// Phase-1 population size `P`.
    pub population: usize,
    /// Tournament size `S`.
    pub sample_size: usize,
    /// Phase-2 evolutionary cycles `C`.
    pub cycles: usize,
    /// Sensing grid-mutation period `R` (the paper's `t`). Zero disables
    /// sensing mutations entirely (ablation: model-only evolution).
    pub grid_period: usize,
    /// Accuracy/energy trade-off `λ ∈ [0, 1]`.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
    /// Energy estimator ablation switch.
    pub energy_proxy: EnergyProxy,
    /// Worker threads for candidate evaluation (0 = available parallelism).
    /// Results are identical at any worker count.
    pub workers: usize,
}

impl EnasConfig {
    /// The paper's full-scale settings at a given λ.
    pub fn paper(lambda: f64) -> Self {
        Self {
            population: 50,
            sample_size: 20,
            cycles: 150,
            grid_period: 20,
            lambda,
            seed: 0xE7A5,
            energy_proxy: EnergyProxy::Layerwise,
            workers: 0,
        }
    }

    /// Reduced settings for tests and quick demos.
    pub fn quick(lambda: f64) -> Self {
        Self {
            population: 8,
            sample_size: 4,
            cycles: 12,
            grid_period: 4,
            lambda,
            seed: 0xE7A5,
            energy_proxy: EnergyProxy::Layerwise,
            workers: 0,
        }
    }
}

/// Runs eNAS on a task.
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero, or if the constraint
/// set rejects the entire candidate space.
pub fn run_enas(ctx: &TaskContext, config: &EnasConfig) -> SearchOutcome {
    assert!(config.population > 0, "population must be positive");
    assert!(config.sample_size > 0, "sample size must be positive");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let engine = EvalEngine::new(ctx, config.seed, config.workers);

    // ---- Phase 1: broad exploration with random permutations. ----
    // Sampling is sequential (it drives the search RNG); the expensive
    // training fans out across the worker pool. `random_candidate`
    // guarantees the static constraints, so every request evaluates.
    let requests: Vec<EvalRequest> = (0..config.population)
        .map(|_| EvalRequest::new(ctx.random_candidate(&mut rng), 0))
        .collect();
    let mut population: Vec<Evaluated> = engine
        .evaluate_batch(&requests)
        .into_iter()
        .flatten()
        .map(|eval| apply_proxy(ctx, eval, config.energy_proxy))
        .collect();
    let mut history: Vec<Evaluated> = population.clone();
    let (e_min, e_max) = energy_envelope(&population);

    // ---- Phase 2: optimal exploration with mutations. ----
    for cycle in 1..=config.cycles {
        let sample: Vec<&Evaluated> = population
            .choose_multiple(&mut rng, config.sample_size.min(population.len()))
            .collect();
        let parent = sample
            .iter()
            .max_by(|a, b| {
                a.objective(config.lambda, e_min, e_max)
                    .total_cmp(&b.objective(config.lambda, e_min, e_max))
            })
            .expect("non-empty sample")
            .candidate
            .clone();

        let child_eval = if config.grid_period > 0 && cycle % config.grid_period == 0 {
            grid_mutate(
                ctx,
                &engine,
                &parent,
                config,
                (e_min, e_max),
                cycle,
                &mut rng,
            )
        } else {
            let child = ctx.mutate_model(&parent, &mut rng);
            engine
                .evaluate_one(child, cycle)
                .map(|eval| apply_proxy(ctx, eval, config.energy_proxy))
        };
        if let Some(eval) = child_eval {
            history.push(eval.clone());
            population.push(eval);
            population.remove(0); // aging: drop the oldest
        }
    }

    let best = history
        .iter()
        .max_by(|a, b| {
            a.objective(config.lambda, e_min, e_max)
                .total_cmp(&b.objective(config.lambda, e_min, e_max))
        })
        .expect("history is non-empty")
        .clone();
    SearchOutcome {
        history,
        best,
        energy_envelope: (e_min, e_max),
    }
}

/// The paper's `GRIDMUTATE`: evaluate every single-step sensing neighbour of
/// the parent (model half fixed, revalidated against the new input shape)
/// and return the best child by objective.
///
/// Spec re-derivation consumes the search RNG sequentially; the neighbour
/// evaluations then run as one parallel batch.
#[allow(clippy::too_many_arguments)]
fn grid_mutate(
    ctx: &TaskContext,
    engine: &EvalEngine<'_>,
    parent: &Candidate,
    config: &EnasConfig,
    envelope: (Energy, Energy),
    cycle: usize,
    rng: &mut impl Rng,
) -> Option<Evaluated> {
    let (e_min, e_max) = envelope;
    let requests: Vec<EvalRequest> = ctx
        .sensing_neighbors(parent.sensing)
        .into_iter()
        .map(|sensing| {
            // The model must be re-derived for the new input shape: try to
            // keep the same layer sequence; if it no longer validates, sample
            // a fresh model in the new shape's space.
            let spec = match solarml_nn::ModelSpec::new(
                ctx.input_shape(sensing),
                parent.spec.layers().to_vec(),
            ) {
                Ok(spec) => spec,
                Err(_) => ctx.sampler(sensing).sample(rng),
            };
            EvalRequest::new(Candidate { sensing, spec }, cycle)
        })
        .collect();
    let mut best: Option<Evaluated> = None;
    for eval in engine.evaluate_batch(&requests).into_iter().flatten() {
        let eval = apply_proxy(ctx, eval, config.energy_proxy);
        let better = best
            .as_ref()
            .map(|b| {
                eval.objective(config.lambda, e_min, e_max)
                    > b.objective(config.lambda, e_min, e_max)
            })
            .unwrap_or(true);
        if better {
            best = Some(eval);
        }
    }
    best
}

/// Under the [`EnergyProxy::TotalMacs`] ablation, swaps the search-facing
/// estimate for the coarse proxy (the true energy is still recorded for
/// reporting). Applied *after* cache retrieval — the memo cache always
/// stores the base layer-wise estimate, and this override is a pure
/// function of the candidate, so hits and misses agree.
fn apply_proxy(ctx: &TaskContext, mut eval: Evaluated, proxy: EnergyProxy) -> Evaluated {
    if proxy == EnergyProxy::TotalMacs {
        eval.estimated_energy = ctx.munas_estimated_energy(&eval.candidate);
    }
    eval
}

fn energy_envelope(population: &[Evaluated]) -> (Energy, Energy) {
    let mut e_min = Energy::new(f64::INFINITY);
    let mut e_max = Energy::ZERO;
    for e in population {
        e_min = e_min.min(e.estimated_energy);
        e_max = e_max.max(e.estimated_energy);
    }
    (e_min, e_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskContext;
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 3);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    #[test]
    fn enas_runs_and_reports_history() {
        let ctx = tiny_ctx();
        let config = EnasConfig {
            population: 4,
            sample_size: 2,
            cycles: 5,
            grid_period: 3,
            seed: 1,
            ..EnasConfig::quick(0.5)
        };
        let out = run_enas(&ctx, &config);
        assert!(out.history.len() >= config.population);
        assert!(out.energy_envelope.0 <= out.energy_envelope.1);
        // The best candidate's objective is maximal over the history.
        let (e0, e1) = out.energy_envelope;
        let best_obj = out.best.objective(0.5, e0, e1);
        for h in &out.history {
            assert!(h.objective(0.5, e0, e1) <= best_obj + 1e-12);
        }
    }

    #[test]
    fn lambda_extremes_change_the_winner_profile() {
        let ctx = tiny_ctx();
        let accurate = run_enas(
            &ctx,
            &EnasConfig {
                lambda: 0.0,
                ..EnasConfig::quick(0.0)
            },
        );
        let frugal = run_enas(
            &ctx,
            &EnasConfig {
                lambda: 1.0,
                ..EnasConfig::quick(1.0)
            },
        );
        // The λ=1 winner must not cost more than the λ=0 winner.
        assert!(
            frugal.best.estimated_energy <= accurate.best.estimated_energy,
            "λ=1 should find cheaper candidates: {} vs {}",
            frugal.best.estimated_energy,
            accurate.best.estimated_energy,
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ctx = tiny_ctx();
        let config = EnasConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            grid_period: 2,
            seed: 9,
            ..EnasConfig::quick(0.5)
        };
        let a = run_enas(&ctx, &config);
        let b = run_enas(&ctx, &config);
        assert_eq!(a.best.candidate, b.best.candidate);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let ctx = tiny_ctx();
        let _ = run_enas(
            &ctx,
            &EnasConfig {
                population: 0,
                ..EnasConfig::quick(0.5)
            },
        );
    }
}
