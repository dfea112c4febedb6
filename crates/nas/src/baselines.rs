//! Additional search baselines from the paper's related-work discussion.
//!
//! * [`run_harvnet_style`] — HarvNet (MobiSys '23) combines accuracy and
//!   energy into the single ratio objective `max A/E`. The paper's critique:
//!   "the lack of parameters does not allow exploring the Pareto frontier" —
//!   the ratio has one fixed exchange rate, so the search cannot be steered
//!   toward accuracy-first or energy-first corners.
//! * [`run_random_search`] — pure random sampling under the constraints, the
//!   standard sanity baseline for any NAS claim (Liashchynskyi &
//!   Liashchynskyi, the paper's grid/random/GA comparison reference).
//!
//! Both share eNAS's trainer, candidate space and constraint handling, and
//! take µNAS's [`MunasConfig`] (population, tournament, cycles, seed,
//! workers). The HarvNet-style search runs the same aging-evolution loop as
//! eNAS and µNAS, with the ratio as its score, so differences are
//! attributable to the search strategy alone.

use rand::seq::SliceRandom;

use crate::candidate::{Candidate, Evaluated};
use crate::evolution::{
    aging_evolution, best_by, envelope, most_accurate, random_batch, resensed, Aging,
};
use crate::munas::MunasConfig;
use crate::parallel::EvalEngine;
use crate::task::{SearchOutcome, TaskContext};

/// The HarvNet-style ratio objective `A / E` (estimated energy, µJ).
pub(crate) fn ratio_objective(e: &Evaluated) -> f64 {
    let uj = e.estimated_energy.as_micro_joules().max(1e-6);
    let base = e.accuracy / uj;
    if e.meets_accuracy {
        base
    } else {
        base * 1e-3 // infeasible candidates are strongly discounted
    }
}

/// Runs a HarvNet-style aging evolution over the *joint* space with the
/// ratio objective (sensing mutations reuse eNAS's grid morphisms every
/// fourth cycle so the comparison isolates the objective, not the space).
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero.
pub fn run_harvnet_style(ctx: &TaskContext, config: &MunasConfig) -> SearchOutcome {
    assert!(config.population > 0, "population must be positive");
    assert!(config.sample_size > 0, "sample size must be positive");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let engine = EvalEngine::new(ctx, config.seed, config.workers);

    // Phase 1: sample sequentially (RNG order), train in parallel.
    let population = random_batch(ctx, &engine, &mut rng, vec![0; config.population]);
    let aging = Aging {
        engine: &engine,
        estimate: |c: &Candidate| ctx.estimated_energy(c),
        cycles: config.cycles,
        sample_size: config.sample_size,
    };
    let evolved = aging_evolution(
        &aging,
        &mut rng,
        population,
        |_, _| ratio_objective,
        |parent, cycle, rng| {
            // Mostly model morphisms; occasionally step the sensing space too.
            let neighbor = if cycle % 4 == 0 {
                ctx.sensing_neighbors(parent.sensing).choose(rng).copied()
            } else {
                None
            };
            vec![match neighbor {
                Some(sensing) => resensed(ctx, parent, sensing, rng),
                None => ctx.mutate_model(parent, rng),
            }]
        },
    );

    SearchOutcome {
        best: best_by(&evolved.history, ratio_objective).clone(),
        energy_envelope: envelope(&evolved.history),
        history: evolved.history,
        groups: evolved.groups,
    }
}

/// Pure random search: `population + cycles` constraint-satisfying samples,
/// best by accuracy among feasible candidates.
pub fn run_random_search(ctx: &TaskContext, config: &MunasConfig) -> SearchOutcome {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let engine = EvalEngine::new(ctx, config.seed, config.workers);
    // One deterministic batch: sample index doubles as the recorded cycle
    // (`random_candidate` guarantees feasibility, so nothing drops out).
    let history = random_batch(ctx, &engine, &mut rng, 0..config.population + config.cycles);
    SearchOutcome {
        best: most_accurate(&history),
        energy_envelope: envelope(&history),
        history,
        groups: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 21);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    #[test]
    fn harvnet_style_runs_and_prefers_cheap_accurate() {
        let ctx = tiny_ctx();
        let cfg = MunasConfig {
            seed: 0xBA5E,
            ..MunasConfig::quick()
        };
        let out = run_harvnet_style(&ctx, &cfg);
        assert!(!out.history.is_empty());
        // The winner's ratio is maximal over the history.
        let best_ratio = ratio_objective(&out.best);
        for e in &out.history {
            assert!(ratio_objective(e) <= best_ratio + 1e-15);
        }
    }

    #[test]
    fn harvnet_winner_avoids_the_expensive_tail() {
        // The ratio objective weights energy heavily, but a sufficiently
        // accurate candidate can outrank cheaper ones — so assert only that
        // the winner stays out of the most expensive quartile.
        let ctx = tiny_ctx();
        let cfg = MunasConfig {
            seed: 7,
            ..MunasConfig::quick()
        };
        let out = run_harvnet_style(&ctx, &cfg);
        let mut energies: Vec<f64> = out
            .history
            .iter()
            .map(|e| e.estimated_energy.as_micro_joules())
            .collect();
        energies.sort_by(f64::total_cmp);
        let p75 = energies[(energies.len() * 3) / 4];
        assert!(out.best.estimated_energy.as_micro_joules() <= p75 + 1e-9);
    }

    #[test]
    fn random_search_exhausts_budget() {
        let ctx = tiny_ctx();
        let cfg = MunasConfig {
            seed: 0xBA5E,
            ..MunasConfig::quick()
        };
        let out = run_random_search(&ctx, &cfg);
        assert_eq!(out.history.len(), cfg.population + cfg.cycles);
    }

    #[test]
    fn baselines_are_deterministic() {
        let ctx = tiny_ctx();
        let cfg = MunasConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            seed: 5,
            ..MunasConfig::quick()
        };
        let a = run_harvnet_style(&ctx, &cfg);
        let b = run_harvnet_style(&ctx, &cfg);
        assert_eq!(a.best.candidate, b.best.candidate);
        let c = run_random_search(&ctx, &cfg);
        let d = run_random_search(&ctx, &cfg);
        assert_eq!(c.best.candidate, d.best.candidate);
    }
}
