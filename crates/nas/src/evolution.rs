//! The aging-evolution loop that eNAS phase 2, µNAS and the HarvNet-style
//! baseline all run, and the helpers the searches share. The searches
//! differ only in their scorer and their child step, so a comparison
//! between them measures the search policy and nothing else.

use rand::seq::SliceRandom;
use rand::Rng;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::parallel::{EvalEngine, EvalRequest};
use crate::task::TaskContext;

/// Runs `cycles` rounds of aging evolution from `population`. Each cycle
/// draws from the RNG in a fixed order: `scorer` builds the cycle's score
/// from the population (and may draw), a tournament of `sample_size` picks
/// the highest-scoring parent, and `child` makes its own draws and
/// evaluates. A child that evaluated replaces the oldest member.
///
/// Returns the final population and the history: the initial population
/// followed by every evaluated child.
pub(crate) fn aging_evolution<R: Rng, S: Fn(&Evaluated) -> f64>(
    rng: &mut R,
    mut population: Vec<Evaluated>,
    cycles: usize,
    sample_size: usize,
    mut scorer: impl FnMut(&[Evaluated], &mut R) -> S,
    mut child: impl FnMut(&Candidate, usize, &mut R) -> Option<Evaluated>,
) -> (Vec<Evaluated>, Vec<Evaluated>) {
    let mut history = population.clone();
    for cycle in 1..=cycles {
        let score = scorer(&population, rng);
        let sample = population.choose_multiple(rng, sample_size);
        let parent = best_by(sample, score).candidate.clone();
        if let Some(eval) = child(&parent, cycle, rng) {
            history.push(eval.clone());
            population.push(eval);
            population.remove(0); // aging: drop the oldest
        }
    }
    (population, history)
}

/// The highest-scoring evaluation, the last of equals. Panics when empty.
pub(crate) fn best_by<'a>(
    evals: impl IntoIterator<Item = &'a Evaluated>,
    score: impl Fn(&Evaluated) -> f64,
) -> &'a Evaluated {
    evals
        .into_iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("non-empty evaluations")
}

/// The most accurate accuracy-feasible evaluation, else the most accurate.
pub(crate) fn most_accurate(history: &[Evaluated]) -> Evaluated {
    let by_accuracy = |a: &&Evaluated, b: &&Evaluated| a.accuracy.total_cmp(&b.accuracy);
    history
        .iter()
        .filter(|e| e.meets_accuracy)
        .max_by(by_accuracy)
        .or_else(|| history.iter().max_by(by_accuracy))
        .expect("history is non-empty")
        .clone()
}

/// The `(min, max)` estimated energy; `(∞, 0)` when `evals` is empty.
pub(crate) fn envelope(evals: &[Evaluated]) -> (Energy, Energy) {
    let mut lo = Energy::new(f64::INFINITY);
    let mut hi = Energy::ZERO;
    for e in evals {
        lo = lo.min(e.estimated_energy);
        hi = hi.max(e.estimated_energy);
    }
    (lo, hi)
}

/// One constraint-satisfying random candidate per entry of `cycles`,
/// sampled sequentially (RNG order) and evaluated as one batch.
pub(crate) fn random_batch(
    ctx: &TaskContext,
    engine: &EvalEngine<'_>,
    rng: &mut impl Rng,
    cycles: impl IntoIterator<Item = usize>,
) -> Vec<Evaluated> {
    let requests: Vec<EvalRequest> = cycles
        .into_iter()
        .map(|cycle| EvalRequest::new(ctx.random_candidate(rng), cycle))
        .collect();
    engine
        .evaluate_batch(&requests)
        .into_iter()
        .flatten()
        .collect()
}

/// `parent` moved to `sensing`. The model is re-derived for the new input
/// shape: the parent's layers if they still validate, else a fresh sample.
pub(crate) fn resensed(
    ctx: &TaskContext,
    parent: &Candidate,
    sensing: SensingConfig,
    rng: &mut impl Rng,
) -> Candidate {
    let layers = parent.spec.layers().to_vec();
    let spec = match solarml_nn::ModelSpec::new(ctx.input_shape(sensing), layers) {
        Ok(spec) => spec,
        Err(_) => ctx.sampler(sensing).sample(rng),
    };
    Candidate { sensing, spec }
}

/// Rewrites `estimated_energy` with the µNAS-style total-MACs proxy (the
/// true energy is still recorded). Applied after cache retrieval: the memo
/// cache keeps the base layer-wise estimate, and this override is a pure
/// function of the candidate, so hits and misses agree.
pub(crate) fn total_mac_proxy(ctx: &TaskContext, mut eval: Evaluated) -> Evaluated {
    eval.estimated_energy = ctx.munas_estimated_energy(&eval.candidate);
    eval
}
