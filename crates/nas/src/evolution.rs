//! The aging-evolution loop that eNAS phase 2, µNAS and the HarvNet-style
//! baseline all run, and the helpers the searches share. The searches
//! differ only in their scorer, their child step and their energy
//! estimate, so a comparison between them measures the search policy and
//! nothing else.
//!
//! The loop plans ahead: no RNG draw depends on a training result, so the
//! draws of later cycles are made while earlier children still train, and
//! the planned cycles' evaluations go to the worker pool as one group. The
//! results commit in cycle order, so the search is bit-identical to running
//! the cycles one by one (DESIGN §4b).

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};

use rand::seq::SliceRandom;
use rand::Rng;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::parallel::{
    at_cycle, job_stream, Batch, EvalBackend, EvalEngine, EvalRequest, Outcome, Slot,
};
use crate::task::TaskContext;

/// The fixed parts of an aging-evolution run.
pub(crate) struct Aging<'e, B: ?Sized, E> {
    /// Evaluates the children.
    pub engine: &'e EvalEngine<'e, B>,
    /// The estimated energy every evaluation reports. It is known before
    /// training, and it replaces what the engine returns (the memo keeps
    /// the engine's value).
    pub estimate: E,
    /// Evolutionary cycles.
    pub cycles: usize,
    /// Tournament size.
    pub sample_size: usize,
}

/// What an aging-evolution run produced.
pub(crate) struct Evolved {
    /// The final population.
    pub population: Vec<Evaluated>,
    /// The initial population followed by every evaluated child.
    pub history: Vec<Evaluated>,
    /// How many cycles that trained fell into each evaluation group.
    pub groups: Vec<usize>,
}

/// What a scorer may read of the population: its estimated energies. They
/// are known before training, except a grid-mutation child's while it
/// trains, since the child is whichever neighbour scores best.
pub(crate) struct Energies {
    energies: Vec<Option<Energy>>,
    undecided: Cell<bool>,
}

impl Energies {
    fn new(energies: Vec<Option<Energy>>) -> Self {
        Self {
            energies,
            undecided: Cell::new(false),
        }
    }

    /// The `(min, max)` estimated energy, as [`envelope`] computes it.
    /// Reading an undecided energy stops the plan before this cycle.
    pub(crate) fn envelope(&self) -> (Energy, Energy) {
        if self.energies.iter().any(Option::is_none) {
            self.undecided.set(true);
        }
        energy_envelope(self.energies.iter().flatten().copied())
    }
}

/// One population member as the planner sees it.
enum Member {
    /// Evaluated: committed, or served from the memo.
    Known(Evaluated),
    /// The child of `cycle`, still training: every evaluation it may turn
    /// out to be, those still training at their best case.
    Pending {
        cycle: usize,
        options: Vec<Evaluated>,
    },
}

impl Member {
    fn energy(&self) -> Option<Energy> {
        match self {
            Self::Known(e) => Some(e.estimated_energy),
            Self::Pending { options, .. } => {
                let first = options[0].estimated_energy;
                options
                    .iter()
                    .all(|e| {
                        e.estimated_energy.as_joules().to_bits() == first.as_joules().to_bits()
                    })
                    .then_some(first)
            }
        }
    }
}

/// An evaluation at its best case: accuracy 1.0, which meets the accuracy
/// constraint. Every scorer is non-decreasing in both (pinned by a test) and
/// reads nothing else but the estimated energy, so no training result can
/// score higher. The true energy is left at zero; no scorer reads it.
fn best_case(candidate: &Candidate, estimated_energy: Energy, cycle: usize) -> Evaluated {
    Evaluated {
        candidate: candidate.clone(),
        accuracy: 1.0,
        estimated_energy,
        true_energy: Energy::ZERO,
        meets_accuracy: true,
        cycle,
    }
}

/// The tournament's winner once it is decided: the best known member, the
/// last of equals as in [`best_by`], provided every pending member scores
/// strictly less even at its best case. `None` while a pending member
/// might win.
fn decided_winner<'m>(
    sample: impl IntoIterator<Item = &'m Member>,
    score: &impl Fn(&Evaluated) -> f64,
) -> Option<&'m Evaluated> {
    let mut best: Option<(&Evaluated, f64)> = None;
    let mut best_cases = Vec::new();
    for member in sample {
        match member {
            Member::Known(e) => {
                let s = score(e);
                if best.is_none_or(|(_, top)| s.total_cmp(&top).is_ge()) {
                    best = Some((e, s));
                }
            }
            Member::Pending { options, .. } => best_cases.extend(options.iter().map(score)),
        }
    }
    let (winner, top) = best?;
    best_cases
        .iter()
        .all(|s| s.total_cmp(&top).is_lt())
        .then_some(winner)
}

/// A cycle's child: its best-scoring evaluation, the first of equals.
fn pick(
    evals: impl IntoIterator<Item = Evaluated>,
    score: impl Fn(&Evaluated) -> f64,
) -> Option<Evaluated> {
    evals
        .into_iter()
        .reduce(|a, b| if score(&b) > score(&a) { b } else { a })
}

/// A cycle planned ahead of its evaluations.
struct Planned<R, S> {
    cycle: usize,
    score: S,
    /// One per child request, in request order.
    slots: Vec<Slot>,
    /// The jobs this cycle queued first.
    jobs: Range<usize>,
    /// One past the last job the cycle waits for: its own, and those of
    /// earlier cycles that it repeats.
    waits_for: usize,
    /// The search RNG after this cycle's draws.
    rng: R,
}

/// Aging evolution while it runs: the search as committed, and the cycles
/// planned ahead of it, whose jobs may still be training.
struct Planner<'a, 'e, B: ?Sized, E, R, S, Sc, Ch> {
    aging: &'a Aging<'e, B, E>,
    scorer: Sc,
    child: Ch,
    /// The search RNG as the last committed cycle left it.
    rng: R,
    population: Vec<Evaluated>,
    history: Vec<Evaluated>,
    groups: Vec<usize>,
    /// Every job queued, and the outcomes of a prefix of them.
    batch: Batch<'e, B>,
    outcomes: Vec<Outcome>,
    /// The population and the RNG as the last planned cycle left them.
    members: Vec<Member>,
    ahead: R,
    /// The next cycle to plan.
    next: usize,
    planned: VecDeque<Planned<R, S>>,
}

impl<B, E, R, S, Sc, Ch> Planner<'_, '_, B, E, R, S, Sc, Ch>
where
    B: EvalBackend + ?Sized,
    E: Fn(&Candidate) -> Energy,
    R: Rng + Clone,
    S: Fn(&Evaluated) -> f64,
    Sc: FnMut(&Energies, &mut R) -> S,
    Ch: FnMut(&Candidate, usize, &mut R) -> Vec<Candidate>,
{
    fn finish(&self, eval: Evaluated) -> Evaluated {
        reestimated(eval, &self.aging.estimate)
    }

    /// Plans cycles while their tournaments are decided. The cycles of one
    /// call that queued jobs form one group.
    fn plan(&mut self) {
        let mut trained = 0;
        while self.next <= self.aging.cycles {
            let Some(planned) = self.plan_cycle(self.next) else {
                break;
            };
            trained += usize::from(!planned.jobs.is_empty());
            self.planned.push_back(planned);
            self.next += 1;
        }
        if trained > 0 {
            self.groups.push(trained);
        }
    }

    /// Makes `cycle`'s draws and resolves its requests, or `None`, leaving
    /// no draw behind, while its scorer or its tournament is undecided.
    fn plan_cycle(&mut self, cycle: usize) -> Option<Planned<R, S>> {
        let mut rng = self.ahead.clone();
        let energies = Energies::new(self.members.iter().map(Member::energy).collect());
        let score = (self.scorer)(&energies, &mut rng);
        if energies.undecided.get() {
            return None;
        }
        let sample = self
            .members
            .choose_multiple(&mut rng, self.aging.sample_size);
        let parent = decided_winner(sample, &score)?.candidate.clone();
        let requests = (self.child)(&parent, cycle, &mut rng);
        let first_job = self.batch.jobs().len();
        let slots: Vec<Slot> = requests
            .iter()
            .enumerate()
            .map(|(i, cand)| self.batch.resolve(cand, cycle, i))
            .collect();
        let mut waits_for = 0;
        let mut options = Vec::new();
        for (slot, cand) in slots.iter().zip(&requests) {
            match slot {
                Slot::Infeasible => {}
                Slot::Hit(eval) => options.push(self.finish(eval.clone())),
                Slot::Pending(job) => {
                    waits_for = waits_for.max(job + 1);
                    let energy = (self.aging.estimate)(cand);
                    options.push(best_case(cand, energy, cycle));
                }
            }
        }
        let member = if waits_for > 0 {
            Some(Member::Pending { cycle, options })
        } else {
            pick(options, &score).map(Member::Known)
        };
        if let Some(member) = member {
            self.members.push(member);
            self.members.remove(0); // aging: drop the oldest
        }
        self.ahead = rng.clone();
        Some(Planned {
            cycle,
            score,
            slots,
            jobs: first_job..self.batch.jobs().len(),
            waits_for,
            rng,
        })
    }

    /// Commits the oldest planned cycle if every job it waits for is done.
    /// A cycle left without the child it planned drops every cycle planned
    /// after it, unpublished; planning resumes from its RNG.
    fn commit(&mut self) -> bool {
        let Some(planned) = self
            .planned
            .pop_front_if(|p| p.waits_for <= self.outcomes.len())
        else {
            return false;
        };
        let mut failed = false;
        let mut evals = Vec::new();
        for slot in planned.slots {
            let eval = match slot {
                Slot::Infeasible => None,
                Slot::Hit(eval) => Some(eval),
                Slot::Pending(job) => {
                    let eval = at_cycle(&self.outcomes[job], planned.cycle).ok().flatten();
                    failed |= eval.is_none();
                    eval
                }
            };
            evals.extend(eval.map(|eval| self.finish(eval)));
        }
        for job in planned.jobs {
            self.batch.publish(job, &self.outcomes[job]);
        }
        let child = pick(evals, &planned.score);
        if let Some(eval) = &child {
            self.history.push(eval.clone());
            self.population.push(eval.clone());
            self.population.remove(0); // aging: drop the oldest
        }
        self.rng = planned.rng;
        if failed {
            self.planned.clear();
            self.batch.forget_jobs();
            self.members = self.population.iter().cloned().map(Member::Known).collect();
            self.ahead = self.rng.clone();
            self.next = planned.cycle + 1;
        } else if let Some(eval) = child {
            let cycle = planned.cycle;
            if let Some(member) = self
                .members
                .iter_mut()
                .find(|m| matches!(m, Member::Pending { cycle: c, .. } if *c == cycle))
            {
                *member = Member::Known(eval);
            }
        }
        true
    }

    /// Plans, then commits what is ready, until neither moves.
    fn advance(&mut self) {
        loop {
            self.plan();
            if !self.commit() {
                break;
            }
        }
    }

    /// Every cycle committed and every job returned: jobs of dropped
    /// cycles run to the end too, so what was trained does not depend on
    /// timing either.
    fn finished(&self) -> bool {
        self.next > self.aging.cycles
            && self.planned.is_empty()
            && self.outcomes.len() == self.batch.jobs().len()
    }
}

/// Runs `cycles` rounds of aging evolution from `population`. Each cycle
/// draws from the RNG in a fixed order: `scorer` builds the cycle's score
/// from the population's energies (and may draw), a tournament of
/// `sample_size` picks the highest-scoring parent, and `child` makes its own
/// draws and returns the cycle's requests. The best-scoring request that
/// evaluates (the first of equals) replaces the oldest member; a cycle
/// whose requests all fail leaves the population as it is.
///
/// Cycles are planned ahead while each tournament is decided, that is while
/// no member still training could win it even at its best case, and while
/// the scorer reads no undecided energy. Their jobs train while later
/// cycles are planned, each with its own `(cycle, index)` seed; a repeat
/// resolves onto its first occurrence. Results reach the population, the
/// history and the memo in cycle order, and the planner resumes after each
/// committed cycle. A cycle with a failed evaluation drops what was planned
/// after it, unpublished, and planning resumes from the RNG as that cycle
/// left it. What is planned when depends on the inputs only, never on the
/// worker count or on timing.
pub(crate) fn aging_evolution<B, E, R, S>(
    aging: &Aging<'_, B, E>,
    rng: &mut R,
    population: Vec<Evaluated>,
    scorer: impl FnMut(&Energies, &mut R) -> S + Send,
    child: impl FnMut(&Candidate, usize, &mut R) -> Vec<Candidate> + Send,
) -> Evolved
where
    B: EvalBackend + ?Sized,
    E: Fn(&Candidate) -> Energy + Sync,
    R: Rng + Clone + Send,
    S: Fn(&Evaluated) -> f64 + Send,
{
    let engine = aging.engine;
    let mut planner = Planner {
        aging,
        scorer,
        child,
        rng: rng.clone(),
        history: population.clone(),
        members: population.iter().cloned().map(Member::Known).collect(),
        population,
        groups: Vec::new(),
        batch: engine.batch(),
        outcomes: Vec::new(),
        ahead: rng.clone(),
        next: 1,
        planned: VecDeque::new(),
    };
    planner.advance();
    let first = planner.batch.jobs().to_vec();
    job_stream(
        engine.workers(),
        first,
        |i, job| engine.train(i, job),
        |outcome, issue| {
            let issued = planner.batch.jobs().len();
            planner.outcomes.push(outcome);
            planner.advance();
            issue.extend_from_slice(&planner.batch.jobs()[issued..]);
            if planner.finished() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    *rng = planner.rng;
    Evolved {
        population: planner.population,
        history: planner.history,
        groups: planner.groups,
    }
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
    energy_envelope(evals.iter().map(|e| e.estimated_energy))
}

fn energy_envelope(energies: impl IntoIterator<Item = Energy>) -> (Energy, Energy) {
    let mut lo = Energy::new(f64::INFINITY);
    let mut hi = Energy::ZERO;
    for e in energies {
        lo = lo.min(e);
        hi = hi.max(e);
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

/// `eval` reporting `estimate`'s energy. eNAS's ablation and µNAS report
/// the total-MACs proxy this way (the true energy is still recorded); the
/// memo keeps the layer-wise estimate, and the estimate is a pure function
/// of the candidate, so hits and misses agree.
pub(crate) fn reestimated(
    mut eval: Evaluated,
    estimate: impl Fn(&Candidate) -> Energy,
) -> Evaluated {
    eval.estimated_energy = estimate(&eval.candidate);
    eval
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use proptest::prelude::*;
    use proptest::TestCaseError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use solarml_dsp::{GestureSensingParams, Resolution};
    use solarml_nn::{LayerSpec, ModelSpec};

    use super::*;
    use crate::baselines::ratio_objective;
    use crate::munas::scalarized;

    fn fnv(bytes: impl IntoIterator<Item = u8>, salt: u64) -> u64 {
        bytes
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325 ^ salt, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// An evaluation backend that scores from a hash of the candidate and
    /// the seed instead of training. Some candidates are statically
    /// infeasible, some (candidate, seed) pairs panic, accuracies take five
    /// values with 1.0 among them and energies three, so ties with a best
    /// case are common.
    struct Stub {
        salt: u64,
        memo: Mutex<HashMap<Candidate, Evaluated>>,
        trained: AtomicUsize,
    }

    impl Stub {
        fn new(salt: u64) -> Self {
            Self {
                salt,
                memo: Mutex::new(HashMap::new()),
                trained: AtomicUsize::new(0),
            }
        }

        fn key(&self, cand: &Candidate) -> u64 {
            fnv(cand.to_string().into_bytes(), self.salt)
        }

        fn energy(&self, cand: &Candidate) -> Energy {
            Energy::from_micro_joules(100.0 * (1 + (self.key(cand) >> 8) % 3) as f64)
        }

        fn scored(&self, cand: &Candidate, cycle: usize, seed: u64) -> Evaluated {
            let h = fnv(seed.to_le_bytes(), self.key(cand));
            let accuracy = ((h >> 16) % 5) as f64 / 4.0;
            Evaluated {
                candidate: cand.clone(),
                accuracy,
                estimated_energy: self.energy(cand),
                true_energy: self.energy(cand),
                meets_accuracy: accuracy >= 0.5,
                cycle,
            }
        }

        fn memo(&self) -> HashMap<Candidate, Evaluated> {
            self.memo.lock().expect("memo lock").clone()
        }
    }

    impl EvalBackend for Stub {
        fn satisfies_static(&self, cand: &Candidate) -> bool {
            !self.key(cand).is_multiple_of(5)
        }

        fn evaluate_seeded(&self, cand: &Candidate, cycle: usize, seed: u64) -> Option<Evaluated> {
            self.trained.fetch_add(1, Ordering::Relaxed);
            let eval = self.scored(cand, cycle, seed);
            assert!(
                !fnv(seed.to_le_bytes(), self.salt).is_multiple_of(6),
                "stub panic"
            );
            Some(eval)
        }

        fn cached_evaluation(&self, cand: &Candidate) -> Option<Evaluated> {
            self.memo.lock().expect("memo lock").get(cand).cloned()
        }

        fn store_evaluation(&self, cand: &Candidate, eval: &Evaluated) {
            self.memo
                .lock()
                .expect("memo lock")
                .entry(cand.clone())
                .or_insert_with(|| eval.clone());
        }
    }

    /// `n` distinct candidates: one front end, dense heads of growing width.
    fn pool(n: usize) -> Vec<Candidate> {
        let params = GestureSensingParams::new(3, 50, Resolution::Int, 8).expect("valid");
        (0..n)
            .map(|k| Candidate {
                sensing: SensingConfig::Gesture(params),
                spec: ModelSpec::new(
                    [10, 3, 1],
                    vec![LayerSpec::flatten(), LayerSpec::dense(k + 2)],
                )
                .expect("valid"),
            })
            .collect()
    }

    /// One aging-evolution setting over the stub.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        salt: u64,
        pool: usize,
        population: usize,
        sample_size: usize,
        cycles: usize,
        grid_period: usize,
    }

    /// The loop as it ran before planning ahead: one cycle at a time, each
    /// child evaluated before the next tournament.
    fn sequential<B, E, S>(
        aging: &Aging<'_, B, E>,
        rng: &mut StdRng,
        mut population: Vec<Evaluated>,
        mut scorer: impl FnMut(&Energies, &mut StdRng) -> S,
        mut child: impl FnMut(&Candidate, usize, &mut StdRng) -> Vec<Candidate>,
    ) -> (Vec<Evaluated>, Vec<Evaluated>)
    where
        B: EvalBackend + ?Sized,
        E: Fn(&Candidate) -> Energy,
        S: Fn(&Evaluated) -> f64,
    {
        let mut history = population.clone();
        for cycle in 1..=aging.cycles {
            let energies = Energies::new(
                population
                    .iter()
                    .map(|e| Some(e.estimated_energy))
                    .collect(),
            );
            let score = scorer(&energies, rng);
            let sample = population.choose_multiple(rng, aging.sample_size);
            let parent = best_by(sample, &score).candidate.clone();
            let requests: Vec<EvalRequest> = child(&parent, cycle, rng)
                .into_iter()
                .map(|cand| EvalRequest::new(cand, cycle))
                .collect();
            let evals = aging
                .engine
                .evaluate_batch(&requests)
                .into_iter()
                .flatten()
                .map(|eval| reestimated(eval, &aging.estimate));
            if let Some(eval) = pick(evals, &score) {
                history.push(eval.clone());
                population.push(eval);
                population.remove(0);
            }
        }
        (population, history)
    }

    /// What one run left behind.
    struct Run {
        population: Vec<Evaluated>,
        history: Vec<Evaluated>,
        memo: HashMap<Candidate, Evaluated>,
        trained: usize,
        groups: Vec<usize>,
    }

    /// Runs `case` with `scorer` sequentially (`workers` = `None`) or
    /// planned ahead on `workers` workers.
    fn run<S: Fn(&Evaluated) -> f64 + Send>(
        case: Case,
        workers: Option<usize>,
        scorer: impl FnMut(&Energies, &mut StdRng) -> S + Send,
    ) -> Run {
        let stub = Stub::new(case.salt);
        let engine = EvalEngine::new(&stub, case.salt, workers.unwrap_or(1));
        let aging = Aging {
            engine: &engine,
            estimate: |c: &Candidate| stub.energy(c),
            cycles: case.cycles,
            sample_size: case.sample_size,
        };
        let pool = pool(case.pool);
        let population: Vec<Evaluated> = (0..case.population)
            .map(|i| stub.scored(&pool[i % pool.len()], 0, i as u64))
            .collect();
        // A single mutation most cycles; every `grid_period`-th cycle three
        // requests, which may repeat each other.
        let child = |parent: &Candidate, cycle: usize, rng: &mut StdRng| {
            let at = pool.iter().position(|c| c == parent).expect("pool member");
            let requests = if case.grid_period > 0 && cycle % case.grid_period == 0 {
                3
            } else {
                1
            };
            (0..requests)
                .map(|_| pool[(at + rng.gen_range(1..pool.len() + 1)) % pool.len()].clone())
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(case.salt);
        let (population, history, groups) = match workers {
            None => {
                let (population, history) = sequential(&aging, &mut rng, population, scorer, child);
                (population, history, Vec::new())
            }
            Some(_) => {
                let evolved = aging_evolution(&aging, &mut rng, population, scorer, child);
                (evolved.population, evolved.history, evolved.groups)
            }
        };
        Run {
            population,
            history,
            memo: stub.memo(),
            trained: stub.trained.load(Ordering::Relaxed),
            groups,
        }
    }

    /// The planner against the sequential oracle at 1, 2 and 4 workers.
    /// Returns the planner's run, whose groups and training count do not
    /// depend on the worker count.
    fn planner_matches_oracle<S: Fn(&Evaluated) -> f64 + Send>(
        case: Case,
        scorer: impl FnMut(&Energies, &mut StdRng) -> S + Clone + Send,
    ) -> Result<Run, TestCaseError> {
        let oracle = run(case, None, scorer.clone());
        let mut planned: Option<Run> = None;
        for workers in [1, 2, 4] {
            let got = run(case, Some(workers), scorer.clone());
            prop_assert!(got.history == oracle.history, "history, {workers} workers");
            prop_assert!(
                got.population == oracle.population,
                "population, {workers} workers"
            );
            // Nothing trained under a dropped plan reaches the memo.
            prop_assert!(got.memo == oracle.memo, "memo, {workers} workers");
            if let Some(first) = &planned {
                prop_assert_eq!(&got.groups, &first.groups);
                prop_assert_eq!(got.trained, first.trained);
            }
            planned = Some(got);
        }
        Ok(planned.expect("three runs"))
    }

    /// eNAS's objective over the stub's energy range.
    fn objective(e: &Evaluated) -> f64 {
        e.objective(
            0.5,
            Energy::from_micro_joules(100.0),
            Energy::from_micro_joules(300.0),
        )
    }

    fn case(
        salt: u64,
        pool: usize,
        population: usize,
        sample: usize,
        cycles: usize,
        grid: usize,
    ) -> Case {
        Case {
            salt,
            pool,
            population,
            sample_size: sample.clamp(1, population),
            cycles,
            grid_period: grid,
        }
    }

    proptest! {
        #[test]
        fn planning_ahead_matches_the_sequential_loop(
            salt in 0u64..u64::MAX,
            pool in 2usize..10,
            population in 2usize..9,
            sample in 1usize..9,
            cycles in 1usize..30,
            grid in 0usize..5,
        ) {
            let case = case(salt, pool, population, sample, cycles, grid);
            planner_matches_oracle(case, |_: &Energies, _: &mut StdRng| objective)?;
            planner_matches_oracle(case, scalarized)?;
            planner_matches_oracle(case, |_: &Energies, _: &mut StdRng| ratio_objective)?;
        }

        #[test]
        fn every_scorer_is_non_decreasing_in_accuracy_and_feasibility(
            accuracy in 0.0f64..1.0,
            gain in 0.0f64..1.0,
            energy_uj in 1.0f64..1_000.0,
            lo_uj in 1.0f64..1_000.0,
            span_uj in 0.0f64..1_000.0,
            seed in 0u64..u64::MAX,
        ) {
            let population = Energies::new(vec![
                Some(Energy::from_micro_joules(lo_uj)),
                Some(Energy::from_micro_joules(lo_uj + span_uj)),
            ]);
            let (lo, hi) = population.envelope();
            let munas = scalarized(&population, &mut StdRng::seed_from_u64(seed));
            let enas = |e: &Evaluated| e.objective(gain, lo, hi);
            let scorers: [&dyn Fn(&Evaluated) -> f64; 3] = [&enas, &munas, &ratio_objective];
            let at = |accuracy: f64, meets_accuracy: bool| Evaluated {
                accuracy,
                meets_accuracy,
                ..best_case(&pool(1)[0], Energy::from_micro_joules(energy_uj), 1)
            };
            let better = (accuracy + gain).min(1.0);
            for score in scorers {
                for meets in [false, true] {
                    prop_assert!(score(&at(accuracy, meets)) <= score(&at(better, meets)));
                    prop_assert!(score(&at(better, meets)) <= score(&at(1.0, meets)));
                }
                prop_assert!(score(&at(accuracy, false)) <= score(&at(accuracy, true)));
            }
        }
    }

    /// Fixed settings that reach every path the proptest relies on: groups
    /// of several trained cycles, panics that drop planned work, and
    /// tournaments that wait for a pending child.
    #[test]
    fn the_stub_reaches_every_planner_path() {
        let (mut widest, mut dropped, mut waits) = (0, 0, 0);
        for salt in 0..40 {
            let case = case(salt, 8, 6, 3, 24, 4);
            let planned = planner_matches_oracle(case, |_: &Energies, _: &mut StdRng| objective)
                .unwrap_or_else(|e| panic!("salt {salt}: {e}"));
            let oracle = run(case, None, |_: &Energies, _: &mut StdRng| objective);
            widest = widest.max(planned.groups.iter().copied().max().unwrap_or(0));
            dropped += usize::from(planned.trained > oracle.trained);
            waits += usize::from(planned.groups.len() > 1);
        }
        assert!(widest >= 3, "largest group {widest}");
        assert!(dropped > 0, "no plan was dropped");
        assert!(waits > 0, "no tournament waited for a pending child");
    }

    #[test]
    fn a_pending_child_blocks_the_tournament_only_if_it_could_win() {
        let cands = pool(3);
        let uj = Energy::from_micro_joules;
        let known = |c: usize, accuracy: f64| {
            Member::Known(Evaluated {
                accuracy,
                ..best_case(&cands[c], uj(200.0), 0)
            })
        };
        let pending = |energy_uj: f64| Member::Pending {
            cycle: 1,
            options: vec![best_case(&cands[2], uj(energy_uj), 1)],
        };
        let winner = |sample: &[&Member]| {
            decided_winner(sample.iter().copied(), &objective).map(|e| e.candidate.clone())
        };
        // A tie at the bound blocks, in either order: the pending child
        // would win as the later of equals.
        assert_eq!(winner(&[&known(0, 1.0), &pending(200.0)]), None);
        assert_eq!(winner(&[&pending(200.0), &known(0, 1.0)]), None);
        // Strictly below the best known score, it cannot win.
        assert_eq!(
            winner(&[&pending(300.0), &known(0, 1.0)]),
            Some(cands[0].clone())
        );
        // The last of equals among known members wins, as in `best_by`.
        let sample = [&known(0, 1.0), &known(1, 1.0), &pending(300.0)];
        assert_eq!(winner(&sample), Some(cands[1].clone()));
        // A sample of pending children alone is undecided.
        assert_eq!(winner(&[&pending(300.0)]), None);
    }
}
