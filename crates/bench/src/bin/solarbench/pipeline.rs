//! `paper_pipeline`: the paper's workflow for both tasks — quick eNAS, the
//! winner's ground-truth energy budget, and a faulted day of the winner
//! deployed on `stressed_office_day`.
//!
//! The search runs the `Pipeline` defaults (corpus seed, search seed,
//! 12 samples per class, 10 epochs) whatever `--seed` says: its trajectory
//! is chaotic in its inputs (one probe measured gesture search times from
//! 0.3 s to 5.4 s over seeds 1–6), so no bound would hold across seeds.
//! `--seed` picks the deployment node.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::SeedableRng;
use solarml::fleet::{PopulationSpec, FLEET_SEED_CYCLE};
use solarml::nas::parallel::derive_seed;
use solarml::nn::{evaluate, fit, Model};
use solarml::platform::{simulate_faulted_day, DayFaultReport, PhasePlan, TaskProfile};
use solarml::scenario::registry;
use solarml::{run_enas, Candidate, EnasConfig, Energy, Pipeline, SearchOutcome, SensingConfig};
use solarml::{TaskContext, TaskSelection};

use crate::layers::{DayTally, Metric};
use crate::run::{fingerprint, panics, Run};
use crate::tracer::{span, Tracer};

/// One task of the pipeline and the span names of its layers.
struct Task {
    label: &'static str,
    selection: TaskSelection,
    context: &'static str,
    search: &'static str,
    eval: &'static str,
    dataset: &'static str,
    train: &'static str,
    infer: &'static str,
}

const TASKS: [Task; 2] = [
    Task {
        label: "gesture",
        selection: TaskSelection::GestureDigits,
        context: "nas.gesture.context",
        search: "nas.gesture.search",
        eval: "nas.gesture.eval",
        dataset: "dsp.gesture.dataset",
        train: "nn.gesture.train",
        infer: "nn.gesture.eval",
    },
    Task {
        label: "kws",
        selection: TaskSelection::Kws,
        context: "nas.kws.context",
        search: "nas.kws.search",
        eval: "nas.kws.eval",
        dataset: "dsp.kws.dataset",
        train: "nn.kws.train",
        infer: "nn.kws.eval",
    },
];

/// Deployment scenario of the winners.
const DEPLOY_SCENARIO: &str = "stressed_office_day";

/// Untraced/traced rep pairs of a traced run: with the history replay
/// after the first pair, three keep the traced run near 30 s.
const MAX_TRACED: usize = 3;

/// What one task's part of a rep produced.
struct Searched {
    outcome: SearchOutcome,
    /// Distinct candidates the search trained.
    trained: usize,
    /// Candidate evaluations that panicked; the search drops them as
    /// infeasible, so only the panic hook sees them.
    panicked: u64,
    search_s: f64,
    day: DayFaultReport,
    day_json: String,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs the winner's day on the deployment node: the scenario's blueprint
/// with the winner's phase plan and energy budget.
fn deploy(
    tracer: Option<&Tracer>,
    spec: &PopulationSpec,
    winner: &Candidate,
    budget: Energy,
    seed: u64,
) -> DayFaultReport {
    let blueprint = {
        let _g = span(tracer, "population.blueprint", None);
        spec.node_blueprint(seed)
    };
    let profile = match winner.sensing {
        SensingConfig::Gesture(params) => TaskProfile::Gesture {
            params,
            spec: winner.spec.clone(),
        },
        SensingConfig::Audio(params) => TaskProfile::Kws {
            params,
            spec: winner.spec.clone(),
        },
    };
    let mut cfg = blueprint.config;
    cfg.plan = PhasePlan::from_task(&profile, &cfg.mcu);
    cfg.base.budget_per_inference = budget;
    let _g = span(tracer, "day_sim", None);
    simulate_faulted_day(&cfg)
}

/// One rep: fresh contexts (set-up, untimed), then search, budget and
/// deployment for each task (timed). Returns the timed seconds and what
/// each task produced.
fn rep(run: &mut Run, tracer: Option<&Tracer>, spec: &PopulationSpec) -> (f64, Vec<Searched>) {
    // Fresh contexts every rep: a context memoises every trained
    // candidate, so a reused one would turn the next search into lookups.
    let t = Instant::now();
    let contexts: Vec<TaskContext> = {
        let _setup = span(tracer, "setup", None);
        TASKS
            .iter()
            .map(|task| {
                let _g = span(tracer, task.context, None);
                Pipeline::new(task.selection).context()
            })
            .collect()
    };
    run.setup_s.push(secs(t));

    let search = EnasConfig {
        workers: run.workers,
        ..EnasConfig::quick(0.5)
    };
    let deploy_seed = derive_seed(run.seed, FLEET_SEED_CYCLE, 0);
    let rep = span(tracer, "rep", None);
    let t = Instant::now();
    let mut out = Vec::new();
    for (task, ctx) in TASKS.iter().zip(&contexts) {
        let panics_before = panics();
        let searching = Instant::now();
        let outcome = {
            let _g = span(tracer, task.search, None);
            run_enas(ctx, &search)
        };
        let search_s = secs(searching);
        let panicked = panics() - panics_before;
        let budget = {
            let _g = span(tracer, "energy.ground", None);
            ctx.true_energy(&outcome.best.candidate)
        };
        let day = deploy(tracer, spec, &outcome.best.candidate, budget, deploy_seed);
        let day_json = {
            let _g = span(tracer, "report.to_json", None);
            day.to_json()
        };
        out.push(Searched {
            trained: ctx.eval_cache_len(),
            panicked,
            outcome,
            search_s,
            day,
            day_json,
        });
    }
    let elapsed = secs(t);
    drop(rep);
    (elapsed, out)
}

/// Output checks of one rep: identical search outcomes rep to rep, and a
/// deployed day whose energy ledger closes.
fn check(run: &mut Run, results: &[Searched], firsts: &mut [Option<SearchOutcome>; 2]) {
    for ((task, s), first) in TASKS.iter().zip(results).zip(firsts.iter_mut()) {
        let label = task.label;
        // A panicked evaluation is never memoised, so the context's cache
        // holds exactly the evaluations that succeeded.
        run.work(s.trained as u64 + s.panicked, s.panicked, || {
            format!("{label}: {} candidate evaluations panicked", s.panicked)
        });
        match first {
            None => *first = Some(s.outcome.clone()),
            Some(first) => run.check(*first == s.outcome, || {
                format!("{label}: the search outcome differs between reps")
            }),
        }
        let residual_nj = s.day.audit.discrepancy.as_joules().abs() * 1e9;
        run.check(residual_nj <= 1.0, || {
            format!("{label}: deployed-day ledger residual {residual_nj} nJ")
        });
        run.count(
            &format!("{label}.search_fnv"),
            fingerprint(&s.outcome.to_csv()),
        );
        run.count(&format!("{label}.trained"), s.trained);
        run.count(&format!("{label}.day_fnv"), fingerprint(&s.day_json));
    }
}

/// One candidate's evaluation, layer by layer, as `TaskContext::evaluate`
/// performs it. Returns the held-out accuracy.
fn evaluate_traced(
    tracer: &Tracer,
    task: &Task,
    ctx: &TaskContext,
    cand: &Candidate,
    seed: u64,
    first_for_sensing: bool,
    req: Option<u64>,
) -> f64 {
    let _eval = tracer.span(task.eval, req);
    let data = {
        // Only the first request per sensing configuration transforms the
        // corpus; later ones are cache hits.
        let _g = first_for_sensing.then(|| tracer.span(task.dataset, req));
        ctx.datasets(cand.sensing)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model = {
        let _g = tracer.span(task.train, req);
        let mut model = Model::from_spec(&cand.spec, &mut rng);
        fit(&mut model, &data.0, &ctx.train_config, &mut rng);
        model
    };
    let accuracy = {
        let _g = tracer.span(task.infer, req);
        evaluate(&mut model, &data.1)
    };
    {
        let _g = tracer.span("energy.estimate", req);
        black_box(ctx.estimated_energy(cand));
    }
    {
        let _g = tracer.span("energy.ground", req);
        black_box(ctx.true_energy(cand));
    }
    accuracy
}

/// Replays a search history's evaluations on a fresh context, each distinct
/// candidate once, timing the layers `run_enas` hides. Phase-1 candidates
/// train from the seed the search used, so their accuracy must repeat
/// exactly. Returns (requested, trained, seconds spent evaluating).
fn replay(
    run: &mut Run,
    tracer: &Tracer,
    task: &Task,
    outcome: &SearchOutcome,
) -> (usize, usize, f64) {
    let _root = tracer.span("replay", None);
    let ctx = {
        let _g = tracer.span(task.context, None);
        Pipeline::new(task.selection).context()
    };
    let search_seed = EnasConfig::quick(0.5).seed;
    let mut seen: Vec<&Candidate> = Vec::new();
    let mut sensed: Vec<SensingConfig> = Vec::new();
    let mut eval_s = 0.0;
    for (idx, e) in outcome.history.iter().enumerate() {
        if seen.contains(&&e.candidate) {
            continue;
        }
        seen.push(&e.candidate);
        let first_for_sensing = !sensed.contains(&e.candidate.sensing);
        if first_for_sensing {
            sensed.push(e.candidate.sensing);
        }
        // Phase 1 trains its batch with the request index; later cycles
        // evaluate one candidate (index 0) or a grid batch.
        let seed = derive_seed(search_seed, e.cycle, if e.cycle == 0 { idx } else { 0 });
        let t = Instant::now();
        let accuracy = catch_unwind(AssertUnwindSafe(|| {
            evaluate_traced(
                tracer,
                task,
                &ctx,
                &e.candidate,
                seed,
                first_for_sensing,
                Some(idx as u64),
            )
        }));
        eval_s += secs(t);
        let label = task.label;
        match accuracy {
            Ok(accuracy) => {
                run.work(1, 0, String::new);
                if e.cycle == 0 {
                    run.check(accuracy.to_bits() == e.accuracy.to_bits(), || {
                        format!(
                            "{label}: replayed candidate {idx} scored {accuracy}, the search {}",
                            e.accuracy
                        )
                    });
                }
            }
            Err(_) => run.work(1, 1, || {
                format!("{label}: evaluating candidate {idx} panicked")
            }),
        }
    }
    (outcome.history.len(), seen.len(), eval_s)
}

/// `paper_pipeline`.
pub fn paper_pipeline(run: &mut Run, tracer: &Tracer) {
    let mut spec = PopulationSpec::representative();
    spec.scenario = registry::find(DEPLOY_SCENARIO).map(|e| e.scenario.clone());
    let mut firsts = [None, None];
    while run.more(3, MAX_TRACED) {
        let (s, results) = rep(run, None, &spec);
        run.rep_s.push(s);
        check(run, &results, &mut firsts);
        if !run.trace {
            continue;
        }
        let (s, results) = rep(run, Some(tracer), &spec);
        let first = run.traced_rep_s.is_empty();
        run.traced_rep_s.push(s);
        check(run, &results, &mut firsts);
        let mut days = DayTally::default();
        for searched in &results {
            days.add(&searched.day);
        }
        run.days(days);
        if first {
            let (mut requested, mut trained, mut eval_s, mut search_s) = (0, 0, 0.0, 0.0);
            for (task, searched) in TASKS.iter().zip(&results) {
                let (r, t, e) = replay(run, tracer, task, &searched.outcome);
                requested += r;
                trained += t;
                eval_s += e;
                search_s += searched.search_s;
            }
            let searched: usize = results.iter().map(|s| s.trained).sum();
            run.layers
                .push(Metric::new("nas.trained", searched as f64, "count"));
            run.layers.push(Metric::new(
                "nas.memo_hit_ratio",
                1.0 - trained as f64 / requested.max(1) as f64,
                "frac",
            ));
            run.layers.push(Metric::new(
                "nas.replay_coverage",
                eval_s / search_s,
                "frac",
            ));
        }
    }
}
