//! The three fleet workloads: `fleet_cold`, `fleet_stressed`, `fleet_warm`.
//!
//! Untraced reps call the production entry points. Traced reps go through
//! the `_with` entry points with a node closure that calls the layers one by
//! one (blueprint, day simulation, store) and wraps each call in a span.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use solarml::fleet::{
    campaign_fingerprint, load_latest, resume_campaign_with, run_campaign, run_campaign_cached,
    run_campaign_durable_with, run_campaign_with, simulate_node, write_snapshot, CacheStats,
    CampaignCheckpoints, CampaignConfig, CampaignError, CampaignSnapshot, FleetAggregate,
    FleetReport, MergeTree, NodeBlueprint, NodeDayOutcome, NodeDayStore, NodeDayTask, NodeSummary,
    PopulationSpec, FLEET_SEED_CYCLE, RESIDUAL_TOLERANCE_NJ,
};
use solarml::nas::parallel::derive_seed;
use solarml::platform::{simulate_faulted_day, DayFaultReport};
use solarml::scenario::{registry, Scenario};

use crate::layers::{DayTally, Metric};
use crate::run::{fingerprint, Run};
use crate::tracer::{span, Tracer};

/// Nodes per `fleet_cold` rep. Per-node cost has a coefficient of
/// variation near 0.73, so the seed-to-seed spread of a rep's content is
/// about 0.73/√512 ≈ 3%; a rep takes 5–8 s on a 2-vCPU guest.
const COLD_NODES: usize = 512;
/// Nodes per scenario in a `fleet_stressed` rep.
const STRESSED_NODES: usize = 200;
/// Where the `brownout_gauntlet` campaign is killed and resumed.
const STRESSED_KILL: u64 = 100;
/// Checkpoint cadence of the durable campaigns, in node-days.
const STRESSED_EVERY: u64 = 32;
/// Entries in the `fleet_warm` store; each invocation replays all of them.
const WARM_NODES: usize = 256;
/// Invocations per `fleet_warm` rep. A rep times many, so a cost that hits
/// only some invocations (a slow open, a stall in the pool, a store tail)
/// is in every rep's time.
const WARM_BATCH: usize = 300;
/// Traced `fleet_warm` reps: one holds 77k store lookups, plenty for a
/// p99, and its trace file is already tens of megabytes.
const WARM_MAX_TRACED: usize = 1;

/// The golden campaigns every fleet set-up runs: `(scenario, report)` at
/// 8 nodes, seed 7, as `tests/golden/scenarios/` pins them.
const GOLDENS: [(&str, &str); 2] = [
    (
        "stressed_office_day",
        include_str!("../../../../../tests/golden/scenarios/stressed_office_day.json"),
    ),
    (
        "brownout_gauntlet",
        include_str!("../../../../../tests/golden/scenarios/brownout_gauntlet.json"),
    ),
];
const GOLDEN_NODES: usize = 8;
const GOLDEN_SEED: u64 = 7;
/// Golden set-ups per untraced run: each is ~0.33 s, short enough that
/// scheduler noise shows, so the median is taken over several.
const GOLDEN_SETUPS: usize = 5;
/// Cold store fills per untraced `fleet_warm` run, ~2.6 s each.
const WARM_SETUPS: usize = 3;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update under these locks completes before it can panic.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scenario(name: &str) -> Scenario {
    registry::find(name)
        .map(|e| e.scenario.clone())
        .unwrap_or_else(|| panic!("`{name}` is a shipped scenario"))
}

fn config(nodes: usize, seed: u64, workers: usize, scenario: Option<&Scenario>) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(nodes, seed);
    cfg.workers = workers;
    cfg.population.scenario = scenario.cloned();
    cfg
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
}

/// Runs `f`, a campaign, inside a `campaign` span that the pool's worker
/// threads report their node spans to.
fn in_campaign<R>(tracer: Option<&Tracer>, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            let campaign = t.span("campaign", None);
            let _fan = t.fan_out(&campaign);
            f()
        }
        None => f(),
    }
}

/// The per-report output checks: no quarantined node, every ledger
/// residual within tolerance, and the same bytes every time `label` is
/// checked (rep to rep, traced or not).
fn check_report(run: &mut Run, label: &str, report: &FleetReport, json: &str) {
    run.work(report.nodes as u64, report.failed.len() as u64, || {
        format!("{label}: {} nodes quarantined", report.failed.len())
    });
    let a = &report.aggregate;
    let worst = a.residual_nj_stat.max_or_zero();
    run.check(
        a.residual_violations == 0 && worst <= RESIDUAL_TOLERANCE_NJ,
        || format!("{label}: worst ledger residual {worst} nJ"),
    );
    run.count(&format!("{label}.report_fnv"), fingerprint(json));
    run.count(&format!("{label}.attempted"), a.attempted);
    run.count(&format!("{label}.completed"), a.completed);
    run.count(&format!("{label}.brownouts"), a.brownouts);
}

/// The fleet set-up: the two golden scenario campaigns, which warm the day
/// simulator and must match their pinned reports byte for byte.
///
/// They run on one worker. On two, each 8-node campaign is one wave of two
/// chunks whose slower half sets the time, and the set-up's median varied
/// three times as much between processes as on one.
fn golden_setup(run: &mut Run, tracer: Option<&Tracer>) {
    let _setup = span(tracer, "setup", None);
    for (name, golden) in GOLDENS {
        let cfg = config(GOLDEN_NODES, GOLDEN_SEED, 1, Some(&scenario(name)));
        let json = run_campaign(&cfg).to_json() + "\n";
        run.check(json == golden, || {
            format!("{name} differs from tests/golden/scenarios/{name}.json")
        });
    }
}

fn setups(run: &mut Run, tracer: &Tracer) {
    for _ in 0..run.setups(GOLDEN_SETUPS) {
        let t = Instant::now();
        golden_setup(run, run.trace.then_some(tracer));
        run.setup_s.push(secs(t));
    }
}

fn outcome_of(day: &DayFaultReport) -> NodeDayOutcome {
    NodeDayOutcome {
        attempted: day.attempted,
        completed: day.completed,
        abandoned: day.abandoned,
        degraded: day.degraded,
        brownouts: day.brownouts,
        dead_window_s: day.dead_window.as_seconds(),
        harvested_j: day.harvested.as_joules(),
        consumed_j: day.consumed.as_joules(),
        wasted_j: day.wasted.as_joules(),
        residual_j: day.audit.discrepancy.as_joules(),
        mean_accuracy: day.mean_accuracy.get(),
    }
}

/// The summary `NodeDayTask::summary` builds, from a blueprint and its day.
fn summary_of(
    node: usize,
    seed: u64,
    blueprint: &NodeBlueprint,
    day: &DayFaultReport,
) -> NodeSummary {
    let o = outcome_of(day);
    NodeSummary {
        node,
        seed,
        env_index: blueprint.env_index,
        policy_index: blueprint.policy_index,
        attempted: o.attempted,
        completed: o.completed,
        abandoned: o.abandoned,
        degraded: o.degraded,
        brownouts: o.brownouts,
        dead_window_s: o.dead_window_s,
        harvested_j: o.harvested_j,
        consumed_j: o.consumed_j,
        wasted_j: o.wasted_j,
        residual_j: o.residual_j,
        mean_accuracy: o.mean_accuracy,
    }
}

/// Traced node-day of the cold path, layer by layer.
struct SimProbe<'a> {
    tracer: &'a Tracer,
    days: &'a Mutex<DayTally>,
    /// Where to keep each node's summary, for the aggregate re-fold.
    summaries: Option<&'a Mutex<Vec<Option<NodeSummary>>>>,
}

impl SimProbe<'_> {
    /// The node-day `simulate_node` runs, one layer call at a time: the
    /// blueprint (which evaluates the population's scenario, if any), the
    /// day simulation, then the summary. The summary is built by hand:
    /// `NodeDayTask`, which builds it in production, keeps its blueprint
    /// private, so using it here would sample the blueprint twice. The one
    /// call left out is the content-key hash the task adds; `probe_pass`
    /// times it outside the reps.
    fn node(&self, spec: &PopulationSpec, node: usize, seed: u64) -> NodeSummary {
        let t = self.tracer;
        let req = Some(node as u64);
        let _node = t.span("node", req);
        let blueprint = {
            let _g = t.span("population.blueprint", req);
            spec.node_blueprint(seed)
        };
        let day = {
            let _g = t.span("day_sim", req);
            simulate_faulted_day(&blueprint.config)
        };
        lock(self.days).add(&day);
        let summary = summary_of(node, seed, &blueprint, &day);
        if let Some(slots) = self.summaries {
            lock(slots)[node] = Some(summary.clone());
        }
        summary
    }
}

/// Times, outside the reps, the per-node calls the traced reps do not make
/// on their own: `NodeDayTask::resolve` (blueprint plus content key) and,
/// when the population has a scenario, `Scenario::eval`. The blueprint
/// evaluates the scenario on a seed it derives internally; this pass uses
/// the node's seed, an input of the same kind.
fn probe_pass(tracer: &Tracer, cfg: &CampaignConfig) {
    let _root = tracer.span("probe", None);
    let spec = &cfg.population;
    for node in 0..cfg.nodes {
        let seed = derive_seed(cfg.seed, FLEET_SEED_CYCLE, node);
        let req = Some(node as u64);
        {
            let _g = tracer.span("task.resolve", req);
            black_box(NodeDayTask::resolve(spec, node, seed));
        }
        if let Some(scenario) = &spec.scenario {
            let _g = tracer.span("scenario.eval", req);
            black_box(scenario.eval(seed));
        }
    }
}

/// Folds traced summaries again from outside, chunk by chunk in node order
/// as the campaign pushes them, timing `FleetAggregate::record` and
/// `MergeTree::push`/`finish`. The result must equal the report's.
fn refold(tracer: &Tracer, summaries: &[Option<NodeSummary>], chunk: usize) -> FleetAggregate {
    let _root = tracer.span("refold", None);
    let mut tree = MergeTree::new();
    for chunk in summaries.chunks(chunk) {
        let mut partial = FleetAggregate::new();
        for summary in chunk.iter().flatten() {
            let _g = tracer.span("aggregate.record", Some(summary.node as u64));
            partial.record(summary);
        }
        let _g = tracer.span("aggregate.merge", None);
        tree.push(partial);
    }
    let _g = tracer.span("aggregate.merge", None);
    tree.finish()
}

fn check_refold(
    run: &mut Run,
    tracer: &Tracer,
    slots: &Mutex<Vec<Option<NodeSummary>>>,
    cfg: &CampaignConfig,
    report: &FleetReport,
) {
    let refolded = refold(tracer, &lock(slots), cfg.chunk);
    run.check(refolded == report.aggregate, || {
        "re-folding the traced summaries does not reproduce the report's aggregate".to_string()
    });
}

/// `fleet_cold`: the CLI-default in-memory campaign of the representative
/// population.
pub fn fleet_cold(run: &mut Run, tracer: &Tracer) {
    setups(run, tracer);
    let cfg = config(COLD_NODES, run.seed, run.workers, None);
    run.nodes_per_rep = Some(COLD_NODES);
    while run.more(2, usize::MAX) {
        let t = Instant::now();
        let report = run_campaign(&cfg);
        let json = report.to_json();
        run.rep_s.push(secs(t));
        check_report(run, "fleet", &report, &json);

        if run.trace {
            let days = Mutex::new(DayTally::default());
            let first = run.traced_rep_s.is_empty();
            let slots = Mutex::new(vec![None; if first { COLD_NODES } else { 0 }]);
            let probe = SimProbe {
                tracer,
                days: &days,
                summaries: first.then_some(&slots),
            };
            let rep = tracer.span("rep", None);
            let t = Instant::now();
            let report = in_campaign(Some(tracer), || {
                run_campaign_with(&cfg, &|spec: &PopulationSpec, node, seed| {
                    probe.node(spec, node, seed)
                })
            });
            let json = {
                let _g = tracer.span("report.to_json", None);
                report.to_json()
            };
            run.traced_rep_s.push(secs(t));
            drop(rep);
            check_report(run, "fleet", &report, &json);
            run.days(days.into_inner().unwrap_or_else(PoisonError::into_inner));
            if first {
                check_refold(run, tracer, &slots, &cfg, &report);
                probe_pass(tracer, &cfg);
            }
        }
    }
}

/// One durable campaign of `fleet_stressed`.
struct Durable {
    name: &'static str,
    cfg: CampaignConfig,
    /// Node count at which the campaign is killed and then resumed.
    kill: Option<u64>,
    /// The same config's in-memory report.
    reference: String,
}

fn checkpoints(dir: &Path) -> CampaignCheckpoints {
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = STRESSED_EVERY;
    ckpt
}

/// Runs one durable campaign, killing and resuming it if asked.
fn durable<F>(
    tracer: Option<&Tracer>,
    case: &Durable,
    dir: &Path,
    sim: &F,
) -> Result<FleetReport, String>
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    let ckpt = checkpoints(dir);
    let Some(kill) = case.kill else {
        return in_campaign(tracer, || run_campaign_durable_with(&case.cfg, &ckpt, sim))
            .map_err(|e| e.to_string());
    };
    let mut killed = ckpt.clone();
    killed.abort_after_nodes = Some(kill);
    match in_campaign(tracer, || {
        run_campaign_durable_with(&case.cfg, &killed, sim)
    }) {
        Err(CampaignError::Aborted { nodes_done }) if nodes_done == kill => {}
        Err(e) => return Err(format!("expected the kill at node {kill}: {e}")),
        Ok(_) => return Err(format!("the kill at node {kill} did not fire")),
    }
    if let Some(t) = tracer {
        let _g = t.span("checkpoint.resume", None);
        black_box(load_latest(dir, campaign_fingerprint(&case.cfg)).ok());
    }
    in_campaign(tracer, || resume_campaign_with(&case.cfg, &ckpt, sim)).map_err(|e| e.to_string())
}

/// Snapshot files a durable rep left behind, in name order.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| {
        p.file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("ckpt-"))
    });
    files.sort();
    files
}

/// Writes every snapshot a rep left behind again from outside, timing
/// `write_snapshot` on real campaign states.
fn rewrite_snapshots(run: &mut Run, tracer: &Tracer, files: &[PathBuf]) {
    let _root = tracer.span("rewrite", None);
    let out = run.scratch.join("rewrite");
    fresh_dir(&out);
    for file in files {
        let label = file.display().to_string();
        let snapshot = std::fs::read(file)
            .map_err(|e| e.to_string())
            .and_then(|bytes| CampaignSnapshot::decode(&bytes, &label).map_err(|e| e.to_string()));
        let written = snapshot.and_then(|snapshot| {
            let _g = tracer.span("checkpoint.write", None);
            write_snapshot(&out, &snapshot, usize::MAX).map_err(|e| e.to_string())
        });
        run.check(written.is_ok(), || {
            format!("re-writing {label}: {written:?}")
        });
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// One `fleet_stressed` rep; returns its timed seconds.
fn stressed_rep(run: &mut Run, tracer: Option<&Tracer>, cases: &[Durable]) -> f64 {
    let dir = run.scratch.join("durable");
    for case in cases {
        fresh_dir(&dir.join(case.name));
    }
    let days = Mutex::new(DayTally::default());
    let rep = span(tracer, "rep", None);
    let t = Instant::now();
    let mut reports = Vec::new();
    for case in cases {
        let case_dir = dir.join(case.name);
        let report = match tracer {
            None => durable(None, case, &case_dir, &simulate_node),
            Some(tracer) => {
                let probe = SimProbe {
                    tracer,
                    days: &days,
                    summaries: None,
                };
                durable(
                    Some(tracer),
                    case,
                    &case_dir,
                    &|spec: &PopulationSpec, node, seed| probe.node(spec, node, seed),
                )
            }
        };
        reports.push(report.map(|report| {
            let _g = span(tracer, "report.to_json", None);
            let json = report.to_json();
            (report, json)
        }));
    }
    let elapsed = secs(t);
    drop(rep);

    let (mut writes, mut bytes) = (0usize, 0u64);
    let mut files = Vec::new();
    for (case, outcome) in cases.iter().zip(reports) {
        match outcome {
            Ok((report, json)) => {
                check_report(run, case.name, &report, &json);
                run.check(json == case.reference, || {
                    format!(
                        "{}: durable report differs from the in-memory run",
                        case.name
                    )
                });
            }
            Err(e) => run.check(false, || format!("{}: {e}", case.name)),
        }
        // Snapshots land on wave boundaries; with two workers (128-node
        // waves) a 200-node campaign writes at most 3, the default `keep`,
        // so every snapshot written is still on disk.
        let case_files = snapshot_files(&dir.join(case.name));
        writes += case_files.len();
        bytes += case_files
            .iter()
            .filter_map(|f| std::fs::metadata(f).ok())
            .map(|m| m.len())
            .sum::<u64>();
        files.extend(case_files);
    }
    run.count("checkpoint.writes", writes);
    run.count("checkpoint.bytes", bytes);
    if let Some(tracer) = tracer {
        if run.traced_rep_s.is_empty() {
            rewrite_snapshots(run, tracer, &files);
            for case in cases {
                probe_pass(tracer, &case.cfg);
            }
            run.layers
                .push(Metric::new("checkpoint.writes", writes as f64, "count"));
            run.layers
                .push(Metric::new("checkpoint.bytes", bytes as f64, "B"));
        }
        run.days(days.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

/// `fleet_stressed`: two registry scenarios through durable campaigns,
/// one killed mid-way and resumed.
pub fn fleet_stressed(run: &mut Run, tracer: &Tracer) {
    setups(run, tracer);
    let cases: Vec<Durable> = [
        ("stressed_office_day", None),
        ("brownout_gauntlet", Some(STRESSED_KILL)),
    ]
    .into_iter()
    .map(|(name, kill)| {
        let scenario = scenario(name);
        let cfg = config(STRESSED_NODES, run.seed, run.workers, Some(&scenario));
        let reference = run_campaign(&cfg);
        let json = reference.to_json();
        check_report(run, name, &reference, &json);
        Durable {
            name,
            cfg,
            kill,
            reference: json,
        }
    })
    .collect();
    run.nodes_per_rep = Some(2 * STRESSED_NODES);
    while run.more(2, usize::MAX) {
        let s = stressed_rep(run, None, &cases);
        run.rep_s.push(s);
        if run.trace {
            let s = stressed_rep(run, Some(tracer), &cases);
            run.traced_rep_s.push(s);
        }
    }
}

/// Entry files of a store directory with their bytes, in name order.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| {
                    let bytes = std::fs::read(e.path()).unwrap_or_default();
                    (e.file_name().to_string_lossy().into_owned(), bytes)
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// The traced set-up of `fleet_warm`: the cold fill, layer by layer —
/// blueprint, day simulation, content key, persist. `resolve` samples the
/// blueprint a second time to derive the key, a call production does not
/// make; the set-up is outside the reps, so no share counts it.
fn traced_fill(run: &mut Run, tracer: &Tracer, cfg: &CampaignConfig, dir: &Path) {
    let _setup = tracer.span("setup", None);
    let store = {
        let _g = tracer.span("store.open", None);
        NodeDayStore::open(dir)
    };
    let store = match store {
        Ok(store) => store,
        Err(e) => {
            run.check(false, || format!("opening {}: {e}", dir.display()));
            return;
        }
    };
    let days = Mutex::new(DayTally::default());
    let persist_failures = Mutex::new(0u64);
    let fill = |spec: &PopulationSpec, node: usize, seed: u64| {
        let req = Some(node as u64);
        let _node = tracer.span("node", req);
        let blueprint = {
            let _g = tracer.span("population.blueprint", req);
            spec.node_blueprint(seed)
        };
        let day = {
            let _g = tracer.span("day_sim", req);
            simulate_faulted_day(&blueprint.config)
        };
        let task = {
            let _g = tracer.span("task.resolve", req);
            NodeDayTask::resolve(spec, node, seed)
        };
        let outcome = outcome_of(&day);
        let persisted = {
            let _g = tracer.span("store.persist", req);
            store.persist(task.key(), &outcome)
        };
        if persisted.is_err() {
            *lock(&persist_failures) += 1;
        }
        lock(&days).add(&day);
        task.summary(&outcome)
    };
    let report = in_campaign(Some(tracer), || run_campaign_with(cfg, &fill));
    let json = {
        let _g = tracer.span("report.to_json", None);
        report.to_json()
    };
    let failures = persist_failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    run.work(report.nodes as u64, failures, || {
        format!("{failures} store persists failed")
    });
    run.days(days.into_inner().unwrap_or_else(PoisonError::into_inner));
    check_report(run, "fleet", &report, &json);
}

/// What one warm invocation left to check.
struct Invocation {
    report: FleetReport,
    json: String,
    stats: CacheStats,
}

/// One warm invocation, as the CLI makes it: open the store, replay the
/// campaign, render the report. Traced, it keeps each node's summary in
/// `slots` when given some, for the aggregate re-fold.
fn invoke(
    tracer: Option<&Tracer>,
    cfg: &CampaignConfig,
    dir: &Path,
    slots: Option<&Mutex<Vec<Option<NodeSummary>>>>,
) -> Result<Invocation, String> {
    let store = {
        let _g = span(tracer, "store.open", None);
        NodeDayStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?
    };
    let report = match tracer {
        None => run_campaign_cached(cfg, &store),
        Some(tracer) => {
            let replay = |spec: &PopulationSpec, node: usize, seed: u64| {
                let req = Some(node as u64);
                let _node = tracer.span("node", req);
                let task = {
                    let _g = tracer.span("task.resolve", req);
                    NodeDayTask::resolve(spec, node, seed)
                };
                let outcome = {
                    let _g = tracer.span("store.require", req);
                    store.require(&task)
                };
                let summary = task.summary(&outcome);
                if let Some(slots) = slots {
                    lock(slots)[node] = Some(summary.clone());
                }
                summary
            };
            in_campaign(Some(tracer), || run_campaign_with(cfg, &replay))
        }
    };
    let json = {
        let _g = span(tracer, "report.to_json", None);
        report.to_json()
    };
    Ok(Invocation {
        report,
        json,
        stats: store.stats(),
    })
}

/// One `fleet_warm` rep: [`WARM_BATCH`] invocations back to back, checked
/// after the clock stops. Returns the timed seconds.
fn warm_rep(
    run: &mut Run,
    tracer: Option<&Tracer>,
    cfg: &CampaignConfig,
    dir: &Path,
    cold: &str,
) -> f64 {
    let first_traced = tracer.is_some() && run.traced_rep_s.is_empty();
    let slots = Mutex::new(vec![None; if first_traced { cfg.nodes } else { 0 }]);
    let rep = span(tracer, "rep", None);
    let t = Instant::now();
    let invocations: Vec<Result<Invocation, String>> = (0..WARM_BATCH)
        .map(|i| invoke(tracer, cfg, dir, (first_traced && i == 0).then_some(&slots)))
        .collect();
    let elapsed = secs(t);
    drop(rep);

    for (i, invocation) in invocations.into_iter().enumerate() {
        let inv = match invocation {
            Ok(inv) => inv,
            Err(e) => {
                run.check(false, || e);
                continue;
            }
        };
        let stats = inv.stats;
        check_report(run, "fleet", &inv.report, &inv.json);
        run.check(inv.json == cold, || {
            "warm report differs from its cold set-up report".to_string()
        });
        run.check(stats.hits == cfg.nodes as u64 && stats.misses == 0, || {
            format!("warm replay hit {} of {} node-days", stats.hits, cfg.nodes)
        });
        run.count("store.bytes", stats.bytes);
        if let (Some(tracer), true, 0) = (tracer, first_traced, i) {
            check_refold(run, tracer, &slots, cfg, &inv.report);
            let hit_ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
            let entries = NodeDayStore::open(dir)
                .and_then(|store| store.entry_count())
                .unwrap_or(0);
            run.layers
                .push(Metric::new("store.hit_ratio", hit_ratio, "frac"));
            run.layers
                .push(Metric::new("store.entries", entries as f64, "count"));
            run.layers
                .push(Metric::new("store.bytes", stats.bytes as f64, "B"));
        }
    }
    elapsed
}

/// `fleet_warm`: repeated CLI-equivalent invocations against a store that
/// already holds every node-day.
pub fn fleet_warm(run: &mut Run, tracer: &Tracer) {
    let cfg = config(WARM_NODES, run.seed, run.workers, None);
    run.nodes_per_rep = Some(WARM_NODES * WARM_BATCH);
    let mut store_dir: Option<PathBuf> = None;
    let mut cold = String::new();
    for k in 0..run.setups(WARM_SETUPS) {
        let dir = run.scratch.join(format!("store-{k}"));
        let t = Instant::now();
        let filled = NodeDayStore::open(&dir)
            .map(|store| (run_campaign_cached(&cfg, &store), store.stats()));
        run.setup_s.push(secs(t));
        let (report, stats) = match filled {
            Ok(filled) => filled,
            Err(e) => {
                run.check(false, || format!("opening {}: {e}", dir.display()));
                return;
            }
        };
        cold = report.to_json();
        check_report(run, "fleet", &report, &cold);
        run.check(stats.misses == cfg.nodes as u64 && stats.hits == 0, || {
            format!(
                "cold fill missed {} of {} node-days",
                stats.misses, cfg.nodes
            )
        });
        if let Some(previous) = store_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
    }
    let Some(dir) = store_dir else { return };
    if run.trace {
        let traced_dir = run.scratch.join("store-traced");
        traced_fill(run, tracer, &cfg, &traced_dir);
        run.check(store_files(&traced_dir) == store_files(&dir), || {
            "the traced fill persisted different store entries".to_string()
        });
        let _ = std::fs::remove_dir_all(&traced_dir);
    }
    while run.more(3, WARM_MAX_TRACED) {
        let s = warm_rep(run, None, &cfg, &dir, &cold);
        run.rep_s.push(s);
        if run.trace {
            let s = warm_rep(run, Some(tracer), &cfg, &dir, &cold);
            run.traced_rep_s.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in node simulation: cheap, deterministic, and panicking on
    /// node 3, so the quarantine path runs without simulating a day.
    fn faulty(_: &PopulationSpec, node: usize, seed: u64) -> NodeSummary {
        assert_ne!(node, 3, "injected fault at node 3");
        NodeSummary {
            node,
            seed,
            env_index: node % 3,
            policy_index: 0,
            attempted: 4,
            completed: 4,
            abandoned: 0,
            degraded: 0,
            brownouts: 0,
            dead_window_s: 0.0,
            harvested_j: 1.0,
            consumed_j: 0.5,
            wasted_j: 0.0,
            residual_j: 0.0,
            mean_accuracy: 1.0,
        }
    }

    #[test]
    fn quarantined_nodes_count_as_failed_operations() {
        let _serial = crate::run::PANICKING_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut cfg = CampaignConfig::smoke(10, 5);
        cfg.workers = 2;
        cfg.chunk = 4;
        let report = run_campaign_with(&cfg, &faulty);
        let json = report.to_json();
        let mut run = Run::new(5, 1.0, 2, false, PathBuf::new());
        check_report(&mut run, "fleet", &report, &json);
        // 10 node-days and one residual check attempted; node 3 failed.
        assert_eq!((run.attempted(), run.failed()), (11, 1));
        assert!(run.failures()[0].contains("1 nodes quarantined"));
        // The same report again is no further failure; a healthy one
        // differs and fails the rep-to-rep identity check.
        check_report(&mut run, "fleet", &report, &json);
        assert_eq!(run.failed(), 2);
        let healthy = run_campaign_with(&cfg, &|s: &PopulationSpec, _, seed| faulty(s, 0, seed));
        check_report(&mut run, "fleet", &healthy, &healthy.to_json());
        assert!(
            run.failed() > 2,
            "a different report must fail the identity check"
        );
    }
}
