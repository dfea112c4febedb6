//! The CLI subcommands.

use solarml::fleet::{
    resume_campaign_verbose, run_campaign_cached, run_campaign_durable_with, run_campaign_with,
    run_sweep, simulate_node, CacheStats, CampaignCheckpoints, CampaignConfig, NodeDayStore,
    PopulationSpec, StoreGc, SweepVariant, POPULATION_PARAMS,
};
use solarml::mcu::McuPowerModel;
use solarml::nas::{run_enas, EnasConfig, TaskContext};
use solarml::nn::TrainConfig;
use solarml::platform::lifecycle::{DutyCycleConfig, TaskProfile};
use solarml::platform::{
    harvesting_time, simulate_day, solarml_detector_spec, DaySimConfig, HarvestScenario,
    REFERENCE_DETECTORS,
};
use solarml::scenario::{registry, Scenario};
use solarml::units::Frequency;
use solarml::{Energy, Seconds};

use crate::args::Options;

/// `solarml detector`.
pub fn detector() -> Result<(), String> {
    let wait = Seconds::new(5.0);
    let mut rows = REFERENCE_DETECTORS.to_vec();
    rows.push(solarml_detector_spec());
    println!(
        "{:<10} {:>12} {:>16} {:>12} {:>14}",
        "method", "range (mm)", "response (ms)", "standby", "5-s energy"
    );
    for d in &rows {
        println!(
            "{:<10} {:>12} {:>16} {:>12} {:>14}",
            d.name,
            format!("{:.0}-{:.0}", d.sensing_range_mm.0, d.sensing_range_mm.1),
            format!("{:.1}-{:.1}", d.response_time_ms.0, d.response_time_ms.1),
            d.standby.to_string(),
            d.wait_and_detect_energy(wait).to_string()
        );
    }
    Ok(())
}

/// `solarml trace`.
pub fn trace(opts: &Options) -> Result<(), String> {
    let task = opts.task.as_deref().unwrap_or("gesture");
    let sleep = Seconds::new(opts.sleep.unwrap_or(60.0));
    let (trace, breakdown) = DutyCycleConfig {
        sleep,
        task: match task {
            "kws" => TaskProfile::reference_kws(),
            _ => TaskProfile::reference_gesture(),
        },
        mcu: McuPowerModel::default(),
        trace_rate: Frequency::new(1000.0),
    }
    .run()
    .map_err(|e| format!("duty-cycle simulation failed: {e}"))?;
    let (fe, fs, fm) = breakdown.fractions();
    let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
    println!(
        "{task} duty cycle with {sleep} sleep: total {}",
        breakdown.total()
    );
    println!(
        "  E_E {:>10}  ({:.1}%)",
        breakdown.event.to_string(),
        100.0 * fe
    );
    println!(
        "  E_S {:>10}  ({:.1}%)",
        breakdown.sensing.to_string(),
        100.0 * fs
    );
    println!(
        "  E_M {:>10}  ({:.1}%)",
        breakdown.inference.to_string(),
        100.0 * fm
    );
    if let Some(path) = &opts.csv {
        std::fs::write(path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path} ({} samples)", trace.len());
    }
    Ok(())
}

/// `solarml search`.
pub fn search(opts: &Options) -> Result<(), String> {
    let task = opts.task.as_deref().unwrap_or("gesture");
    let lambda = opts.lambda.unwrap_or(0.5);
    let mut ctx = match task {
        "kws" => TaskContext::kws(if opts.full { 20 } else { 8 }, 0xA0D10),
        _ => TaskContext::gesture(if opts.full { 20 } else { 8 }, 0xD161),
    };
    ctx.train_config = TrainConfig {
        epochs: if opts.full { 15 } else { 8 },
        ..TrainConfig::default()
    };
    let mut config = if opts.full {
        EnasConfig::paper(lambda)
    } else {
        EnasConfig::quick(lambda)
    };
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(workers) = opts.workers {
        config.workers = workers;
    }
    println!(
        "running eNAS on {task} (λ={lambda}, {} settings, {} worker threads)...",
        if opts.full { "paper" } else { "quick" },
        solarml::nas::parallel::effective_workers(config.workers)
    );
    let outcome = run_enas(&ctx, &config);
    println!("evaluated {} candidates", outcome.history.len());
    println!("{}", group_summary(&outcome.groups));
    println!("winner: {}", outcome.best.candidate);
    println!(
        "  accuracy {:.1}%  estimated {}  true {}",
        100.0 * outcome.best.accuracy,
        outcome.best.estimated_energy,
        outcome.best.true_energy
    );
    print!("{}", solarml::nas::render_report(&outcome));
    if let Some(path) = &opts.csv {
        std::fs::write(path, outcome.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("history written to {path}");
    }
    Ok(())
}

/// How aging evolution grouped its phase-2 evaluations: each group is the
/// cycles planned ahead of one another and trained together.
fn group_summary(groups: &[usize]) -> String {
    let trained: usize = groups.iter().sum();
    let largest = groups.iter().copied().max().unwrap_or(0);
    let mean = trained as f64 / groups.len().max(1) as f64;
    format!(
        "phase 2: {trained} trained cycles in {} evaluation groups (mean {mean:.2}, largest {largest})",
        groups.len()
    )
}

/// `solarml harvest`.
pub fn harvest(opts: &Options) -> Result<(), String> {
    let budget = Energy::from_micro_joules(opts.budget_uj.unwrap_or(6660.0));
    println!("harvesting time for a {budget} inference:");
    for scenario in HarvestScenario::paper_conditions() {
        println!(
            "  {:>8}: {:>10} at {}",
            scenario.lux.to_string(),
            harvesting_time(budget, &scenario).to_string(),
            scenario.harvest_power()
        );
    }
    Ok(())
}

/// `solarml day`.
pub fn day(opts: &Options) -> Result<(), String> {
    let budget = Energy::from_milli_joules(opts.budget_mj.unwrap_or(2.5));
    let report = simulate_day(&DaySimConfig::office_day(budget));
    println!("office day, {budget} per inference, hourly interactions:");
    println!(
        "  served {}/{} ({} rejected)",
        report.completed, report.attempted, report.rejected
    );
    println!(
        "  harvested {}; supercap {} at midnight (min {})",
        report.harvested, report.final_voltage, report.min_voltage
    );
    Ok(())
}

/// Resolves `--scenario <name|path>`: registry names first, then `.scn`
/// files. Parse failures carry the file's line and column.
fn resolve_scenario(spec: &str) -> Result<Scenario, String> {
    if let Some(entry) = registry::find(spec) {
        return Ok(entry.scenario.clone());
    }
    let looks_like_path = spec.contains('/') || spec.contains('\\') || spec.ends_with(".scn");
    if !looks_like_path {
        return Err(format!(
            "unknown scenario `{spec}` (shipped: {}; or pass a path to a .scn file)",
            registry::names().join(", ")
        ));
    }
    let src = std::fs::read_to_string(spec)
        .map_err(|e| format!("--scenario: cannot read {spec}: {e}"))?;
    Scenario::parse(&src)
        .map_err(|e| format!("--scenario: {spec}:{}:{}: {}", e.line, e.col, e.message))
}

/// Builds the campaign config shared by `fleet`, `fleet sweep` and
/// `scenario run`, applying any `--scenario` script and `--param`/`--value`
/// edit.
fn fleet_config(opts: &Options) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig::new(opts.nodes.unwrap_or(64), opts.seed.unwrap_or(0xF1EE7));
    if let Some(workers) = opts.workers {
        cfg.workers = workers;
    }
    if let Some(spec) = &opts.scenario {
        if let Some(param) = opts.param.as_deref() {
            if POPULATION_PARAMS
                .iter()
                .any(|p| p.name == param && p.scenario_owned)
            {
                return Err(format!(
                    "--scenario conflicts with --param {param}: the script owns the \
                     environment, fault and workload conditions (policy parameters \
                     such as `retained-share` remain editable)"
                ));
            }
        }
        cfg.population.scenario = Some(resolve_scenario(spec)?);
    }
    if let Some(param) = &opts.param {
        if let Some(value) = opts.value {
            cfg.population
                .set_param(param, value)
                .map_err(|e| format!("--param: {e}"))?;
        }
    }
    Ok(cfg)
}

/// Opens the `--store-dir` store with the requested GC bounds; store
/// trouble (foreign version, corrupt meta, file in the way, unreadable
/// pack) surfaces as the typed error's message before any simulation
/// starts.
fn open_store(opts: &Options, dir: &str) -> Result<NodeDayStore, String> {
    let gc = StoreGc {
        max_entries: opts.store_max_entries.unwrap_or(usize::MAX),
        max_bytes: opts.store_max_bytes.unwrap_or(u64::MAX),
    };
    NodeDayStore::open_with(dir, gc).map_err(|e| format!("fleet store: {e}"))
}

/// The cache-stats line, format-stable for scripts and CI:
/// `  cache: H hits, M misses (C corrupt), E evictions, B bytes`, then one
/// `  corrupt: <path>: <reason>` line per recomputed corrupt entry.
fn print_cache_stats(stats: &CacheStats, corrupt_reasons: &[String]) {
    println!(
        "  cache: {} hits, {} misses ({} corrupt), {} evictions, {} bytes",
        stats.hits, stats.misses, stats.corrupt, stats.evictions, stats.bytes
    );
    for reason in corrupt_reasons {
        println!("  corrupt: {reason}");
    }
}

/// `solarml fleet`.
pub fn fleet(opts: &Options) -> Result<(), String> {
    let cfg = fleet_config(opts)?;
    if opts.param.is_some() && opts.value.is_none() {
        return Err("fleet needs --value <v> with --param (use `fleet sweep` for --values)".into());
    }
    let store = match &opts.store_dir {
        Some(dir) => Some(open_store(opts, dir)?),
        None => None,
    };
    let checkpoints = opts.checkpoint_dir.as_ref().map(|dir| {
        let mut ckpt = CampaignCheckpoints::new(dir);
        if let Some(every) = opts.checkpoint_every {
            ckpt.every_nodes = every;
        }
        ckpt
    });
    let sim = |spec: &PopulationSpec, node: usize, seed: u64| match &store {
        Some(store) => store.simulate_node(spec, node, seed),
        None => simulate_node(spec, node, seed),
    };
    let start = std::time::Instant::now();
    let report = match (&checkpoints, opts.resume) {
        (None, _) => match &store {
            Some(store) => run_campaign_cached(&cfg, store),
            None => run_campaign_with(&cfg, &sim),
        },
        (Some(ckpt), false) => run_campaign_durable_with(&cfg, ckpt, &sim)
            .map_err(|e| format!("fleet campaign: {e}"))?,
        (Some(ckpt), true) => {
            let (report, resumed) = resume_campaign_verbose(&cfg, ckpt, &sim)
                .map_err(|e| format!("fleet resume: {e}"))?;
            println!(
                "resumed from {} node-days checkpointed in {}",
                resumed.snapshot.nodes_done,
                ckpt.dir.display()
            );
            for skipped in &resumed.skipped {
                println!("  recomputing past corrupt snapshot: {skipped}");
            }
            report
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    let a = &report.aggregate;

    println!(
        "fleet campaign: {} node-days, seed {:#x}",
        report.nodes, report.seed
    );
    println!(
        "  environments: {} outdoor-window, {} office, {} home",
        a.env_counts[0], a.env_counts[1], a.env_counts[2]
    );
    println!(
        "  runtimes: {} retained-checkpoint, {} volatile, {} naive",
        a.policy_counts[0], a.policy_counts[1], a.policy_counts[2]
    );
    println!(
        "  interactions: {}/{} completed ({} degraded, {} abandoned, {} brownouts)",
        a.completed, a.attempted, a.degraded, a.abandoned, a.brownouts
    );
    println!(
        "  completion rate: mean {:.3}, p50 {:.2}, p90 {:.2}",
        a.completion_rate_stat.mean(),
        a.completion_rate.quantile(0.50),
        a.completion_rate.quantile(0.90)
    );
    println!(
        "  dead window: mean {:.2} h, worst {:.2} h",
        a.dead_window_s.mean() / 3600.0,
        a.dead_window_s.max_or_zero() / 3600.0
    );
    println!(
        "  ledger: worst residual {:.3} nJ, {} violation(s) of the 1 nJ bound",
        a.residual_nj_stat.max_or_zero(),
        a.residual_violations
    );
    if !report.failed.is_empty() {
        println!(
            "  quarantined: {} node(s) panicked and were excluded (see failed_nodes)",
            report.failed.len()
        );
    }
    println!(
        "  throughput: {:.1} nodes/sec ({elapsed:.2} s wall)",
        report.nodes as f64 / elapsed.max(1e-9)
    );
    if let Some(store) = &store {
        // GC also writes the session's entries: a failed write is an error,
        // not a silently lost session.
        store.run_gc().map_err(|e| format!("fleet store: {e}"))?;
        print_cache_stats(&store.stats(), &store.corrupt_reasons());
    }

    if let Some(path) = &opts.out {
        let json = report.to_json() + "\n";
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// `solarml fleet sweep`: one campaign per `--values` entry, all sharing
/// the `--store-dir` outcome store — the first variant pays cold, later
/// variants recompute only the nodes their parameter edit actually
/// reaches.
pub fn fleet_sweep(opts: &Options) -> Result<(), String> {
    let dir = opts
        .store_dir
        .as_ref()
        .ok_or("fleet sweep requires --store-dir <dir>")?;
    let param = opts
        .param
        .as_ref()
        .ok_or("fleet sweep requires --param <name>")?;
    let values = opts
        .values
        .as_ref()
        .ok_or("fleet sweep requires --values <v1,v2,...>")?;

    let cfg = fleet_config(opts)?;
    let variants: Vec<SweepVariant> = values
        .iter()
        .map(|&value| {
            let mut population = cfg.population.clone();
            population
                .set_param(param, value)
                .map_err(|e| format!("--param: {e}"))?;
            Ok(SweepVariant {
                name: format!("{param}={value}"),
                population,
            })
        })
        .collect::<Result<_, String>>()?;
    let store = open_store(opts, dir)?;

    println!(
        "fleet sweep: {} variants of {} over {} node-days (seed {:#x}, store {dir})",
        variants.len(),
        param,
        cfg.nodes,
        cfg.seed
    );
    let start = std::time::Instant::now();
    let reports = run_sweep(&cfg, &variants, &store).map_err(|e| format!("fleet store: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();

    let mut json = String::new();
    for variant in &reports {
        let a = &variant.report.aggregate;
        println!(
            "  {}: completion mean {:.3}, dead window mean {:.2} h, {} quarantined",
            variant.name,
            a.completion_rate_stat.mean(),
            a.dead_window_s.mean() / 3600.0,
            variant.report.failed.len()
        );
        print_cache_stats(&variant.stats, &variant.corrupt_reasons);
        json.push_str(&variant.report.to_json());
        json.push('\n');
    }
    // Final line covers the whole sweep (evictions land after the last
    // variant; the store gauge is the post-GC size). Corrupt entries were
    // already listed under the variant that met them.
    print_cache_stats(&store.stats(), &[]);
    println!(
        "  throughput: {:.1} node-days/sec ({elapsed:.2} s wall)",
        (cfg.nodes * reports.len()) as f64 / elapsed.max(1e-9)
    );

    if let Some(path) = &opts.out {
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// `solarml scenario list`: one format-stable line per shipped scenario,
/// name first — CI diffs the name column against `scenarios/*.scn`.
pub fn scenario_list() -> Result<(), String> {
    for entry in registry::all() {
        println!("{:<22} {}", entry.name, entry.description);
    }
    Ok(())
}

/// `solarml scenario show <name|path>`.
pub fn scenario_show(opts: &Options) -> Result<(), String> {
    let spec = opts
        .scenario
        .as_ref()
        .ok_or("scenario show needs a <name|path> (see `solarml scenario list`)")?;
    let scenario = resolve_scenario(spec)?;
    if let Some(entry) = registry::find(spec) {
        print!("{}", entry.source);
        if !entry.source.ends_with('\n') {
            println!();
        }
    }
    println!("canonical: {}", scenario.render());
    println!(
        "light bucket: {}",
        ["outdoor-window", "office", "home"][scenario.env_bucket().min(2)]
    );
    Ok(())
}

/// `solarml scenario run <name|path>`: a fleet campaign whose conditions
/// come from the script; all `fleet` flags apply.
pub fn scenario_run(opts: &Options) -> Result<(), String> {
    if opts.scenario.is_none() {
        return Err("scenario run needs a <name|path> (see `solarml scenario list`)".into());
    }
    fleet(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("solarml-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&dir);
        dir
    }

    /// Options that would run a campaign if the error path under test
    /// didn't fire first — tiny, so an accidental pass stays cheap.
    fn fleet_opts(store_dir: &std::path::Path) -> Options {
        Options {
            nodes: Some(1),
            store_dir: Some(store_dir.display().to_string()),
            ..Options::default()
        }
    }

    #[test]
    fn fleet_rejects_a_file_as_store_dir_with_a_typed_message() {
        let path = tmp("file-store");
        std::fs::write(&path, b"occupied").expect("write");
        let err = fleet(&fleet_opts(&path)).expect_err("file as store dir");
        assert!(err.contains("not a directory"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fleet_rejects_a_foreign_version_store_with_a_typed_message() {
        let dir = tmp("foreign-store");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A meta stamp from a hypothetical newer build: magic ok,
        // version 999, checksum valid — so only the version check fires.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SLNDSTOR");
        bytes.extend_from_slice(&999u32.to_le_bytes());
        let checksum = solarml::trace::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(dir.join("store.meta"), &bytes).expect("write meta");
        let err = fleet(&fleet_opts(&dir)).expect_err("foreign version");
        assert!(err.contains("store format v999"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_rejects_a_corrupt_store_meta_with_a_typed_message() {
        let dir = tmp("corrupt-meta");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("store.meta"), b"definitely not a meta stamp").expect("write meta");
        let err = fleet(&fleet_opts(&dir)).expect_err("corrupt meta");
        assert!(
            err.contains("malformed") || err.contains("bad magic"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_rejects_unknown_population_parameters() {
        let opts = Options {
            nodes: Some(1),
            param: Some("flux-capacitor".into()),
            value: Some(1.21),
            ..Options::default()
        };
        let err = fleet(&opts).expect_err("unknown parameter");
        assert!(err.contains("unknown population parameter"), "{err}");
        let err = fleet_sweep(&Options {
            store_dir: Some(tmp("sweep-unknown").display().to_string()),
            param: Some("flux-capacitor".into()),
            values: Some(vec![1.21]),
            nodes: Some(1),
            ..Options::default()
        })
        .expect_err("unknown parameter");
        assert!(err.contains("unknown population parameter"), "{err}");
    }

    #[test]
    fn fleet_refuses_out_of_domain_population_parameters() {
        let out = tmp("negative-peak.json");
        let opts = Options {
            nodes: Some(64),
            param: Some("office-peak-lo".into()),
            value: Some(-100.0),
            out: Some(out.display().to_string()),
            ..Options::default()
        };
        let err = fleet(&opts).expect_err("negative office peak");
        assert!(err.contains("office-peak-lo"), "{err}");
        assert!(!out.exists(), "a refused campaign writes no report");
    }

    #[test]
    fn fleet_sweep_requires_its_flags() {
        let err = fleet_sweep(&Options::default()).expect_err("no store");
        assert!(err.contains("--store-dir"), "{err}");
        let err = fleet_sweep(&Options {
            store_dir: Some("somewhere".into()),
            ..Options::default()
        })
        .expect_err("no param");
        assert!(err.contains("--param"), "{err}");
        let err = fleet_sweep(&Options {
            store_dir: Some("somewhere".into()),
            param: Some("ladder-share".into()),
            ..Options::default()
        })
        .expect_err("no values");
        assert!(err.contains("--values"), "{err}");
    }

    #[test]
    fn fleet_rejects_an_unknown_scenario_name_listing_the_shipped_ones() {
        let err = fleet(&Options {
            nodes: Some(1),
            scenario: Some("nonesuch".into()),
            ..Options::default()
        })
        .expect_err("unknown scenario");
        assert!(err.contains("unknown scenario `nonesuch`"), "{err}");
        assert!(err.contains("office_reference"), "lists shipped: {err}");
    }

    #[test]
    fn fleet_rejects_an_unreadable_scenario_path_with_a_typed_message() {
        let path = tmp("missing-scn").join("nope.scn");
        let err = fleet(&Options {
            nodes: Some(1),
            scenario: Some(path.display().to_string()),
            ..Options::default()
        })
        .expect_err("unreadable path");
        assert!(err.contains("cannot read"), "{err}");
        assert!(err.contains("nope.scn"), "{err}");
    }

    #[test]
    fn fleet_reports_scenario_parse_errors_with_file_line_and_column() {
        let dir = tmp("bad-scn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.scn");
        // A lux quantity where a probability is expected, on line 2.
        std::fs::write(
            &path,
            "# bad: a type error on purpose\nmarkov_clouds(p: 800 lux)\n",
        )
        .expect("write");
        let err = fleet(&Options {
            nodes: Some(1),
            scenario: Some(path.display().to_string()),
            ..Options::default()
        })
        .expect_err("type error");
        assert!(err.contains("bad.scn:2:"), "file:line:col prefix: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_rejects_scenario_combined_with_environment_param_edits() {
        let err = fleet(&Options {
            nodes: Some(1),
            scenario: Some("office_reference".into()),
            param: Some("office-peak-hi".into()),
            value: Some(900.0),
            ..Options::default()
        })
        .expect_err("scenario owns the environment");
        assert!(err.contains("--scenario conflicts with --param"), "{err}");
        // The same gate guards sweeps over scenario-owned parameters.
        let err = fleet_sweep(&Options {
            nodes: Some(1),
            store_dir: Some(tmp("sweep-conflict").display().to_string()),
            scenario: Some("office_reference".into()),
            param: Some("clouds-hi".into()),
            values: Some(vec![4.0]),
            ..Options::default()
        })
        .expect_err("scenario owns the fault load");
        assert!(err.contains("--scenario conflicts with --param"), "{err}");
    }

    #[test]
    fn policy_params_stay_editable_under_a_scenario() {
        let cfg = fleet_config(&Options {
            nodes: Some(1),
            scenario: Some("office_reference".into()),
            param: Some("retained-share".into()),
            value: Some(1.0),
            ..Options::default()
        })
        .expect("policy edits merge with a script");
        assert!(cfg.population.scenario.is_some());
        assert!((cfg.population.retained_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_show_and_run_need_a_target() {
        let err = scenario_show(&Options::default()).expect_err("no target");
        assert!(err.contains("scenario list"), "{err}");
        let err = scenario_run(&Options::default()).expect_err("no target");
        assert!(err.contains("scenario list"), "{err}");
    }

    #[test]
    fn scenario_show_accepts_names_and_paths() {
        scenario_show(&Options {
            scenario: Some("cloudy_day".into()),
            ..Options::default()
        })
        .expect("shipped name");
        let dir = tmp("show-scn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("mine.scn");
        std::fs::write(&path, "office(peak: 640 lux)\n").expect("write");
        scenario_show(&Options {
            scenario: Some(path.display().to_string()),
            ..Options::default()
        })
        .expect("script path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_with_param_but_no_value_points_at_sweep() {
        let err = fleet(&Options {
            param: Some("ladder-share".into()),
            ..Options::default()
        })
        .expect_err("param without value");
        assert!(err.contains("fleet sweep"), "{err}");
    }
}
