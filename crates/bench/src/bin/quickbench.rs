//! `quickbench` — the tracked perf baseline behind `cargo xtask bench`.
//!
//! Times the conv kernels (optimized vs. naive reference), the quick
//! eNAS search at 1 worker vs. N workers (verifying the two searches agree
//! bit-for-bit), the 24 h end-to-end day simulation at fixed vs.
//! adaptive timestep (verifying identical interaction outcomes and a
//! sub-nanojoule energy-ledger residual), and a 64-node fleet campaign at
//! 1 vs. 4 workers (verifying byte-identical reports and per-node ledger
//! closure), and writes the medians to
//! `BENCH_hotpaths.json` so future PRs have a trajectory to beat.
//! Wall-clock timing with `std::time`; the JSON is hand-rendered because
//! the workspace vendors no JSON crate.
//!
//! Usage: `quickbench [--quick] [--out PATH]`
//! `--quick` cuts repetitions for CI; the full run medians over more reps.

// A measurement binary: panicking on a violated internal invariant (a stage
// name that was never pushed, zero reps) is the correct failure mode.
#![allow(clippy::expect_used)]

use std::time::Instant;

use rand::SeedableRng;
use solarml::fleet::{
    resume_campaign_with, run_campaign, run_campaign_cached, run_campaign_durable_with,
    simulate_node, CampaignCheckpoints, CampaignConfig, CampaignError, FleetReport, NodeDayStore,
    NodeDayTask, FLEET_SEED_CYCLE,
};
use solarml::nas::parallel::{available_workers, derive_seed};
use solarml::nn::layers::Conv2d;
use solarml::nn::reference;
use solarml::nn::{Padding, Tensor, TrainConfig};
use solarml::platform::{simulate_day_with, DayReport, DaySimConfig};
use solarml::scenario::{registry, Scenario};
use solarml::sim::DtPolicy;
use solarml::units::Seconds;
use solarml::{run_enas, EnasConfig, Energy, TaskContext};

struct Stage {
    name: &'static str,
    median_ns: u128,
    iters: usize,
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `iters` calls of `f`, repeated `reps` times; returns the median
/// per-iteration time in nanoseconds.
fn time_stage<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() / iters as u128
        })
        .collect();
    median_ns(&mut samples)
}

fn kernel_stages(reps: usize, iters: usize) -> Vec<Stage> {
    // KWS-scale feature map: 49 frames × 13 features, 8→16 channels.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut layer = Conv2d::standalone(8, 16, 3, 3, 1, Padding::Same, &mut rng);
    let input = Tensor::from_vec(
        [49, 13, 8],
        (0..49 * 13 * 8)
            .map(|i| ((i as f32) * 0.37).sin())
            .collect(),
    );
    let weights = layer.weights().to_vec();
    let bias = layer.bias().to_vec();
    let out = layer.forward(&input);
    let grad = Tensor::from_vec(
        out.shape().to_vec(),
        (0..out.len()).map(|i| ((i as f32) * 0.11).cos()).collect(),
    );

    vec![
        Stage {
            name: "conv_forward_opt",
            median_ns: time_stage(reps, iters, || {
                std::hint::black_box(layer.forward(&input));
            }),
            iters,
        },
        Stage {
            name: "conv_forward_naive",
            median_ns: time_stage(reps, iters, || {
                std::hint::black_box(reference::conv2d_forward(
                    &input,
                    &weights,
                    &bias,
                    3,
                    3,
                    8,
                    16,
                    1,
                    Padding::Same,
                ));
            }),
            iters,
        },
        Stage {
            name: "conv_backward_opt",
            median_ns: time_stage(reps, iters, || {
                std::hint::black_box(layer.backward(&grad));
            }),
            iters,
        },
        Stage {
            name: "conv_backward_naive",
            median_ns: time_stage(reps, iters, || {
                std::hint::black_box(reference::conv2d_backward(
                    &input,
                    &grad,
                    &weights,
                    3,
                    3,
                    8,
                    16,
                    1,
                    Padding::Same,
                ));
            }),
            iters,
        },
    ]
}

/// Times one full 24 h end-to-end day simulation under `policy`; returns
/// the median wall-clock and the last report (step count, ledger residual).
fn timed_day_sim(policy: DtPolicy, reps: usize) -> (u128, DayReport) {
    let config = DaySimConfig::office_day(Energy::from_milli_joules(3.0));
    let mut samples = Vec::with_capacity(reps);
    let mut report = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = simulate_day_with(&config, policy);
        samples.push(start.elapsed().as_nanos());
        report = Some(r);
    }
    (
        median_ns(&mut samples),
        report.expect("at least one day rep"),
    )
}

fn search_context() -> TaskContext {
    let mut ctx = TaskContext::gesture(4, 11);
    ctx.train_config = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    ctx
}

/// Runs the quick eNAS search at a worker count on a fresh context
/// (fresh so the memo cache cannot leak work between timed runs).
/// Context construction is excluded from the timing.
fn timed_search(workers: usize, reps: usize) -> (u128, solarml::SearchOutcome) {
    let mut samples = Vec::with_capacity(reps);
    let mut outcome = None;
    for _ in 0..reps {
        let ctx = search_context();
        let config = EnasConfig {
            workers,
            ..EnasConfig::quick(0.5)
        };
        let start = Instant::now();
        let result = run_enas(&ctx, &config);
        samples.push(start.elapsed().as_nanos());
        outcome = Some(result);
    }
    (
        median_ns(&mut samples),
        outcome.expect("at least one search rep"),
    )
}

/// Times a 64-node smoke fleet campaign at a worker count; returns the
/// median wall-clock and the last report (for the cross-worker identity
/// and ledger gates).
fn timed_fleet(workers: usize, reps: usize) -> (u128, FleetReport) {
    let mut cfg = CampaignConfig::smoke(64, 0xF1EE7);
    cfg.workers = workers;
    let mut samples = Vec::with_capacity(reps);
    let mut report = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = run_campaign(&cfg);
        samples.push(start.elapsed().as_nanos());
        report = Some(r);
    }
    (
        median_ns(&mut samples),
        report.expect("at least one fleet rep"),
    )
}

/// Peak resident set size of this process in kibibytes, from
/// `/proc/self/status` `VmHWM`; 0 where the proc filesystem is absent.
/// A high-water mark, so it bounds the streaming stage from above: the
/// campaign's merge tree holds O(log nodes) partial aggregates, and this
/// number is how the trajectory would show an O(n) materialization
/// sneaking back in.
fn peak_rss_kib() -> u64 {
    if cfg!(target_os = "linux") {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

/// The 1M-class streaming stage, scaled to bench time: times an
/// uninterrupted durable campaign for throughput, then kills a second run
/// at mid-campaign via the harness hook and resumes it on a different
/// worker count — the resumed report must match the uninterrupted one
/// byte-for-byte.
fn timed_stream(nodes: usize) -> (u128, f64, bool) {
    let mut cfg = CampaignConfig::smoke(nodes, 0x57AE);
    cfg.workers = 1;
    let scratch = std::env::temp_dir().join(format!("solarml-bench-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let checkpoints = |dir: &std::path::Path| {
        let mut ckpt = CampaignCheckpoints::new(dir);
        ckpt.every_nodes = (nodes as u64 / 8).max(1);
        ckpt
    };

    let durable_dir = scratch.join("durable");
    std::fs::create_dir_all(&durable_dir).expect("bench scratch dir");
    let start = Instant::now();
    let baseline = run_campaign_durable_with(&cfg, &checkpoints(&durable_dir), &simulate_node)
        .expect("uninterrupted durable run");
    let elapsed_ns = start.elapsed().as_nanos();
    let node_days_per_sec = nodes as f64 / (elapsed_ns as f64 / 1e9).max(1e-9);

    let kill_dir = scratch.join("killed");
    std::fs::create_dir_all(&kill_dir).expect("bench scratch dir");
    let mut kill = checkpoints(&kill_dir);
    kill.abort_after_nodes = Some(nodes as u64 / 2);
    let aborted = matches!(
        run_campaign_durable_with(&cfg, &kill, &simulate_node),
        Err(CampaignError::Aborted { .. })
    );
    let mut resumed_cfg = cfg.clone();
    resumed_cfg.workers = 4;
    let resume_identical = aborted
        && resume_campaign_with(&resumed_cfg, &checkpoints(&kill_dir), &simulate_node)
            .is_ok_and(|r| r.to_json() == baseline.to_json());

    let _ = std::fs::remove_dir_all(&scratch);
    (elapsed_ns, node_days_per_sec, resume_identical)
}

struct SweepBench {
    cold_ns: u128,
    warm_ns: u128,
    hits: u64,
    misses: u64,
    affected: usize,
    warm_identical: bool,
}

/// The incremental-sweep stage: a campaign cold into a fresh node-day
/// store, then a one-parameter warm sweep (`ladder-share` 0.70 → 0.705 — a
/// spec edit whose resolved-config blast radius is a handful of nodes at
/// most) against the same store, and a from-scratch recompute of the edited
/// spec for the byte-identity gate. The affected-node count is derived
/// exactly, by diffing every node's content key between the two specs, so
/// the warm run's miss count has a ground truth to match.
fn timed_sweep(nodes: usize, workers: usize) -> SweepBench {
    let mut cfg = CampaignConfig::smoke(nodes, 0xF1EE7);
    cfg.workers = workers;
    let scratch = std::env::temp_dir().join(format!("solarml-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let store = NodeDayStore::open(&scratch).expect("bench store opens in temp dir");

    let start = Instant::now();
    let _cold = run_campaign_cached(&cfg, &store);
    let cold_ns = start.elapsed().as_nanos();

    let mut warm_cfg = cfg.clone();
    warm_cfg
        .population
        .set_param("ladder-share", 0.705)
        .expect("ladder-share is a known population parameter");
    let affected = (0..nodes)
        .filter(|&node| {
            let seed = derive_seed(cfg.seed, FLEET_SEED_CYCLE, node);
            NodeDayTask::resolve(&cfg.population, node, seed).key()
                != NodeDayTask::resolve(&warm_cfg.population, node, seed).key()
        })
        .count();

    store.reset_stats();
    let start = Instant::now();
    let warm = run_campaign_cached(&warm_cfg, &store);
    let warm_ns = start.elapsed().as_nanos();
    let stats = store.stats();

    let from_scratch = run_campaign(&warm_cfg);
    let warm_identical = warm.to_json() == from_scratch.to_json();

    let _ = std::fs::remove_dir_all(&scratch);
    SweepBench {
        cold_ns,
        warm_ns,
        hits: stats.hits,
        misses: stats.misses,
        affected,
        warm_identical,
    }
}

/// The scenario-language stage: times one full parse + unit-check + eval
/// round trip of the registry's most randomized shipped script (the shape
/// a campaign pays once per node-day resolution), and gates on the
/// language's determinism contract: two independent parse/eval passes over
/// *every* shipped scenario must agree bit-for-bit, at more than one seed.
fn timed_scenario(reps: usize, iters: usize) -> (u128, bool) {
    let entry = registry::find("monsoon_season").expect("shipped scenario");
    let ns = time_stage(reps, iters, || {
        let scenario = Scenario::parse(entry.source).expect("shipped script parses");
        std::hint::black_box(scenario.eval(42));
    });
    let identical = registry::all().iter().all(|e| {
        [7u64, 0xDEAD_BEEF].iter().all(|&seed| {
            let a = Scenario::parse(e.source).expect("shipped script parses");
            let b = Scenario::parse(e.source).expect("shipped script parses");
            a.eval(seed) == b.eval(seed)
        })
    });
    (ns, identical)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_hotpaths.json")
        .to_string();

    let (kernel_reps, kernel_iters) = if quick { (5, 200) } else { (11, 1000) };
    let search_reps = if quick { 1 } else { 3 };
    let threads = available_workers();

    eprintln!("quickbench: timing conv kernels ({kernel_reps} reps × {kernel_iters} iters)…");
    let mut stages = kernel_stages(kernel_reps, kernel_iters);

    eprintln!("quickbench: quick eNAS search at 1 worker ({search_reps} rep(s))…");
    let (serial_ns, serial_outcome) = timed_search(1, search_reps);
    stages.push(Stage {
        name: "enas_quick_search_1w",
        median_ns: serial_ns,
        iters: 1,
    });
    eprintln!("quickbench: quick eNAS search at 4 workers…");
    let (parallel_ns, parallel_outcome) = timed_search(4, search_reps);
    stages.push(Stage {
        name: "enas_quick_search_4w",
        median_ns: parallel_ns,
        iters: 1,
    });

    let day_reps = if quick { 3 } else { 7 };
    eprintln!("quickbench: 24 h day sim, fixed 1 s dt ({day_reps} reps)…");
    let (fixed_day_ns, fixed_day) = timed_day_sim(DtPolicy::fixed(), day_reps);
    stages.push(Stage {
        name: "day_sim_fixed_dt",
        median_ns: fixed_day_ns,
        iters: 1,
    });
    eprintln!("quickbench: 24 h day sim, adaptive dt…");
    let (adaptive_day_ns, adaptive_day) = timed_day_sim(
        DtPolicy::adaptive(Seconds::from_millis(1.0), Seconds::new(3600.0)),
        day_reps,
    );
    stages.push(Stage {
        name: "day_sim_adaptive_dt",
        median_ns: adaptive_day_ns,
        iters: 1,
    });
    let day_outcomes_identical = fixed_day.completed == adaptive_day.completed
        && fixed_day.attempted == adaptive_day.attempted
        && fixed_day.rejected == adaptive_day.rejected;

    let fleet_reps = if quick { 1 } else { 3 };
    eprintln!("quickbench: 64-node fleet campaign at 1 worker ({fleet_reps} rep(s))…");
    let (fleet_1w_ns, fleet_1w) = timed_fleet(1, fleet_reps);
    stages.push(Stage {
        name: "fleet_campaign_64n_1w",
        median_ns: fleet_1w_ns,
        iters: 1,
    });
    eprintln!("quickbench: 64-node fleet campaign at 4 workers…");
    let (fleet_4w_ns, fleet_4w) = timed_fleet(4, fleet_reps);
    stages.push(Stage {
        name: "fleet_campaign_64n_4w",
        median_ns: fleet_4w_ns,
        iters: 1,
    });
    let fleet_reports_identical = fleet_1w.to_json() == fleet_4w.to_json();
    let fleet_nodes_per_sec = 64.0 / (fleet_4w_ns.min(fleet_1w_ns) as f64 / 1e9).max(1e-9);
    let fleet_max_residual_nj = fleet_1w.aggregate.residual_nj_stat.max_or_zero();

    // The streaming stage stands in for the million-node campaign the
    // engine is built for, scaled to bench time: same code path
    // (durable run, checkpoints, kill, resume), smaller node count.
    let stream_nodes = if quick { 96 } else { 384 };
    eprintln!("quickbench: {stream_nodes}-node durable streaming campaign + kill/resume…");
    let (stream_ns, stream_node_days_per_sec, stream_resume_identical) = timed_stream(stream_nodes);
    stages.push(Stage {
        name: "fleet_campaign_stream_durable",
        median_ns: stream_ns,
        iters: 1,
    });
    let stream_peak_rss_kib = peak_rss_kib();

    eprintln!(
        "quickbench: scenario parse + eval round trip ({kernel_reps} reps × {kernel_iters} iters)…"
    );
    let (scenario_ns, scenario_identical) = timed_scenario(kernel_reps, kernel_iters);
    stages.push(Stage {
        name: "scenario_parse_eval",
        median_ns: scenario_ns,
        iters: kernel_iters,
    });

    let sweep_nodes = 64;
    eprintln!("quickbench: {sweep_nodes}-node cold campaign + warm one-parameter sweep…");
    let sweep = timed_sweep(sweep_nodes, 4);
    stages.push(Stage {
        name: "fleet_sweep_cold",
        median_ns: sweep.cold_ns,
        iters: 1,
    });
    stages.push(Stage {
        name: "fleet_sweep_warm",
        median_ns: sweep.warm_ns,
        iters: 1,
    });
    let sweep_cold_node_days_per_sec = sweep_nodes as f64 / (sweep.cold_ns as f64 / 1e9).max(1e-9);
    let sweep_hit_rate = sweep.hits as f64 / ((sweep.hits + sweep.misses) as f64).max(1.0);
    let sweep_warm_speedup = sweep.cold_ns as f64 / (sweep.warm_ns as f64).max(1.0);
    let sweep_miss_matches_affected = sweep.misses as usize == sweep.affected;

    let histories_identical = serial_outcome == parallel_outcome;
    let ratio = |num: &str, den: &str| -> f64 {
        let get = |n: &str| {
            stages
                .iter()
                .find(|s| s.name == n)
                .expect("stage exists")
                .median_ns as f64
        };
        get(num) / get(den).max(1.0)
    };
    let fwd_speedup = ratio("conv_forward_naive", "conv_forward_opt");
    let bwd_speedup = ratio("conv_backward_naive", "conv_backward_opt");
    let search_speedup = serial_ns as f64 / (parallel_ns as f64).max(1.0);
    let day_wallclock_speedup = fixed_day_ns as f64 / (adaptive_day_ns as f64).max(1.0);
    let day_step_ratio = fixed_day.steps as f64 / (adaptive_day.steps as f64).max(1.0);
    let day_residual_nj = adaptive_day
        .residual
        .as_joules()
        .max(fixed_day.residual.as_joules())
        * 1e9;

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"solarml-bench-hotpaths/v1\",\n");
    json.push_str("  \"generated_by\": \"cargo xtask bench\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"threads_available\": {threads},\n"));
    json.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"iters\": {}}}{}\n",
            json_escape(s.name),
            s.median_ns,
            s.iters,
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"derived\": {\n");
    json.push_str(&format!(
        "    \"conv_forward_speedup\": {fwd_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "    \"conv_backward_speedup\": {bwd_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "    \"enas_search_speedup_4w_vs_1w\": {search_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "    \"parallel_histories_identical\": {histories_identical},\n"
    ));
    json.push_str(&format!(
        "    \"day_sim_speedup\": {day_wallclock_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "    \"day_sim_step_ratio\": {day_step_ratio:.1},\n"
    ));
    json.push_str(&format!(
        "    \"day_sim_ledger_residual_nj\": {day_residual_nj:.3},\n"
    ));
    json.push_str(&format!(
        "    \"day_sim_outcomes_identical\": {day_outcomes_identical},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_nodes_per_sec\": {fleet_nodes_per_sec:.1},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_max_residual_nj\": {fleet_max_residual_nj:.3},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_reports_identical\": {fleet_reports_identical},\n"
    ));
    json.push_str(&format!("    \"fleet_stream_nodes\": {stream_nodes},\n"));
    json.push_str(&format!(
        "    \"fleet_stream_node_days_per_sec\": {stream_node_days_per_sec:.1},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_stream_peak_rss_kib\": {stream_peak_rss_kib},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_stream_resume_identical\": {stream_resume_identical},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_cold_node_days_per_sec\": {sweep_cold_node_days_per_sec:.1},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_hit_rate\": {sweep_hit_rate:.3},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_warm_speedup\": {sweep_warm_speedup:.1},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_affected_nodes\": {},\n",
        sweep.affected
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_miss_count_matches_affected\": {sweep_miss_matches_affected},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_sweep_warm_identical\": {},\n",
        sweep.warm_identical
    ));
    json.push_str(&format!(
        "    \"scenario_eval_identical\": {scenario_identical}\n"
    ));
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("quickbench: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("{json}");
    eprintln!("quickbench: wrote {out_path}");
    if !histories_identical {
        eprintln!("quickbench: ERROR — 1-worker and 4-worker histories diverge");
        std::process::exit(1);
    }
    if !day_outcomes_identical {
        eprintln!("quickbench: ERROR — adaptive-dt day sim diverges from fixed-dt");
        std::process::exit(1);
    }
    if day_residual_nj > 1.0 {
        eprintln!("quickbench: ERROR — day-sim ledger residual {day_residual_nj:.3} nJ > 1 nJ");
        std::process::exit(1);
    }
    if !fleet_reports_identical {
        eprintln!("quickbench: ERROR — 1-worker and 4-worker fleet reports diverge");
        std::process::exit(1);
    }
    if fleet_max_residual_nj > 1.0 {
        eprintln!(
            "quickbench: ERROR — worst fleet ledger residual {fleet_max_residual_nj:.3} nJ > 1 nJ"
        );
        std::process::exit(1);
    }
    if !stream_resume_identical {
        eprintln!("quickbench: ERROR — killed-and-resumed streaming campaign diverges");
        std::process::exit(1);
    }
    if !sweep.warm_identical {
        eprintln!("quickbench: ERROR — warm sweep report diverges from from-scratch recompute");
        std::process::exit(1);
    }
    if !sweep_miss_matches_affected {
        eprintln!(
            "quickbench: ERROR — warm sweep recomputed {} node-days but the spec edit \
             moved {} content keys (stale or over-invalidated cache)",
            sweep.misses, sweep.affected
        );
        std::process::exit(1);
    }
    if sweep_warm_speedup < 50.0 {
        eprintln!(
            "quickbench: ERROR — warm sweep only {sweep_warm_speedup:.1}x faster than cold \
             (floor: 50x)"
        );
        std::process::exit(1);
    }
    if !scenario_identical {
        eprintln!("quickbench: ERROR — repeated scenario parse+eval passes diverge");
        std::process::exit(1);
    }
}
