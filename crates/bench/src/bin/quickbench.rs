//! `quickbench` — the tracked perf baseline behind `cargo xtask bench`.
//!
//! Times the conv kernels (optimized vs. naive reference, plus the narrow
//! KWS shape where loop overhead dominates), the quick
//! eNAS search at 1 worker vs. N workers (verifying the two searches agree
//! bit-for-bit), the 24 h end-to-end day simulation at fixed vs.
//! adaptive timestep (verifying identical interaction outcomes and a
//! sub-nanojoule energy-ledger residual), and a 64-node fleet campaign at
//! 1 vs. 4 workers (verifying byte-identical reports and per-node ledger
//! closure), and one `HarvestingArray::charging_current` call on the
//! unshaded 25-cell array (the day simulator's per-step harvest cost),
//! counts the rail steps of the CLI-default 64-node campaign, trains one
//! fixed KWS-shaped candidate (verifying its pinned bit-identity digest),
//! builds one KWS MFCC dataset (verifying the pinned digest of the corpus
//! under it), builds the default KWS task context, resolves and keys
//! 10,000 representative node-days, reopens a node-day store of 10,000
//! entries and loads each, and writes the medians to
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
use solarml::circuit::HarvestingArray;
use solarml::datasets::{KwsDataset, KwsDatasetBuilder};
use solarml::dsp::AudioFrontendParams;
use solarml::fleet::{
    resume_campaign_with, run_campaign, run_campaign_cached, run_campaign_durable_with,
    simulate_node, CampaignCheckpoints, CampaignConfig, CampaignError, FleetReport, NodeDayOutcome,
    NodeDayStore, NodeDayTask, PopulationSpec, FLEET_SEED_CYCLE,
};
use solarml::nas::parallel::{available_workers, derive_seed};
use solarml::nn::layers::Conv2d;
use solarml::nn::reference;
use solarml::nn::{fit, LayerSpec, Model, ModelSpec, Padding, Tensor, TrainConfig, TrainReport};
use solarml::platform::{
    simulate_day_with, simulate_faulted_day, DayCost, DayReport, DaySimConfig,
};
use solarml::scenario::{registry, Scenario};
use solarml::sim::DtPolicy;
use solarml::trace::fnv1a64;
use solarml::units::{Lux, Ratio, Seconds, Volts};
use solarml::{run_enas, EnasConfig, Energy, Pipeline, SensingConfig, TaskContext, TaskSelection};

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
    let mut grad_in = Tensor::zeros([1]);
    let input = Tensor::from_vec(
        [49, 13, 8],
        (0..49 * 13 * 8)
            .map(|i| ((i as f32) * 0.37).sin())
            .collect(),
    );
    let weights = layer.weights().to_vec();
    let bias = layer.bias().to_vec();
    let mut out = Tensor::zeros([1]);
    layer.forward_into(&input, &mut out);
    let grad = Tensor::from_vec(
        out.shape().to_vec(),
        (0..out.len()).map(|i| ((i as f32) * 0.11).cos()).collect(),
    );
    // The KWS shape where each (pixel, tap) step is only 16 multiply-adds:
    // a 5×5 conv from 4 to 4 channels.
    let mut narrow = Conv2d::standalone(4, 4, 5, 5, 1, Padding::Same, &mut rng);
    let narrow_input = Tensor::from_vec(
        [49, 13, 4],
        (0..49 * 13 * 4)
            .map(|i| ((i as f32) * 0.29).sin())
            .collect(),
    );
    let mut narrow_out = Tensor::zeros([1]);
    narrow.forward_into(&narrow_input, &mut narrow_out);
    let narrow_grad = Tensor::from_vec(
        narrow_out.shape().to_vec(),
        (0..narrow_out.len())
            .map(|i| ((i as f32) * 0.13).cos())
            .collect(),
    );

    vec![
        Stage {
            name: "conv_forward_narrow",
            median_ns: time_stage(reps, iters, || {
                narrow.forward_into(&narrow_input, &mut narrow_out);
                std::hint::black_box(&narrow_out);
            }),
            iters,
        },
        Stage {
            name: "conv_backward_narrow",
            median_ns: time_stage(reps, iters, || {
                narrow.backward_into(&narrow_input, &narrow_grad, Some(&mut grad_in));
                std::hint::black_box(&grad_in);
            }),
            iters,
        },
        Stage {
            name: "conv_forward_opt",
            median_ns: time_stage(reps, iters, || {
                layer.forward_into(&input, &mut out);
                std::hint::black_box(&out);
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
                layer.backward_into(&input, &grad, Some(&mut grad_in));
                std::hint::black_box(&grad_in);
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

/// Times one `charging_current` call on the paper's unshaded 25-cell
/// array, as every fleet rail step makes it; returns ns per call.
fn timed_charging_current(reps: usize, iters: usize) -> u128 {
    let array = HarvestingArray::new();
    time_stage(reps, iters, || {
        std::hint::black_box(array.charging_current(
            std::hint::black_box(Lux::new(500.0)),
            std::hint::black_box(Volts::new(3.0)),
            |_| Ratio::ZERO,
        ));
    })
}

/// Total rail steps and energy-gate polls of the CLI-default fleet
/// campaign (representative population, 64 nodes, seed 7). Deterministic
/// counts, pinned by the fleet's `production_dt` test; node-day host time
/// is steps × ns/step.
fn fleet_day_counts_64n() -> (usize, usize) {
    let spec = CampaignConfig::new(64, 7).population;
    let mut cost = DayCost::default();
    for node in 0..64 {
        let seed = derive_seed(7, FLEET_SEED_CYCLE, node);
        cost += simulate_faulted_day(&spec.node_blueprint(seed).config).cost;
    }
    (cost.steps(), cost.energy_polls)
}

/// Digest of the `nn_fit_candidate` stage's training run, pinned from the
/// kernels before the bit-identical rewrites of the training loop; any
/// change to what training computes moves it.
const NN_FIT_DIGEST: u64 = 0xf854_1757_1caa_97e1;

/// The fixed candidate of the `nn_fit_candidate` stage: a KWS-shaped conv
/// stack over the standard front end's `[49, 13, 1]` MFCC map.
fn kws_candidate() -> ModelSpec {
    ModelSpec::new(
        [49, 13, 1],
        vec![
            LayerSpec::conv(4, 5, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::conv(4, 5, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::avg_pool(2),
            LayerSpec::flatten(),
            LayerSpec::dense(48),
            LayerSpec::relu(),
            LayerSpec::dense(10),
        ],
    )
    .expect("valid candidate")
}

/// Digest of the `Pipeline`'s default KWS corpus (12 clips per keyword, seed
/// 0x50AA), the value `crates/datasets/tests/kws_corpus_golden.rs` pins; any
/// change to what corpus synthesis computes moves it.
const KWS_CORPUS_DIGEST: u64 = 0xd5f8_0370_1ce4_5bd7;

/// FNV-1a over every clip's f32 bits, then the labels.
fn corpus_digest(corpus: &KwsDataset) -> u64 {
    let clips = (0..corpus.len()).flat_map(|i| corpus.clip(i).0);
    let bytes: Vec<u8> = clips
        .flat_map(|v| v.to_bits().to_le_bytes())
        .chain(
            corpus
                .labels()
                .iter()
                .flat_map(|&l| (l as u64).to_le_bytes()),
        )
        .collect();
    fnv1a64(&bytes)
}

/// FNV-1a over the bits of a trained model's weights, its epoch losses and
/// its train accuracy.
fn fit_digest(model: &mut Model, report: &TrainReport) -> u64 {
    let weights = model.export_weights();
    let bytes: Vec<u8> = weights
        .iter()
        .flatten()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .chain(
            report
                .epoch_losses
                .iter()
                .flat_map(|l| l.to_bits().to_le_bytes()),
        )
        .chain(report.train_accuracy.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Trains the fixed KWS candidate from a fixed seed for the `Pipeline`'s 10
/// epochs on its default KWS train split at the standard front end, `reps`
/// times; returns the median wall-clock and the training digest. Context
/// and dataset construction are excluded from the timing.
fn timed_fit(reps: usize) -> (u128, u64) {
    let ctx = Pipeline::new(TaskSelection::Kws).context();
    let data = ctx.datasets(SensingConfig::Audio(AudioFrontendParams::standard()));
    let spec = kws_candidate();
    let mut samples = Vec::with_capacity(reps);
    let mut digest = None;
    for _ in 0..reps {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF17);
        let mut model = Model::from_spec(&spec, &mut rng);
        let start = Instant::now();
        let report = fit(&mut model, &data.0, &ctx.train_config, &mut rng);
        samples.push(start.elapsed().as_nanos());
        digest = Some(fit_digest(&mut model, &report));
    }
    (
        median_ns(&mut samples),
        digest.expect("at least one fit rep"),
    )
}

/// Times one MFCC `to_class_dataset` of the `Pipeline`'s default KWS corpus
/// (12 clips per keyword, seed 0x50AA) at the standard front end; returns
/// the median and the corpus digest.
fn timed_kws_dataset(reps: usize) -> (u128, u64) {
    let corpus = KwsDatasetBuilder {
        samples_per_class: 12,
        seed: 0x50AA,
        ..KwsDatasetBuilder::default()
    }
    .build();
    let params = AudioFrontendParams::standard();
    let ns = time_stage(reps, 1, || {
        std::hint::black_box(corpus.to_class_dataset(&params));
    });
    (ns, corpus_digest(&corpus))
}

/// Times building the `Pipeline`'s default KWS task context: corpus
/// synthesis, the train/test split and the energy-model fits.
fn timed_kws_context(reps: usize) -> u128 {
    time_stage(reps, 1, || {
        std::hint::black_box(TaskContext::kws(12, 0x50AA));
    })
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

/// Cold→warm sweep pairs per run, each on a fresh store. The warm gate
/// reads the median ratio, so one slow pass on a shared box cannot fail it.
const SWEEP_PAIRS: usize = 7;

/// Representative nodes per `fleet_resolve` rep.
const RESOLVE_NODES: usize = 10_000;

/// The resolve stage: `NodeDayTask::resolve` plus `key()` for
/// representative nodes `0..RESOLVE_NODES` at campaign seed 7 on one
/// thread — what warm replay pays per node-day before the store lookup.
/// Reports nanoseconds per node.
fn timed_resolve(reps: usize) -> u128 {
    let spec = PopulationSpec::representative();
    let mut node = 0;
    time_stage(reps, RESOLVE_NODES, || {
        let seed = derive_seed(7, FLEET_SEED_CYCLE, node);
        std::hint::black_box(NodeDayTask::resolve(&spec, node, seed).key());
        node = (node + 1) % RESOLVE_NODES;
    })
}

/// The store-scale stage: fills a fresh node-day store with `entries`
/// synthetic outcomes through `persist` and writes them with `flush`
/// (untimed; a failed write stops the bench with its error), then times
/// what a warm session pays before any resolve: a reopen plus a `load` of
/// every key.
fn timed_store(entries: usize, reps: usize) -> u128 {
    let dir = std::env::temp_dir().join(format!("solarml-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keys: Vec<u64> = (0..entries)
        .map(|i| derive_seed(0x57_0BE, FLEET_SEED_CYCLE, i))
        .collect();
    {
        let store = NodeDayStore::open(&dir).expect("bench store opens in temp dir");
        for (i, &key) in keys.iter().enumerate() {
            let outcome = NodeDayOutcome {
                attempted: i % 97,
                completed: i % 89,
                abandoned: i % 7,
                degraded: i % 5,
                brownouts: i % 3,
                dead_window_s: i as f64,
                harvested_j: 0.5 * i as f64,
                consumed_j: 0.25 * i as f64,
                wasted_j: 0.125,
                residual_j: 0.0,
                mean_accuracy: 0.9,
            };
            store.persist(key, &outcome).expect("bench persist");
        }
        store.flush().expect("bench store writes its pack");
    }
    let ns = time_stage(reps, 1, || {
        let store = NodeDayStore::open(&dir).expect("bench store reopens");
        let found = keys
            .iter()
            .filter(|&&key| matches!(store.load(key), Ok(Some(_))))
            .count();
        assert_eq!(found, entries, "every persisted entry loads back");
    });
    let _ = std::fs::remove_dir_all(&dir);
    ns
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
    let harvest_iters = kernel_iters * 100;
    eprintln!("quickbench: harvest charging current ({kernel_reps} reps × {harvest_iters} iters)…");
    stages.push(Stage {
        name: "harvest_charging_current",
        median_ns: timed_charging_current(kernel_reps, harvest_iters),
        iters: harvest_iters,
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
    let (fleet_rail_steps, fleet_energy_polls) = fleet_day_counts_64n();

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
    eprintln!(
        "quickbench: {sweep_nodes}-node cold campaign + warm one-parameter sweep \
         ({SWEEP_PAIRS} pairs)…"
    );
    let sweeps: Vec<SweepBench> = (0..SWEEP_PAIRS)
        .map(|_| timed_sweep(sweep_nodes, 4))
        .collect();
    let sweep_cold_ns = median_ns(&mut sweeps.iter().map(|s| s.cold_ns).collect::<Vec<_>>());
    let sweep_warm_ns = median_ns(&mut sweeps.iter().map(|s| s.warm_ns).collect::<Vec<_>>());
    stages.push(Stage {
        name: "fleet_sweep_cold",
        median_ns: sweep_cold_ns,
        iters: 1,
    });
    stages.push(Stage {
        name: "fleet_sweep_warm",
        median_ns: sweep_warm_ns,
        iters: 1,
    });
    let sweep_cold_node_days_per_sec = sweep_nodes as f64 / (sweep_cold_ns as f64 / 1e9).max(1e-9);
    let sweep = &sweeps[0];
    let sweep_hit_rate = sweep.hits as f64 / ((sweep.hits + sweep.misses) as f64).max(1.0);
    let mut sweep_ratios: Vec<f64> = sweeps
        .iter()
        .map(|s| s.cold_ns as f64 / (s.warm_ns as f64).max(1.0))
        .collect();
    sweep_ratios.sort_by(f64::total_cmp);
    let sweep_warm_speedup = sweep_ratios[sweep_ratios.len() / 2];
    let sweep_miss_mismatch = sweeps.iter().find(|s| s.misses as usize != s.affected);
    let sweep_miss_matches_affected = sweep_miss_mismatch.is_none();
    let sweep_warm_identical = sweeps.iter().all(|s| s.warm_identical);

    let resolve_reps = if quick { 3 } else { 7 };
    eprintln!(
        "quickbench: resolve + key of {RESOLVE_NODES} representative nodes ({resolve_reps} reps)…"
    );
    stages.push(Stage {
        name: "fleet_resolve",
        median_ns: timed_resolve(resolve_reps),
        iters: RESOLVE_NODES,
    });

    let store_entries = if quick { 2_000 } else { 10_000 };
    let store_reps = if quick { 3 } else { 7 };
    eprintln!(
        "quickbench: {store_entries}-entry store reopen + load of every key ({store_reps} reps)…"
    );
    stages.push(Stage {
        name: "fleet_store_10k",
        median_ns: timed_store(store_entries, store_reps),
        iters: 1,
    });

    // Last: run before the fleet stages, these training stages slowed the
    // warm sweep several-fold (12–37× over cold instead of ~80× on a
    // 2-vCPU box), so they run after them.
    let fit_reps = if quick { 3 } else { 5 };
    eprintln!("quickbench: fixed KWS candidate, 10 epochs ({fit_reps} reps)…");
    let (fit_ns, fit_digest) = timed_fit(fit_reps);
    stages.push(Stage {
        name: "nn_fit_candidate",
        median_ns: fit_ns,
        iters: 1,
    });
    let fit_digest_identical = fit_digest == NN_FIT_DIGEST;
    let dataset_reps = if quick { 3 } else { 7 };
    eprintln!("quickbench: KWS MFCC dataset build ({dataset_reps} reps)…");
    let (dataset_ns, corpus_digest) = timed_kws_dataset(dataset_reps);
    stages.push(Stage {
        name: "kws_dataset_build",
        median_ns: dataset_ns,
        iters: 1,
    });
    let corpus_digest_identical = corpus_digest == KWS_CORPUS_DIGEST;
    eprintln!("quickbench: KWS task context build ({dataset_reps} reps)…");
    stages.push(Stage {
        name: "kws_context_build",
        median_ns: timed_kws_context(dataset_reps),
        iters: 1,
    });

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
        "    \"nn_fit_digest_identical\": {fit_digest_identical},\n"
    ));
    json.push_str(&format!(
        "    \"kws_corpus_digest_identical\": {corpus_digest_identical},\n"
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
    json.push_str(&format!(
        "    \"fleet_rail_steps_64n\": {fleet_rail_steps},\n"
    ));
    json.push_str(&format!(
        "    \"fleet_energy_polls_64n\": {fleet_energy_polls},\n"
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
        "    \"fleet_sweep_warm_identical\": {sweep_warm_identical},\n"
    ));
    json.push_str(&format!("    \"fleet_store_entries\": {store_entries},\n"));
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
    if !fit_digest_identical {
        eprintln!(
            "quickbench: ERROR — fixed-candidate training digest {fit_digest:#018x} differs \
             from the pinned {NN_FIT_DIGEST:#018x}"
        );
        std::process::exit(1);
    }
    if !corpus_digest_identical {
        eprintln!(
            "quickbench: ERROR — KWS corpus digest {corpus_digest:#018x} differs from the \
             pinned {KWS_CORPUS_DIGEST:#018x}"
        );
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
    if !sweep_warm_identical {
        eprintln!("quickbench: ERROR — warm sweep report diverges from from-scratch recompute");
        std::process::exit(1);
    }
    if let Some(sweep) = sweep_miss_mismatch {
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
             in the median of {SWEEP_PAIRS} pairs (floor: 50x)"
        );
        std::process::exit(1);
    }
    if !scenario_identical {
        eprintln!("quickbench: ERROR — repeated scenario parse+eval passes diverge");
        std::process::exit(1);
    }
}
