//! Property suites for the incremental node-day store: any cached-prefix /
//! recomputed-suffix split folds byte-identically to an all-cold run, any
//! mangled pack frame is a miss or a typed error and recomputes
//! transparently,
//! and a one-`Dist` spec edit invalidates exactly the nodes whose resolved
//! configuration it reaches — pinned by a mutation sweep over every
//! [`PopulationSpec`] parameter.
//!
//! Simulation-backed properties run a stripped population (zero
//! interactions, clouds, outages) so each node-day costs microseconds;
//! key-space properties never simulate at all.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use solarml_fleet::campaign::FLEET_SEED_CYCLE;
use solarml_fleet::{
    run_campaign, run_campaign_cached, CampaignConfig, Dist, NodeBlueprint, NodeDayOutcome,
    NodeDayStore, NodeDayTask, PopulationSpec, StoreError, POPULATION_PARAMS,
};
use solarml_nas::parallel::derive_seed;
use solarml_scenario::Scenario;

/// A population whose day simulations are nearly free: no interactions,
/// no transients — the store machinery is what's under test, not the
/// physics.
fn cheap_spec() -> PopulationSpec {
    let mut spec = PopulationSpec::smoke();
    spec.interaction_count = Dist::Constant(0.0);
    spec.cloud_count = Dist::Constant(0.0);
    spec.outage_count = Dist::Constant(0.0);
    spec
}

fn cheap_cfg(nodes: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(nodes, 0x5EED);
    cfg.population = cheap_spec();
    cfg.workers = 2;
    cfg.chunk = 3;
    cfg
}

const PROP_NODES: usize = 8;

/// Bytes of one pack frame: envelope (20), key (8), outcome (88).
const FRAME_LEN: usize = 116;

/// Byte range of the content key inside a frame, after magic and version.
const KEY_BYTES: std::ops::Range<usize> = 12..20;

fn node_task(spec: &PopulationSpec, seed: u64, node: usize) -> NodeDayTask {
    NodeDayTask::resolve(spec, node, derive_seed(seed, FLEET_SEED_CYCLE, node))
}

/// A master store holding all [`PROP_NODES`] outcomes, built once; cases
/// seed their per-case store with a prefix of its pack's frames.
fn master_store() -> &'static (PathBuf, String) {
    static MASTER: OnceLock<(PathBuf, String)> = OnceLock::new();
    MASTER.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("solarml-prop-master-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cheap_cfg(PROP_NODES);
        let store = NodeDayStore::open(&dir).expect("open master store");
        let cold = run_campaign_cached(&cfg, &store);
        (dir, cold.to_json())
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("solarml-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic outcome spanning the codec's value space (signed zero
/// included), derived from one generated seed — no simulation needed.
fn outcome_from(seed: u64) -> NodeDayOutcome {
    fn mix(seed: u64, lane: u64) -> u64 {
        let mut z = seed
            .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn unit(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
    let dead = match mix(seed, 1) % 8 {
        0 => -0.0,
        1 => 0.0,
        _ => unit(mix(seed, 2)) * 86_400.0,
    };
    NodeDayOutcome {
        attempted: (mix(seed, 3) % 64) as usize,
        completed: (mix(seed, 4) % 64) as usize,
        abandoned: (mix(seed, 5) % 64) as usize,
        degraded: (mix(seed, 6) % 16) as usize,
        brownouts: (mix(seed, 7) % 16) as usize,
        dead_window_s: dead,
        harvested_j: unit(mix(seed, 8)) * 50.0,
        consumed_j: unit(mix(seed, 9)) * 50.0,
        wasted_j: unit(mix(seed, 10)) * 5.0,
        residual_j: (unit(mix(seed, 11)) - 0.5) * 4e-9,
        mean_accuracy: unit(mix(seed, 12)),
    }
}

/// Environment bucket of each node under `spec` (0 outdoor, 1 office,
/// 2 home).
fn env_of(spec: &PopulationSpec, seed: u64, nodes: usize) -> Vec<usize> {
    (0..nodes)
        .map(|node| {
            spec.node_blueprint(derive_seed(seed, FLEET_SEED_CYCLE, node))
                .env_index
        })
        .collect()
}

/// One edit per [`POPULATION_PARAMS`] row, in table order. Decisive: each
/// lands well outside the representative range so no draw can round it
/// away.
const DECISIVE_EDITS: &[(&str, f64)] = &[
    ("outdoor-share", 5.0),
    ("office-share", 5.0),
    ("home-share", 5.0),
    ("retained-share", 5.0),
    ("volatile-share", 5.0),
    ("none-share", 5.0),
    ("ladder-share", 0.0),
    ("day-of-year", 20.0),
    ("latitude-lo", 5.0),
    ("latitude-hi", 85.0),
    ("office-peak-lo", 50.0),
    ("office-peak-hi", 2000.0),
    ("home-peak-lo", 20.0),
    ("home-peak-hi", 1500.0),
    ("panel-scale-lo", 0.05),
    ("panel-scale-hi", 10.0),
    ("capacitance-lo", 0.001),
    ("capacitance-hi", 1.0),
    ("initial-voltage-lo", 1.0),
    ("initial-voltage-hi", 3.3),
    ("capacity-factor-lo", 0.06),
    ("capacity-factor-hi", 0.5),
    ("esr-scale-lo", 4.0),
    ("esr-scale-hi", 9.0),
    ("interactions-lo", 100.0),
    ("interactions-hi", 200.0),
    ("clouds-lo", 50.0),
    ("clouds-hi", 80.0),
    ("outages-lo", 40.0),
    ("outages-hi", 60.0),
];

fn keys_of(spec: &PopulationSpec, seed: u64, nodes: usize) -> Vec<u64> {
    (0..nodes)
        .map(|node| node_task(spec, seed, node).key())
        .collect()
}

proptest! {
    /// Satellite (a): seed the store with any prefix of cached entries,
    /// recompute the rest, and the report — down to its JSON bytes — is
    /// the all-cold report, at any worker count and chunking.
    #[test]
    fn cached_prefix_plus_recomputed_suffix_is_byte_identical_to_cold(
        split_frac in 0.0f64..=1.0,
        workers in 1usize..4,
        chunk in 1usize..5,
    ) {
        let (master_dir, cold_json) = master_store();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let split = ((PROP_NODES as f64) * split_frac) as usize % (PROP_NODES + 1);

        let dir = fresh_dir("prefix");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::copy(master_dir.join("store.meta"), dir.join("store.meta")).expect("copy meta");
        let pack = std::fs::read(master_dir.join("store.pack")).expect("read master pack");
        prop_assert_eq!(pack.len(), PROP_NODES * FRAME_LEN);
        std::fs::write(dir.join("store.pack"), &pack[..split * FRAME_LEN]).expect("write prefix");
        let store = NodeDayStore::open(&dir).expect("open");

        let mut cfg = cheap_cfg(PROP_NODES);
        cfg.workers = workers;
        cfg.chunk = chunk;
        let warm = run_campaign_cached(&cfg, &store);
        prop_assert_eq!(warm.to_json(), cold_json.clone());
        let stats = store.stats();
        prop_assert_eq!(stats.hits as usize, split);
        prop_assert_eq!(stats.misses as usize, PROP_NODES - split);
        prop_assert_eq!(stats.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite (b), decode half: every truncation and every single-byte
    /// flip of a one-entry pack is a miss or a typed [`StoreError`] —
    /// never a panic, never a silently wrong outcome. A flip inside the key
    /// bytes moves the frame to another key, and a cut before the key ends
    /// leaves a frame that names none, so the lookup misses; every other
    /// mutation is an error under the key.
    #[test]
    fn every_pack_mutation_is_a_miss_or_a_typed_error(
        payload_seed in 0u64..=u64::MAX,
        key in 0u64..=u64::MAX,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        truncate_sel in 0u8..2,
    ) {
        let truncate = truncate_sel == 1;
        let dir = fresh_dir("mangle");
        let outcome = outcome_from(payload_seed);
        {
            let store = NodeDayStore::open(&dir).expect("open");
            store.persist(key, &outcome).expect("persist");
            store.flush().expect("write the pack");
            prop_assert_eq!(store.load(key).expect("load"), Some(outcome));
        }

        let path = dir.join("store.pack");
        let mut bytes = std::fs::read(&path).expect("read");
        prop_assert_eq!(bytes.len(), FRAME_LEN);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= flip;
        }
        std::fs::write(&path, &bytes).expect("rewrite");

        let store = NodeDayStore::open(&dir).expect("a mangled pack still opens");
        let misses = if truncate { pos < KEY_BYTES.end } else { KEY_BYTES.contains(&pos) };
        match store.load(key) {
            Ok(None) if misses => {}
            Err(StoreError::Envelope { .. }) if !misses => {}
            other => prop_assert!(false, "cut {truncate} at {pos}: got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite (c): editing one `Dist` bound moves exactly the keys of
    /// the nodes whose resolved configuration consumes that draw — the
    /// whole environment bucket it feeds, and nothing else.
    #[test]
    fn one_dist_edit_invalidates_exactly_the_affected_env_bucket(
        which in 0usize..3,
        delta in 1.0f64..800.0,
        nodes in 8usize..40,
        seed in 0u64..=u64::MAX,
    ) {
        let spec = cheap_spec();
        let (param, base_hi, env) = match which {
            0 => ("office-peak-hi", 800.0, 1usize),
            1 => ("home-peak-hi", 500.0, 2),
            _ => ("latitude-hi", 60.0, 0),
        };
        let mut edited = spec.clone();
        edited.set_param(param, base_hi + delta).expect("known param");

        let before = keys_of(&spec, seed, nodes);
        let after = keys_of(&edited, seed, nodes);
        let envs = env_of(&spec, seed, nodes);
        for node in 0..nodes {
            if envs[node] == env {
                // This node consumes the edited draw: its key must move.
                prop_assert_ne!(before[node], after[node]);
            } else {
                // This node never uses the draw: its key must survive.
                prop_assert_eq!(before[node], after[node]);
            }
        }
        // Bucket assignment itself never moved — only the configs inside
        // the targeted bucket.
        prop_assert_eq!(env_of(&edited, seed, nodes), envs);
    }
}

/// Satellite (b), recompute half: a campaign over a store whose every
/// frame was bit-flipped outside its key reproduces the cold report
/// exactly, counting each corruption, and heals the store in passing.
#[test]
fn corrupted_store_recomputes_transparently_and_heals() {
    let dir = fresh_dir("heal");
    let cfg = cheap_cfg(6);
    let cold = run_campaign(&cfg);
    assert_eq!(
        run_campaign_cached(&cfg, &NodeDayStore::open(&dir).expect("open")),
        cold
    );

    let path = dir.join("store.pack");
    let mut bytes = std::fs::read(&path).expect("read");
    assert_eq!(bytes.len(), 6 * FRAME_LEN);
    let outside_key: Vec<usize> = (0..FRAME_LEN).filter(|p| !KEY_BYTES.contains(p)).collect();
    for (i, frame) in bytes.chunks_mut(FRAME_LEN).enumerate() {
        frame[outside_key[(i * 17) % outside_key.len()]] ^= 1 << (i % 8);
    }
    std::fs::write(&path, &bytes).expect("write");

    let store = NodeDayStore::open(&dir).expect("reopen");
    assert_eq!(
        run_campaign_cached(&cfg, &store).to_json(),
        cold.to_json(),
        "corruption is invisible in the report"
    );
    assert_eq!(store.stats().corrupt, 6);
    drop(store);

    let store = NodeDayStore::open(&dir).expect("reopen healed");
    run_campaign_cached(&cfg, &store);
    let healed = store.stats();
    assert_eq!((healed.hits, healed.corrupt), (6, 0), "rewrites healed it");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The staleness-impossible pin: flipping any single [`PopulationSpec`]
/// parameter (every share, scalar, and distribution bound the sweep
/// surface exposes) changes the campaign's key set. If a new spec field
/// ever leaks into the simulation without entering the key, this sweep is
/// the test that fails.
#[test]
fn every_spec_parameter_flip_changes_the_key_set() {
    let edits = DECISIVE_EDITS;
    let nodes = 64;
    let seed = 0xF1EE7;
    let spec = PopulationSpec::representative();
    let base = keys_of(&spec, seed, nodes);
    for &(param, value) in edits {
        let mut edited = spec.clone();
        edited.set_param(param, value).expect("known param");
        assert_ne!(
            keys_of(&edited, seed, nodes),
            base,
            "editing `{param}` must move at least one node-day key"
        );
    }
    let swept: Vec<&str> = edits.iter().map(|&(param, _)| param).collect();
    let table: Vec<&str> = POPULATION_PARAMS.iter().map(|p| p.name).collect();
    assert_eq!(swept, table, "the sweep covers the whole set_param surface");
}

proptest! {
    /// Key soundness: content keys hash a node's draw record, not its built
    /// config, so equal keys must still mean equal blueprints. Across the
    /// representative population and one scenario population, each also
    /// under every [`DECISIVE_EDITS`] edit, plus a one-token edit of the
    /// scenario, any two node-days that share a key build the same
    /// config, environment and policy index.
    #[test]
    fn equal_keys_build_equal_blueprints(seed in 0u64..=u64::MAX) {
        let scripted = |p: &str| {
            let mut spec = PopulationSpec::representative();
            let src = format!("overlay(office_table(peak: 800 lux), markov_clouds(p: {p}))");
            spec.scenario = Some(Scenario::parse(&src).expect("parses"));
            spec
        };
        let mut specs = vec![scripted("0.35")];
        for base in [PopulationSpec::representative(), scripted("0.3")] {
            for &(param, value) in DECISIVE_EDITS {
                let mut edited = base.clone();
                edited.set_param(param, value).expect("known param");
                specs.push(edited);
            }
            specs.push(base);
        }
        let mut seen: HashMap<u64, NodeBlueprint> = HashMap::new();
        let mut shared = 0usize;
        for spec in &specs {
            for node in 0..6 {
                let task = node_task(spec, seed, node);
                let blueprint = spec.node_blueprint(task.seed);
                match seen.get(&task.key()) {
                    Some(first) => {
                        prop_assert!(first == &blueprint, "node {node} shares a key: {first:?}");
                        shared += 1;
                    }
                    None => {
                        seen.insert(task.key(), blueprint);
                    }
                }
            }
        }
        // Most edits leave most nodes' draws alone: the property is never
        // vacuous.
        prop_assert!(shared > 0);
    }
}
