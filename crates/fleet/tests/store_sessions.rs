//! The node-day store's session contract, stated without reference to its
//! file layout: each step below opens its own [`NodeDayStore`] on one
//! directory and drops it before the next, the way successive CLI
//! invocations do. What one session persisted, the next one replays; an
//! edit recomputes exactly the node-days whose keys moved; a GC session
//! keeps exactly what it touched, and that survives a reopen.
//!
//! The population is stripped (no interactions, clouds or outages) so a
//! node-day costs microseconds: the store is under test, not the physics.

use std::path::PathBuf;

use solarml_fleet::campaign::FLEET_SEED_CYCLE;
use solarml_fleet::{
    run_campaign, run_campaign_cached, CampaignConfig, Dist, NodeDayStore, NodeDayTask,
    PopulationSpec, StoreGc,
};
use solarml_trace::seed::derive_seed;

const NODES: usize = 24;

/// Bytes one entry occupies on disk: the envelope (magic, version,
/// checksum: 20 bytes), the content key (8) and the outcome (88).
const ENTRY_BYTES: u64 = 116;

/// Nodes the GC session touches, and so the only ones it may keep.
const KEPT_NODES: [usize; 3] = [1, 4, 6];

fn cheap_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(NODES, 0x5E55_1015);
    cfg.population.interaction_count = Dist::Constant(0.0);
    cfg.population.cloud_count = Dist::Constant(0.0);
    cfg.population.outage_count = Dist::Constant(0.0);
    cfg.workers = 2;
    cfg.chunk = 5;
    cfg
}

fn task(cfg: &CampaignConfig, spec: &PopulationSpec, node: usize) -> NodeDayTask {
    NodeDayTask::resolve(spec, node, derive_seed(cfg.seed, FLEET_SEED_CYCLE, node))
}

fn keys(cfg: &CampaignConfig, spec: &PopulationSpec) -> Vec<u64> {
    (0..cfg.nodes)
        .map(|node| task(cfg, spec, node).key())
        .collect()
}

fn session_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "solarml-store-sessions-{}-{}",
        std::process::id(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn count(store: &NodeDayStore) -> usize {
    store.entry_count().expect("entry count")
}

#[test]
fn successive_sessions_replay_recompute_and_collect_exactly() {
    let dir = session_dir();
    let cfg = cheap_cfg();
    let nodes = NODES as u64;

    // Session 1: cold. Everything misses and everything is persisted.
    let cold = {
        let store = NodeDayStore::open(&dir).expect("open cold");
        assert_eq!(count(&store), 0);
        let report = run_campaign_cached(&cfg, &store).to_json();
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (0, nodes, 0));
        assert_eq!(s.bytes, nodes * ENTRY_BYTES);
        assert_eq!(count(&store), NODES);
        report
    };
    assert_eq!(
        cold,
        run_campaign(&cfg).to_json(),
        "cold cached == uncached"
    );

    // Session 2: warm reopen. Everything hits; the report is byte-equal.
    {
        let store = NodeDayStore::open(&dir).expect("open warm");
        assert_eq!(count(&store), NODES);
        assert_eq!(store.stats().bytes, nodes * ENTRY_BYTES);
        let warm = run_campaign_cached(&cfg, &store).to_json();
        assert_eq!(warm, cold, "warm report is byte-equal to the cold one");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (nodes, 0, 0));
        assert_eq!(count(&store), NODES);
    }

    // Session 3: a one-parameter edit misses on exactly the moved keys.
    let mut edited = cfg.clone();
    edited
        .population
        .set_param("office-peak-hi", 900.0)
        .expect("known param");
    let moved = keys(&cfg, &cfg.population)
        .iter()
        .zip(keys(&edited, &edited.population))
        .filter(|(before, after)| **before != *after)
        .count();
    assert!(
        moved > 0 && moved < NODES,
        "the edit must reach some node-days but not all, moved {moved}"
    );
    {
        let store = NodeDayStore::open(&dir).expect("open edit");
        assert_eq!(count(&store), NODES);
        let report = run_campaign_cached(&edited, &store).to_json();
        assert_eq!(report, run_campaign(&edited).to_json());
        let s = store.stats();
        assert_eq!(
            (s.hits, s.misses, s.corrupt),
            ((NODES - moved) as u64, moved as u64, 0)
        );
        assert_eq!(count(&store), NODES + moved);
    }

    // Session 4: GC to three entries after requiring three known nodes.
    let kept: Vec<u64> = KEPT_NODES
        .iter()
        .map(|&node| task(&cfg, &cfg.population, node).key())
        .collect();
    {
        let gc = StoreGc {
            max_entries: 3,
            max_bytes: u64::MAX,
        };
        let store = NodeDayStore::open_with(&dir, gc).expect("open gc");
        assert_eq!(count(&store), NODES + moved);
        for &node in &KEPT_NODES {
            store.require(&task(&cfg, &cfg.population, node));
        }
        assert_eq!(store.stats().hits, 3);
        assert_eq!(store.run_gc().expect("gc"), NODES + moved - 3);
        assert_eq!(store.stats().evictions, (NODES + moved - 3) as u64);
        assert_eq!(count(&store), 3);
    }

    // Session 5: the three touched entries, and only they, survived.
    {
        let store = NodeDayStore::open(&dir).expect("open after gc");
        assert_eq!(count(&store), 3);
        assert_eq!(store.stats().bytes, 3 * ENTRY_BYTES);
        for key in keys(&cfg, &cfg.population)
            .into_iter()
            .chain(keys(&edited, &edited.population))
        {
            let present = store.load(key).expect("load").is_some();
            assert_eq!(present, kept.contains(&key), "key {key:#018x}");
        }
        assert_eq!(count(&store), 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
