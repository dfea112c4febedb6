//! Pins where durable campaigns snapshot and what each snapshot holds.
//!
//! A snapshot lands on the first pool-window boundary (`chunk × workers ×
//! 4` nodes, counted from the resume point) at or past each multiple of
//! `every_nodes`, plus the end and the kill point. Each file's bytes
//! include the merge tree's shape, which follows the chunk boundaries. So
//! these pins fix both the cadence rule and the chunk layout at every
//! worker count, independently of how the pool schedules its workers.

use std::path::{Path, PathBuf};

use solarml_fleet::{
    resume_campaign_with, run_campaign, run_campaign_durable_with, simulate_node,
    CampaignCheckpoints, CampaignConfig, CampaignError,
};
use solarml_trace::fnv1a64;

const NODES: usize = 100;
const SEED: u64 = 0x5EED_CADE;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "solarml-cadence-{tag}-{}-{}",
        std::process::id(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn cfg(workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(NODES, SEED);
    cfg.chunk = 4;
    cfg.workers = workers;
    cfg
}

fn checkpoints(dir: &Path) -> CampaignCheckpoints {
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = 24;
    ckpt.keep = usize::MAX;
    ckpt
}

/// `(file name, fnv1a64 of its bytes)` for every snapshot in `dir`, by name.
fn snapshots(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("ckpt-") && name.ends_with(".bin"))
                .then(|| (name, fnv1a64(&std::fs::read(&p).expect("read"))))
        })
        .collect();
    out.sort();
    out
}

fn owned(pins: &[(&str, u64)]) -> Vec<(String, u64)> {
    pins.iter().map(|&(n, h)| (n.to_string(), h)).collect()
}

/// Snapshots of an uninterrupted run at workers 1, 2 and 4.
const PINNED_RUNS: [(usize, &[(&str, u64)]); 3] = [
    (
        1,
        &[
            ("ckpt-000000000032.bin", 0x669B_7D40_5714_7E7E),
            ("ckpt-000000000048.bin", 0x3ED1_E2FB_0695_F759),
            ("ckpt-000000000080.bin", 0xB1BB_71FD_3B28_E3DE),
            ("ckpt-000000000096.bin", 0x6212_4F8E_02BF_6EF2),
            ("ckpt-000000000100.bin", 0xA4CC_42E5_EDC7_0A35),
        ],
    ),
    (
        2,
        &[
            ("ckpt-000000000032.bin", 0x669B_7D40_5714_7E7E),
            ("ckpt-000000000064.bin", 0x91F2_160D_3195_52FB),
            ("ckpt-000000000096.bin", 0x6212_4F8E_02BF_6EF2),
            ("ckpt-000000000100.bin", 0xA4CC_42E5_EDC7_0A35),
        ],
    ),
    (
        4,
        &[
            ("ckpt-000000000064.bin", 0x91F2_160D_3195_52FB),
            ("ckpt-000000000100.bin", 0xA4CC_42E5_EDC7_0A35),
        ],
    ),
];

/// Snapshots of a 2-worker run killed at node 37, then resumed on 2
/// workers: the resumed run's windows start at 37, not at 0.
const PINNED_KILL_RESUME: &[(&str, u64)] = &[
    ("ckpt-000000000032.bin", 0x669B_7D40_5714_7E7E),
    ("ckpt-000000000037.bin", 0xC7A8_DF4A_BF98_3E57),
    ("ckpt-000000000069.bin", 0x0BD7_3EE9_96EB_0C3C),
    ("ckpt-000000000100.bin", 0x1198_7C9C_6BDA_887C),
];

#[test]
fn snapshots_land_on_the_pinned_cadence_at_workers_1_2_and_4() {
    let baseline = run_campaign(&cfg(1)).to_json();
    for (workers, pins) in PINNED_RUNS {
        let dir = scratch_dir(&format!("w{workers}"));
        let report = run_campaign_durable_with(&cfg(workers), &checkpoints(&dir), &simulate_node)
            .expect("durable campaign");
        assert_eq!(report.to_json(), baseline, "workers={workers}");
        assert_eq!(snapshots(&dir), owned(pins), "workers={workers}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_resumed_run_keeps_its_pinned_cadence() {
    let dir = scratch_dir("kill37");
    let mut killed = checkpoints(&dir);
    killed.abort_after_nodes = Some(37);
    match run_campaign_durable_with(&cfg(2), &killed, &simulate_node) {
        Err(CampaignError::Aborted { nodes_done: 37 }) => {}
        other => panic!("expected Aborted at 37, got {other:?}"),
    }
    let report = resume_campaign_with(&cfg(2), &checkpoints(&dir), &simulate_node).expect("resume");
    assert_eq!(report.to_json(), run_campaign(&cfg(1)).to_json());
    assert_eq!(snapshots(&dir), owned(PINNED_KILL_RESUME));
    let _ = std::fs::remove_dir_all(&dir);
}
