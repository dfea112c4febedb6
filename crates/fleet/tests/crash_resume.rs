//! The crash-safety acceptance suite: a killed campaign resumes to the
//! byte-identical report, at any kill point, any worker count, and through
//! every corruption the recovery path claims to survive.
//!
//! Two kill mechanisms are exercised:
//!
//! * the deterministic `abort_after_nodes` harness hook, which clips a
//!   wave so the abort lands on an *exact* (even chunk-misaligned) node
//!   count — this sweeps many kill points cheaply in-process;
//! * one real `SIGKILL` delivered to a child process mid-campaign, the
//!   thing the hook is a stand-in for.
//!
//! Like `determinism.rs`, sizes scale with the build profile so `cargo
//! test` stays fast while the release suite (and CI) runs a larger sweep.

use std::path::{Path, PathBuf};

use solarml_fleet::{
    campaign_fingerprint, load_latest, resume_campaign_verbose, resume_campaign_with, run_campaign,
    run_campaign_cached, run_campaign_durable_with, simulate_node, CampaignCheckpoints,
    CampaignConfig, CampaignError, CheckpointError, FleetReport, NodeDayStore, NodeSummary,
    PopulationSpec,
};
use solarml_trace::fnv1a64;

const SEED: u64 = 0xC4A5_4ED0;

/// Campaign size for the kill-point sweep, profile-scaled.
const N: usize = if cfg!(debug_assertions) { 40 } else { 160 };

/// Child-process campaign size for the real-SIGKILL test.
const SIGKILL_N: usize = if cfg!(debug_assertions) { 48 } else { 256 };

/// Env var carrying the checkpoint dir into the re-exec'd child.
const CRASH_CHILD_ENV: &str = "SOLARML_FLEET_CRASH_CHILD_DIR";

/// A unique scratch directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "solarml-crash-{tag}-{}-{}",
        std::process::id(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn sweep_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(N, SEED);
    cfg.chunk = 3; // deliberately misaligned with every kill point below
    cfg.workers = 1;
    cfg
}

fn checkpoints(dir: &Path) -> CampaignCheckpoints {
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = 8;
    ckpt
}

/// Kills a durable run of `sim` at exactly `kill` node-days via the harness hook.
fn kill_at<F>(cfg: &CampaignConfig, dir: &Path, kill: u64, sim: &F)
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    let mut ckpt = checkpoints(dir);
    ckpt.abort_after_nodes = Some(kill);
    match run_campaign_durable_with(cfg, &ckpt, sim) {
        Err(CampaignError::Aborted { nodes_done }) => {
            assert_eq!(nodes_done, kill, "kill point must land exactly");
        }
        other => panic!("expected Aborted at {kill}, got {other:?}"),
    }
}

#[test]
fn kill_at_any_point_resumes_byte_identically_at_worker_counts_1_and_4() {
    let cfg = sweep_cfg();
    let baseline = run_campaign(&cfg);
    let baseline_json = baseline.to_json();

    // Chunk is 3 and the wave is a multiple of it, so 1 and N-1 are both
    // mid-chunk kill points; N/2 lands mid-wave. The last case simulates
    // through a node-day store, killed and resumed through the same store.
    let cases = [(1, false), (N / 2, false), (N - 1, false), (N / 2, true)];
    for (kill, with_store) in cases {
        for resume_workers in [1usize, 4] {
            let dir = scratch_dir(&format!("kill{kill}w{resume_workers}s{with_store}"));
            let store = with_store.then(|| NodeDayStore::open(dir.join("nd")).expect("store"));
            let sim = |spec: &PopulationSpec, node: usize, seed: u64| match &store {
                Some(store) => store.simulate_node(spec, node, seed),
                None => simulate_node(spec, node, seed),
            };
            kill_at(&cfg, &dir, kill as u64, &sim);

            let mut resumed_cfg = cfg.clone();
            resumed_cfg.workers = resume_workers;
            let report = resume_campaign_with(&resumed_cfg, &checkpoints(&dir), &sim)
                .expect("resume after harness kill");
            assert_eq!(
                report.to_json(),
                baseline_json,
                "kill at {kill}, resumed on {resume_workers} workers, store {with_store}"
            );
            assert_eq!(report, baseline);
            if let Some(store) = &store {
                assert_eq!(store.entry_count().expect("count"), N);
                // Uninterrupted through the now-warm store: all hits.
                let whole = run_campaign_durable_with(&cfg, &checkpoints(&dir.join("whole")), &sim)
                    .expect("uninterrupted store-backed durable run");
                assert_eq!(whole.to_json(), baseline_json, "store-backed durable run");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn corrupt_newest_snapshot_is_skipped_and_its_range_recomputed() {
    let cfg = sweep_cfg();
    let baseline_json = run_campaign(&cfg).to_json();
    let dir = scratch_dir("corrupt-newest");
    kill_at(&cfg, &dir, (N - 4) as u64, &simulate_node);

    let mut snapshots = snapshot_files(&dir);
    assert!(
        snapshots.len() >= 2,
        "need an older snapshot to fall back to, found {snapshots:?}"
    );
    // Flip one payload byte in the newest snapshot.
    let newest = snapshots.pop().expect("newest snapshot");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("re-write corrupted snapshot");

    let (report, resumed) = resume_campaign_verbose(&cfg, &checkpoints(&dir), &simulate_node)
        .expect("resume past corruption");
    assert_eq!(resumed.skipped.len(), 1, "exactly the mangled file skipped");
    assert!(
        resumed.skipped[0].contains("corrupt") || resumed.skipped[0].contains("malformed"),
        "skip reason is operator-readable: {}",
        resumed.skipped[0]
    );
    assert!(
        resumed.snapshot.nodes_done < (N - 4) as u64,
        "resume fell back to an older snapshot"
    );
    assert_eq!(report.to_json(), baseline_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_snapshots_corrupt_is_a_typed_error_listing_the_rejects() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("all-corrupt");
    kill_at(&cfg, &dir, (N / 2) as u64, &simulate_node);

    let snapshots = snapshot_files(&dir);
    assert!(!snapshots.is_empty());
    for path in &snapshots {
        std::fs::write(path, b"not a checkpoint at all").expect("clobber snapshot");
    }
    match resume_campaign_with(&cfg, &checkpoints(&dir), &simulate_node) {
        Err(CampaignError::Checkpoint(CheckpointError::NoCheckpoint { corrupt, .. })) => {
            assert_eq!(corrupt.len(), snapshots.len(), "every reject is listed");
        }
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_spec_snapshot_is_a_hard_spec_mismatch() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("foreign");
    kill_at(&cfg, &dir, (N / 2) as u64, &simulate_node);

    let mut foreign = cfg.clone();
    foreign.seed ^= 0xDEAD_BEEF;
    match resume_campaign_with(&foreign, &checkpoints(&dir), &simulate_node) {
        Err(CampaignError::Checkpoint(CheckpointError::SpecMismatch {
            expected, found, ..
        })) => {
            assert_eq!(expected, campaign_fingerprint(&foreign));
            assert_eq!(found, campaign_fingerprint(&cfg));
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    // Changing only run-shape knobs is NOT foreign: same fingerprint.
    let mut reshaped = cfg.clone();
    reshaped.workers = 7;
    reshaped.chunk = 1;
    assert!(resume_campaign_with(&reshaped, &checkpoints(&dir), &simulate_node).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_durable_run_refuses_an_occupied_dir_and_resume_refuses_a_missing_one() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("occupied");
    kill_at(&cfg, &dir, 8, &simulate_node);
    match run_campaign_durable_with(&cfg, &checkpoints(&dir), &simulate_node) {
        Err(CampaignError::Checkpoint(CheckpointError::DirNotEmpty { .. })) => {}
        other => panic!("expected DirNotEmpty, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let missing = dir.join("never-created");
    match resume_campaign_with(&cfg, &checkpoints(&missing), &simulate_node) {
        Err(CampaignError::Checkpoint(CheckpointError::MissingDir { .. })) => {}
        other => panic!("expected MissingDir, got {other:?}"),
    }
}

#[test]
fn completed_durable_campaign_resumes_to_the_same_report_without_rework() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("completed");
    let finished =
        run_campaign_durable_with(&cfg, &checkpoints(&dir), &simulate_node).expect("uninterrupted");
    // The final snapshot records full coverage…
    let resumed = load_latest(&dir, campaign_fingerprint(&cfg)).expect("final snapshot");
    assert_eq!(resumed.snapshot.nodes_done, N as u64);
    // …so resuming is a pure reload.
    let again = resume_campaign_with(&cfg, &checkpoints(&dir), &simulate_node)
        .expect("resume of complete run");
    assert_eq!(again.to_json(), finished.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(file name, fnv1a64 of its bytes)` for every file in `dir` whose name
/// `keep` accepts, sorted by name.
fn file_hashes(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            keep(&name).then(|| (name, fnv1a64(&std::fs::read(&p).expect("read"))))
        })
        .collect();
    out.sort();
    out
}

/// Checkpoint files of the pinned durable campaign, recorded before the
/// snapshot and store framing moved onto the shared envelope.
const PINNED_CHECKPOINTS: &[(&str, u64)] = &[("ckpt-000000000008.bin", 0x9D63_EEBF_5F3F_156B)];

/// Store files (`store.meta` and every `nd-*.bin`) of the pinned campaign.
const PINNED_STORE: &[(&str, u64)] = &[
    ("nd-211a65d052c1e9dc.bin", 0xA131_33F5_2C35_8E4E),
    ("nd-730d79e3cbb46511.bin", 0x3960_A0CE_A9F6_6296),
    ("nd-743d887459229263.bin", 0xCCFF_B5A3_E259_D184),
    ("nd-7aafe6f04d0e2fb4.bin", 0x9053_18F2_58FF_6295),
    ("nd-7f7359d260b34f3c.bin", 0x6298_C449_398C_30CE),
    ("nd-92fe33784ce42524.bin", 0x12BE_CDA8_4174_60F1),
    ("nd-94dc55e4fa35b561.bin", 0xFA25_C865_2D5B_7629),
    ("nd-aff9a244ae368269.bin", 0xE38E_CAE2_EF77_208B),
    ("store.meta", 0x70F4_6CF5_06D0_C393),
];

#[test]
fn on_disk_checkpoint_and_store_bytes_are_pinned() {
    let mut cfg = CampaignConfig::smoke(8, 7);
    cfg.workers = 1;
    cfg.chunk = 2;

    let ckpt_dir = scratch_dir("pin-ckpt");
    let mut ckpt = CampaignCheckpoints::new(&ckpt_dir);
    ckpt.every_nodes = 4;
    ckpt.keep = usize::MAX;
    run_campaign_durable_with(&cfg, &ckpt, &simulate_node).expect("durable campaign");
    let ckpts = file_hashes(&ckpt_dir, |n| n.starts_with("ckpt-") && n.ends_with(".bin"));

    let store_dir = scratch_dir("pin-store");
    let store = NodeDayStore::open(&store_dir).expect("open store");
    run_campaign_cached(&cfg, &store);
    let stored = file_hashes(&store_dir, |n| {
        n == "store.meta" || (n.starts_with("nd-") && n.ends_with(".bin"))
    });

    let owned = |pins: &[(&str, u64)]| -> Vec<(String, u64)> {
        pins.iter().map(|&(n, h)| (n.to_string(), h)).collect()
    };
    assert_eq!(ckpts, owned(PINNED_CHECKPOINTS), "checkpoint bytes moved");
    assert_eq!(stored, owned(PINNED_STORE), "store bytes moved");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Snapshot files in `dir`, oldest first.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    out.sort();
    out
}

fn sigkill_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(SIGKILL_N, SEED ^ 0x519_4111);
    cfg.chunk = 1;
    cfg.workers = 1;
    cfg
}

/// Child half of the SIGKILL test: re-exec'd by
/// [`a_real_sigkill_mid_campaign_resumes_byte_identically`] with
/// [`CRASH_CHILD_ENV`] set; a no-op under a normal test run.
#[test]
fn sigkill_child_campaign_worker() {
    let Ok(dir) = std::env::var(CRASH_CHILD_ENV) else {
        return;
    };
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = 1; // checkpoint every wave so the parent sees progress fast
                          // The parent SIGKILLs us mid-run; if we finish first the test still
                          // passes (resume of a complete campaign reloads the final snapshot).
    let _ = run_campaign_durable_with(&sigkill_cfg(), &ckpt, &simulate_node);
}

#[test]
fn a_real_sigkill_mid_campaign_resumes_byte_identically() {
    let cfg = sigkill_cfg();
    let baseline: FleetReport = run_campaign(&cfg);
    let dir = scratch_dir("sigkill");

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_child_campaign_worker", "--exact", "--nocapture"])
        .env(CRASH_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // Wait for the first durable snapshot, then kill -9.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if !snapshot_files(&dir).is_empty() {
            break;
        }
        if let Some(status) = child.try_wait().expect("child poll") {
            assert!(
                status.success() && !snapshot_files(&dir).is_empty(),
                "child exited ({status}) before writing a snapshot"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no snapshot appeared within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL on unix; no cleanup handlers run
    let _ = child.wait();

    // Resume on a different worker count than the child ran with.
    let mut resumed_cfg = cfg.clone();
    resumed_cfg.workers = 4;
    let ckpt = CampaignCheckpoints::new(&dir);
    let report =
        resume_campaign_with(&resumed_cfg, &ckpt, &simulate_node).expect("resume after kill");
    assert_eq!(
        report.to_json(),
        baseline.to_json(),
        "post-SIGKILL resume must reproduce the uninterrupted report byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
