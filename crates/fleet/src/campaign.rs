//! The streaming campaign engine: lazily generated nodes fanned over
//! worker threads, folded through an O(log n) merge tree, checkpointed to
//! disk, and resumable bit-exactly after a crash.
//!
//! Each node's seed derives from the campaign seed with the same
//! SplitMix64-finalizer splitting the NAS engine uses
//! ([`solarml_trace::seed::derive_seed`]) under a fleet-reserved cycle
//! tag, so node streams never collide with NAS training streams even when
//! both run from the same base seed. Nothing about a node exists before
//! its chunk is simulated — the whole fleet is derivable from
//! `(PopulationSpec, seed, index)` — so a million-node campaign holds
//! one *wave* of chunk ranges plus the [`MergeTree`]'s ~⌈log₂ n⌉ partial
//! aggregates, never an O(n) materialization.
//!
//! Three robustness layers ride on the exact associativity of
//! [`FleetAggregate::merge`]:
//!
//! * **Streaming fold.** Chunks are simulated via the scoped-thread
//!   [`parallel_map`] pool (results return in input order at any worker
//!   count) and pushed into the merge tree in stream order; any
//!   parenthesization of an associative fold is bit-identical, so the
//!   report is invariant to workers, chunk size, wave size — and to where
//!   a crash split the stream.
//! * **Checkpoint/resume.** With [`CampaignCheckpoints`], the engine
//!   periodically snapshots `(nodes_done, tree, failed)` via the
//!   versioned, checksummed, atomically-written format in
//!   [`crate::checkpoint`]. [`resume_campaign_with`] reloads the newest valid
//!   snapshot — skipping corrupt ones, hard-erroring on a foreign spec —
//!   and continues from node `nodes_done` as if nothing happened. The
//!   `abort_after_nodes` hook turns any node count into a deterministic
//!   kill point for the fault harness.
//! * **Quarantine.** Each node simulates under `catch_unwind`: a panic
//!   inside [`solarml_platform::simulate_faulted_day`] becomes a [`FailedNode`] entry in
//!   the report's `failed_nodes` section (message extracted with the same
//!   [`panic_message`] reduction as [`solarml_nas::parallel::EvalPanic`])
//!   and the campaign keeps going instead of dying at node 817,442.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use solarml_nas::parallel::{effective_workers, panic_message, parallel_map};
use solarml_trace::seed::derive_seed;

use crate::aggregate::{FleetAggregate, MergeTree};
use crate::checkpoint::{
    campaign_fingerprint, has_snapshots, load_latest, write_snapshot, CampaignSnapshot,
    CheckpointError, Resumed,
};
use crate::population::PopulationSpec;
use crate::report::FleetReport;
use crate::task::NodeDayTask;

/// Cycle tag reserved for fleet node-seed derivation, keeping fleet
/// streams disjoint from NAS evaluation streams at the same base seed.
pub const FLEET_SEED_CYCLE: usize = 0xF1EE7;

/// Waves per pool dispatch, in chunks per worker: each `parallel_map`
/// call covers `workers × chunk × WAVE_CHUNKS_PER_WORKER` nodes, enough
/// to amortize pool wakeup while keeping live range state O(workers).
const WAVE_CHUNKS_PER_WORKER: usize = 4;

/// A fleet campaign: how many nodes, from which population, on how many
/// workers.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of nodes to simulate (one day each).
    pub nodes: usize,
    /// Campaign base seed; node `i` runs from
    /// `derive_seed(seed, FLEET_SEED_CYCLE, i)`.
    pub seed: u64,
    /// Worker threads; 0 selects the machine's available parallelism.
    /// The result is identical at any value.
    pub workers: usize,
    /// Nodes per parallel work item. Purely a throughput knob — the
    /// result is identical at any chunk size ≥ 1.
    pub chunk: usize,
    /// The population nodes are drawn from.
    pub population: PopulationSpec,
}

impl CampaignConfig {
    /// A campaign of `nodes` representative nodes on all available cores.
    pub fn new(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            seed,
            workers: 0,
            chunk: 16,
            population: PopulationSpec::representative(),
        }
    }

    /// A cheap smoke campaign (light interaction load) for tests and CI.
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        Self {
            population: PopulationSpec::smoke(),
            ..Self::new(nodes, seed)
        }
    }
}

/// Durability policy for a campaign: where snapshots go and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoints {
    /// Directory snapshots are written into (created if missing).
    pub dir: PathBuf,
    /// Checkpoint cadence in node-days. Snapshots land on the first wave
    /// boundary at or past each multiple, so this bounds recomputation
    /// after a crash to roughly one cadence plus one wave.
    pub every_nodes: u64,
    /// Snapshots retained on disk (older ones are pruned best-effort).
    /// Keeping a few means a corrupted newest file only costs the range
    /// back to the previous one.
    pub keep: usize,
    /// Fault-harness hook: checkpoint and abort (with
    /// [`CampaignError::Aborted`]) once this many node-days are folded.
    /// The wave is clipped to land *exactly* here, so tests can exercise
    /// resume from arbitrary — including chunk-misaligned — kill points.
    pub abort_after_nodes: Option<u64>,
}

impl CampaignCheckpoints {
    /// Snapshots into `dir` every 4096 node-days, keeping the newest 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_nodes: 4096,
            keep: 3,
            abort_after_nodes: None,
        }
    }
}

/// Why a durable campaign run stopped without a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// Snapshot persistence or resume failed; see the inner error.
    Checkpoint(CheckpointError),
    /// The [`CampaignCheckpoints::abort_after_nodes`] kill point fired —
    /// state up to `nodes_done` is on disk and resumable.
    Aborted {
        /// Node-days folded (and checkpointed) before aborting.
        nodes_done: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Aborted { nodes_done } => {
                write!(
                    f,
                    "campaign aborted at kill point after {nodes_done} node-days"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::Aborted { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// A node whose day simulation panicked: quarantined, not fatal. Appears
/// in the report's `failed_nodes` section and in checkpoints, so the
/// quarantine survives crashes too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    /// Node index within the campaign.
    pub node: usize,
    /// The node's derived seed — enough to replay the failure in
    /// isolation with [`simulate_node`].
    pub seed: u64,
    /// The panic message, reduced like [`solarml_nas::parallel::EvalPanic`].
    pub message: String,
}

/// What one simulated node-day leaves behind — the only per-node state the
/// campaign ever holds, folded into the aggregate and dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node index within the campaign.
    pub node: usize,
    /// The node's derived seed.
    pub seed: u64,
    /// Environment bucket: 0 = outdoor window, 1 = office, 2 = home.
    pub env_index: usize,
    /// Checkpoint-policy bucket: 0 = retained, 1 = volatile, 2 = none.
    pub policy_index: usize,
    /// Interaction cycles attempted.
    pub attempted: usize,
    /// Cycles completed (any rung).
    pub completed: usize,
    /// Cycles abandoned after retries ran out.
    pub abandoned: usize,
    /// Completions below the full rung.
    pub degraded: usize,
    /// Brownout events.
    pub brownouts: usize,
    /// Time below the brownout threshold (seconds).
    pub dead_window_s: f64,
    /// Energy harvested over the day (joules).
    pub harvested_j: f64,
    /// Energy consumed over the day (joules).
    pub consumed_j: f64,
    /// Energy wasted on lost progress (joules).
    pub wasted_j: f64,
    /// Signed ledger conservation residual (joules).
    pub residual_j: f64,
    /// Mean accuracy proxy across completed cycles.
    pub mean_accuracy: f64,
}

/// Simulates one node's day and collapses it to a summary: resolve the
/// node into a [`NodeDayTask`], execute it, and rehydrate the summary.
/// [`crate::NodeDayStore::simulate_node`] has the same signature and
/// replays the outcome from disk when it can.
pub fn simulate_node(spec: &PopulationSpec, node: usize, seed: u64) -> NodeSummary {
    let task = NodeDayTask::resolve(spec, node, seed);
    task.summary(&task.execute())
}

/// One chunk's outcome: its partial aggregate plus any quarantined nodes
/// (in node order — `parallel_map` returns chunks in input order, so the
/// concatenation across a wave stays sorted).
fn simulate_chunk<F>(
    cfg: &CampaignConfig,
    sim: &F,
    start: usize,
    end: usize,
) -> (FleetAggregate, Vec<FailedNode>)
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    let mut partial = FleetAggregate::new();
    let mut failed = Vec::new();
    for node in start..end {
        let seed = derive_seed(cfg.seed, FLEET_SEED_CYCLE, node);
        match catch_unwind(AssertUnwindSafe(|| sim(&cfg.population, node, seed))) {
            Ok(summary) => partial.record(&summary),
            Err(payload) => failed.push(FailedNode {
                node,
                seed,
                message: panic_message(payload),
            }),
        }
    }
    (partial, failed)
}

/// The streaming core shared by every entry point: fold nodes
/// `resumed.nodes_done .. cfg.nodes` wave by wave into `resumed`'s tree.
fn run_streaming<F>(
    cfg: &CampaignConfig,
    sim: &F,
    ckpt: Option<&CampaignCheckpoints>,
    resumed: CampaignSnapshot,
) -> Result<FleetReport, CampaignError>
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    let chunk = cfg.chunk.max(1);
    let workers = effective_workers(cfg.workers);
    let wave = chunk
        .saturating_mul(workers)
        .saturating_mul(WAVE_CHUNKS_PER_WORKER)
        .max(chunk);

    let CampaignSnapshot {
        fingerprint,
        nodes_done,
        mut tree,
        mut failed,
    } = resumed;
    let mut done = usize::try_from(nodes_done)
        .unwrap_or(cfg.nodes)
        .min(cfg.nodes);
    let every = ckpt.map_or(u64::MAX, |c| c.every_nodes.max(1));
    let mut next_snapshot = (done as u64 / every + 1).saturating_mul(every);

    while done < cfg.nodes {
        let mut wave_end = done.saturating_add(wave).min(cfg.nodes);
        if let Some(kill) = ckpt.and_then(|c| c.abort_after_nodes) {
            // Clip the wave so the kill point lands exactly, even inside
            // what would have been a chunk.
            let kill = usize::try_from(kill).unwrap_or(cfg.nodes);
            if kill > done && kill < wave_end {
                wave_end = kill;
            }
        }
        let ranges: Vec<(usize, usize)> = (done..wave_end)
            .step_by(chunk)
            .map(|s| (s, s.saturating_add(chunk).min(wave_end)))
            .collect();
        let outcomes = parallel_map(workers, &ranges, |_, &(s, e)| {
            simulate_chunk(cfg, sim, s, e)
        });
        for (partial, chunk_failed) in outcomes {
            tree.push(partial);
            failed.extend(chunk_failed);
        }
        done = wave_end;

        if let Some(c) = ckpt {
            let at_end = done == cfg.nodes;
            let at_kill = !at_end && c.abort_after_nodes.is_some_and(|kill| done as u64 >= kill);
            if at_end || at_kill || done as u64 >= next_snapshot {
                let snapshot = CampaignSnapshot {
                    fingerprint,
                    nodes_done: done as u64,
                    tree: tree.clone(),
                    failed: failed.clone(),
                };
                write_snapshot(&c.dir, &snapshot, c.keep)?;
                next_snapshot = (done as u64 / every + 1).saturating_mul(every);
            }
            if at_kill {
                return Err(CampaignError::Aborted {
                    nodes_done: done as u64,
                });
            }
        }
    }

    Ok(FleetReport {
        nodes: cfg.nodes,
        seed: cfg.seed,
        aggregate: tree.finish(),
        failed,
    })
}

/// A fresh snapshot: nothing folded yet.
fn fresh_state(cfg: &CampaignConfig) -> CampaignSnapshot {
    CampaignSnapshot {
        fingerprint: campaign_fingerprint(cfg),
        nodes_done: 0,
        tree: MergeTree::new(),
        failed: Vec::new(),
    }
}

/// Runs the whole campaign in memory and returns its report.
///
/// Deterministic: the report depends only on `(cfg.nodes, cfg.seed,
/// cfg.population)` — never on `workers`, `chunk`, machine, or wall clock.
pub fn run_campaign(cfg: &CampaignConfig) -> FleetReport {
    run_campaign_with(cfg, &simulate_node)
}

/// [`run_campaign`] with the node simulation injected: [`simulate_node`],
/// the store-backed [`crate::NodeDayStore::simulate_node`], or a fault
/// harness's closure that forces per-node panics.
pub fn run_campaign_with<F>(cfg: &CampaignConfig, sim: &F) -> FleetReport
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    match run_streaming(cfg, sim, None, fresh_state(cfg)) {
        Ok(report) => report,
        // No checkpointing, no kill hook: neither error source exists.
        Err(_) => unreachable!("in-memory campaigns have no failure channel"),
    }
}

/// Runs a fresh campaign of `sim` with durable checkpoints.
///
/// Refuses (with [`CheckpointError::DirNotEmpty`]) to start over a
/// directory that already holds snapshots — resuming and clobbering must
/// both be explicit.
pub fn run_campaign_durable_with<F>(
    cfg: &CampaignConfig,
    ckpt: &CampaignCheckpoints,
    sim: &F,
) -> Result<FleetReport, CampaignError>
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    if has_snapshots(&ckpt.dir)? {
        return Err(CheckpointError::DirNotEmpty {
            dir: ckpt.dir.display().to_string(),
        }
        .into());
    }
    run_streaming(cfg, sim, Some(ckpt), fresh_state(cfg))
}

/// Resumes an interrupted campaign from the newest valid snapshot in
/// `ckpt.dir` and runs it to completion with `sim`.
///
/// The final report is byte-identical to an uninterrupted run of the same
/// config at any worker count or chunk size: the snapshot holds the
/// stream's prefix fold, the engine replays only the suffix, and exact
/// associativity does the rest. Corrupt snapshots are skipped (their
/// range is recomputed); a snapshot from a different `(nodes, seed,
/// population)` is a hard error.
pub fn resume_campaign_with<F>(
    cfg: &CampaignConfig,
    ckpt: &CampaignCheckpoints,
    sim: &F,
) -> Result<FleetReport, CampaignError>
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    resume_campaign_verbose(cfg, ckpt, sim).map(|(report, _)| report)
}

/// [`resume_campaign_with`] that also returns the [`Resumed`] snapshot and
/// the corrupt ones it skipped, for operator-facing output.
pub fn resume_campaign_verbose<F>(
    cfg: &CampaignConfig,
    ckpt: &CampaignCheckpoints,
    sim: &F,
) -> Result<(FleetReport, Resumed), CampaignError>
where
    F: Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync,
{
    let resumed = load_latest(&ckpt.dir, campaign_fingerprint(cfg))?;
    let report = run_streaming(cfg, sim, Some(ckpt), resumed.snapshot.clone())?;
    Ok((report, resumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_seeds_are_stable_and_distinct() {
        let a = derive_seed(42, FLEET_SEED_CYCLE, 0);
        let b = derive_seed(42, FLEET_SEED_CYCLE, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(42, FLEET_SEED_CYCLE, 0));
        // Disjoint from NAS evaluation streams at the same base seed.
        assert_ne!(a, derive_seed(42, 0, 0));
    }

    #[test]
    fn node_summaries_are_deterministic() {
        let spec = PopulationSpec::smoke();
        let seed = derive_seed(7, FLEET_SEED_CYCLE, 3);
        assert_eq!(simulate_node(&spec, 3, seed), simulate_node(&spec, 3, seed));
    }

    #[test]
    fn tiny_campaign_is_worker_count_invariant() {
        let mut cfg = CampaignConfig::smoke(12, 99);
        cfg.chunk = 4;
        cfg.workers = 1;
        let sequential = run_campaign(&cfg);
        cfg.workers = 4;
        let parallel = run_campaign(&cfg);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.aggregate.nodes, 12);
        assert!(sequential.failed.is_empty());
    }

    #[test]
    fn panicking_nodes_are_quarantined_not_fatal() {
        let mut cfg = CampaignConfig::smoke(10, 5);
        cfg.chunk = 3;
        let poison = |spec: &PopulationSpec, node: usize, seed: u64| {
            assert!(node != 4 && node != 7, "injected fault at node {node}");
            simulate_node(spec, node, seed)
        };
        let report = run_campaign_with(&cfg, &poison);
        assert_eq!(report.aggregate.nodes, 8, "healthy nodes still folded");
        assert_eq!(
            report.failed.iter().map(|f| f.node).collect::<Vec<_>>(),
            vec![4, 7],
            "quarantine is in node order"
        );
        assert!(report.failed[0]
            .message
            .contains("injected fault at node 4"));
        assert_eq!(
            report.failed[0].seed,
            derive_seed(cfg.seed, FLEET_SEED_CYCLE, 4),
            "quarantine records the seed needed to replay the failure"
        );
        // Quarantine is deterministic across worker counts too.
        let mut wide = cfg.clone();
        wide.workers = 4;
        assert_eq!(run_campaign_with(&wide, &poison), report);
    }

    #[test]
    fn zero_node_campaign_reports_empty() {
        let report = run_campaign(&CampaignConfig::smoke(0, 1));
        assert_eq!(report.aggregate.nodes, 0);
        assert!(report.failed.is_empty());
    }
}
