//! Population-scale SolarML deployment simulation.
//!
//! The rest of the workspace answers "what does *one* node do on *one*
//! day?" — this crate answers "what does a *fleet* do?": a thousand
//! deployed nodes, each with its own lighting environment, supercap aging,
//! panel area, interaction load, and runtime policy, each simulated on the
//! full intermittency-aware scheduler with its energy ledger audited, all
//! folded into one streaming aggregate.
//!
//! The pipeline, module by module:
//!
//! 1. [`env`] — parametric environments (clear-sky solar geometry with a
//!    Markov weather layer, office and home lux schedules) producing
//!    [`solarml_platform::DayProfile`]-compatible input — since the
//!    scenario language landed, thin sugar over `solarml-scenario`
//!    canonical scripts (set [`PopulationSpec::scenario`] to drive a
//!    whole campaign from one script);
//! 2. [`population`] — declared distributions over node parameters,
//!    collapsed into per-node [`solarml_platform::IntermittentConfig`]s
//!    from split seeds;
//! 3. [`campaign`] — the streaming engine: lazily generated nodes fanned
//!    over the scoped-thread pool in chunks, each day simulated on the
//!    `solarml-sim` scheduler with the EnergyAudit ledger, panicking
//!    nodes quarantined instead of fatal;
//! 4. [`aggregate`] — exactly-associative streaming statistics (`i128`
//!    fixed-point sums, `u64` histograms) folded through an O(log n)
//!    [`MergeTree`], so parallel merge equals sequential fold bit for bit
//!    at O(log nodes) memory;
//! 5. [`task`] — node-days as pure, content-keyed tasks: resolve a node
//!    once, execute its day, key the outcome;
//! 6. [`store`] — the content-addressed on-disk outcome store:
//!    [`NodeDayStore::simulate_node`] replays unchanged node-days, and as
//!    one more node simulation it composes with checkpoints and resume;
//! 7. [`checkpoint`] — versioned, checksummed, atomically-written
//!    snapshots of the fold, so a killed campaign resumes byte-identically;
//! 8. [`report`] — the byte-stable JSON [`FleetReport`].
//!
//! The headline invariant, pinned by `tests/determinism.rs` and
//! `tests/crash_resume.rs`: a campaign's report is a pure function of
//! `(nodes, seed, population)` — identical bytes at any worker count,
//! chunk size, repetition, crash/resume schedule, or cache hit pattern.

pub mod aggregate;
pub mod campaign;
pub mod checkpoint;
pub mod env;
pub mod population;
pub mod report;
pub mod store;
pub mod task;

pub use aggregate::{FleetAggregate, Histogram, MergeTree, StreamStat, RESIDUAL_TOLERANCE_NJ};
pub use campaign::{
    resume_campaign_verbose, resume_campaign_with, run_campaign, run_campaign_durable_with,
    run_campaign_with, simulate_node, CampaignCheckpoints, CampaignConfig, CampaignError,
    FailedNode, NodeSummary, FLEET_SEED_CYCLE,
};
pub use checkpoint::{
    campaign_fingerprint, load_latest, write_snapshot, CampaignSnapshot, CheckpointError, Resumed,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use env::Environment;
pub use population::{Dist, NodeBlueprint, PopulationSpec};
pub use report::{FleetReport, FLEET_REPORT_SCHEMA};
pub use store::{
    run_campaign_cached, run_sweep, CacheStats, NodeDayStore, StoreError, StoreGc, SweepVariant,
    SweepVariantReport, STORE_MAGIC, STORE_VERSION,
};
pub use task::{NodeDayOutcome, NodeDayTask, SIM_FINGERPRINT};
