//! eNAS: energy-efficient neural architecture search over *sensing and
//! model parameters jointly* — the paper's §IV — plus the µNAS baseline it
//! is evaluated against.
//!
//! The search operates on [`Candidate`]s pairing a sensing configuration
//! (Table II) with a model architecture. A [`TaskContext`] owns everything
//! needed to evaluate one: the synthetic corpus, the fitted energy
//! estimators, and the constraint set. Every GA search runs one private
//! aging-evolution loop (`evolution::aging_evolution`: tournament, child
//! step, drop the oldest) and differs only in its score, its child step and
//! its energy estimate. The loop plans cycles ahead while their tournaments
//! are decided and trains the planned children together, bit-identical to
//! one cycle at a time.
//! Four search drivers are provided:
//!
//! * [`run_enas`] — Algorithm 1: a broad random phase establishes
//!   `E_min`/`E_max`, then aging evolution optimizes
//!   `A − λ·(E−E_min)/(E_max−E_min)`, mutating the model every cycle and
//!   the sensing parameters (by local grid search) every `R`-th cycle.
//! * [`run_munas`] — the µNAS baseline: model-only aging evolution with
//!   random scalarization of (accuracy, energy) and the total-MACs energy
//!   proxy, run at a fixed sensing configuration.
//! * [`run_harvnet_style`] — aging evolution over the joint space with
//!   HarvNet's single ratio objective `A/E`.
//! * [`run_random_search`] — constraint-satisfying random samples, best by
//!   feasible accuracy; no evolution.
//!
//! All report every trained candidate, so Pareto fronts (Fig. 10) fall out
//! of the history.

// Panicking on violated shape/sampling invariants is the right contract for
// the tensor and search internals: every shape is validated once at
// `ModelSpec` construction, and threading `Result` through each layer
// micro-op would bury the math. The five physics crates keep the strict
// `unwrap_used`/`expect_used` deny — enforced by `cargo xtask lint`.
#![allow(clippy::expect_used, clippy::unwrap_used)]

pub mod baselines;
pub mod candidate;
pub mod enas;
mod evolution;
pub mod munas;
pub mod parallel;
pub mod pareto;
pub mod report;
pub mod task;

pub use baselines::{run_harvnet_style, run_random_search};
pub use candidate::{Candidate, Evaluated, SensingConfig};
pub use enas::{run_enas, EnasConfig, EnergyProxy};
pub use munas::{run_munas, MunasConfig};
pub use parallel::{available_workers, derive_seed, EvalEngine, EvalRequest};
pub use pareto::pareto_front;
pub use report::{render_report, SearchSummary};
pub use task::{Constraints, SearchOutcome, TaskContext, TaskKind};
