//! The end-to-end SolarML platform: circuit, MCU, front-end and model
//! composed into the lifecycles the paper measures.
//!
//! * [`lifecycle`] — the two trace-producing runs: a conventional
//!   duty-cycled inference (Fig. 2's energy decomposition) and the SolarML
//!   event-driven interaction (Fig. 6's sleep mechanism);
//! * [`detectors`] — the four event-detection approaches of Table III,
//!   with SolarML's numbers *measured* from the circuit simulation;
//! * [`sota`] — the six end-to-end systems of Fig. 1 and their
//!   `E_E`/`E_S`/`E_M` splits;
//! * [`endtoend`] — §V-D: end-to-end energy per inference and harvesting
//!   time under 250/500/1000 lux;
//! * [`intermittent`] — the intermittency-aware runtime: brownout fault
//!   injection, checkpoint/restore and graceful degradation.

pub mod detectors;
pub mod endtoend;
pub mod intermittent;
pub mod lifecycle;
pub mod replay;
pub mod sota;
pub mod streaming;

pub use detectors::{solarml_detector_spec, DetectorSpec, REFERENCE_DETECTORS};
pub use endtoend::{
    harvesting_time, simulate_day, simulate_day_with, DayProfile, DayReport, DaySimConfig,
    EndToEndBudget, HarvestScenario,
};
pub use intermittent::{
    simulate_faulted_day, stressed_office_day, CheckpointCostModel, CheckpointPolicy, DayCost,
    DayFaultReport, DegradationLadder, DegradationRung, IntermittentConfig, PhasePlan, STEP_BANDS,
    STEP_LIMITS,
};
pub use lifecycle::{DutyCycleConfig, EnergyBreakdown, InteractionConfig, TaskPhase, TaskProfile};
pub use replay::{replay_gesture, GestureReplay, ReplayOutput};
pub use sota::{sota_systems, SotaSystem, WaitStrategy};
pub use streaming::{Detection, StreamingKws, StreamingKwsConfig, StreamingReport};
