//! Unified discrete-time co-simulation scheduler for SolarML.
//!
//! Every simulation loop in the workspace — circuit, MCU lifecycle, and
//! platform day-scale runs — advances through this crate's single clock:
//!
//! * [`Clocked`] is the component contract: one `step(t, dt, bus)` per
//!   timestep, publishing outputs and constraints on the shared [`SimBus`].
//! * [`Scheduler`] owns the monotonic clock and steps it through one loop,
//!   a clipped, resumable span; a deadline-clipped run is a span over a
//!   copy of the clock, and a fixed-count runner serves sample-indexed
//!   replays. Ports are bit-exact at fixed dt, and a run's observer is the
//!   one way to stop it early.
//! * [`DtPolicy`] optionally makes timesteps adaptive: stretched through
//!   quiescent standby/deep-sleep windows, shrunk to the policy minimum
//!   for a fixed 50 ms hold around detector edges, brownout transitions,
//!   and MOSFET switching.
//! * [`EnergyAudit`] is the one conservation ledger, owned by the bus;
//!   components fold [`EnergyFlows`] into it each step. Because flows are
//!   computed trapezoidally from the same intermediates as the storage
//!   update, the residual is round-off only at *any* timestep — the
//!   adaptive policy keeps the ≤ 1 nJ/day bound by construction.

mod bus;
mod clocked;
mod ledger;
mod sched;

pub use bus::{SimBus, SimEvent};
pub use clocked::{Clocked, StepOutcome};
pub use ledger::{EnergyAudit, EnergyFlows};
pub use sched::{DtPolicy, Scheduler, StepControl};
