//! Discrete-time analog circuit simulation of the SolarML hardware platform.
//!
//! The paper's hardware contribution is a circuit (its Figures 4 and 5) that
//! gives one solar-cell array three simultaneous roles:
//!
//! 1. **Energy harvesting** — all 25 cells charge a 1 F supercapacitor
//!    through an SPV1050-like harvester;
//! 2. **Sensing** — 9 cells can be switched (SPDT) from the harvesting branch
//!    onto resistor dividers whose midpoints are sampled by the MCU ADC;
//! 3. **Event detection** — 2 cells drive a purely passive MOSFET network
//!    that physically connects/disconnects the MCU from the supercap when a
//!    user hovers over them.
//!
//! This crate reproduces that hardware as a discrete-time transient
//! simulation. Components live in [`components`], the Fig. 5 detector in
//! [`event`], the Fig. 4 harvest/sense network in [`harvest`], light and
//! hover stimuli in [`env`](mod@env), and the combined platform-level
//! [`CircuitSim`] in [`sim`]. `CircuitSim` keeps no clock or energy ledger
//! of its own: it is a `solarml_sim::Clocked` component, stepped by the
//! co-simulation `Scheduler` at the caller's slice, and it folds its
//! supercap flows into the ledger on the `SimBus`.
//!
//! # Examples
//!
//! Simulate five seconds of idle waiting and confirm the event detector's
//! standby draw is in the paper's ≈2 µW regime:
//!
//! ```
//! use solarml_circuit::env::LightEnvironment;
//! use solarml_circuit::event::EventDetector;
//! use solarml_units::{Lux, Seconds, Volts};
//!
//! let mut det = EventDetector::default();
//! let env = LightEnvironment::constant(Lux::new(500.0));
//! det.settle(env.illumination(Seconds::ZERO), Volts::new(3.0));
//! let dt = Seconds::from_millis(1.0);
//! let mut energy = solarml_units::Energy::ZERO;
//! let mut t = Seconds::ZERO;
//! while t < Seconds::new(5.0) {
//!     let out = det.step(dt, env.illumination(t), Volts::ZERO, false, Volts::new(3.0));
//!     energy += out.detector_power * dt;
//!     t += dt;
//! }
//! assert!(energy.as_micro_joules() < 15.0, "5 s idle should cost ~10 µJ");
//! ```

pub mod components;
pub mod env;
pub mod event;
pub mod fault;
pub mod harvest;
pub mod sim;

pub use components::{
    CapStepEnergy, CellCurrents, Mosfet, MosfetPolarity, ResistorDivider, SchottkyDiode, SolarCell,
    Supercap,
};
pub use env::{HoverSchedule, Illumination, LightChange, LightEnvironment};
pub use event::{DetectorOutput, DetectorState, EventDetector};
pub use fault::{
    BrownoutComparator, BrownoutThresholds, CloudTransient, ComparatorState, FaultPlan,
    OutageWindow, PowerEvent, SupercapDegradation,
};
pub use harvest::{ArrayLayout, CellRole, HarvestMode, Harvester, HarvestingArray, UnshadedArray};
pub use sim::CircuitSim;
