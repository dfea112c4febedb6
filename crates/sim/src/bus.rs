//! The shared signal bus components communicate over within one step.

use solarml_units::{Energy, Lux, Power, Ratio, Volts};

use crate::ledger::{EnergyAudit, EnergyFlows};

/// A discrete event published on the bus during a step.
///
/// Components raise these when something edge-like happened inside the step
/// (a brownout comparator transition); the driving loop's observer reads
/// them after the step to make control-flow decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The brownout comparator warned that the rail is sagging.
    BrownoutWarn,
    /// The brownout comparator cut the rail.
    Brownout,
    /// The brownout comparator re-armed the rail after recovery.
    Recovered,
}

/// The shared bus: per-step signals components publish for each other and
/// for the driving loop's observer, plus the run-wide [`EnergyAudit`]
/// ledger owned by the scheduler side of the simulation.
///
/// Publishing order matters and is set by component order in the step:
/// the MCU publishes its load and hold-pin state first, then electrical
/// components consume them and publish rail/illuminance outputs.
#[derive(Debug, Clone, Default)]
pub struct SimBus {
    /// Ambient illuminance seen by the harvesting component this step.
    pub illuminance: Lux,
    /// Storage (supercap) open-circuit voltage after the step.
    pub rail_voltage: Volts,
    /// Whether the MCU rail is connected/energized after the step.
    pub rail_connected: bool,
    /// Power the MCU draws from the rail this step (published pre-advance).
    pub mcu_load: Power,
    /// Hold-pin voltage the MCU asserts this step.
    pub hold_voltage: Volts,
    /// Energy the MCU metered over this step.
    pub mcu_spent: Energy,
    /// Total electrical load drawn this step (detector + sensing + MCU).
    pub load_power: Power,
    /// The event detector's V5 sense tap after the step.
    pub sense_v5: Volts,
    /// Sensing-channel tap voltages after the step (empty outside sensing
    /// mode).
    pub sensing_taps: Vec<Volts>,
    /// Per-cell gesture shading over the harvesting grid, written by a
    /// stimulus driver component; empty means unshaded.
    pub shading: Vec<Ratio>,
    /// Events raised during this step (cleared by the scheduler before
    /// each step).
    pub events: Vec<SimEvent>,
    /// The run-wide conservation ledger.
    audit: EnergyAudit,
}

impl SimBus {
    /// A fresh bus with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one step's flows into the run ledger, returning the step's
    /// signed conservation residual.
    pub fn record(&mut self, flows: EnergyFlows) -> Energy {
        self.audit.record(flows)
    }

    /// The accumulated conservation ledger.
    pub fn audit(&self) -> &EnergyAudit {
        &self.audit
    }

    /// Raises an event for this step.
    pub fn emit(&mut self, event: SimEvent) {
        self.events.push(event);
    }

    /// Whether `event` was raised during the step just taken.
    pub fn saw(&self, event: SimEvent) -> bool {
        self.events.contains(&event)
    }
}
