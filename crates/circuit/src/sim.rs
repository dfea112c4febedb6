//! Combined transient simulation of the whole SolarML front-end: light →
//! array → harvester → supercap, with the event detector deciding whether
//! the MCU rail is powered.
//!
//! The MCU itself lives in `solarml-mcu`; this driver takes the MCU's load
//! power and hold-pin state as inputs each step and returns everything the
//! platform layer needs (rail state, sensing taps, supercap voltage).

use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, SimEvent, StepControl, StepOutcome};
use solarml_units::{Farads, Power, Ratio, Seconds, Volts};

use crate::components::{CapStepEnergy, Supercap};
use crate::env::LightEnvironment;
use crate::event::{DetectorOutput, EventDetector};
use crate::harvest::{HarvestMode, HarvestingArray};

pub use solarml_sim::{EnergyAudit, EnergyFlows};

/// Voltage-error bound per adaptive step (`dt ≤ ε·C/|I|`); 2 mV keeps the
/// supercap trajectory within a few millivolts of the fixed-dt one while
/// letting quiescent day-scale windows stride in multi-second steps.
pub const ADAPTIVE_EPS_V: Volts = Volts::new(2e-3);

/// Cap on the adaptive step while the ambient level is mid-ramp, so a
/// passing cloud's continuous lux slew stays resolved.
const RAMP_DT_CAP: Seconds = Seconds::new(0.05);

/// Configuration of the front-end simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Supercapacitor capacitance (paper: 1 F).
    pub capacitance: Farads,
    /// Initial supercap voltage.
    pub initial_voltage: Volts,
    /// Minimum supercap voltage for inference (`V_θ` in §III-B1).
    pub inference_threshold: Volts,
    /// Simulation timestep.
    pub dt: Seconds,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            capacitance: Farads::new(1.0),
            initial_voltage: Volts::new(3.0),
            inference_threshold: Volts::new(2.2),
            dt: Seconds::from_millis(1.0),
        }
    }
}

/// Observables produced by one simulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStep {
    /// Time at the *end* of this step.
    pub time: Seconds,
    /// Supercap voltage after the step.
    pub supercap_voltage: Volts,
    /// Event-detector electrical outputs.
    pub detector: DetectorOutput,
    /// Whether the supercap is above the inference threshold.
    pub inference_allowed: bool,
    /// Sensing-channel tap voltages (empty in harvesting mode).
    pub sensing_taps: Vec<Volts>,
    /// Power harvested into the supercap this step.
    pub harvest_power: Power,
    /// Total power drawn from the environment/supercap this step
    /// (detector + sensing dividers + MCU load).
    pub load_power: Power,
}

/// The front-end transient simulator.
///
/// # Examples
///
/// ```
/// use solarml_circuit::{CircuitSim, SimConfig};
/// use solarml_circuit::env::{HoverSchedule, LightEnvironment};
/// use solarml_units::{Lux, Power, Ratio, Seconds, Volts};
///
/// let env = LightEnvironment::with_hovers(
///     Lux::new(500.0),
///     HoverSchedule::interaction(Seconds::new(1.0), Seconds::new(2.0)),
/// );
/// let mut sim = CircuitSim::new(SimConfig::default(), env);
/// // Idle: MCU draws nothing, hold pin low.
/// let step = sim.step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO);
/// assert!(!step.detector.mcu_connected);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitSim {
    config: SimConfig,
    env: LightEnvironment,
    array: HarvestingArray,
    detector: EventDetector,
    supercap: Supercap,
    time: Seconds,
    audit: EnergyAudit,
    /// Rail state after the previous step, for edge detection when this
    /// simulator runs as a scheduled [`Clocked`] component.
    last_connected: bool,
}

impl CircuitSim {
    /// Creates a simulator over the given environment.
    pub fn new(config: SimConfig, env: LightEnvironment) -> Self {
        let supercap = Supercap::new(config.capacitance, config.initial_voltage);
        let mut detector = EventDetector::new();
        // Start from electrical equilibrium under the ambient light (with no
        // hover), not from a dark power-up.
        detector.settle(
            crate::env::Illumination {
                ambient: env.ambient(),
                event_cell_shading: Ratio::ZERO,
            },
            config.initial_voltage,
        );
        Self {
            config,
            env,
            array: HarvestingArray::new(),
            detector,
            supercap,
            time: Seconds::ZERO,
            audit: EnergyAudit::default(),
            last_connected: false,
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// The supercapacitor state.
    pub fn supercap(&self) -> &Supercap {
        &self.supercap
    }

    /// The harvesting array (e.g. to switch sensing mode).
    pub fn array_mut(&mut self) -> &mut HarvestingArray {
        &mut self.array
    }

    /// The harvesting array.
    pub fn array(&self) -> &HarvestingArray {
        &self.array
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The energy-conservation ledger accumulated since construction.
    pub fn audit(&self) -> &EnergyAudit {
        &self.audit
    }

    /// Switches the sensing block between harvesting and sensing.
    pub fn set_mode(&mut self, mode: HarvestMode) {
        self.array.set_mode(mode);
    }

    /// Advances one timestep.
    ///
    /// * `mcu_load` — power the MCU draws from the rail this step (ignored
    ///   when the rail is disconnected);
    /// * `v4_hold` — MCU hold-pin voltage;
    /// * `gesture_shading` — per-cell shading from the user's hand,
    ///   `f(cell_index) → Ratio` over the 5×5 grid.
    pub fn step(
        &mut self,
        mcu_load: Power,
        v4_hold: Volts,
        gesture_shading: impl Fn(usize) -> Ratio,
    ) -> SimStep {
        self.step_with(self.config.dt, mcu_load, v4_hold, gesture_shading)
            .0
    }

    /// Advances one timestep of explicit width `dt` (the scheduler entry
    /// point — the configured `dt` is only the fixed-policy default).
    /// Returns the observables and the supercap's per-step energy flows so
    /// a scheduled run can fold them into the shared ledger.
    fn step_with(
        &mut self,
        dt: Seconds,
        mcu_load: Power,
        v4_hold: Volts,
        gesture_shading: impl Fn(usize) -> Ratio,
    ) -> (SimStep, CapStepEnergy) {
        let ill = self.env.illumination(self.time);
        let lux = ill.ambient;

        // The user's interaction hovers cover the event-cell corner; gestures
        // over the sensing block are reported via `gesture_shading`.
        let sense_hovered = ill.event_cell_shading.get() >= 0.5;
        let detector = self
            .detector
            .step(dt, ill, v4_hold, sense_hovered, self.supercap.voltage());

        // Harvest: event-cell shading also applies to those two cells.
        let event_idx = [20usize, 21usize];
        let shade = |i: usize| {
            if event_idx.contains(&i) {
                ill.event_cell_shading.max(gesture_shading(i))
            } else {
                gesture_shading(i)
            }
        };
        let charge = self
            .array
            .charging_current(lux, self.supercap.voltage(), &shade);
        let sensing_power = self.array.sensing_power(lux, &shade);

        let effective_load = if detector.mcu_connected {
            mcu_load
        } else {
            Power::ZERO
        };
        // The detector's own dissipation is fed by the event cells before the
        // supercap, but it is still energy the platform pays for; we bill it
        // against the supercap to keep the accounting conservative.
        let total_load = effective_load + detector.detector_power + sensing_power;
        let flows = self.supercap.step(dt, charge, total_load);
        let residual = self.audit.record(flows.into());
        #[cfg(feature = "invariant-audit")]
        debug_assert!(
            residual.as_joules().abs() <= 1e-12,
            "energy conservation violated in supercap step: residual {:e} J",
            residual.as_joules()
        );
        #[cfg(not(feature = "invariant-audit"))]
        let _ = residual;

        let sensing_taps = self.array.sensing_voltages(lux, &shade);
        self.time += dt;
        self.last_connected = detector.mcu_connected;

        let step = SimStep {
            time: self.time,
            supercap_voltage: self.supercap.voltage(),
            detector,
            inference_allowed: self.supercap.voltage() >= self.config.inference_threshold,
            sensing_taps,
            harvest_power: self.supercap.voltage() * charge,
            load_power: total_load,
        };
        (step, flows)
    }

    /// One scheduled step: reads the MCU's published load/hold-pin and any
    /// gesture shading off the bus, advances the circuit, publishes the rail
    /// observables back, and folds the supercap flows into the bus ledger.
    ///
    /// Returns the full [`SimStep`] alongside the scheduler outcome so
    /// wrappers (like the `run_until` probe) can inspect the observables.
    fn step_on_bus(&mut self, dt: Seconds, bus: &mut SimBus) -> (SimStep, StepOutcome) {
        let mut shade = [Ratio::ZERO; 25];
        for (cell, s) in shade.iter_mut().zip(&bus.shading) {
            *cell = *s;
        }
        let was_connected = self.last_connected;
        let (step, flows) = self.step_with(dt, bus.mcu_load, bus.hold_voltage, |i| {
            shade.get(i).copied().unwrap_or(Ratio::ZERO)
        });
        bus.record(flows.into());
        bus.illuminance = self.env.ambient_at(step.time);
        bus.rail_voltage = step.supercap_voltage;
        bus.rail_connected = step.detector.mcu_connected;
        bus.load_power = step.load_power;
        bus.sense_v5 = step.detector.v5;
        bus.sensing_taps.clear();
        bus.sensing_taps.extend_from_slice(&step.sensing_taps);

        let edge = step.detector.mcu_connected != was_connected;
        if edge && step.detector.mcu_connected {
            bus.emit(SimEvent::DetectorConnected);
        }
        // Next-step hint: the supercap's voltage-error bound, clipped to the
        // next scripted environment discontinuity (and held short mid-ramp).
        let v = step.supercap_voltage.as_volts();
        let charge = if v > 0.0 {
            solarml_units::Amps::new(step.harvest_power.as_watts() / v)
        } else {
            solarml_units::Amps::ZERO
        };
        let mut hint = self
            .supercap
            .stable_dt(charge, step.load_power, ADAPTIVE_EPS_V);
        if let Some(next) = self.env.next_transition_after(self.time) {
            hint = hint.min(next - self.time);
        }
        if self.env.is_ramping_at(self.time) {
            hint = hint.min(RAMP_DT_CAP);
        }
        (step, StepOutcome::hint(hint).with_edge(edge))
    }

    /// Runs until `pred` returns `true` or `limit` elapses; returns the first
    /// satisfying step, or `None` on timeout. The MCU is held unloaded.
    ///
    /// Ported onto the co-simulation scheduler: a probe wrapper steps the
    /// circuit at the configured fixed dt and halts the run when the
    /// predicate matches, reproducing the legacy loop's step sequence
    /// exactly.
    pub fn run_until(
        &mut self,
        limit: Seconds,
        pred: impl FnMut(&SimStep) -> bool,
    ) -> Option<SimStep> {
        let deadline = self.time + limit;
        let slice = self.config.dt;
        let mut sched = Scheduler::starting_at(self.time, DtPolicy::fixed());
        let mut bus = SimBus::new();
        let mut probe = Probe {
            sim: self,
            pred,
            hit: None,
        };
        sched.run_free(deadline, slice, &mut [&mut probe], &mut bus, |_, _, _| {
            StepControl::Continue
        });
        probe.hit
    }
}

impl Clocked for CircuitSim {
    fn step(&mut self, _t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        self.step_on_bus(dt, bus).1
    }
}

/// A [`Clocked`] wrapper that steps a [`CircuitSim`] and halts the scheduler
/// run at the first step satisfying a predicate.
struct Probe<'a, P> {
    sim: &'a mut CircuitSim,
    pred: P,
    hit: Option<SimStep>,
}

impl<P: FnMut(&SimStep) -> bool> Clocked for Probe<'_, P> {
    fn step(&mut self, _t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        let (step, outcome) = self.sim.step_on_bus(dt, bus);
        if self.hit.is_none() && (self.pred)(&step) {
            self.hit = Some(step);
            bus.halt = true;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HoverSchedule;
    use solarml_units::{Energy, Lux};

    fn quiet_env(lux: f64) -> LightEnvironment {
        LightEnvironment::constant(Lux::new(lux))
    }

    #[test]
    fn idle_platform_charges_supercap() {
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(500.0));
        let v0 = sim.supercap().voltage();
        for _ in 0..10_000 {
            sim.step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO);
        }
        assert!(
            sim.supercap().voltage() > v0,
            "10 s of 500 lux should net-charge a quiet platform"
        );
    }

    #[test]
    fn hover_connects_rail_within_milliseconds() {
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::from_hovers([(Seconds::new(0.5), Seconds::new(0.3))]),
        );
        let mut sim = CircuitSim::new(SimConfig::default(), env);
        let hit = sim.run_until(Seconds::new(2.0), |s| s.detector.mcu_connected);
        let step = hit.expect("hover must connect the MCU");
        assert!(step.time > Seconds::new(0.5));
        assert!(step.time < Seconds::new(0.55), "connected at {}", step.time);
    }

    #[test]
    fn inference_allowed_tracks_threshold() {
        let config = SimConfig {
            initial_voltage: Volts::new(2.0),
            ..SimConfig::default()
        };
        let mut sim = CircuitSim::new(config, quiet_env(500.0));
        let step = sim.step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO);
        assert!(
            !step.inference_allowed,
            "2.0 V is below the 2.2 V threshold"
        );
    }

    #[test]
    fn sensing_mode_exposes_nine_taps() {
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(500.0));
        sim.set_mode(HarvestMode::Sensing);
        let step = sim.step(Power::ZERO, Volts::new(3.3), |_| Ratio::ZERO);
        assert_eq!(step.sensing_taps.len(), 9);
        assert!(step.sensing_taps.iter().all(|v| v.as_volts() > 0.0));
    }

    #[test]
    fn heavy_load_discharges_supercap() {
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(500.0));
        // Latch the rail on via a hover first.
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::from_hovers([(Seconds::ZERO, Seconds::new(0.2))]),
        );
        sim.env = env;
        sim.run_until(Seconds::new(0.3), |s| s.detector.mcu_connected)
            .expect("rail connects");
        let v0 = sim.supercap().voltage();
        for _ in 0..1000 {
            sim.step(Power::from_milli_watts(20.0), Volts::new(3.3), |_| {
                Ratio::ZERO
            });
        }
        assert!(sim.supercap().voltage() < v0);
    }

    #[test]
    fn run_until_times_out_without_event() {
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(500.0));
        let hit = sim.run_until(Seconds::new(0.5), |s| s.detector.mcu_connected);
        assert!(hit.is_none());
    }

    #[test]
    fn lights_off_does_not_wake_the_platform() {
        // Switching the room lights off looks electrically like a permanent
        // hover (the wake cell goes dark, V2 decays, P1 closes) — but the
        // weak-light lockout must keep the MCU rail disconnected.
        use crate::env::LightChange;
        let env = LightEnvironment::constant(Lux::new(500.0)).with_changes(vec![LightChange {
            at: Seconds::new(1.0),
            level: Lux::new(2.0),
            ramp: Seconds::ZERO,
        }]);
        let mut sim = CircuitSim::new(SimConfig::default(), env);
        let woke = sim.run_until(Seconds::new(5.0), |s| s.detector.mcu_connected);
        assert!(woke.is_none(), "lights-off must not power the MCU");
    }

    #[test]
    fn passing_cloud_does_not_wake_the_platform() {
        // A slow dip to 150 lux and back: the wake cell stays above N0's
        // threshold throughout, so V2 never leaves the lit level.
        use crate::env::LightChange;
        let env = LightEnvironment::constant(Lux::new(500.0)).with_changes(vec![
            LightChange {
                at: Seconds::new(1.0),
                level: Lux::new(150.0),
                ramp: Seconds::new(2.0),
            },
            LightChange {
                at: Seconds::new(4.0),
                level: Lux::new(500.0),
                ramp: Seconds::new(2.0),
            },
        ]);
        let mut sim = CircuitSim::new(SimConfig::default(), env);
        let woke = sim.run_until(Seconds::new(7.0), |s| s.detector.mcu_connected);
        assert!(woke.is_none(), "a passing cloud must not power the MCU");
    }

    #[test]
    fn hover_still_wakes_after_a_cloud() {
        use crate::env::LightChange;
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::from_hovers([(Seconds::new(5.0), Seconds::new(0.3))]),
        )
        .with_changes(vec![LightChange {
            at: Seconds::new(1.0),
            level: Lux::new(200.0),
            ramp: Seconds::new(1.0),
        }]);
        let mut sim = CircuitSim::new(SimConfig::default(), env);
        let woke = sim.run_until(Seconds::new(6.0), |s| s.detector.mcu_connected);
        assert!(woke.is_some(), "a real hover must still wake at 200 lux");
    }

    #[test]
    fn energy_balance_holds_over_a_run() {
        // Stored-energy change must equal harvested minus consumed energy,
        // up to leakage and the clamped-voltage charge conversion.
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(500.0));
        let e0 = sim.supercap().stored_energy();
        let mut harvested = solarml_units::Energy::ZERO;
        let mut consumed = solarml_units::Energy::ZERO;
        let dt = sim.config().dt;
        for _ in 0..20_000 {
            let step = sim.step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO);
            harvested += step.harvest_power * dt;
            consumed += step.load_power * dt;
        }
        let e1 = sim.supercap().stored_energy();
        let delta = e1.as_joules() - e0.as_joules();
        let expected = harvested.as_joules() - consumed.as_joules();
        let rel = (delta - expected).abs() / expected.abs().max(1e-9);
        // Leakage (2 MΩ at 3 V ≈ 4.5 µW) accounts for the gap; 20 s of it is
        // ~90 µJ against ~4 mJ harvested.
        assert!(
            rel < 0.1,
            "energy imbalance {rel:.3} (Δ={delta:.6}, exp={expected:.6})"
        );
    }

    #[test]
    fn energy_audit_discrepancy_stays_below_a_nanojoule() {
        // The paper's Fig. 2 interaction: ambient light, a hover that wakes
        // the rail, a shading gesture over the sensing cells, and an MCU
        // inference load. 20 s at 1 ms steps must conserve energy to
        // round-off — the accumulated residual stays under 1 nJ.
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::interaction(Seconds::new(1.0), Seconds::new(2.0)),
        );
        let mut sim = CircuitSim::new(SimConfig::default(), env);
        let e0 = sim.supercap().stored_energy();
        for k in 0..20_000u32 {
            let load = if k % 7 == 0 {
                Power::from_milli_watts(12.0)
            } else {
                Power::ZERO
            };
            let gesture = move |i: usize| {
                if (3_000..5_000).contains(&k) && i % 3 == 0 {
                    Ratio::ONE
                } else {
                    Ratio::ZERO
                }
            };
            sim.step(load, Volts::new(3.3), gesture);
        }
        let audit = *sim.audit();
        assert!(
            audit.discrepancy.as_joules() <= 1e-9,
            "accumulated conservation residual {} J exceeds 1 nJ",
            audit.discrepancy.as_joules()
        );
        // The ledger's net flow matches the actual stored-energy change.
        let e1 = sim.supercap().stored_energy();
        let delta = e1.as_joules() - e0.as_joules();
        assert!(
            (audit.delta_stored.as_joules() - delta).abs() <= 1e-9,
            "ledger delta {} vs actual delta {}",
            audit.delta_stored.as_joules(),
            delta
        );
        // Flows are individually sane: everything non-negative, and some
        // energy was actually harvested and consumed.
        assert!(audit.harvested > Energy::ZERO);
        assert!(audit.consumed > Energy::ZERO);
        assert!(audit.leaked > Energy::ZERO);
        assert!(audit.clamped >= Energy::ZERO);
    }

    #[test]
    fn audit_ledger_identity_holds_per_component() {
        // harvested - consumed - leaked - clamped == delta_stored, to the
        // same accumulated round-off bound the discrepancy field tracks.
        let mut sim = CircuitSim::new(SimConfig::default(), quiet_env(750.0));
        for _ in 0..5_000 {
            sim.step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO);
        }
        let a = sim.audit();
        let net = a.harvested.as_joules()
            - a.consumed.as_joules()
            - a.leaked.as_joules()
            - a.clamped.as_joules();
        assert!(
            (net - a.delta_stored.as_joules()).abs() <= a.discrepancy.as_joules() + 1e-12,
            "ledger identity broken: net {net} vs delta {}",
            a.delta_stored.as_joules()
        );
    }

    #[test]
    fn harvest_power_scales_with_lux() {
        let mut dim = CircuitSim::new(SimConfig::default(), quiet_env(250.0));
        let mut bright = CircuitSim::new(SimConfig::default(), quiet_env(1000.0));
        let pd = dim
            .step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO)
            .harvest_power;
        let pb = bright
            .step(Power::ZERO, Volts::ZERO, |_| Ratio::ZERO)
            .harvest_power;
        assert!(pb.as_micro_watts() > 2.0 * pd.as_micro_watts());
    }
}
