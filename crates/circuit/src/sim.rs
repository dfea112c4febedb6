//! Combined transient simulation of the whole SolarML front-end: light →
//! array → harvester → supercap, with the event detector deciding whether
//! the MCU rail is powered.
//!
//! [`CircuitSim`] is a [`Clocked`] component with no clock of its own: it
//! steps only under the co-simulation [`solarml_sim::Scheduler`] and reads
//! the light at the scheduler's time. The MCU itself lives in
//! `solarml-mcu`; each step this component reads the MCU's load power and
//! hold-pin voltage off the [`SimBus`] and publishes everything the
//! platform layer needs (rail state, sensing taps, supercap voltage) back.

use solarml_sim::{Clocked, SimBus, StepOutcome};
use solarml_units::{Farads, Power, Ratio, Seconds, Volts};

use crate::components::Supercap;
use crate::env::{Illumination, LightEnvironment};
use crate::event::EventDetector;
use crate::harvest::{HarvestMode, HarvestingArray};

/// Voltage-error bound per adaptive step (`dt ≤ ε·C/|I|`); 2 mV keeps the
/// supercap trajectory within a few millivolts of the fixed-dt one while
/// letting quiescent day-scale windows stride in multi-second steps.
pub const ADAPTIVE_EPS_V: Volts = Volts::new(2e-3);

/// Cap on the adaptive step while the ambient level is mid-ramp, so a
/// passing cloud's continuous lux slew stays resolved.
const RAMP_DT_CAP: Seconds = Seconds::new(0.05);

/// Supercapacitor capacitance (paper: 1 F).
const CAPACITANCE: Farads = Farads::new(1.0);

/// Supercap voltage at construction.
const INITIAL_VOLTAGE: Volts = Volts::new(3.0);

/// The event-cell corner of the 5×5 grid, which hovers shade.
const EVENT_CELLS: [usize; 2] = [20, 21];

/// The front-end transient simulator, a [`Clocked`] component.
///
/// # Examples
///
/// ```
/// use solarml_circuit::CircuitSim;
/// use solarml_circuit::env::{HoverSchedule, LightEnvironment};
/// use solarml_sim::{DtPolicy, Scheduler, SimBus, StepControl};
/// use solarml_units::{Lux, Seconds};
///
/// let env = LightEnvironment::with_hovers(
///     Lux::new(500.0),
///     HoverSchedule::interaction(Seconds::new(1.0), Seconds::new(2.0)),
/// );
/// let mut sim = CircuitSim::new(env);
/// let mut sched = Scheduler::new(DtPolicy::fixed());
/// // Idle: no MCU on the bus, so it draws nothing and holds its pin low.
/// let mut bus = SimBus::new();
/// let slice = Seconds::from_millis(1.0);
/// sched.run_until(Seconds::new(0.9), slice, &mut [&mut sim], &mut bus, |_, _, _| {
///     StepControl::Continue
/// });
/// assert!(!bus.rail_connected);
/// // The hover at 1 s connects the rail.
/// sched.run_until(Seconds::new(1.1), slice, &mut [&mut sim], &mut bus, |_, _, _| {
///     StepControl::Continue
/// });
/// assert!(bus.rail_connected);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitSim {
    env: LightEnvironment,
    array: HarvestingArray,
    detector: EventDetector,
    supercap: Supercap,
    /// Rail state after the previous step, for edge detection.
    last_connected: bool,
}

impl CircuitSim {
    /// Creates a simulator over the given environment, with the paper's
    /// 1 F supercap charged to 3 V.
    pub fn new(env: LightEnvironment) -> Self {
        let mut detector = EventDetector::new();
        // Start from electrical equilibrium under the ambient light (with no
        // hover), not from a dark power-up.
        detector.settle(
            Illumination {
                ambient: env.ambient(),
                event_cell_shading: Ratio::ZERO,
            },
            INITIAL_VOLTAGE,
        );
        Self {
            env,
            array: HarvestingArray::new(),
            detector,
            supercap: Supercap::new(CAPACITANCE, INITIAL_VOLTAGE),
            last_connected: false,
        }
    }

    /// The supercapacitor state.
    pub fn supercap(&self) -> &Supercap {
        &self.supercap
    }

    /// The harvesting array.
    pub fn array(&self) -> &HarvestingArray {
        &self.array
    }

    /// The Fig. 5 event detector; its gate node is [`EventDetector::v2`].
    pub fn detector(&self) -> &EventDetector {
        &self.detector
    }

    /// Switches the sensing block between harvesting and sensing.
    pub fn set_mode(&mut self, mode: HarvestMode) {
        self.array.set_mode(mode);
    }
}

impl Clocked for CircuitSim {
    /// One scheduled step over `[t, t + dt]`: reads the MCU's published
    /// load/hold-pin and any gesture shading (`bus.shading[cell]` over the
    /// 5×5 grid) off the bus, advances the circuit under the light at `t`,
    /// publishes the rail observables back, and folds the supercap flows
    /// into the bus ledger. A change of the rail's connection is an edge;
    /// the next-step hint is the supercap's voltage-error bound.
    fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        let ill = self.env.illumination(t);
        let lux = ill.ambient;

        // The user's interaction hovers cover the event-cell corner; gestures
        // over the sensing block arrive as bus shading.
        let sense_hovered = ill.event_cell_shading.get() >= 0.5;
        let detector = self.detector.step(
            dt,
            ill,
            bus.hold_voltage,
            sense_hovered,
            self.supercap.voltage(),
        );

        // Harvest: event-cell shading also applies to those two cells.
        let shade = |i: usize| {
            let g = bus.shading.get(i).copied().unwrap_or(Ratio::ZERO);
            if EVENT_CELLS.contains(&i) {
                ill.event_cell_shading.max(g)
            } else {
                g
            }
        };
        let charge = self
            .array
            .charging_current(lux, self.supercap.voltage(), shade);
        let sensing_power = self.array.sensing_power(lux, shade);
        bus.sensing_taps.clear();
        bus.sensing_taps
            .extend(self.array.sensing_voltages(lux, shade));

        let mcu_load = if detector.mcu_connected {
            bus.mcu_load
        } else {
            Power::ZERO
        };
        // The detector's own dissipation is fed by the event cells before the
        // supercap, but it is still energy the platform pays for; we bill it
        // against the supercap to keep the accounting conservative.
        let load = mcu_load + detector.detector_power + sensing_power;
        let flows = self.supercap.step(dt, charge, load);
        let residual = bus.record(flows.into());
        debug_assert!(
            residual.as_joules().abs() <= 1e-12,
            "energy conservation violated in supercap step: residual {:e} J",
            residual.as_joules()
        );

        let end = t + dt;
        bus.illuminance = self.env.ambient_at(end);
        bus.rail_voltage = self.supercap.voltage();
        bus.rail_connected = detector.mcu_connected;
        bus.load_power = load;
        bus.sense_v5 = detector.v5;

        let edge = detector.mcu_connected != self.last_connected;
        self.last_connected = detector.mcu_connected;
        // Next-step hint: the supercap's voltage-error bound, clipped to the
        // next scripted environment discontinuity (and held short mid-ramp).
        let mut hint = self.supercap.stable_dt(charge, load, ADAPTIVE_EPS_V);
        if let Some(next) = self.env.next_transition_after(end) {
            hint = hint.min(next - end);
        }
        if self.env.is_ramping_at(end) {
            hint = hint.min(RAMP_DT_CAP);
        }
        StepOutcome::hint(hint).with_edge(edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HoverSchedule;
    use solarml_sim::{DtPolicy, Scheduler, StepControl};
    use solarml_units::{Energy, Lux};

    /// The fixed step every test runs at.
    const SLICE: Seconds = Seconds::new(1e-3);

    fn quiet_env(lux: f64) -> LightEnvironment {
        LightEnvironment::constant(Lux::new(lux))
    }

    fn fixed() -> Scheduler {
        Scheduler::new(DtPolicy::fixed())
    }

    /// Steps `sim` alone on `sched` until `deadline`, with whatever MCU
    /// outputs `bus` carries.
    fn run_until(sim: &mut CircuitSim, sched: &mut Scheduler, bus: &mut SimBus, deadline: Seconds) {
        sched.run_until(deadline, SLICE, &mut [sim], bus, |_, _, _| {
            StepControl::Continue
        });
    }

    /// Steps `sim` alone on `sched` until `deadline`; returns the clock
    /// after the first step that leaves the MCU rail connected, or `None`
    /// if none does.
    fn wake_on(
        sim: &mut CircuitSim,
        sched: &mut Scheduler,
        bus: &mut SimBus,
        deadline: Seconds,
    ) -> Option<Seconds> {
        let mut woke = None;
        sched.run_until(deadline, SLICE, &mut [sim], bus, |t, _, bus| {
            if bus.rail_connected {
                woke = Some(t);
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        });
        woke
    }

    /// [`wake_on`] unloaded from `t = 0`.
    fn wake_time(sim: &mut CircuitSim, limit: Seconds) -> Option<Seconds> {
        wake_on(sim, &mut fixed(), &mut SimBus::new(), limit)
    }

    /// A Fig. 2-style stimulus listed before the circuit: a 12 mW MCU load
    /// every seventh step with the hold pin high, and a gesture shading
    /// every third cell during steps 3,000..5,000.
    struct Fig2Stimulus {
        k: u32,
    }

    impl Clocked for Fig2Stimulus {
        fn step(&mut self, _t: Seconds, _dt: Seconds, bus: &mut SimBus) -> StepOutcome {
            bus.mcu_load = if self.k % 7 == 0 {
                Power::from_milli_watts(12.0)
            } else {
                Power::ZERO
            };
            bus.hold_voltage = Volts::new(3.3);
            let gesturing = (3_000..5_000).contains(&self.k);
            bus.shading.clear();
            bus.shading.extend((0..25).map(|i| {
                if gesturing && i % 3 == 0 {
                    Ratio::ONE
                } else {
                    Ratio::ZERO
                }
            }));
            self.k += 1;
            StepOutcome::quiescent()
        }
    }

    #[test]
    fn idle_platform_charges_supercap() {
        let mut sim = CircuitSim::new(quiet_env(500.0));
        let v0 = sim.supercap().voltage();
        run_until(
            &mut sim,
            &mut fixed(),
            &mut SimBus::new(),
            Seconds::new(10.0),
        );
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
        let mut sim = CircuitSim::new(env);
        let at = wake_time(&mut sim, Seconds::new(2.0)).expect("hover must connect the MCU");
        assert!(at > Seconds::new(0.5));
        assert!(at < Seconds::new(0.55), "connected at {at}");
    }

    #[test]
    fn hover_is_seen_at_the_scheduler_time() {
        // The component reads the light at the scheduler's `t`: a run whose
        // clock starts at 2 s sees a 2.5 s hover at 2.5 s.
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::from_hovers([(Seconds::new(2.5), Seconds::new(0.3))]),
        );
        let mut sim = CircuitSim::new(env);
        let mut sched = Scheduler::starting_at(Seconds::new(2.0), DtPolicy::fixed());
        let at = wake_on(&mut sim, &mut sched, &mut SimBus::new(), Seconds::new(3.0))
            .expect("the 2.5 s hover must connect the MCU before 3 s");
        assert!(at > Seconds::new(2.5), "connected at {at}");
        assert!(at <= Seconds::new(2.51), "connected at {at}");
    }

    #[test]
    fn sensing_mode_exposes_nine_taps() {
        let mut sim = CircuitSim::new(quiet_env(500.0));
        sim.set_mode(HarvestMode::Sensing);
        let mut bus = SimBus::new();
        bus.hold_voltage = Volts::new(3.3);
        fixed().run_steps(1, SLICE, &mut [&mut sim], &mut bus, |_, _, _| {
            StepControl::Continue
        });
        assert_eq!(bus.sensing_taps.len(), 9);
        assert!(bus.sensing_taps.iter().all(|v| v.as_volts() > 0.0));
    }

    #[test]
    fn heavy_load_discharges_supercap() {
        // Latch the rail on via a hover first.
        let env = LightEnvironment::with_hovers(
            Lux::new(500.0),
            HoverSchedule::from_hovers([(Seconds::ZERO, Seconds::new(0.2))]),
        );
        let mut sim = CircuitSim::new(env);
        let mut sched = fixed();
        let mut bus = SimBus::new();
        let at = wake_on(&mut sim, &mut sched, &mut bus, Seconds::new(0.3)).expect("rail connects");
        let v0 = sim.supercap().voltage();
        bus.mcu_load = Power::from_milli_watts(20.0);
        bus.hold_voltage = Volts::new(3.3);
        run_until(&mut sim, &mut sched, &mut bus, at + Seconds::new(1.0));
        assert!(sim.supercap().voltage() < v0);
    }

    #[test]
    fn run_until_times_out_without_event() {
        let mut sim = CircuitSim::new(quiet_env(500.0));
        assert!(wake_time(&mut sim, Seconds::new(0.5)).is_none());
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
        let mut sim = CircuitSim::new(env);
        let woke = wake_time(&mut sim, Seconds::new(5.0));
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
        let mut sim = CircuitSim::new(env);
        let woke = wake_time(&mut sim, Seconds::new(7.0));
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
        let mut sim = CircuitSim::new(env);
        let woke = wake_time(&mut sim, Seconds::new(6.0));
        assert!(woke.is_some(), "a real hover must still wake at 200 lux");
    }

    #[test]
    fn energy_balance_holds_over_a_run() {
        // Stored-energy change must equal harvested minus consumed energy,
        // up to leakage and the clamped-voltage charge conversion. The load
        // side integrates the power the component publishes on the bus.
        let mut sim = CircuitSim::new(quiet_env(500.0));
        let e0 = sim.supercap().stored_energy();
        let mut bus = SimBus::new();
        let mut consumed = Energy::ZERO;
        fixed().run_until(
            Seconds::new(20.0),
            SLICE,
            &mut [&mut sim],
            &mut bus,
            |_, dt, bus| {
                consumed += bus.load_power * dt;
                StepControl::Continue
            },
        );
        let harvested = bus.audit().harvested;
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
        let mut sim = CircuitSim::new(env);
        let e0 = sim.supercap().stored_energy();
        let mut bus = SimBus::new();
        fixed().run_steps(
            20_000,
            SLICE,
            &mut [&mut Fig2Stimulus { k: 0 }, &mut sim],
            &mut bus,
            |_, _, _| StepControl::Continue,
        );
        let audit = *bus.audit();
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
        let mut sim = CircuitSim::new(quiet_env(750.0));
        let mut bus = SimBus::new();
        run_until(&mut sim, &mut fixed(), &mut bus, Seconds::new(5.0));
        let a = bus.audit();
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
        // One step's harvested energy, from the bus ledger.
        let harvested = |lux: f64| {
            let mut sim = CircuitSim::new(quiet_env(lux));
            let mut bus = SimBus::new();
            fixed().run_steps(1, SLICE, &mut [&mut sim], &mut bus, |_, _, _| {
                StepControl::Continue
            });
            bus.audit().harvested
        };
        assert!(harvested(1000.0).as_joules() > 2.0 * harvested(250.0).as_joules());
    }
}
