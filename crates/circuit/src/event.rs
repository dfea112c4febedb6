//! The passive solar-cell event detector of the paper's Figure 5.
//!
//! Two solar cells are dedicated to event detection. The first drives the
//! gate of a small N-MOSFET `N0` that sits in series with a pull-up from the
//! supercapacitor to the gate node `V2` of the supply P-MOSFET `P1`. While
//! the cell is lit, `N0` conducts, the pull-up holds `V2` a divider-step
//! below `V_cap`, and `P1` stays open — the platform is *completely off*
//! (only the divider's ≈2 µW leaks). Because `V2` is referenced to the
//! supercap, this holds at **any** storage voltage (an earlier ground-
//! referenced design false-triggered whenever `V_cap` exceeded the lit cell
//! voltage by the P-channel threshold — see the `detector_robustness`
//! bench). When a user hovers over the cell, `N0` opens and `V2` decays to
//! ground through the pull-down; within ≈5 ms `V_gs = V2 − V_cap` crosses
//! the threshold: `P1` closes and the MCU powers up with no software or
//! active sensor in the loop.
//!
//! Three auxiliary functions complete the design (paper §III-B2):
//!
//! * **Hold** — once awake, the MCU drives `V4` high, turning on N-MOSFET
//!   `N1`, which pins `V2` to ground so `P1` stays closed after the hand
//!   moves away.
//! * **End-of-gesture** — the second event cell feeds sense divider `V5`;
//!   the MCU samples it and interprets a drop (second hover) as "gesture
//!   finished".
//! * **Weak-light lockout** — a reference cell gates N-MOSFET `N2`; in
//!   near-darkness `N2` blocks the supply path so the supercap cannot be
//!   drained by spurious wake-ups.

use solarml_units::{Farads, Lux, Ohms, Power, Ratio, Seconds, Volts};

use crate::components::{Mosfet, ResistorDivider, SolarCell};
use crate::env::Illumination;

/// Gross lifecycle state, derived from the electrical state each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorState {
    /// `P1` open, MCU unpowered, only the bias divider leaks.
    Standby,
    /// A hover is discharging `V2` but `P1` has not yet switched.
    Triggering,
    /// `P1` closed: the MCU rail is connected to the supercap.
    Connected,
    /// Ambient light below the lockout threshold; wake-ups are blocked.
    Lockout,
}

/// Electrical outputs of one detector timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorOutput {
    /// Gate-node voltage of `P1`.
    pub v2: Volts,
    /// End-of-gesture sense voltage (second cell's divider tap).
    pub v5: Volts,
    /// Whether `P1` currently conducts.
    pub p1_conducting: bool,
    /// Whether the weak-light lockout (`N2`) permits the supply path.
    pub n2_allows: bool,
    /// Whether the MCU rail is actually connected to the supercap.
    pub mcu_connected: bool,
    /// Power dissipated inside the detector network this step.
    pub detector_power: Power,
    /// Derived lifecycle state.
    pub state: DetectorState,
}

/// The Figure-5 event detector.
///
/// # Examples
///
/// ```
/// use solarml_circuit::event::EventDetector;
/// use solarml_circuit::env::Illumination;
/// use solarml_units::{Lux, Ratio, Seconds, Volts};
///
/// let mut det = EventDetector::default();
/// let lit = Illumination { ambient: Lux::new(500.0), event_cell_shading: Ratio::ZERO };
/// det.settle(lit, Volts::new(3.0)); // start from equilibrium, not a dark power-up
/// let out = det.step(Seconds::from_millis(1.0), lit, Volts::ZERO, false, Volts::new(3.0));
/// assert!(!out.mcu_connected, "lit cell keeps the platform off");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventDetector {
    /// The wake cell driving `V2`.
    pub wake_cell: SolarCell,
    /// The end-of-gesture sense cell driving `V5`.
    pub sense_cell: SolarCell,
    /// The reference cell gating the weak-light lockout.
    pub reference_cell: SolarCell,
    /// Pull-up from the supercap to `V2`, in series with `N0` (conducting
    /// while the wake cell is lit).
    pub r_pull_up: Ohms,
    /// Pull-down from `V2` to ground (the hover discharge path).
    pub r_pull_down: Ohms,
    /// The cell-driven series N-MOSFET `N0`.
    pub n0: Mosfet,
    /// Sense divider from the sense cell to `V5`.
    pub sense: ResistorDivider,
    /// Gate-node capacitance setting the trigger RC.
    pub gate_capacitance: Farads,
    /// The supply P-MOSFET `P1`.
    pub p1: Mosfet,
    /// The hold N-MOSFET `N1`.
    pub n1: Mosfet,
    /// The lockout N-MOSFET `N2`.
    pub n2: Mosfet,
    /// Resistance of the `N1` pull-down path when holding.
    pub hold_resistance: Ohms,
    v2: Volts,
}

impl Default for EventDetector {
    fn default() -> Self {
        Self {
            wake_cell: SolarCell::default(),
            sense_cell: SolarCell::default(),
            reference_cell: SolarCell::default(),
            // 0.4 MΩ + 4.1 MΩ: ≈2 µW standby at V_cap = 3 V, ≈23 µW while
            // the MCU holds (V2 grounded through N1, current limited by the
            // pull-up alone).
            r_pull_up: Ohms::new(4.0e5),
            r_pull_down: Ohms::new(4.1e6),
            n0: Mosfet::si2304(),
            // The sense tap only needs to feed an ADC pin, so it is high
            // impedance; this keeps total standby draw at the paper's ≈2 µW.
            sense: ResistorDivider::new(Ohms::new(1.0e6), Ohms::new(9.0e6)),
            gate_capacitance: Farads::new(2.2e-9),
            p1: Mosfet::si2309(),
            n1: Mosfet::si2304(),
            // The lockout gate is biased so the reference cell only clears it
            // above ~100 lux (V_gs ≈ 1.5 V): near-darkness cannot wake us.
            n2: Mosfet {
                threshold: Volts::new(1.5),
                ..Mosfet::si2304()
            },
            hold_resistance: Ohms::new(2.0e5),
            v2: Volts::ZERO,
        }
    }
}

impl EventDetector {
    /// Creates a detector in the dark (gate node discharged).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current `V2` gate-node voltage.
    pub fn v2(&self) -> Volts {
        self.v2
    }

    /// Instantly settles the gate node to its steady state under `ill` with
    /// the supercap at `v_cap` (no hold, no hover decay in progress). Use
    /// this to start a simulation from electrical equilibrium instead of a
    /// dark power-up, which would otherwise spuriously close `P1` for the
    /// first few RC constants.
    pub fn settle(&mut self, ill: Illumination, v_cap: Volts) {
        let cell_v =
            self.wake_cell
                .loaded_voltage(ill.ambient, ill.event_cell_shading, Ohms::new(1e9));
        self.v2 = if self.n0.conducts(cell_v) {
            self.lit_v2(v_cap)
        } else {
            Volts::ZERO
        };
    }

    /// The lit steady-state gate level: a divider step below the supercap.
    fn lit_v2(&self, v_cap: Volts) -> Volts {
        let total = self.r_pull_up.as_ohms() + self.r_pull_down.as_ohms();
        Volts::new(v_cap.as_volts() * self.r_pull_down.as_ohms() / total)
    }

    /// Advances the detector by `dt`.
    ///
    /// * `ill` — current light/hover conditions;
    /// * `v4_hold` — the MCU's hold-pin voltage (≥ `N1` threshold keeps
    ///   `P1` latched on);
    /// * `sense_hovered` — whether the user is also covering the sense cell
    ///   (gestures cover the whole corner, so hover schedules usually drive
    ///   both cells identically);
    /// * `v_cap` — present supercapacitor voltage (the `P1` source).
    pub fn step(
        &mut self,
        dt: Seconds,
        ill: Illumination,
        v4_hold: Volts,
        sense_hovered: bool,
        v_cap: Volts,
    ) -> DetectorOutput {
        let lux = ill.ambient;
        let holding = self.n1.conducts(v4_hold);

        // Wake-cell operating point: it only drives N0's gate (no load).
        let cell_v = self
            .wake_cell
            .loaded_voltage(lux, ill.event_cell_shading, Ohms::new(1e9));
        let n0_on = self.n0.conducts(cell_v);

        // Target and time constant for the gate node V2:
        //  * hold (N1 on)   → ground, through N1's channel (fast);
        //  * lit (N0 on)    → a divider step below V_cap, τ = C·(R_pu ∥ R_pd);
        //  * hovered / dark → ground, τ = C·R_pd.
        let (target, r_eq) = if holding {
            (Volts::ZERO, Ohms::new(self.n1.r_on.as_ohms() + 1.0))
        } else if n0_on {
            let rp = self.r_pull_up.as_ohms();
            let rd = self.r_pull_down.as_ohms();
            (self.lit_v2(v_cap), Ohms::new(rp * rd / (rp + rd)))
        } else {
            (Volts::ZERO, self.r_pull_down)
        };
        let tau = self.gate_capacitance.as_farads() * r_eq.as_ohms();
        let alpha = 1.0 - (-dt.as_seconds() / tau.max(1e-12)).exp();
        self.v2 = Volts::new(self.v2.as_volts() + alpha * (target.as_volts() - self.v2.as_volts()));

        // P1 conducts when its gate is pulled sufficiently below its source.
        let v_gs = self.v2 - v_cap;
        let p1_conducting = self.p1.conducts(v_gs);

        // Weak-light lockout: the reference cell must hold N2's gate above
        // threshold. The lockout is bypassed while the MCU holds (an active
        // session in dimming light is not cut off mid-gesture).
        let ref_v = self
            .reference_cell
            .loaded_voltage(lux, Ratio::ZERO, Ohms::new(10e6));
        let n2_allows = holding || self.n2.conducts(ref_v);

        let mcu_connected = p1_conducting && n2_allows;

        // End-of-gesture sense tap.
        let sense_shading = if sense_hovered {
            Ratio::ONE
        } else {
            Ratio::ZERO
        };
        let sense_cell_v = self
            .sense_cell
            .loaded_voltage(lux, sense_shading, self.sense.total());
        let v5 = self.sense.tap(sense_cell_v);

        // Power drawn from the supercap through the V2 network, plus the
        // sense divider (fed by its own cell).
        let network_power = if holding && n0_on {
            // V2 grounded through N1, current limited by the pull-up alone.
            let i = v_cap / Ohms::new(self.r_pull_up.as_ohms() + self.n1.r_on.as_ohms());
            v_cap * i
        } else if n0_on {
            // Static divider current V_cap → R_pu → R_pd → ground.
            let i = v_cap / Ohms::new(self.r_pull_up.as_ohms() + self.r_pull_down.as_ohms());
            v_cap * i
        } else {
            // N0 open: no static path (the pull-down only drains the gate).
            solarml_units::Power::ZERO
        };
        let detector_power = network_power + self.sense.dissipation(sense_cell_v);

        let state = if !n2_allows && !holding {
            DetectorState::Lockout
        } else if mcu_connected {
            DetectorState::Connected
        } else if ill.event_cell_shading > Ratio::ZERO {
            DetectorState::Triggering
        } else {
            DetectorState::Standby
        };

        DetectorOutput {
            v2: self.v2,
            v5,
            p1_conducting,
            n2_allows,
            mcu_connected,
            detector_power,
            state,
        }
    }

    /// Measures the wake response time: with the detector settled under
    /// `ambient` light and the supercap at `v_cap`, how long after a hover
    /// begins does the MCU rail connect?
    ///
    /// Returns `None` if the detector does not trigger within one second
    /// (e.g. weak-light lockout).
    pub fn response_time(&self, ambient: Lux, v_cap: Volts) -> Option<Seconds> {
        let mut det = self.clone();
        let dt = Seconds::from_micros(50.0);
        // Settle fully lit.
        let lit = Illumination {
            ambient,
            event_cell_shading: Ratio::ZERO,
        };
        let mut t = Seconds::ZERO;
        // physics-lint: allow(adhoc-sim-loop): isolated detector characterization, no energy ledger
        while t < Seconds::new(1.0) {
            det.step(dt, lit, Volts::ZERO, false, v_cap);
            t += dt;
        }
        // Hover and time the connection.
        let hovered = Illumination {
            ambient,
            event_cell_shading: Ratio::ONE,
        };
        let mut elapsed = Seconds::ZERO;
        // physics-lint: allow(adhoc-sim-loop): isolated detector characterization, no energy ledger
        while elapsed < Seconds::new(1.0) {
            let out = det.step(dt, hovered, Volts::ZERO, true, v_cap);
            elapsed += dt;
            if out.mcu_connected {
                return Some(elapsed);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const DT: Seconds = Seconds::new(0.001);

    fn lit(lux: f64) -> Illumination {
        Illumination {
            ambient: Lux::new(lux),
            event_cell_shading: Ratio::ZERO,
        }
    }

    fn hovered(lux: f64) -> Illumination {
        Illumination {
            ambient: Lux::new(lux),
            event_cell_shading: Ratio::ONE,
        }
    }

    fn settle(det: &mut EventDetector, ill: Illumination, v_cap: Volts) -> DetectorOutput {
        let mut out = det.step(DT, ill, Volts::ZERO, false, v_cap);
        for _ in 0..2000 {
            out = det.step(DT, ill, Volts::ZERO, false, v_cap);
        }
        out
    }

    #[test]
    fn lit_detector_keeps_mcu_off() {
        let mut det = EventDetector::default();
        let out = settle(&mut det, lit(500.0), Volts::new(3.0));
        assert!(!out.mcu_connected);
        assert_eq!(out.state, DetectorState::Standby);
        assert!(out.v2.as_volts() > 1.6, "V2 should sit high: {}", out.v2);
    }

    #[test]
    fn hover_connects_mcu() {
        let mut det = EventDetector::default();
        settle(&mut det, lit(500.0), Volts::new(3.0));
        let mut connected = false;
        for _ in 0..100 {
            let out = det.step(DT, hovered(500.0), Volts::ZERO, true, Volts::new(3.0));
            if out.mcu_connected {
                connected = true;
                break;
            }
        }
        assert!(connected, "hover should close P1 within 100 ms");
    }

    #[test]
    fn response_time_is_a_few_milliseconds() {
        let det = EventDetector::default();
        let rt = det
            .response_time(Lux::new(500.0), Volts::new(3.0))
            .expect("should trigger");
        let ms = rt.as_millis();
        assert!(
            (1.0..20.0).contains(&ms),
            "paper reports ~5 ms response, simulated {ms:.2} ms"
        );
    }

    #[test]
    fn standby_power_is_about_two_microwatts() {
        let mut det = EventDetector::default();
        let out = settle(&mut det, lit(500.0), Volts::new(3.0));
        let uw = out.detector_power.as_micro_watts();
        assert!(
            (1.0..6.0).contains(&uw),
            "paper reports ~2 µW standby, simulated {uw:.2} µW"
        );
    }

    #[test]
    fn working_power_within_paper_range() {
        let mut det = EventDetector::default();
        settle(&mut det, lit(500.0), Volts::new(3.0));
        // MCU holds: V4 = 3.3 V.
        let out = det.step(DT, lit(500.0), Volts::new(3.3), false, Volts::new(3.0));
        let uw = out.detector_power.as_micro_watts();
        assert!(
            (7.5..28.0).contains(&uw),
            "paper reports 7.5–28 µW working power, simulated {uw:.2} µW"
        );
    }

    #[test]
    fn hold_latches_connection_after_hover_ends() {
        let mut det = EventDetector::default();
        settle(&mut det, lit(500.0), Volts::new(3.0));
        // Hover to trigger.
        for _ in 0..50 {
            det.step(DT, hovered(500.0), Volts::ZERO, true, Volts::new(3.0));
        }
        // Hand leaves but MCU holds V4 high.
        let mut out = det.step(DT, lit(500.0), Volts::new(3.3), false, Volts::new(3.0));
        for _ in 0..500 {
            out = det.step(DT, lit(500.0), Volts::new(3.3), false, Volts::new(3.0));
        }
        assert!(out.mcu_connected, "hold pin must keep P1 closed");
        // Release the hold: the node re-charges and P1 opens.
        let mut released = out;
        for _ in 0..5000 {
            released = det.step(DT, lit(500.0), Volts::ZERO, false, Volts::new(3.0));
        }
        assert!(!released.mcu_connected, "releasing V4 must disconnect");
    }

    #[test]
    fn weak_light_lockout_blocks_wakeup() {
        let mut det = EventDetector::default();
        settle(&mut det, lit(5.0), Volts::new(3.0));
        let mut out = det.step(DT, hovered(5.0), Volts::ZERO, true, Volts::new(3.0));
        for _ in 0..2000 {
            out = det.step(DT, hovered(5.0), Volts::ZERO, true, Volts::new(3.0));
        }
        assert!(!out.mcu_connected, "5 lux must not wake the platform");
        assert_eq!(out.state, DetectorState::Lockout);
    }

    #[test]
    fn v5_drops_when_sense_cell_hovered() {
        let mut det = EventDetector::default();
        let clear = det.step(DT, lit(500.0), Volts::new(3.3), false, Volts::new(3.0));
        let covered = det.step(DT, lit(500.0), Volts::new(3.3), true, Volts::new(3.0));
        assert!(covered.v5.as_volts() < 0.2 * clear.v5.as_volts());
    }

    #[test]
    fn five_second_wait_energy_near_ten_microjoules() {
        // Table III: "5-s work energy ≈10 µJ" for SolarML's detector.
        let mut det = EventDetector::default();
        settle(&mut det, lit(500.0), Volts::new(3.0));
        let dt = Seconds::from_millis(1.0);
        let mut energy = solarml_units::Energy::ZERO;
        let mut t = Seconds::ZERO;
        while t < Seconds::new(5.0) {
            let out = det.step(dt, lit(500.0), Volts::ZERO, false, Volts::new(3.0));
            energy += out.detector_power * dt;
            t += dt;
        }
        let uj = energy.as_micro_joules();
        assert!(
            (5.0..25.0).contains(&uj),
            "5-s idle energy should be ~10 µJ, got {uj:.1}"
        );
    }

    #[test]
    fn lit_v2_tracks_the_supercap_voltage() {
        // The supercap-referenced pull-up keeps the lit gate level a fixed
        // divider step below V_cap at any storage voltage — the property
        // that prevents false triggers as the supercap charges.
        for v_cap in [2.2, 3.0, 3.8, 4.5] {
            let mut det = EventDetector::default();
            let out = settle(&mut det, lit(500.0), Volts::new(v_cap));
            assert!(
                !out.mcu_connected,
                "lit detector must stay off at V_cap={v_cap}"
            );
            let gap = v_cap - out.v2.as_volts();
            assert!(
                gap < 1.4,
                "lit V2 must sit within the P1 threshold of V_cap: gap {gap:.2} V"
            );
        }
    }
}
