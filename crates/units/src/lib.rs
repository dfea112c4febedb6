//! Physical quantity newtypes for the SolarML simulation stack.
//!
//! Every simulator crate in the workspace exchanges physical values —
//! energies, powers, durations, voltages — and mixing them up silently is the
//! classic failure mode of energy modelling code. This crate provides thin
//! `f64` newtypes with only the physically meaningful arithmetic defined:
//! power × time = energy, voltage × current = power, charge / capacitance =
//! voltage, and so on. Everything is `Copy` and has zero runtime cost.
//!
//! # Examples
//!
//! ```
//! use solarml_units::{Power, Seconds};
//!
//! let standby = Power::from_micro_watts(2.0);
//! let wait = Seconds::new(5.0);
//! let spent = standby * wait;
//! assert!((spent.as_micro_joules() - 10.0).abs() < 1e-9);
//! ```

mod display;
mod error;
mod quantities;

pub use display::SiValue;
pub use error::UnitError;
pub use quantities::{
    Amps, Capacitance, Charge, Cycles, Energy, Farads, Frequency, Hertz, Lux, Ohms, Power, Ratio,
    Resistance, Seconds, Volts,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_milli_watts(3.0) * Seconds::new(2.0);
        assert!((e.as_milli_joules() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::new(6.0) / Seconds::new(2.0);
        assert!((p.as_watts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_times_current_is_power() {
        let p = Volts::new(3.3) * Amps::from_milli_amps(10.0);
        assert!((p.as_milli_watts() - 33.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_holds() {
        let i = Volts::new(3.0) / Ohms::new(1500.0);
        assert!((i.as_milli_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_charge_voltage_relation() {
        // Q = C·V, E = ½CV²
        let c = Farads::new(1.0);
        let v = Volts::new(3.0);
        let q = c * v;
        assert!((q.as_coulombs() - 3.0).abs() < 1e-12);
        assert!((c.stored_energy(v).as_joules() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = Hertz::new(200.0);
        assert!((f.period().as_seconds() - 0.005).abs() < 1e-15);
    }
}
