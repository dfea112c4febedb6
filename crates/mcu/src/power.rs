//! The calibrated per-state power model.

use solarml_units::{Cycles, Energy, Frequency, Power, Seconds, Volts};

use crate::peripherals::{AdcConfig, PdmConfig};

/// Per-state power draws of the nRF52840-class platform, including board
/// overheads (boost-converter quiescent current, pull-ups).
///
/// Defaults are calibrated so a one-minute-sleep inference cycle decomposes
/// into the paper's Fig. 2 proportions (`E_E` ≈ 38 %/29 %, `E_S` ≈ 47 %/53 %,
/// `E_M` ≈ 15 %/18 % for gesture/KWS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McuPowerModel {
    /// Rail voltage after the boost converter.
    pub rail_voltage: Volts,
    /// Deep-sleep draw (RAM retained, RTC on, regulator quiescent).
    pub deep_sleep: Power,
    /// Standby draw (Fig. 6: config in RAM, CPU clock gated).
    pub standby: Power,
    /// Power during the wake/boot transition burst.
    pub wake_power: Power,
    /// Duration of a warm wake (from deep sleep or standby).
    pub wake_duration: Seconds,
    /// Duration of a cold boot (from off).
    pub cold_boot_duration: Seconds,
    /// Base draw of tickless sampling (timer, RAM, regulator) before
    /// peripheral costs.
    pub tickless_base: Power,
    /// Active draw with the CPU at 64 MHz.
    pub active: Power,
    /// Effective CPU clock for converting cycle counts to time.
    pub clock: Frequency,
}

impl Default for McuPowerModel {
    fn default() -> Self {
        Self {
            rail_voltage: Volts::new(3.3),
            deep_sleep: Power::from_micro_watts(30.0),
            standby: Power::from_micro_watts(20.0),
            wake_power: Power::from_milli_watts(8.0),
            wake_duration: Seconds::from_millis(5.0),
            cold_boot_duration: Seconds::from_millis(20.0),
            tickless_base: Power::from_micro_watts(550.0),
            active: Power::from_milli_watts(19.8),
            clock: Frequency::new(64e6),
        }
    }
}

impl McuPowerModel {
    /// Energy of one warm wake transition.
    pub fn wake_energy(&self) -> Energy {
        self.wake_power * self.wake_duration
    }

    /// Energy of one cold boot (power applied from off).
    pub fn cold_boot_energy(&self) -> Energy {
        self.wake_power * self.cold_boot_duration
    }

    /// Total tickless-mode power while the ADC samples with `cfg`.
    pub fn adc_power(&self, cfg: &AdcConfig) -> Power {
        self.tickless_base + cfg.conversion_power()
    }

    /// Total tickless-mode power while the PDM microphone runs with `cfg`.
    pub fn pdm_power(&self, cfg: &PdmConfig) -> Power {
        self.tickless_base + cfg.interface_power()
    }

    /// Time the CPU needs for `cycles` cycles of computation.
    pub fn compute_time(&self, cycles: Cycles) -> Seconds {
        Cycles::new(cycles.as_cycles().max(0.0)) / self.clock
    }

    /// Energy for `cycles` cycles of active computation.
    pub fn compute_energy(&self, cycles: Cycles) -> Energy {
        self.active * self.compute_time(cycles)
    }

    /// Energy per active CPU cycle.
    pub fn energy_per_cycle(&self) -> Energy {
        Energy::new(self.active.as_watts() / self.clock.as_hertz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_units::Hertz;

    #[test]
    fn default_draws_are_ordered() {
        let m = McuPowerModel::default();
        assert!(m.standby < m.deep_sleep);
        assert!(m.deep_sleep < m.tickless_base);
        assert!(m.tickless_base < m.wake_power);
        assert!(m.wake_power < m.active);
    }

    #[test]
    fn wake_energy_is_tens_of_microjoules() {
        let m = McuPowerModel::default();
        let uj = m.wake_energy().as_micro_joules();
        assert!((20.0..100.0).contains(&uj), "warm wake ~40 µJ, got {uj:.1}");
        assert!(m.cold_boot_energy() > m.wake_energy());
    }

    #[test]
    fn one_minute_deep_sleep_is_millijoules() {
        let m = McuPowerModel::default();
        let e = m.deep_sleep * Seconds::from_minutes(1.0);
        assert!((1.0..5.0).contains(&e.as_milli_joules()));
    }

    #[test]
    fn adc_power_scales_with_channels() {
        let m = McuPowerModel::default();
        let one = m.adc_power(&AdcConfig::new(1, Hertz::new(100.0), 12));
        let nine = m.adc_power(&AdcConfig::new(9, Hertz::new(100.0), 12));
        assert!(nine > one);
        assert!(nine.as_milli_watts() < 2.0, "gesture sampling stays ~1 mW");
    }

    #[test]
    fn compute_energy_matches_cycles() {
        let m = McuPowerModel::default();
        // 64e6 cycles = one second at full power.
        let e = m.compute_energy(Cycles::new(64e6));
        assert!((e.as_milli_joules() - 19.8).abs() < 1e-9);
        assert_eq!(m.compute_energy(Cycles::new(-5.0)), Energy::ZERO);
    }

    #[test]
    fn energy_per_cycle_sub_nanojoule() {
        let m = McuPowerModel::default();
        let nj = m.energy_per_cycle().as_joules() * 1e9;
        assert!((0.1..1.0).contains(&nj), "~0.31 nJ/cycle, got {nj:.3}");
    }
}
