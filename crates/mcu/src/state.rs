//! The MCU power-state machine.

use std::fmt;

use solarml_sim::{Clocked, SimBus, StepOutcome};
use solarml_units::{Energy, Power, Seconds, Volts};

use crate::power::McuPowerModel;

/// The MCU's power states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Rail disconnected; draws nothing.
    Off,
    /// Conventional wait state: RAM retained, RTC running.
    DeepSleep,
    /// SolarML's between-inference pause (Fig. 6).
    Standby,
    /// Boot/restore burst entered automatically when waking.
    WakeTransition,
    /// Peripheral-driven sampling with the CPU idle.
    Tickless,
    /// CPU computing at full clock.
    Active,
    /// The brownout supervisor cut the core: a dead window drawing nothing.
    /// Unlike [`PowerState::Off`] (a deliberate, clean power-down), a
    /// brownout loses volatile state mid-task; recovery requires a cold
    /// boot via [`Mcu::power_on`].
    Brownout,
}

impl PowerState {
    /// Every state, in declaration order — the canonical accounting order
    /// used by [`Mcu::total_energy`] so per-state sums are always reduced
    /// in the same sequence.
    pub const ALL: [PowerState; 7] = [
        PowerState::Off,
        PowerState::DeepSleep,
        PowerState::Standby,
        PowerState::WakeTransition,
        PowerState::Tickless,
        PowerState::Active,
        PowerState::Brownout,
    ];

    /// Index into [`PowerState::ALL`]-ordered accounting arrays.
    pub const fn index(self) -> usize {
        match self {
            PowerState::Off => 0,
            PowerState::DeepSleep => 1,
            PowerState::Standby => 2,
            PowerState::WakeTransition => 3,
            PowerState::Tickless => 4,
            PowerState::Active => 5,
            PowerState::Brownout => 6,
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::Off => "off",
            PowerState::DeepSleep => "deep-sleep",
            PowerState::Standby => "standby",
            PowerState::WakeTransition => "wake",
            PowerState::Tickless => "tickless",
            PowerState::Active => "active",
            PowerState::Brownout => "brownout",
        };
        f.write_str(s)
    }
}

/// An illegal state transition was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// State the MCU was in.
    pub from: PowerState,
    /// State that was requested.
    pub to: PowerState,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal MCU transition from {} to {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for TransitionError {}

/// The MCU state machine.
///
/// Waking from a sleep state automatically inserts a [`PowerState::WakeTransition`]
/// burst (warm-wake duration from deep sleep/standby, cold-boot duration from
/// off) before the requested state becomes current. Energy is accounted per
/// state so a run can be decomposed into the paper's `E_E`/`E_S`/`E_M`.
///
/// # Examples
///
/// ```
/// use solarml_mcu::{Mcu, McuPowerModel, PowerState};
/// use solarml_units::Seconds;
///
/// # fn main() -> Result<(), solarml_mcu::TransitionError> {
/// let mut mcu = Mcu::new(McuPowerModel::default());
/// mcu.power_on()?;
/// mcu.advance(Seconds::from_millis(25.0)); // cold boot completes
/// assert_eq!(mcu.state(), PowerState::Active);
/// mcu.advance(Seconds::from_millis(100.0));
/// assert!(mcu.energy_in(PowerState::Active).as_milli_joules() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mcu {
    model: McuPowerModel,
    state: PowerState,
    /// Remaining wake-transition time, and the state to land in after.
    pending: Option<(Seconds, PowerState)>,
    /// Power of the tickless peripheral mix while sampling.
    tickless_power: Power,
    /// Per-state accounting, indexed by [`PowerState::index`]. Fixed arrays
    /// rather than a hashed map so [`Mcu::total_energy`]'s float sum always
    /// reduces in [`PowerState::ALL`] order — with a `HashMap`, RandomState
    /// reordered the additions and the total differed in the last ulp
    /// between runs.
    energy_by_state: [Energy; PowerState::ALL.len()],
    time_by_state: [Seconds; PowerState::ALL.len()],
    clock: Seconds,
}

impl Mcu {
    /// Creates an MCU in the [`PowerState::Off`] state.
    pub fn new(model: McuPowerModel) -> Self {
        Self {
            model,
            state: PowerState::Off,
            pending: None,
            tickless_power: Power::ZERO,
            energy_by_state: [Energy::ZERO; PowerState::ALL.len()],
            time_by_state: [Seconds::ZERO; PowerState::ALL.len()],
            clock: Seconds::ZERO,
        }
    }

    /// The power model in use.
    pub fn model(&self) -> &McuPowerModel {
        &self.model
    }

    /// The current state (reports `WakeTransition` while a wake is pending).
    pub fn state(&self) -> PowerState {
        if self.pending.is_some() {
            PowerState::WakeTransition
        } else {
            self.state
        }
    }

    /// Total simulated time elapsed.
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Connects the rail: a cold boot into [`PowerState::Active`].
    ///
    /// Legal from [`PowerState::Off`] and from [`PowerState::Brownout`] —
    /// both lose volatile state, and both resume only through the full
    /// cold-boot burst (its energy lands in `WakeTransition` accounting).
    ///
    /// # Errors
    ///
    /// Returns an error if the MCU is running.
    pub fn power_on(&mut self) -> Result<(), TransitionError> {
        if !matches!(self.state, PowerState::Off | PowerState::Brownout) {
            return Err(TransitionError {
                from: self.state,
                to: PowerState::Active,
            });
        }
        self.pending = Some((self.model.cold_boot_duration, PowerState::Active));
        Ok(())
    }

    /// Disconnects the rail (always legal — the event detector can cut power
    /// at any time).
    pub fn power_off(&mut self) {
        self.state = PowerState::Off;
        self.pending = None;
        self.tickless_power = Power::ZERO;
    }

    /// The brownout supervisor cut the core (always legal — a sagging rail
    /// does not ask permission). The MCU enters [`PowerState::Brownout`],
    /// draws nothing, and any in-flight wake transition is lost; time spent
    /// browned out accrues as the dead window via [`Mcu::time_in`].
    pub fn brownout(&mut self) {
        self.state = PowerState::Brownout;
        self.pending = None;
        self.tickless_power = Power::ZERO;
    }

    /// Requests a state change.
    ///
    /// Leaving `DeepSleep` or `Standby` for a running state inserts a warm
    /// wake transition. Entering `Tickless` this way uses the base sampling
    /// power; prefer [`Mcu::begin_sampling`] to account for peripherals.
    ///
    /// # Errors
    ///
    /// Returns an error when the MCU is off or browned out (use
    /// [`Mcu::power_on`]) or a wake transition is still in progress.
    pub fn enter(&mut self, to: PowerState) -> Result<(), TransitionError> {
        if matches!(self.state, PowerState::Off | PowerState::Brownout) || self.pending.is_some() {
            return Err(TransitionError {
                from: self.state(),
                to,
            });
        }
        match (self.state, to) {
            (_, PowerState::Off) => self.power_off(),
            (_, PowerState::Brownout) => self.brownout(),
            (
                PowerState::DeepSleep | PowerState::Standby,
                PowerState::Active | PowerState::Tickless,
            ) => {
                self.pending = Some((self.model.wake_duration, to));
            }
            _ => self.state = to,
        }
        if to == PowerState::Tickless && self.tickless_power == Power::ZERO {
            self.tickless_power = self.model.tickless_base;
        }
        if to != PowerState::Tickless {
            self.tickless_power = Power::ZERO;
        }
        Ok(())
    }

    /// Enters tickless sampling with a specific total sampling power (from
    /// [`McuPowerModel::adc_power`] or [`McuPowerModel::pdm_power`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mcu::enter`].
    pub fn begin_sampling(&mut self, sampling_power: Power) -> Result<(), TransitionError> {
        self.enter(PowerState::Tickless)?;
        self.tickless_power = sampling_power;
        Ok(())
    }

    /// Instantaneous power draw in the current state.
    pub fn power(&self) -> Power {
        if self.pending.is_some() {
            return self.model.wake_power;
        }
        match self.state {
            PowerState::Off => Power::ZERO,
            PowerState::DeepSleep => self.model.deep_sleep,
            PowerState::Standby => self.model.standby,
            PowerState::WakeTransition => self.model.wake_power,
            PowerState::Tickless => self.tickless_power,
            PowerState::Active => self.model.active,
            PowerState::Brownout => Power::ZERO,
        }
    }

    /// Advances simulated time by `dt`, accumulating per-state energy and
    /// completing any pending wake transition. Returns the energy spent.
    pub fn advance(&mut self, dt: Seconds) -> Energy {
        let mut remaining = dt;
        let mut spent = Energy::ZERO;
        // Finish a pending wake transition first.
        if let Some((left, target)) = self.pending {
            let burn = left.min(remaining);
            spent += self.account(PowerState::WakeTransition, self.model.wake_power, burn);
            remaining -= burn;
            if burn >= left {
                self.pending = None;
                self.state = target;
            } else {
                self.pending = Some((left - burn, target));
                return spent;
            }
        }
        if remaining.as_seconds() > 0.0 {
            spent += self.account(self.state, self.power(), remaining);
        }
        spent
    }

    /// Energy accumulated in a given state so far.
    pub fn energy_in(&self, state: PowerState) -> Energy {
        self.energy_by_state[state.index()]
    }

    /// Time accumulated in a given state so far.
    pub fn time_in(&self, state: PowerState) -> Seconds {
        self.time_by_state[state.index()]
    }

    /// Total energy spent since construction, summed in
    /// [`PowerState::ALL`] order (bit-stable across runs).
    pub fn total_energy(&self) -> Energy {
        self.energy_by_state.iter().copied().sum()
    }

    /// Resets the energy/time accounting without changing the state.
    pub fn reset_accounting(&mut self) {
        self.energy_by_state = [Energy::ZERO; PowerState::ALL.len()];
        self.time_by_state = [Seconds::ZERO; PowerState::ALL.len()];
        self.clock = Seconds::ZERO;
    }

    fn account(&mut self, state: PowerState, power: Power, dt: Seconds) -> Energy {
        let e = power * dt;
        self.energy_by_state[state.index()] += e;
        self.time_by_state[state.index()] += dt;
        self.clock += dt;
        e
    }
}

impl Clocked for Mcu {
    /// One scheduled step: publishes this step's load power and hold-pin
    /// voltage (the digital outputs the circuit consumes), then advances the
    /// state machine and publishes the energy it metered.
    ///
    /// The MCU must be listed *before* electrical components so its load is
    /// on the bus when the supercap integrates. A pending wake transition
    /// hints its remaining duration so adaptive runs don't average the wake
    /// burst's power across a long stride.
    fn step(&mut self, _t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        bus.mcu_load = self.power();
        bus.hold_voltage = if matches!(self.state(), PowerState::Off | PowerState::Brownout) {
            Volts::ZERO
        } else {
            Volts::new(3.3)
        };
        bus.mcu_spent = self.advance(dt);
        match self.pending {
            Some((left, _)) => StepOutcome::hint(left),
            None => StepOutcome::quiescent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_units::Hertz;

    fn powered_mcu() -> Mcu {
        let mut mcu = Mcu::new(McuPowerModel::default());
        mcu.power_on().expect("off -> on is legal");
        mcu.advance(Seconds::from_millis(25.0)); // finish cold boot
        mcu
    }

    #[test]
    fn starts_off_drawing_nothing() {
        let mcu = Mcu::new(McuPowerModel::default());
        assert_eq!(mcu.state(), PowerState::Off);
        assert_eq!(mcu.power(), Power::ZERO);
    }

    #[test]
    fn power_on_cold_boots_into_active() {
        let mut mcu = Mcu::new(McuPowerModel::default());
        mcu.power_on().expect("legal");
        assert_eq!(mcu.state(), PowerState::WakeTransition);
        mcu.advance(Seconds::from_millis(25.0));
        assert_eq!(mcu.state(), PowerState::Active);
        let boot = mcu.energy_in(PowerState::WakeTransition);
        let expected = McuPowerModel::default().cold_boot_energy();
        assert!((boot.as_joules() - expected.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn double_power_on_is_an_error() {
        let mut mcu = powered_mcu();
        let err = mcu.power_on().expect_err("already on");
        assert_eq!(
            err.to_string(),
            "illegal MCU transition from active to active"
        );
    }

    #[test]
    fn enter_while_off_is_an_error() {
        let mut mcu = Mcu::new(McuPowerModel::default());
        assert!(mcu.enter(PowerState::Active).is_err());
    }

    #[test]
    fn waking_from_sleep_inserts_transition() {
        let mut mcu = powered_mcu();
        mcu.enter(PowerState::DeepSleep).expect("sleep");
        mcu.advance(Seconds::new(1.0));
        mcu.enter(PowerState::Active).expect("wake");
        assert_eq!(mcu.state(), PowerState::WakeTransition);
        mcu.advance(Seconds::from_millis(10.0));
        assert_eq!(mcu.state(), PowerState::Active);
        let wake = mcu.energy_in(PowerState::WakeTransition);
        // Cold boot + one warm wake.
        let m = McuPowerModel::default();
        let expected = m.cold_boot_energy() + m.wake_energy();
        assert!((wake.as_joules() - expected.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn enter_during_transition_is_an_error() {
        let mut mcu = powered_mcu();
        mcu.enter(PowerState::Standby).expect("standby");
        mcu.enter(PowerState::Active).expect("wake request");
        // Transition pending: further requests fail.
        assert!(mcu.enter(PowerState::Tickless).is_err());
    }

    #[test]
    fn direct_active_tickless_switch_is_instant() {
        let mut mcu = powered_mcu();
        mcu.enter(PowerState::Tickless).expect("sample");
        assert_eq!(mcu.state(), PowerState::Tickless);
        mcu.enter(PowerState::Active).expect("compute");
        assert_eq!(mcu.state(), PowerState::Active);
    }

    #[test]
    fn sampling_uses_peripheral_power() {
        let m = McuPowerModel::default();
        let mut mcu = powered_mcu();
        let adc = crate::AdcConfig::new(9, Hertz::new(100.0), 12);
        mcu.begin_sampling(m.adc_power(&adc)).expect("sample");
        let p = mcu.power();
        assert!(p > m.tickless_base);
        mcu.advance(Seconds::new(2.0));
        let e = mcu.energy_in(PowerState::Tickless);
        assert!((e.as_joules() - (p * Seconds::new(2.0)).as_joules()).abs() < 1e-12);
    }

    #[test]
    fn power_off_always_legal_and_zeroes_draw() {
        let mut mcu = powered_mcu();
        mcu.enter(PowerState::Tickless).expect("sample");
        mcu.power_off();
        assert_eq!(mcu.state(), PowerState::Off);
        assert_eq!(mcu.power(), Power::ZERO);
        // Re-powering works.
        mcu.power_on().expect("back on");
    }

    #[test]
    fn advance_splits_across_transition_boundary() {
        let mut mcu = Mcu::new(McuPowerModel::default());
        mcu.power_on().expect("on");
        // Advance exactly half the cold boot, then past the end.
        mcu.advance(Seconds::from_millis(10.0));
        assert_eq!(mcu.state(), PowerState::WakeTransition);
        mcu.advance(Seconds::from_millis(100.0));
        assert_eq!(mcu.state(), PowerState::Active);
        // 90 ms of active time accounted.
        let t = mcu.time_in(PowerState::Active);
        assert!((t.as_millis() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn total_energy_sums_states() {
        let mut mcu = powered_mcu();
        mcu.enter(PowerState::DeepSleep).expect("sleep");
        mcu.advance(Seconds::new(10.0));
        let total = mcu.total_energy();
        let parts = mcu.energy_in(PowerState::WakeTransition)
            + mcu.energy_in(PowerState::DeepSleep)
            + mcu.energy_in(PowerState::Active);
        assert!((total.as_joules() - parts.as_joules()).abs() < 1e-15);
    }

    #[test]
    fn brownout_is_always_legal_and_kills_pending_wake() {
        let mut mcu = Mcu::new(McuPowerModel::default());
        mcu.power_on().expect("on");
        assert_eq!(mcu.state(), PowerState::WakeTransition);
        mcu.brownout(); // mid-boot brownout
        assert_eq!(mcu.state(), PowerState::Brownout);
        assert_eq!(mcu.power(), Power::ZERO);
        // Requests other than power_on fail from the dead window.
        assert!(mcu.enter(PowerState::Active).is_err());
        assert!(mcu.enter(PowerState::DeepSleep).is_err());
    }

    #[test]
    fn brownout_dead_window_accrues_time_at_zero_energy() {
        let mut mcu = powered_mcu();
        let spent_before = mcu.total_energy();
        mcu.brownout();
        let spent = mcu.advance(Seconds::new(3.0));
        assert_eq!(spent, Energy::ZERO);
        assert_eq!(mcu.time_in(PowerState::Brownout), Seconds::new(3.0));
        assert_eq!(mcu.energy_in(PowerState::Brownout), Energy::ZERO);
        assert_eq!(mcu.total_energy(), spent_before);
    }

    #[test]
    fn recovery_from_brownout_pays_a_cold_boot() {
        let mut mcu = powered_mcu();
        let boot1 = mcu.energy_in(PowerState::WakeTransition);
        mcu.brownout();
        mcu.advance(Seconds::new(1.0));
        mcu.power_on().expect("cold boot from brownout is legal");
        assert_eq!(mcu.state(), PowerState::WakeTransition);
        mcu.advance(Seconds::from_millis(25.0));
        assert_eq!(mcu.state(), PowerState::Active);
        let boot2 = mcu.energy_in(PowerState::WakeTransition);
        let expected = McuPowerModel::default().cold_boot_energy();
        assert!(
            ((boot2 - boot1).as_joules() - expected.as_joules()).abs() < 1e-12,
            "second cold boot costs the full cold-boot energy"
        );
    }

    #[test]
    fn enter_routes_brownout_through_the_dead_state() {
        let mut mcu = powered_mcu();
        mcu.begin_sampling(Power::from_milli_watts(1.0))
            .expect("sample");
        mcu.enter(PowerState::Brownout).expect("supervisor trip");
        assert_eq!(mcu.state(), PowerState::Brownout);
        assert_eq!(mcu.power(), Power::ZERO);
    }

    #[test]
    fn reset_accounting_clears_history() {
        let mut mcu = powered_mcu();
        mcu.advance(Seconds::new(1.0));
        assert!(mcu.total_energy().as_joules() > 0.0);
        mcu.reset_accounting();
        assert_eq!(mcu.total_energy(), Energy::ZERO);
        assert_eq!(mcu.clock(), Seconds::ZERO);
        assert_eq!(mcu.state(), PowerState::Active, "state survives reset");
    }
}
