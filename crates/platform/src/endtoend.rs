//! §V-D: end-to-end energy per inference and harvesting time.
//!
//! The paper's bottom line: SolarML (event detector + eNAS models) performs
//! one complete digit inference on 6660 µJ and one KWS inference on
//! 12 746 µJ — 27 %/48 % less than a PS + µNAS baseline — and harvests that
//! energy in 31 s/57 s at 500 lux office light.

use solarml_circuit::components::Supercap;
use solarml_circuit::harvest::HarvestingArray;
use solarml_circuit::sim::ADAPTIVE_EPS_V;
use solarml_mcu::McuPowerModel;
use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, StepControl, StepOutcome};
use solarml_units::{Energy, Lux, Power, Ratio, Seconds, Volts};

use crate::detectors::{solarml_detector_spec, DetectorSpec, REFERENCE_DETECTORS};
use crate::lifecycle::EnergyBreakdown;

/// An end-to-end per-inference energy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndBudget {
    /// Wait time before the event.
    pub wait: Seconds,
    /// The `E_E`/`E_S`/`E_M` decomposition.
    pub breakdown: EnergyBreakdown,
}

impl EndToEndBudget {
    /// SolarML's budget: passive detector wait + cold boot, then the given
    /// sensing/inference energies.
    pub fn solarml(sensing: Energy, inference: Energy, wait: Seconds) -> Self {
        let detector = solarml_detector_spec();
        let mcu = McuPowerModel::default();
        Self {
            wait,
            breakdown: EnergyBreakdown {
                event: detector.wait_and_detect_energy(wait) + mcu.cold_boot_energy(),
                sensing,
                inference,
            },
        }
    }

    /// A conventional baseline: the MCU deep-sleeps through the wait while
    /// a wake detector from Table III stands guard (its own standby draw
    /// plus one worst-case detection burst), then a warm wake.
    pub fn baseline(
        detector: &DetectorSpec,
        sensing: Energy,
        inference: Energy,
        wait: Seconds,
    ) -> Self {
        let mcu = McuPowerModel::default();
        Self {
            wait,
            breakdown: EnergyBreakdown {
                event: mcu.deep_sleep * wait
                    + detector.wait_and_detect_energy(wait)
                    + mcu.wake_energy(),
                sensing,
                inference,
            },
        }
    }

    /// The PS + µNAS baseline the paper compares against.
    pub fn ps_baseline(sensing: Energy, inference: Energy, wait: Seconds) -> Self {
        Self::baseline(&REFERENCE_DETECTORS[0], sensing, inference, wait)
    }

    /// Total energy per inference.
    pub fn total(&self) -> Energy {
        self.breakdown.total()
    }

    /// Fractional saving of `self` relative to `other` (negative when
    /// `self` costs more).
    pub fn saving_vs(&self, other: &EndToEndBudget) -> Ratio {
        Ratio::new(1.0 - self.total() / other.total())
    }
}

/// A lighting scenario for harvesting-time analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestScenario {
    /// Ambient illuminance.
    pub lux: Lux,
    /// Supercap operating voltage (sets the charge-current conversion).
    pub v_cap: Volts,
}

impl HarvestScenario {
    /// The paper's three lighting conditions: dim 250 lux, office 500 lux,
    /// window 1000 lux.
    pub fn paper_conditions() -> [HarvestScenario; 3] {
        [250.0, 500.0, 1000.0].map(|lux| HarvestScenario {
            lux: Lux::new(lux),
            v_cap: Volts::new(3.0),
        })
    }

    /// Net harvesting power of the prototype array in this scenario.
    pub fn harvest_power(&self) -> Power {
        let array = HarvestingArray::new();
        let i = array.charging_current(self.lux, self.v_cap, |_| Ratio::ZERO);
        self.v_cap * i
    }
}

/// Time to harvest `budget` in `scenario`.
///
/// # Panics
///
/// Panics if the scenario harvests no power (e.g. darkness).
pub fn harvesting_time(budget: Energy, scenario: &HarvestScenario) -> Seconds {
    let p = scenario.harvest_power();
    assert!(
        p.as_watts() > 0.0,
        "cannot harvest at {}: no net power",
        scenario.lux
    );
    budget / p
}

/// A 24-hour illuminance profile (lux per hour, linearly interpolated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayProfile {
    /// Illuminance at the top of each hour.
    pub lux_by_hour: [f64; 24],
}

impl DayProfile {
    /// A typical office: dark nights, lights on 08:00–18:00 around 500 lux
    /// with a brighter midday from window light.
    pub fn office() -> Self {
        let mut lux = [1.0; 24];
        for (h, v) in lux.iter_mut().enumerate() {
            *v = match h {
                8..=9 => 400.0,
                10..=11 => 600.0,
                12..=14 => 800.0,
                15..=16 => 600.0,
                17 => 400.0,
                18 => 150.0,
                _ => 1.0,
            };
        }
        Self { lux_by_hour: lux }
    }

    /// Interpolated illuminance at a time-of-day offset.
    pub fn lux_at(&self, t: Seconds) -> Lux {
        let hours = (t.as_seconds() / 3600.0).rem_euclid(24.0);
        let h0 = hours.floor() as usize % 24;
        let h1 = (h0 + 1) % 24;
        let frac = hours - hours.floor();
        Lux::new(self.lux_by_hour[h0] * (1.0 - frac) + self.lux_by_hour[h1] * frac)
    }
}

/// Configuration of a day-scale energy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DaySimConfig {
    /// The lighting profile.
    pub profile: DayProfile,
    /// Energy one end-to-end inference consumes.
    pub budget_per_inference: Energy,
    /// Times (offsets from midnight) at which a user attempts an
    /// interaction.
    pub interactions: Vec<Seconds>,
    /// Supercap size.
    pub capacitance: solarml_units::Farads,
    /// Starting voltage.
    pub initial_voltage: Volts,
    /// Minimum voltage for an inference (`V_θ`).
    pub inference_threshold: Volts,
    /// Continuous background draw (the detector's standby).
    pub standby_power: Power,
}

impl DaySimConfig {
    /// An office day with hourly interactions during work hours and the
    /// given per-inference budget.
    pub fn office_day(budget: Energy) -> Self {
        let interactions = (8..18)
            .map(|h| Seconds::new(h as f64 * 3600.0 + 1800.0))
            .collect();
        Self {
            profile: DayProfile::office(),
            budget_per_inference: budget,
            interactions,
            capacitance: solarml_units::Farads::new(1.0),
            initial_voltage: Volts::new(2.4),
            inference_threshold: Volts::new(2.2),
            standby_power: Power::from_micro_watts(2.4),
        }
    }
}

/// Outcome of a simulated day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// Interactions the user attempted.
    pub attempted: usize,
    /// Interactions served (enough stored energy above `V_θ`).
    pub completed: usize,
    /// Interactions rejected for insufficient energy.
    pub rejected: usize,
    /// Total energy harvested over the day, as accounted by the
    /// co-simulation ledger (every flow through [`Supercap::step`]).
    pub harvested: Energy,
    /// Supercap voltage at midnight.
    pub final_voltage: Volts,
    /// Minimum voltage seen.
    pub min_voltage: Volts,
    /// Accumulated energy-conservation residual of the day's ledger
    /// (absolute round-off; ≤ 1 nJ on any healthy run at any timestep).
    pub residual: Energy,
    /// Number of timesteps the day's clock took (86 400 at the fixed
    /// one-second policy; far fewer under an adaptive policy).
    pub steps: usize,
}

/// The harvesting-only day platform as one [`Clocked`] component: ambient
/// light charges the supercap against the detector's standby draw, with
/// every flow recorded in the bus ledger.
struct DayHarvester<'a> {
    config: &'a DaySimConfig,
    array: HarvestingArray,
    cap: Supercap,
    min_voltage: Volts,
    steps: usize,
}

impl Clocked for DayHarvester<'_> {
    fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        let lux = self.config.profile.lux_at(t);
        let i = self
            .array
            .charging_current(lux, self.cap.voltage(), |_| Ratio::ZERO);
        let flows = self.cap.step(dt, i, self.config.standby_power);
        bus.record(flows.into());
        self.min_voltage = self.min_voltage.min(self.cap.voltage());
        self.steps += 1;
        bus.illuminance = lux;
        bus.rail_voltage = self.cap.voltage();
        bus.load_power = self.config.standby_power;
        // Adaptive stride: bounded supercap voltage error, and never
        // stepping across an hourly kink of the (piecewise-linear) light
        // profile so the interpolated lux slope stays representative.
        let stable = self
            .cap
            .stable_dt(i, self.config.standby_power, ADAPTIVE_EPS_V);
        let hour_end = Seconds::new(((t.as_seconds() / 3600.0).floor() + 1.0) * 3600.0);
        StepOutcome::hint(stable.min(hour_end - t))
    }
}

/// Simulates 24 hours of harvesting, detector standby and user
/// interactions at the fixed one-second co-simulation timestep (the
/// legacy resolution, bit-exact with the historical loop).
pub fn simulate_day(config: &DaySimConfig) -> DayReport {
    simulate_day_with(config, DtPolicy::fixed())
}

/// Simulates the same 24 hours under an explicit scheduler [`DtPolicy`].
///
/// The fixed policy steps once per second. An adaptive policy (e.g.
/// `DtPolicy::adaptive(1 ms, 60 s)`) lets the clock stretch through
/// quiescent stretches under the supercap's voltage-error bound, cutting
/// the day to a few thousand steps while the ledger residual stays at
/// round-off (≤ 1 nJ/day) because per-step conservation is exact at any
/// timestep.
pub fn simulate_day_with(config: &DaySimConfig, policy: DtPolicy) -> DayReport {
    let mut harvester = DayHarvester {
        config,
        array: HarvestingArray::new(),
        cap: Supercap::new(config.capacitance, config.initial_voltage),
        min_voltage: config.initial_voltage,
        steps: 0,
    };
    let mut sched = Scheduler::new(policy);
    let mut bus = SimBus::new();
    let slice = Seconds::new(1.0);
    let day_end = Seconds::new(24.0 * 3600.0);
    let last_slot = day_end - slice;
    let mut pending: Vec<Seconds> = config.interactions.clone();
    pending.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut next = 0usize;

    // The legacy loop serviced interaction requests at the end of the
    // first whole-second step whose start time reached them; stop the
    // clock at those instants and apply the drain between steps.
    while next < pending.len() {
        let slot = Seconds::new(pending[next].as_seconds().ceil());
        if slot > last_slot {
            // Requested after the day's final step began: never serviced.
            break;
        }
        sched.run_until(
            slot + slice,
            slice,
            &mut [&mut harvester],
            &mut bus,
            |_, _, _| StepControl::Continue,
        );
        while next < pending.len() && pending[next] <= slot {
            let usable = harvester.cap.usable_energy(config.inference_threshold);
            if usable >= config.budget_per_inference {
                harvester.cap.drain_energy(config.budget_per_inference);
                completed += 1;
            } else {
                rejected += 1;
            }
            next += 1;
        }
    }
    sched.run_until(
        day_end,
        slice,
        &mut [&mut harvester],
        &mut bus,
        |_, _, _| StepControl::Continue,
    );
    let audit = bus.audit();
    debug_assert!(
        audit.discrepancy.as_joules() <= 1e-9,
        "day ledger residual {} J exceeds the 1 nJ bound",
        audit.discrepancy.as_joules()
    );
    DayReport {
        attempted: pending.len(),
        completed,
        rejected,
        harvested: audit.harvested,
        final_voltage: harvester.cap.voltage(),
        min_voltage: harvester.min_voltage,
        residual: audit.discrepancy,
        steps: harvester.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Representative eNAS-found energies on our simulated device.
    fn enas_gesture() -> (Energy, Energy) {
        (
            Energy::from_micro_joules(1600.0),
            Energy::from_micro_joules(350.0),
        )
    }

    /// Representative µNAS energies (full-fidelity sensing, similar model).
    fn munas_gesture() -> (Energy, Energy) {
        (
            Energy::from_micro_joules(2600.0),
            Energy::from_micro_joules(500.0),
        )
    }

    #[test]
    fn solarml_saves_versus_ps_baseline() {
        let wait = Seconds::new(5.0);
        let (es, em) = enas_gesture();
        let solarml = EndToEndBudget::solarml(es, em, wait);
        let (bes, bem) = munas_gesture();
        let baseline = EndToEndBudget::ps_baseline(bes, bem, wait);
        let saving = solarml.saving_vs(&baseline).get();
        // Paper: 27 % (digits) to 48 % (KWS) savings.
        assert!(
            (0.15..0.75).contains(&saving),
            "saving {saving:.2} out of the paper's regime"
        );
    }

    #[test]
    fn event_energy_is_small_for_solarml() {
        let (es, em) = enas_gesture();
        let b = EndToEndBudget::solarml(es, em, Seconds::new(5.0));
        let (fe, _, _) = b.breakdown.fractions();
        let fe = fe.get();
        assert!(fe < 0.2, "SolarML E_E fraction {fe:.2}");
    }

    #[test]
    fn harvest_power_matches_calibration() {
        let [dim, office, window] = HarvestScenario::paper_conditions();
        let pd = dim.harvest_power().as_micro_watts();
        let po = office.harvest_power().as_micro_watts();
        let pw = window.harvest_power().as_micro_watts();
        assert!(pd < po && po < pw);
        assert!((180.0..260.0).contains(&po), "office power {po:.0} µW");
    }

    #[test]
    fn harvesting_times_scale_like_the_paper() {
        // Paper shape: t(500 lux) ≈ 1.6× t(1000 lux); t(250) ≈ 2–3× t(500).
        let budget = Energy::from_micro_joules(6660.0);
        let [dim, office, window] = HarvestScenario::paper_conditions();
        let td = harvesting_time(budget, &dim).as_seconds();
        let to = harvesting_time(budget, &office).as_seconds();
        let tw = harvesting_time(budget, &window).as_seconds();
        assert!(tw < to && to < td);
        let ratio = to / tw;
        assert!((1.3..2.2).contains(&ratio), "500/1000 ratio {ratio:.2}");
        // Office time for the paper's budget lands in tens of seconds.
        assert!((15.0..60.0).contains(&to), "office time {to:.0} s");
    }

    #[test]
    fn kws_budget_takes_longer_than_gesture() {
        let office = HarvestScenario::paper_conditions()[1];
        let t_gesture = harvesting_time(Energy::from_micro_joules(6660.0), &office);
        let t_kws = harvesting_time(Energy::from_micro_joules(12_746.0), &office);
        assert!(t_kws > t_gesture);
        let ratio = t_kws / t_gesture;
        assert!((1.7..2.1).contains(&ratio));
    }

    #[test]
    fn office_day_serves_all_hourly_interactions() {
        // A few-mJ budget against hours of 400–800 lux light: every hourly
        // interaction must be served.
        let report = simulate_day(&DaySimConfig::office_day(Energy::from_milli_joules(3.0)));
        assert_eq!(report.attempted, 10);
        assert_eq!(report.completed, 10);
        assert_eq!(report.rejected, 0);
        assert!(
            report.harvested.as_joules() > 1.0,
            "daylight hours harvest joules"
        );
    }

    #[test]
    fn harvest_accounting_flows_through_the_ledger() {
        let report = simulate_day(&DaySimConfig::office_day(Energy::from_milli_joules(3.0)));
        assert!(
            report.residual.as_joules() <= 1e-9,
            "fixed-dt residual {} J",
            report.residual.as_joules()
        );
        assert_eq!(report.steps, 24 * 3600);
    }

    #[test]
    fn adaptive_day_matches_fixed_day_with_far_fewer_steps() {
        let config = DaySimConfig::office_day(Energy::from_milli_joules(3.0));
        let fixed = simulate_day(&config);
        let adaptive = simulate_day_with(
            &config,
            DtPolicy::adaptive(Seconds::from_millis(1.0), Seconds::new(3600.0)),
        );
        assert_eq!(adaptive.attempted, fixed.attempted);
        assert_eq!(adaptive.completed, fixed.completed);
        assert_eq!(adaptive.rejected, fixed.rejected);
        assert!(
            adaptive.residual.as_joules() <= 1e-9,
            "adaptive residual {} J",
            adaptive.residual.as_joules()
        );
        let dv = (adaptive.final_voltage.as_volts() - fixed.final_voltage.as_volts()).abs();
        assert!(dv < 0.01, "final voltage drifted {dv} V");
        assert!(
            adaptive.steps * 5 <= fixed.steps,
            "adaptive took {} of {} steps",
            adaptive.steps,
            fixed.steps
        );
    }

    #[test]
    fn oversized_budget_gets_rejections() {
        // A 3 J per-inference budget cannot be refilled between hourly
        // attempts (~200 µW × 3600 s ≈ 0.8 J).
        let mut config = DaySimConfig::office_day(Energy::new(3.0));
        config.initial_voltage = Volts::new(2.25);
        let report = simulate_day(&config);
        assert!(report.rejected > 0, "report: {report:?}");
        assert!(report.completed < report.attempted);
    }

    #[test]
    fn night_interactions_are_rejected_on_empty_cap() {
        let mut config = DaySimConfig::office_day(Energy::from_milli_joules(500.0));
        config.initial_voltage = Volts::new(2.2); // barely at threshold
        config.interactions = vec![Seconds::new(2.0 * 3600.0)]; // 02:00, dark
        let report = simulate_day(&config);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn day_profile_interpolates_and_wraps() {
        let p = DayProfile::office();
        assert!(p.lux_at(Seconds::new(3.0 * 3600.0)).as_lux() < 10.0);
        assert!(p.lux_at(Seconds::new(13.0 * 3600.0)).as_lux() > 500.0);
        // Wraps past midnight.
        let wrapped = p.lux_at(Seconds::new(27.0 * 3600.0));
        assert!((wrapped.as_lux() - p.lux_at(Seconds::new(3.0 * 3600.0)).as_lux()).abs() < 1e-9);
        // Interpolation between 09:00 (400) and 10:00 (600).
        let mid = p.lux_at(Seconds::new(9.5 * 3600.0));
        assert!((mid.as_lux() - 500.0).abs() < 1.0);
    }

    #[test]
    fn day_profile_hour_boundaries_hit_table_values_exactly() {
        // At the top of each hour the interpolation weight is exactly 0/1,
        // so lux_at must return the table entry with no blending — including
        // hour 0, the 23→0 wrap boundary, and the exact end of day (86400 s
        // ≡ 0 s after rem_euclid).
        let p = DayProfile::office();
        for h in 0..24 {
            let at_boundary = p.lux_at(Seconds::new(h as f64 * 3600.0)).as_lux();
            assert!(
                (at_boundary - p.lux_by_hour[h]).abs() < 1e-12,
                "hour {h}: {at_boundary} != {}",
                p.lux_by_hour[h]
            );
        }
        let end_of_day = p.lux_at(Seconds::new(24.0 * 3600.0)).as_lux();
        assert!((end_of_day - p.lux_by_hour[0]).abs() < 1e-12);
        // One ulp-scale step before a boundary interpolates toward the
        // earlier hour, never reads the next table entry.
        let just_before_9 = p.lux_at(Seconds::new(9.0 * 3600.0 - 1e-6)).as_lux();
        assert!((just_before_9 - 400.0).abs() < 1e-3, "{just_before_9}");
        // The 23→0 wrap segment interpolates between lux_by_hour[23] and
        // lux_by_hour[0] (both 1.0 in the office profile).
        let wrap_mid = p.lux_at(Seconds::new(23.5 * 3600.0)).as_lux();
        let expected = 0.5 * (p.lux_by_hour[23] + p.lux_by_hour[0]);
        assert!((wrap_mid - expected).abs() < 1e-12);
        // Negative offsets wrap backwards: -1 h ≡ 23 h.
        let neg = p.lux_at(Seconds::new(-3600.0)).as_lux();
        assert!((neg - p.lux_by_hour[23]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no net power")]
    fn darkness_cannot_harvest() {
        let dark = HarvestScenario {
            lux: Lux::ZERO,
            v_cap: Volts::new(3.0),
        };
        let _ = harvesting_time(Energy::from_micro_joules(1.0), &dark);
    }
}
