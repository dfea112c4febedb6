//! Fault injection for the solar front-end and the brownout comparator.
//!
//! Real deployments of the paper's platform do not get the clean office day
//! of [`crate::sim`]: clouds pass, a desk lamp is switched off, connectors
//! oxidise, and the supercap ages. A [`FaultPlan`] is a *seeded, fully
//! deterministic* schedule of such faults that a day-scale simulation
//! overlays on its lighting profile:
//!
//! * [`CloudTransient`] — a trapezoidal illuminance dip (partial or total
//!   lux dropout) with configurable ramps;
//! * [`OutageWindow`] — the harvester is electrically disconnected (loose
//!   wire, harvester IC latch-up): zero charging current while loads keep
//!   draining the supercap;
//! * [`SupercapDegradation`] — an aged supercap: reduced effective
//!   capacitance and scaled ESR, applied when the physical cap is built.
//!
//! The [`BrownoutComparator`] is the supervisor circuit watching the
//! supercap terminal voltage. It is a three-state machine with hysteresis
//! that emits at most one [`PowerEvent`] per observation, which gives two
//! properties the platform layer relies on (and the property tests pin):
//! a [`PowerEvent::BrownoutWarn`] always strictly precedes a
//! [`PowerEvent::Brownout`], and voltage chatter smaller than the
//! hysteresis band cannot re-emit events.

use solarml_trace::seed::{splitmix64, uniform};
use solarml_units::{Farads, Ratio, Seconds, Volts};

use crate::components::Supercap;

/// Domain-separation tag for the fault-plan generator's private stream:
/// XORed into the caller's seed so the same `u64` fed to other seeded
/// generators never replays the same draw sequence here. Registered with
/// the seed-discipline lint.
pub const FAULT_STREAM_TAG: u64 = 0xC10D_DA7A_5EED_F00D;

/// A passing cloud (or hand, or switched-off lamp): illuminance is
/// attenuated by up to `depth` over a trapezoidal envelope — linear ramp
/// in, flat hold, linear ramp out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudTransient {
    /// Start of the ramp-in.
    pub at: Seconds,
    /// Total duration including both ramps.
    pub duration: Seconds,
    /// Peak attenuation: `1.0` blacks the light out completely.
    pub depth: Ratio,
    /// Ramp time on each edge (clipped to half the duration).
    pub ramp: Seconds,
}

impl CloudTransient {
    /// Attenuation envelope at time `t`: 0 outside the window, `depth`
    /// on the flat top, linear on the ramps.
    pub fn attenuation(&self, t: Seconds) -> Ratio {
        let rel = t.as_seconds() - self.at.as_seconds();
        let dur = self.duration.as_seconds().max(0.0);
        if rel <= 0.0 || rel >= dur {
            return Ratio::ZERO;
        }
        let ramp = self.ramp.as_seconds().max(0.0).min(dur * 0.5);
        let envelope = if ramp <= 0.0 {
            1.0
        } else if rel < ramp {
            rel / ramp
        } else if rel > dur - ramp {
            (dur - rel) / ramp
        } else {
            1.0
        };
        Ratio::new(self.depth.get().clamp(0.0, 1.0) * envelope)
    }
}

/// A harvester disconnect window: no charging current reaches the supercap
/// while the platform's loads keep discharging it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Start of the disconnect.
    pub at: Seconds,
    /// How long the harvester stays disconnected.
    pub duration: Seconds,
}

impl OutageWindow {
    /// Whether `t` falls inside the disconnect window.
    pub fn covers(&self, t: Seconds) -> bool {
        let rel = t.as_seconds() - self.at.as_seconds();
        rel >= 0.0 && rel < self.duration.as_seconds().max(0.0)
    }
}

/// An aged supercapacitor: real cells lose capacitance and gain ESR over
/// charge cycles. The *runtime does not know this* — its energy gate keeps
/// planning with the nominal capacitance, which is exactly how a degraded
/// cell produces mid-task brownouts the plan said could not happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupercapDegradation {
    /// Remaining fraction of nominal capacitance (1.0 = fresh cell).
    pub capacity_factor: Ratio,
    /// Multiplier on the fresh cell's ESR (1.0 = fresh cell).
    pub esr_scale: Ratio,
}

impl SupercapDegradation {
    /// A fresh, unfaulted cell.
    pub fn fresh() -> Self {
        Self {
            capacity_factor: Ratio::ONE,
            esr_scale: Ratio::ONE,
        }
    }

    /// Builds the physical supercap: nominal `capacitance` derated by
    /// `capacity_factor`, ESR scaled by `esr_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_factor` is not in `(0, 1]` or `esr_scale < 1`.
    pub fn build(&self, capacitance: Farads, initial: Volts) -> Supercap {
        let cf = self.capacity_factor.get();
        assert!(
            cf > 0.0 && cf <= 1.0,
            "capacity_factor must be in (0, 1], got {cf}"
        );
        let es = self.esr_scale.get();
        assert!(es >= 1.0, "esr_scale must be >= 1, got {es}");
        let mut cap = Supercap::new(Farads::new(capacitance.as_farads() * cf), initial);
        cap.esr = solarml_units::Ohms::new(cap.esr.as_ohms() * es);
        cap
    }
}

/// A deterministic schedule of environmental and component faults for one
/// simulated day. Construct directly, with [`FaultPlan::none`], or with the
/// seeded generator [`FaultPlan::seeded_cloudy_day`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Illuminance dips, applied multiplicatively when overlapping.
    pub clouds: Vec<CloudTransient>,
    /// Harvester disconnect windows.
    pub outages: Vec<OutageWindow>,
    /// Supercap ageing, applied when the physical cell is built.
    pub degradation: SupercapDegradation,
}

impl FaultPlan {
    /// The empty plan: no faults, fresh supercap.
    pub fn none() -> Self {
        Self {
            clouds: Vec::new(),
            outages: Vec::new(),
            degradation: SupercapDegradation::fresh(),
        }
    }

    /// A seeded cloudy office day: heavy intermittent cloud cover through
    /// the lit hours (08:00–18:00), a couple of harvester disconnects, and
    /// an aged supercap. Identical seeds yield identical plans, bit for
    /// bit — the generator consumes a private SplitMix64 stream in a fixed
    /// order and never touches a wall clock.
    pub fn seeded_cloudy_day(seed: u64) -> Self {
        let mut state = seed ^ FAULT_STREAM_TAG;
        let day_start = 8.0 * 3600.0;
        let day_end = 18.0 * 3600.0;
        let n_clouds = 10 + (splitmix64(&mut state) % 7) as usize;
        let clouds = (0..n_clouds)
            .map(|_| {
                let at = uniform(&mut state, day_start, day_end - 900.0);
                let duration = uniform(&mut state, 180.0, 1500.0);
                let depth = uniform(&mut state, 0.55, 0.97);
                let ramp = uniform(&mut state, 20.0, 120.0);
                CloudTransient {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                    depth: Ratio::new(depth),
                    ramp: Seconds::new(ramp),
                }
            })
            .collect();
        let n_outages = 1 + (splitmix64(&mut state) % 2) as usize;
        let outages = (0..n_outages)
            .map(|_| {
                let at = uniform(&mut state, day_start, day_end - 600.0);
                let duration = uniform(&mut state, 120.0, 600.0);
                OutageWindow {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                }
            })
            .collect();
        let degradation = SupercapDegradation {
            capacity_factor: Ratio::new(uniform(&mut state, 0.40, 0.55)),
            esr_scale: Ratio::new(uniform(&mut state, 1.8, 2.8)),
        };
        Self {
            clouds,
            outages,
            degradation,
        }
    }

    /// Multiplicative illuminance factor at `t`: 1.0 with clear sky, down
    /// to 0.0 under total cover. Overlapping clouds compound.
    pub fn lux_factor(&self, t: Seconds) -> Ratio {
        let mut factor = 1.0;
        for cloud in &self.clouds {
            factor *= 1.0 - cloud.attenuation(t).get();
        }
        Ratio::new(factor.clamp(0.0, 1.0))
    }

    /// Whether the harvester is electrically connected at `t`.
    pub fn harvester_connected(&self, t: Seconds) -> bool {
        !self.outages.iter().any(|o| o.covers(t))
    }

    /// Builds the physical (possibly degraded) supercap for this plan.
    pub fn build_supercap(&self, nominal: Farads, initial: Volts) -> Supercap {
        self.degradation.build(nominal, initial)
    }
}

/// Voltage thresholds of the brownout supervisor.
///
/// The comparator warns at `warn`, declares brownout at `brownout`, and
/// only reports recovery once the voltage climbs back above
/// `warn + hysteresis` — the band that keeps ripple from re-emitting
/// events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutThresholds {
    /// Early-warning threshold (checkpoint-now level).
    pub warn: Volts,
    /// Hard brownout threshold (the supervisor cuts the MCU rail).
    pub brownout: Volts,
    /// Recovery margin above `warn` required to rearm.
    pub hysteresis: Volts,
}

impl Default for BrownoutThresholds {
    /// Matched to the default 2.2 V inference threshold of
    /// [`crate::SimConfig`]: warn at 2.30 V, brown out at 2.15 V, rearm
    /// 50 mV above the warn level.
    fn default() -> Self {
        Self {
            warn: Volts::new(2.30),
            brownout: Volts::new(2.15),
            hysteresis: Volts::new(0.05),
        }
    }
}

impl BrownoutThresholds {
    /// The voltage at which a warned or browned-out comparator rearms.
    pub fn recovery(&self) -> Volts {
        Volts::new(self.warn.as_volts() + self.hysteresis.as_volts())
    }
}

/// An event emitted by the [`BrownoutComparator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerEvent {
    /// Voltage crossed below the warn threshold: save state now.
    BrownoutWarn,
    /// Voltage crossed below the brownout threshold: the MCU rail is cut.
    Brownout,
    /// Voltage recovered above `warn + hysteresis`: safe to restart.
    Recovered,
}

/// Internal (and observable) state of the comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComparatorState {
    /// Voltage healthy; armed for a warning.
    Nominal,
    /// Warned; armed for a brownout or a recovery.
    Warned,
    /// Browned out; armed for a recovery only.
    Browned,
}

/// The brownout supervisor: a three-state comparator with hysteresis.
///
/// Each [`BrownoutComparator::observe`] emits **at most one** event. A
/// sample below both thresholds from the nominal state still emits only
/// [`PowerEvent::BrownoutWarn`]; the brownout fires on the *next*
/// observation — so a warning always strictly precedes a brownout, giving
/// the runtime one observation interval to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutComparator {
    thresholds: BrownoutThresholds,
    state: ComparatorState,
}

impl BrownoutComparator {
    /// Creates an armed comparator in the nominal state.
    ///
    /// # Panics
    ///
    /// Panics unless `warn > brownout` and `hysteresis >= 0`.
    pub fn new(thresholds: BrownoutThresholds) -> Self {
        assert!(
            thresholds.warn > thresholds.brownout,
            "warn threshold must sit above the brownout threshold"
        );
        assert!(
            thresholds.hysteresis >= Volts::ZERO,
            "hysteresis must be non-negative"
        );
        Self {
            thresholds,
            state: ComparatorState::Nominal,
        }
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> &BrownoutThresholds {
        &self.thresholds
    }

    /// The current comparator state.
    pub fn state(&self) -> ComparatorState {
        self.state
    }

    /// Whether the supervisor currently holds the MCU rail cut.
    pub fn is_browned_out(&self) -> bool {
        self.state == ComparatorState::Browned
    }

    /// Feeds one terminal-voltage sample; returns the event this sample
    /// triggers, if any.
    pub fn observe(&mut self, v: Volts) -> Option<PowerEvent> {
        match self.state {
            ComparatorState::Nominal => {
                if v <= self.thresholds.warn {
                    self.state = ComparatorState::Warned;
                    return Some(PowerEvent::BrownoutWarn);
                }
            }
            ComparatorState::Warned => {
                if v <= self.thresholds.brownout {
                    self.state = ComparatorState::Browned;
                    return Some(PowerEvent::Brownout);
                }
                if v >= self.thresholds.recovery() {
                    self.state = ComparatorState::Nominal;
                    return Some(PowerEvent::Recovered);
                }
            }
            ComparatorState::Browned => {
                if v >= self.thresholds.recovery() {
                    self.state = ComparatorState::Nominal;
                    return Some(PowerEvent::Recovered);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn comparator() -> BrownoutComparator {
        BrownoutComparator::new(BrownoutThresholds::default())
    }

    #[test]
    fn falling_voltage_warns_then_browns_out() {
        let mut c = comparator();
        assert_eq!(c.observe(Volts::new(2.5)), None);
        assert_eq!(c.observe(Volts::new(2.28)), Some(PowerEvent::BrownoutWarn));
        assert_eq!(c.observe(Volts::new(2.20)), None, "above brownout level");
        assert_eq!(c.observe(Volts::new(2.10)), Some(PowerEvent::Brownout));
        assert!(c.is_browned_out());
        assert_eq!(c.observe(Volts::new(2.32)), None, "inside hysteresis band");
        assert_eq!(c.observe(Volts::new(2.36)), Some(PowerEvent::Recovered));
        assert_eq!(c.state(), ComparatorState::Nominal);
    }

    #[test]
    fn cliff_drop_still_warns_before_browning_out() {
        // A single sample below both thresholds must not skip the warning.
        let mut c = comparator();
        assert_eq!(c.observe(Volts::new(1.0)), Some(PowerEvent::BrownoutWarn));
        assert_eq!(c.observe(Volts::new(1.0)), Some(PowerEvent::Brownout));
    }

    #[test]
    fn warned_state_can_recover_without_brownout() {
        let mut c = comparator();
        assert_eq!(c.observe(Volts::new(2.29)), Some(PowerEvent::BrownoutWarn));
        assert_eq!(c.observe(Volts::new(2.33)), None, "below recovery level");
        assert_eq!(c.observe(Volts::new(2.40)), Some(PowerEvent::Recovered));
    }

    #[test]
    #[should_panic(expected = "warn threshold must sit above")]
    fn inverted_thresholds_are_rejected() {
        let _ = BrownoutComparator::new(BrownoutThresholds {
            warn: Volts::new(2.0),
            brownout: Volts::new(2.2),
            hysteresis: Volts::new(0.05),
        });
    }

    #[test]
    fn cloud_envelope_is_trapezoidal() {
        let cloud = CloudTransient {
            at: Seconds::new(100.0),
            duration: Seconds::new(100.0),
            depth: Ratio::new(0.8),
            ramp: Seconds::new(20.0),
        };
        assert_eq!(cloud.attenuation(Seconds::new(50.0)), Ratio::ZERO);
        assert_eq!(cloud.attenuation(Seconds::new(250.0)), Ratio::ZERO);
        let half_ramp = cloud.attenuation(Seconds::new(110.0)).get();
        assert!((half_ramp - 0.4).abs() < 1e-12, "half-ramp {half_ramp}");
        let top = cloud.attenuation(Seconds::new(150.0)).get();
        assert!((top - 0.8).abs() < 1e-12, "flat top {top}");
    }

    #[test]
    fn overlapping_clouds_compound_multiplicatively() {
        let mk = |depth| CloudTransient {
            at: Seconds::ZERO,
            duration: Seconds::new(100.0),
            depth: Ratio::new(depth),
            ramp: Seconds::ZERO,
        };
        let plan = FaultPlan {
            clouds: vec![mk(0.5), mk(0.5)],
            outages: Vec::new(),
            degradation: SupercapDegradation::fresh(),
        };
        let f = plan.lux_factor(Seconds::new(50.0)).get();
        assert!((f - 0.25).abs() < 1e-12, "0.5 * 0.5 cover leaves {f}");
        assert!((plan.lux_factor(Seconds::new(200.0)).get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outage_windows_disconnect_harvester() {
        let plan = FaultPlan {
            clouds: Vec::new(),
            outages: vec![OutageWindow {
                at: Seconds::new(10.0),
                duration: Seconds::new(5.0),
            }],
            degradation: SupercapDegradation::fresh(),
        };
        assert!(plan.harvester_connected(Seconds::new(9.9)));
        assert!(!plan.harvester_connected(Seconds::new(12.0)));
        assert!(plan.harvester_connected(Seconds::new(15.0)));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded_cloudy_day(42);
        let b = FaultPlan::seeded_cloudy_day(42);
        assert_eq!(a, b, "same seed must give an identical plan");
        let c = FaultPlan::seeded_cloudy_day(43);
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.clouds.len() >= 10);
        assert!(!a.outages.is_empty());
        let cf = a.degradation.capacity_factor.get();
        assert!((0.40..0.55).contains(&cf));
    }

    #[test]
    fn degraded_supercap_has_less_capacitance_and_more_esr() {
        let plan = FaultPlan::seeded_cloudy_day(7);
        let fresh = Supercap::new(Farads::new(1.0), Volts::new(3.0));
        let aged = plan.build_supercap(Farads::new(1.0), Volts::new(3.0));
        assert!(aged.capacitance().as_farads() < fresh.capacitance().as_farads());
        assert!(aged.esr.as_ohms() > fresh.esr.as_ohms());
        assert!(aged.stored_energy() < fresh.stored_energy());
    }

    #[test]
    #[should_panic(expected = "capacity_factor must be in (0, 1]")]
    fn zero_capacity_factor_is_rejected() {
        let deg = SupercapDegradation {
            capacity_factor: Ratio::ZERO,
            esr_scale: Ratio::ONE,
        };
        let _ = deg.build(Farads::new(1.0), Volts::new(3.0));
    }

    proptest! {
        /// For any monotonically falling voltage staircase crossing both
        /// thresholds, the warn event fires strictly before the brownout,
        /// and each fires exactly once.
        #[test]
        fn warn_strictly_precedes_brownout_on_monotone_fall(
            start in 2.40f64..3.0,
            steps in 2usize..200,
        ) {
            let mut c = comparator();
            let stop = 2.0f64;
            let mut events = Vec::new();
            for k in 0..=steps {
                let v = start + (stop - start) * (k as f64 / steps as f64);
                if let Some(e) = c.observe(Volts::new(v)) {
                    events.push(e);
                }
            }
            // Drive well below the floor so the brownout always lands.
            if let Some(e) = c.observe(Volts::new(1.9)) {
                events.push(e);
            }
            if let Some(e) = c.observe(Volts::new(1.9)) {
                events.push(e);
            }
            let warn_at = events.iter().position(|e| *e == PowerEvent::BrownoutWarn);
            let brown_at = events.iter().position(|e| *e == PowerEvent::Brownout);
            prop_assert_eq!(events.iter().filter(|e| **e == PowerEvent::BrownoutWarn).count(), 1);
            prop_assert_eq!(events.iter().filter(|e| **e == PowerEvent::Brownout).count(), 1);
            prop_assert!(events.iter().all(|e| *e != PowerEvent::Recovered));
            match (warn_at, brown_at) {
                (Some(w), Some(b)) => prop_assert!(w < b, "warn at {}, brownout at {}", w, b),
                _ => prop_assert!(false, "both events must fire"),
            }
        }

        /// Oscillation with amplitude smaller than the hysteresis band,
        /// centred on the warn threshold, emits at most one warn event and
        /// never a recovery — no chatter.
        #[test]
        fn hysteresis_prevents_event_chatter(
            amplitude in 0.001f64..0.049,
            cycles in 1usize..100,
        ) {
            let mut c = comparator();
            let centre = BrownoutThresholds::default().warn.as_volts();
            let mut events = Vec::new();
            for k in 0..cycles * 2 {
                let v = if k % 2 == 0 { centre - amplitude } else { centre + amplitude };
                if let Some(e) = c.observe(Volts::new(v)) {
                    events.push(e);
                }
            }
            prop_assert!(events.len() <= 1, "chatter: {:?}", events);
            prop_assert!(events.iter().all(|e| *e == PowerEvent::BrownoutWarn));
        }

        /// The lux factor stays inside [0, 1] for any seeded plan and time.
        #[test]
        fn lux_factor_bounded(seed in 0u64..1000, t in 0.0f64..86_400.0) {
            let plan = FaultPlan::seeded_cloudy_day(seed);
            let f = plan.lux_factor(Seconds::new(t)).get();
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
