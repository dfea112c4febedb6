//! Analog replay of gestures through the circuit's sensing path.
//!
//! The synthetic gesture corpus (`solarml-datasets`) models each channel as
//! a normalized illumination value. This module closes the loop with the
//! *electrical* model: the same hand-shadow field drives the Fig. 4 sensing
//! network inside [`CircuitSim`], and the channels are what the MCU's ADC
//! would actually read — solar-cell voltages through the divider taps, with
//! the harvesting branch switched off during the gesture. The integration
//! tests check the two pipelines agree structurally.
//!
//! The replay runs on the co-simulation [`Scheduler`]: a [`ShadingDriver`]
//! stimulus component writes each sample's hand-shadow field onto the
//! [`SimBus`], and the [`CircuitSim`] consumes it as an ordinary clocked
//! component.

use solarml_circuit::env::LightEnvironment;
use solarml_circuit::harvest::{CellRole, HarvestMode};
use solarml_circuit::CircuitSim;
use solarml_datasets::gesture::canonical_shading;
use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, StepControl, StepOutcome};
use solarml_units::{Lux, Power, Ratio, Seconds, Volts};

/// Configuration of an analog gesture replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GestureReplay {
    /// The digit (0–9) to trace.
    pub digit: usize,
    /// Gesture duration.
    pub duration: Seconds,
    /// Ambient light level.
    pub ambient: Lux,
    /// ADC sampling rate for the taps.
    pub rate_hz: f64,
    /// Hand-shadow radius (fraction of the array width).
    pub hand_radius: f64,
}

impl GestureReplay {
    /// A standard 2-second replay at 500 lux, 200 Hz.
    pub fn standard(digit: usize) -> Self {
        Self {
            digit,
            duration: Seconds::new(2.0),
            ambient: Lux::new(500.0),
            rate_hz: 200.0,
            hand_radius: 0.28,
        }
    }
}

/// Output of a replay: the sensed tap voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutput {
    /// Tap voltages, `[channel][sample]`, in volts.
    pub channels: Vec<Vec<f32>>,
    /// Sampling rate.
    pub rate_hz: f64,
    /// Average power burnt in the sensing dividers during the replay.
    pub sensing_power: Power,
}

/// The gesture stimulus as a [`Clocked`] component: each step it renders
/// the hand-shadow field for the next ADC sample onto the bus's shading
/// lanes (and asserts the idle MCU rail signals), for the downstream
/// [`CircuitSim`] component to consume.
struct ShadingDriver {
    digit: usize,
    hand_radius: f64,
    n_samples: usize,
    /// 5×5 grid positions of the nine sensing cells, index-aligned with
    /// the 3×3 shading field.
    grid: Vec<usize>,
    sample: usize,
}

impl Clocked for ShadingDriver {
    fn step(&mut self, _t: Seconds, _dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        let t01 = if self.n_samples > 1 {
            self.sample as f64 / (self.n_samples - 1) as f64
        } else {
            0.0
        };
        let field = canonical_shading(self.digit, t01, self.hand_radius);
        bus.mcu_load = Power::ZERO;
        bus.hold_voltage = Volts::new(3.3);
        bus.shading.clear();
        bus.shading.resize(25, Ratio::ZERO);
        for (i, &cell) in self.grid.iter().enumerate() {
            bus.shading[cell] = Ratio::new(field[i]);
        }
        self.sample += 1;
        StepOutcome::quiescent()
    }
}

/// Replays a digit through the circuit's sensing path.
///
/// # Panics
///
/// Panics if `digit > 9` or the configuration is degenerate (zero rate or
/// duration).
pub fn replay_gesture(config: &GestureReplay) -> ReplayOutput {
    assert!(config.digit <= 9, "digit must be 0..=9");
    assert!(config.rate_hz > 0.0, "rate must be positive");
    assert!(
        config.duration.as_seconds() > 0.0,
        "duration must be positive"
    );

    let dt = Seconds::new(1.0 / config.rate_hz);
    let mut sim = CircuitSim::new(LightEnvironment::constant(config.ambient));
    sim.set_mode(HarvestMode::Sensing);

    // Map 3×3 sensing-field indices onto the 5×5 grid positions of the
    // sensing cells.
    let sensing_grid = sim.array().layout.indices(CellRole::Sensing);
    let n_samples = (config.duration.as_seconds() * config.rate_hz).round() as usize;
    let mut channels = vec![Vec::with_capacity(n_samples); sensing_grid.len()];

    let mut driver = ShadingDriver {
        digit: config.digit,
        hand_radius: config.hand_radius,
        n_samples,
        grid: sensing_grid.clone(),
        sample: 0,
    };
    let mut sched = Scheduler::new(DtPolicy::fixed());
    let mut bus = SimBus::new();
    sched.run_steps(
        n_samples,
        dt,
        &mut [&mut driver as &mut dyn Clocked, &mut sim],
        &mut bus,
        |_, _, bus| {
            for (c, tap) in bus.sensing_taps.iter().enumerate() {
                channels[c].push(tap.as_volts() as f32);
            }
            StepControl::Continue
        },
    );

    // Average divider power over the replay (recomputed analytically — the
    // circuit folds it into the bus's load_power).
    let field = canonical_shading(config.digit, 0.5, config.hand_radius);
    let grid = sensing_grid.clone();
    let sensing_power = sim.array().sensing_power(config.ambient, move |cell| {
        Ratio::new(
            grid.iter()
                .position(|&g| g == cell)
                .map(|i| field[i])
                .unwrap_or(0.0),
        )
    });

    ReplayOutput {
        channels,
        rate_hz: config.rate_hz,
        sensing_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_produces_nine_channels_at_rate() {
        let out = replay_gesture(&GestureReplay::standard(3));
        assert_eq!(out.channels.len(), 9);
        assert_eq!(out.channels[0].len(), 400);
        assert!((out.rate_hz - 200.0).abs() < 1e-9);
    }

    #[test]
    fn shadow_dips_the_tap_voltages() {
        let out = replay_gesture(&GestureReplay::standard(1));
        // Digit 1 traces the centre column: the middle channel must dip well
        // below its lit level at some point.
        let mid = &out.channels[4];
        let max = mid.iter().copied().fold(f32::MIN, f32::max);
        let min = mid.iter().copied().fold(f32::MAX, f32::min);
        assert!(max > 0.3, "lit tap voltage should be sizeable, max={max}");
        assert!(
            min < 0.5 * max,
            "shadow must dip the tap: min={min}, max={max}"
        );
    }

    #[test]
    fn different_digits_produce_different_profiles() {
        let a = replay_gesture(&GestureReplay::standard(1));
        let b = replay_gesture(&GestureReplay::standard(7));
        let profile = |o: &ReplayOutput| -> Vec<f32> {
            o.channels
                .iter()
                .map(|ch| ch.iter().sum::<f32>() / ch.len() as f32)
                .collect()
        };
        let pa = profile(&a);
        let pb = profile(&b);
        let dist: f32 = pa.iter().zip(&pb).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(dist > 1e-3, "digit profiles must differ, dist={dist}");
    }

    #[test]
    fn dimmer_light_lowers_all_taps() {
        let bright = replay_gesture(&GestureReplay {
            ambient: Lux::new(1000.0),
            ..GestureReplay::standard(0)
        });
        let dim = replay_gesture(&GestureReplay {
            ambient: Lux::new(100.0),
            ..GestureReplay::standard(0)
        });
        let mean = |o: &ReplayOutput| -> f32 {
            o.channels.iter().flatten().sum::<f32>()
                / o.channels.iter().map(|c| c.len()).sum::<usize>() as f32
        };
        assert!(mean(&dim) < mean(&bright));
    }

    #[test]
    fn sensing_power_is_microwatts() {
        let out = replay_gesture(&GestureReplay::standard(5));
        let uw = out.sensing_power.as_micro_watts();
        assert!((1.0..100.0).contains(&uw), "divider power {uw:.1} µW");
    }

    #[test]
    #[should_panic(expected = "digit must be 0..=9")]
    fn bad_digit_rejected() {
        let _ = replay_gesture(&GestureReplay::standard(10));
    }
}
