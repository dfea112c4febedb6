//! The six end-to-end systems of Fig. 1 and their energy distributions.
//!
//! Systems #1–#4 model published designs (continuous-monitoring wearables
//! and deep-sleep + wake-sensor cameras) with their reported power budgets;
//! #5 and #6 are the paper's own gesture/audio tasks under µNAS-optimized
//! models with a conventional wait strategy. Fig. 1 plots each system's
//! `E_E`/`E_S`/`E_M` split for a 3-second event wait.

use solarml_mcu::McuPowerModel;
use solarml_units::{Energy, Power, Seconds};

use crate::lifecycle::{EnergyBreakdown, TaskProfile};

/// How a system waits for events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaitStrategy {
    /// The MCU keeps monitoring the sensor stream (e.g. PROS, FabToys).
    ContinuousMonitoring {
        /// Combined MCU + sensor monitoring power.
        monitor_power: Power,
    },
    /// Deep sleep with a low-power wake sensor (e.g. PIR/PS cameras).
    DeepSleepWithSensor {
        /// MCU deep-sleep power.
        sleep_power: Power,
        /// Always-on wake-sensor power.
        sensor_power: Power,
    },
    /// SolarML's passive event detector.
    EventDriven {
        /// Detector standby power.
        detector_power: Power,
    },
}

impl WaitStrategy {
    /// Event-detection energy for a wait of `wait` seconds (excluding the
    /// wake burst, which is charged separately).
    pub fn wait_energy(&self, wait: Seconds) -> Energy {
        match self {
            WaitStrategy::ContinuousMonitoring { monitor_power } => *monitor_power * wait,
            WaitStrategy::DeepSleepWithSensor {
                sleep_power,
                sensor_power,
            } => (*sleep_power + *sensor_power) * wait,
            WaitStrategy::EventDriven { detector_power } => *detector_power * wait,
        }
    }
}

/// One Fig. 1 system.
#[derive(Debug, Clone, PartialEq)]
pub struct SotaSystem {
    /// Display name (`#n label`).
    pub name: String,
    /// Wait strategy.
    pub strategy: WaitStrategy,
    /// Sensing energy per event.
    pub sensing: Energy,
    /// Inference energy per event.
    pub inference: Energy,
    /// Wake-burst energy when transitioning to active.
    pub wake: Energy,
}

impl SotaSystem {
    /// The `E_E`/`E_S`/`E_M` breakdown for a given event wait.
    pub fn breakdown(&self, wait: Seconds) -> EnergyBreakdown {
        EnergyBreakdown {
            event: self.strategy.wait_energy(wait) + self.wake,
            sensing: self.sensing,
            inference: self.inference,
        }
    }
}

/// Builds the six Fig. 1 systems. #5/#6 derive their `E_S`/`E_M` from the
/// given task profiles (µNAS-style models on our simulated MCU).
pub fn sota_systems(gesture: &TaskProfile, audio: &TaskProfile) -> Vec<SotaSystem> {
    let mcu = McuPowerModel::default();
    let wake = mcu.wake_energy();
    let profile_energies = |task: &TaskProfile| -> (Energy, Energy) {
        let sampling = task.sampling_power(&mcu) * task.sampling_duration();
        let processing = mcu.active * task.processing_duration(&mcu);
        let inference = mcu.active * task.inference_duration(&mcu);
        (sampling + processing, inference)
    };
    let (gesture_sense, gesture_infer) = profile_energies(gesture);
    let (audio_sense, audio_infer) = profile_energies(audio);

    vec![
        // #1 PROS-like biopotential wearable: MCU continuously filters ECG.
        SotaSystem {
            name: "#1 PROS (continuous ECG)".into(),
            strategy: WaitStrategy::ContinuousMonitoring {
                monitor_power: Power::from_milli_watts(1.2),
            },
            sensing: Energy::from_micro_joules(900.0),
            inference: Energy::from_micro_joules(650.0),
            wake: Energy::ZERO,
        },
        // #2 FabToys-like pressure-array toy: continuous scan of the array.
        SotaSystem {
            name: "#2 FabToys (continuous pressure)".into(),
            strategy: WaitStrategy::ContinuousMonitoring {
                monitor_power: Power::from_milli_watts(0.9),
            },
            sensing: Energy::from_micro_joules(700.0),
            inference: Energy::from_micro_joules(800.0),
            wake: Energy::ZERO,
        },
        // #3 Battery-free face recognition: deep sleep + always-on trigger.
        SotaSystem {
            name: "#3 Face recognition (sleep+trigger)".into(),
            strategy: WaitStrategy::DeepSleepWithSensor {
                sleep_power: Power::from_micro_watts(45.0),
                sensor_power: Power::from_micro_watts(110.0),
            },
            sensing: Energy::from_micro_joules(1400.0),
            inference: Energy::from_micro_joules(1500.0),
            wake: wake,
        },
        // #4 Battery-less IoT node: deep sleep + periodic RTC wake.
        SotaSystem {
            name: "#4 Batteryless node (sleep+RTC)".into(),
            strategy: WaitStrategy::DeepSleepWithSensor {
                sleep_power: Power::from_micro_watts(45.0),
                sensor_power: Power::from_micro_watts(60.0),
            },
            sensing: Energy::from_micro_joules(1100.0),
            inference: Energy::from_micro_joules(900.0),
            wake: wake,
        },
        // #5 Gesture task with a µNAS model and a duty-cycled PS wake
        // sensor (~10 % duty of its 1 mW working power).
        SotaSystem {
            name: "#5 Gesture + uNAS (sleep+PS)".into(),
            strategy: WaitStrategy::DeepSleepWithSensor {
                sleep_power: mcu.deep_sleep,
                sensor_power: Power::from_micro_watts(100.0),
            },
            sensing: gesture_sense,
            inference: gesture_infer,
            wake: wake,
        },
        // #6 Audio KWS with a µNAS model and a duty-cycled PS wake sensor.
        SotaSystem {
            name: "#6 Audio + uNAS (sleep+PS)".into(),
            strategy: WaitStrategy::DeepSleepWithSensor {
                sleep_power: mcu.deep_sleep,
                sensor_power: Power::from_micro_watts(100.0),
            },
            sensing: audio_sense,
            inference: audio_infer,
            wake: wake,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_dsp::{AudioFrontendParams, GestureSensingParams, Resolution};
    use solarml_nn::{LayerSpec, ModelSpec, Padding};

    fn tasks() -> (TaskProfile, TaskProfile) {
        let gesture = TaskProfile::Gesture {
            params: GestureSensingParams::new(9, 100, Resolution::Int, 8).expect("valid"),
            spec: ModelSpec::new(
                [200, 9, 1],
                vec![
                    LayerSpec::conv(8, 3, 2, Padding::Same),
                    LayerSpec::relu(),
                    LayerSpec::flatten(),
                    LayerSpec::dense(10),
                ],
            )
            .expect("valid"),
        };
        let audio = TaskProfile::Kws {
            params: AudioFrontendParams::standard(),
            spec: ModelSpec::new(
                [49, 13, 1],
                vec![
                    LayerSpec::conv(8, 3, 2, Padding::Same),
                    LayerSpec::relu(),
                    LayerSpec::flatten(),
                    LayerSpec::dense(10),
                ],
            )
            .expect("valid"),
        };
        (gesture, audio)
    }

    #[test]
    fn six_systems_are_produced() {
        let (g, a) = tasks();
        let systems = sota_systems(&g, &a);
        assert_eq!(systems.len(), 6);
    }

    #[test]
    fn continuous_systems_have_dominant_event_energy() {
        // Fig. 1: continuous monitoring reaches up to ~70 % E_E at 3 s wait.
        let (g, a) = tasks();
        let systems = sota_systems(&g, &a);
        let wait = Seconds::new(3.0);
        for sys in &systems[..2] {
            let (fe, _, _) = sys.breakdown(wait).fractions();
            let fe = fe.get();
            assert!(fe > 0.5, "{}: E_E fraction {fe:.2}", sys.name);
        }
    }

    #[test]
    fn deep_sleep_systems_have_moderate_event_energy() {
        // Fig. 1: deep-sleep systems spend ≈15 % on event detection.
        let (g, a) = tasks();
        let systems = sota_systems(&g, &a);
        let wait = Seconds::new(3.0);
        for sys in &systems[2..4] {
            let (fe, _, _) = sys.breakdown(wait).fractions();
            let fe = fe.get();
            assert!(
                (0.05..0.4).contains(&fe),
                "{}: E_E fraction {fe:.2}",
                sys.name
            );
        }
    }

    #[test]
    fn paper_tasks_have_majority_sensing_cost() {
        // Fig. 1 motivation: for #5/#6 the sensing cost exceeds 50 %… of
        // the sensing+inference budget, and E_M alone stays the minority.
        let (g, a) = tasks();
        let systems = sota_systems(&g, &a);
        let wait = Seconds::new(3.0);
        for sys in &systems[4..] {
            let b = sys.breakdown(wait);
            let (_, fs, fm) = b.fractions();
            let (fs, fm) = (fs.get(), fm.get());
            assert!(fs > fm, "{}: sensing must dominate inference", sys.name);
            assert!(fm < 0.35, "{}: E_M fraction {fm:.2}", sys.name);
        }
    }

    #[test]
    fn event_driven_wait_is_cheapest() {
        let strategies = [
            WaitStrategy::ContinuousMonitoring {
                monitor_power: Power::from_milli_watts(1.0),
            },
            WaitStrategy::DeepSleepWithSensor {
                sleep_power: Power::from_micro_watts(45.0),
                sensor_power: Power::from_micro_watts(100.0),
            },
            WaitStrategy::EventDriven {
                detector_power: Power::from_micro_watts(2.4),
            },
        ];
        let wait = Seconds::new(3.0);
        let energies: Vec<Energy> = strategies.iter().map(|s| s.wait_energy(wait)).collect();
        assert!(energies[2] < energies[1]);
        assert!(energies[1] < energies[0]);
    }
}
