//! Lifecycle simulations producing labelled power traces.
//!
//! Two runs matter to the paper:
//!
//! * **Duty-cycled** (Fig. 2) — a conventional system sleeps, wakes on a
//!   timer/sensor, samples, infers, sleeps again. Decomposing its trace
//!   yields the `E_E`/`E_S`/`E_M` fractions that motivate SolarML (`E_M`
//!   is only 15–18 % of the total at one-minute sleep periods).
//! * **Event-driven** (Fig. 6) — the SolarML platform is *off* until the
//!   detector closes `P1`; it then boots, samples until the end-of-gesture
//!   hover, infers, lingers in standby for a possible second interaction,
//!   and powers down.

use solarml_circuit::env::{HoverSchedule, LightEnvironment};
use solarml_circuit::harvest::HarvestMode;
use solarml_circuit::{CircuitSim, SimConfig};
use solarml_dsp::{AudioFrontendParams, GestureSensingParams};
use solarml_energy::device::{AudioSensingGround, GestureSensingGround, InferenceGround};
use solarml_mcu::{AdcConfig, Mcu, McuPowerModel, PdmConfig, PowerState, TransitionError};
use solarml_nn::ModelSpec;
use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, StepControl};
use solarml_trace::PowerTrace;
use solarml_units::{Energy, Frequency, Lux, Power, Ratio, Seconds};
use std::fmt;

/// Which application drives the sampling/inference phases.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskProfile {
    /// Gesture recognition with the given front-end and model.
    Gesture {
        /// Sensing parameters.
        params: GestureSensingParams,
        /// Trained model architecture.
        spec: ModelSpec,
    },
    /// KWS with the given front-end and model.
    Kws {
        /// Front-end parameters.
        params: AudioFrontendParams,
        /// Trained model architecture.
        spec: ModelSpec,
    },
}

impl TaskProfile {
    /// Tickless sampling power for this task.
    pub fn sampling_power(&self, mcu: &McuPowerModel) -> Power {
        match self {
            TaskProfile::Gesture { params, .. } => mcu.adc_power(&AdcConfig::new(
                params.channels(),
                params.rate(),
                params.quant_bits(),
            )),
            TaskProfile::Kws { .. } => mcu.pdm_power(&PdmConfig::default()),
        }
    }

    /// Sampling phase duration.
    pub fn sampling_duration(&self) -> Seconds {
        match self {
            TaskProfile::Gesture { .. } => GestureSensingGround::default().window,
            TaskProfile::Kws { .. } => {
                Seconds::from_millis(AudioSensingGround::default().clip_ms as f64)
            }
        }
    }

    /// Post-capture processing duration (preprocessing compute).
    pub fn processing_duration(&self, mcu: &McuPowerModel) -> Seconds {
        match self {
            TaskProfile::Gesture { params, .. } => {
                let g = GestureSensingGround {
                    mcu: *mcu,
                    ..GestureSensingGround::default()
                };
                g.duration(params) - g.window
            }
            TaskProfile::Kws { params, .. } => {
                let a = AudioSensingGround {
                    mcu: *mcu,
                    ..AudioSensingGround::default()
                };
                a.duration(params) - Seconds::from_millis(a.clip_ms as f64)
            }
        }
    }

    /// Inference duration on the MCU.
    pub fn inference_duration(&self, mcu: &McuPowerModel) -> Seconds {
        let ground = InferenceGround {
            mcu: *mcu,
            ..InferenceGround::default()
        };
        match self {
            TaskProfile::Gesture { spec, .. } | TaskProfile::Kws { spec, .. } => {
                ground.latency(spec)
            }
        }
    }
}

/// `E_E`/`E_S`/`E_M` decomposition of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Event-detection energy (sleep/standby + wake).
    pub event: Energy,
    /// Sensing energy (sampling + preprocessing).
    pub sensing: Energy,
    /// Model inference energy.
    pub inference: Energy,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.event + self.sensing + self.inference
    }

    /// `(E_E, E_S, E_M)` as fractions of the total.
    pub fn fractions(&self) -> (Ratio, Ratio, Ratio) {
        let t = self.total().as_joules().max(1e-18);
        (
            Ratio::new(self.event.as_joules() / t),
            Ratio::new(self.sensing.as_joules() / t),
            Ratio::new(self.inference.as_joules() / t),
        )
    }
}

/// One phase of a sensing→inference task, the granularity at which the
/// intermittency runtime (see [`crate::intermittent`]) checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// Tickless sampling of the sensor front-end.
    Sense,
    /// Preprocessing compute on the captured window.
    Process,
    /// Model inference.
    Infer,
}

impl TaskPhase {
    /// The phases in execution order.
    pub const ALL: [TaskPhase; 3] = [TaskPhase::Sense, TaskPhase::Process, TaskPhase::Infer];
}

impl fmt::Display for TaskPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TaskPhase::Sense => "sense",
            TaskPhase::Process => "process",
            TaskPhase::Infer => "infer",
        })
    }
}

/// A lifecycle run failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleError {
    /// An MCU power-state transition was illegal — the scenario drove the
    /// state machine into a corner (a configuration bug, not a physics one).
    Transition(TransitionError),
    /// The event detector never connected the MCU rail within the scenario
    /// window (e.g. a lockout condition or a hover outside the trace).
    DetectorNeverTriggered,
    /// The brownout supervisor cut the MCU rail mid-task. Carries the phase
    /// that was executing and how far into it the cut landed, so the
    /// intermittency runtime can account the lost progress precisely.
    BrownoutDuringPhase {
        /// The phase that was interrupted.
        phase: TaskPhase,
        /// Time spent inside that phase before the cut.
        elapsed: Seconds,
    },
    /// The stored energy never reached the cheapest viable configuration's
    /// budget within the retry policy — the cycle had to be abandoned.
    EnergyExhausted,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transition(e) => write!(f, "lifecycle run failed: {e}"),
            Self::DetectorNeverTriggered => {
                write!(
                    f,
                    "event detector never connected the MCU within the scenario"
                )
            }
            Self::BrownoutDuringPhase { phase, elapsed } => {
                write!(f, "brownout {elapsed} into the {phase} phase")
            }
            Self::EnergyExhausted => {
                write!(f, "stored energy exhausted before any viable configuration")
            }
        }
    }
}

impl std::error::Error for LifecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransitionError> for LifecycleError {
    fn from(e: TransitionError) -> Self {
        Self::Transition(e)
    }
}

/// Configuration of a conventional duty-cycled run (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DutyCycleConfig {
    /// Sleep period before the wake-up.
    pub sleep: Seconds,
    /// The application profile.
    pub task: TaskProfile,
    /// MCU power model.
    pub mcu: McuPowerModel,
    /// Trace sample rate (the simulated power analyzer).
    pub trace_rate: Frequency,
}

impl DutyCycleConfig {
    /// Runs the duty cycle, returning the labelled trace and breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::Transition`] if the scripted state sequence
    /// is illegal for the MCU state machine (a configuration bug).
    pub fn run(&self) -> Result<(PowerTrace, EnergyBreakdown), LifecycleError> {
        let mut mcu = Mcu::new(self.mcu);
        let mut trace = PowerTrace::with_sample_rate(self.trace_rate);
        let dt = self.trace_rate.period();
        let mut sched = Scheduler::new(DtPolicy::fixed());
        let mut bus = SimBus::new();

        mcu.power_on()?;
        // Treat the initial boot as part of event overhead, then sleep. The
        // MCU is the only clocked component: the trace records its own draw
        // (`bus.mcu_load`), not a platform rail.
        let mut seg = |sched: &mut Scheduler, bus: &mut SimBus, mcu: &mut Mcu, label, span| {
            run_segment(sched, bus, &mut [mcu], &mut trace, label, span, dt, |b| {
                b.mcu_load
            });
        };
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            "wake",
            self.mcu.cold_boot_duration,
        );
        mcu.enter(PowerState::DeepSleep)?;
        seg(&mut sched, &mut bus, &mut mcu, "sleep", self.sleep);
        // Wake for sampling.
        mcu.enter(PowerState::Tickless)?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            "wake",
            self.mcu.wake_duration,
        );
        // Now in tickless; use task sampling power.
        mcu.begin_sampling(self.task.sampling_power(&self.mcu))?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            "sampling",
            self.task.sampling_duration(),
        );
        // Preprocessing compute.
        mcu.enter(PowerState::Active)?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            "processing",
            self.task.processing_duration(&self.mcu),
        );
        // Inference.
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            "inference",
            self.task.inference_duration(&self.mcu),
        );
        mcu.enter(PowerState::DeepSleep)?;

        let event = trace.labelled_energy("sleep") + trace.labelled_energy("wake");
        let sensing = trace.labelled_energy("sampling") + trace.labelled_energy("processing");
        let inference = trace.labelled_energy("inference");
        Ok((
            trace,
            EnergyBreakdown {
                event,
                sensing,
                inference,
            },
        ))
    }
}

/// Steps one labelled trace segment on the shared scheduler clock: `span`
/// rounded to whole trace-rate steps, recording `read(bus)` after each.
///
/// This is the single span helper behind both lifecycle runs — the
/// duty-cycled MCU-only variant (components `[mcu]`, reading `mcu_load`) and
/// the event-driven platform variant (components `[mcu, circuit]`, reading
/// the rail's `load_power`) differ only in their component list and probe.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    sched: &mut Scheduler,
    bus: &mut SimBus,
    comps: &mut [&mut dyn Clocked],
    trace: &mut PowerTrace,
    label: &str,
    span: Seconds,
    dt: Seconds,
    read: impl Fn(&SimBus) -> Power,
) {
    trace.begin_segment(label);
    let steps = (span.as_seconds() / dt.as_seconds()).round().max(0.0) as usize;
    sched.run_steps(steps, dt, comps, bus, |_, _, bus| {
        trace.push(read(bus));
        StepControl::Continue
    });
}

/// Configuration of a SolarML event-driven interaction (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionConfig {
    /// Ambient light.
    pub ambient: Lux,
    /// Idle time before the user's first hover.
    pub wait_before: Seconds,
    /// Gesture duration between start and end hovers.
    pub gesture: Seconds,
    /// Standby window kept after the inference for a repeat interaction.
    pub standby_window: Seconds,
    /// Whether the user returns during the standby window (second
    /// inference, as in Fig. 6's right half).
    pub second_interaction: bool,
    /// The application profile.
    pub task: TaskProfile,
    /// MCU power model.
    pub mcu: McuPowerModel,
    /// Trace sample rate.
    pub trace_rate: Frequency,
}

impl InteractionConfig {
    /// A representative gesture interaction at 500 lux.
    pub fn standard(task: TaskProfile) -> Self {
        Self {
            ambient: Lux::new(500.0),
            wait_before: Seconds::new(5.0),
            gesture: Seconds::new(2.0),
            standby_window: Seconds::new(3.0),
            second_interaction: false,
            task,
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(1000.0),
        }
    }

    /// Runs the interaction against the circuit simulation, returning the
    /// labelled platform power trace (detector + MCU + sensing dividers)
    /// and the breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::DetectorNeverTriggered`] if the event
    /// detector never connects the MCU (e.g. lockout conditions), or
    /// [`LifecycleError::Transition`] on an illegal MCU state sequence —
    /// both indicate a misconfigured scenario.
    pub fn run(&self) -> Result<(PowerTrace, EnergyBreakdown), LifecycleError> {
        let dt = self.trace_rate.period();
        let hovers = HoverSchedule::interaction(self.wait_before, self.gesture);
        let env = LightEnvironment::with_hovers(self.ambient, hovers);
        let mut sim = CircuitSim::new(
            SimConfig {
                dt,
                ..SimConfig::default()
            },
            env,
        );
        let mut mcu = Mcu::new(self.mcu);
        let mut trace = PowerTrace::with_sample_rate(self.trace_rate);
        let mut sched = Scheduler::new(DtPolicy::fixed());
        let mut bus = SimBus::new();

        // Phase: off, waiting for the event. Only the circuit is clocked;
        // the bus's zeroed MCU outputs stand in for the unpowered MCU (it
        // draws nothing and holds V4 low).
        trace.begin_segment("off");
        let deadline = self.wait_before + Seconds::new(1.0);
        let mut connected = false;
        sched.run_free(deadline, dt, &mut [&mut sim], &mut bus, |_, _, bus| {
            trace.push(bus.load_power);
            if bus.rail_connected {
                connected = true;
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        });
        if !connected {
            return Err(LifecycleError::DetectorNeverTriggered);
        }

        // From here the MCU is clocked too: listed first so the circuit sees
        // its load/hold-pin for the same step (the legacy call order).
        // Each labelled span records the platform rail power.
        let seg = |sched: &mut Scheduler,
                   bus: &mut SimBus,
                   mcu: &mut Mcu,
                   sim: &mut CircuitSim,
                   trace: &mut PowerTrace,
                   label,
                   span| {
            run_segment(sched, bus, &mut [mcu, sim], trace, label, span, dt, |b| {
                b.load_power
            });
        };

        // Phase: boot (the MCU rail just connected; MCU asserts hold).
        mcu.power_on()?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            &mut sim,
            &mut trace,
            "wake",
            self.mcu.cold_boot_duration,
        );

        // Phase: sampling. For gestures the platform samples until the
        // *end-of-gesture hover* drops the V5 sense tap (§III-B2 function
        // iii) — the duration is emergent, not scripted — with a timeout at
        // twice the nominal window. KWS captures a fixed-length clip.
        sim.set_mode(HarvestMode::Sensing);
        mcu.begin_sampling(self.task.sampling_power(&self.mcu))?;
        match &self.task {
            TaskProfile::Gesture { .. } => {
                trace.begin_segment("sampling");
                let timeout = self.task.sampling_duration() * 2.0;
                let mut elapsed = Seconds::ZERO;
                // Arm on the end hover: V5 must first recover (start hover
                // released), then drop again.
                let mut armed = false;
                sched.run_span_free(
                    timeout,
                    dt,
                    &mut elapsed,
                    &mut [&mut mcu, &mut sim],
                    &mut bus,
                    |_, _, bus| {
                        trace.push(bus.load_power);
                        let v5 = bus.sense_v5.as_volts();
                        if !armed && v5 > 0.5 {
                            armed = true;
                        }
                        if armed && v5 < 0.2 {
                            StepControl::Stop // end-of-gesture hover detected
                        } else {
                            StepControl::Continue
                        }
                    },
                );
            }
            TaskProfile::Kws { .. } => {
                seg(
                    &mut sched,
                    &mut bus,
                    &mut mcu,
                    &mut sim,
                    &mut trace,
                    "sampling",
                    self.task.sampling_duration(),
                );
            }
        }
        sim.set_mode(HarvestMode::Harvesting);

        // Phase: preprocessing + inference.
        mcu.enter(PowerState::Active)?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            &mut sim,
            &mut trace,
            "processing",
            self.task.processing_duration(&self.mcu),
        );
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            &mut sim,
            &mut trace,
            "inference",
            self.task.inference_duration(&self.mcu),
        );

        // Phase: standby window (config retained in RAM).
        mcu.enter(PowerState::Standby)?;
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            &mut sim,
            &mut trace,
            "standby",
            self.standby_window,
        );

        if self.second_interaction {
            // Resume: warm wake, sample, infer again.
            mcu.enter(PowerState::Tickless)?;
            seg(
                &mut sched,
                &mut bus,
                &mut mcu,
                &mut sim,
                &mut trace,
                "wake",
                self.mcu.wake_duration,
            );
            mcu.begin_sampling(self.task.sampling_power(&self.mcu))?;
            sim.set_mode(HarvestMode::Sensing);
            seg(
                &mut sched,
                &mut bus,
                &mut mcu,
                &mut sim,
                &mut trace,
                "sampling",
                self.task.sampling_duration(),
            );
            sim.set_mode(HarvestMode::Harvesting);
            mcu.enter(PowerState::Active)?;
            seg(
                &mut sched,
                &mut bus,
                &mut mcu,
                &mut sim,
                &mut trace,
                "inference",
                self.task.inference_duration(&self.mcu),
            );
        }

        // Power down.
        mcu.power_off();
        seg(
            &mut sched,
            &mut bus,
            &mut mcu,
            &mut sim,
            &mut trace,
            "off",
            Seconds::new(0.5),
        );

        let event = trace.labelled_energy("off")
            + trace.labelled_energy("wake")
            + trace.labelled_energy("standby");
        let sensing = trace.labelled_energy("sampling") + trace.labelled_energy("processing");
        let inference = trace.labelled_energy("inference");
        Ok((
            trace,
            EnergyBreakdown {
                event,
                sensing,
                inference,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_dsp::Resolution;
    use solarml_nn::{LayerSpec, Padding};

    fn gesture_task() -> TaskProfile {
        // A µNAS-scale gesture model (~370 k MACs): two conv stages.
        let params = GestureSensingParams::new(9, 100, Resolution::Int, 8).expect("valid");
        let spec = ModelSpec::new(
            [200, 9, 1],
            vec![
                LayerSpec::conv(8, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::conv(8, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(10),
            ],
        )
        .expect("valid");
        TaskProfile::Gesture { params, spec }
    }

    fn kws_task() -> TaskProfile {
        let params = AudioFrontendParams::standard();
        let spec = ModelSpec::new(
            [49, 13, 1],
            vec![
                LayerSpec::conv(12, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::conv(16, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::flatten(),
                LayerSpec::dense(10),
            ],
        )
        .expect("valid");
        TaskProfile::Kws { params, spec }
    }

    #[test]
    fn fig2_duty_cycle_fractions_match_paper_shape() {
        // Paper: at 1-minute sleep, E_M is 15 %/18 %, E_E 38 %/29 %,
        // E_S 47 %/53 % for gesture/KWS.
        let (_, gesture) = DutyCycleConfig {
            sleep: Seconds::from_minutes(1.0),
            task: gesture_task(),
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(1000.0),
        }
        .run()
        .expect("duty cycle runs");
        let (fe, fs, fm) = gesture.fractions();
        let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
        assert!((0.2..0.55).contains(&fe), "gesture E_E fraction {fe:.2}");
        assert!((0.3..0.65).contains(&fs), "gesture E_S fraction {fs:.2}");
        assert!(fm < 0.3, "gesture E_M fraction {fm:.2}");

        let (_, kws) = DutyCycleConfig {
            sleep: Seconds::from_minutes(1.0),
            task: kws_task(),
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(1000.0),
        }
        .run()
        .expect("duty cycle runs");
        let (ke, ks, km) = kws.fractions();
        let (ke, ks, km) = (ke.get(), ks.get(), km.get());
        assert!((0.15..0.5).contains(&ke), "kws E_E fraction {ke:.2}");
        assert!((0.35..0.7).contains(&ks), "kws E_S fraction {ks:.2}");
        assert!(km < 0.3, "kws E_M fraction {km:.2}");
        // Sensing dominates inference in both tasks.
        assert!(fs > fm && ks > km);
    }

    #[test]
    fn duty_cycle_trace_has_all_segments() {
        let (trace, _) = DutyCycleConfig {
            sleep: Seconds::new(2.0),
            task: gesture_task(),
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(500.0),
        }
        .run()
        .expect("duty cycle runs");
        for label in ["sleep", "wake", "sampling", "processing", "inference"] {
            assert!(
                trace.segment_energy(label).is_some(),
                "missing segment {label}"
            );
        }
    }

    #[test]
    fn fig6_interaction_runs_and_breaks_down() {
        let config = InteractionConfig::standard(gesture_task());
        let (trace, breakdown) = config.run().expect("interaction runs");
        assert!(breakdown.total().as_micro_joules() > 0.0);
        // Event-driven: waiting costs only the detector's microwatts, so
        // E_E (including 5 s of off-wait + standby) stays below E_S.
        assert!(breakdown.event < breakdown.sensing);
        // Off-phase power must be microwatt-scale.
        let off = trace.summarize_segment("off").expect("off segment");
        assert!(
            off.average_power.as_micro_watts() < 50.0,
            "off power {}",
            off.average_power
        );
    }

    #[test]
    fn gesture_sampling_ends_on_the_end_hover() {
        // A short gesture (1 s between hovers) must stop sampling around the
        // end hover rather than running the nominal 2 s window.
        let config = InteractionConfig {
            gesture: Seconds::new(1.0),
            ..InteractionConfig::standard(gesture_task())
        };
        let (trace, _) = config.run().expect("interaction runs");
        let sampling = trace
            .summarize_segment("sampling")
            .expect("sampling segment exists");
        let secs = sampling.duration.as_seconds();
        assert!(
            (0.8..1.8).contains(&secs),
            "sampling should track the ~1.3 s hover-to-hover span, got {secs:.2}"
        );
    }

    #[test]
    fn second_interaction_adds_energy() {
        let once = InteractionConfig::standard(gesture_task())
            .run()
            .expect("runs")
            .1;
        let twice = InteractionConfig {
            second_interaction: true,
            ..InteractionConfig::standard(gesture_task())
        }
        .run()
        .expect("runs")
        .1;
        assert!(twice.total() > once.total());
        assert!(twice.inference > once.inference * 1.5);
    }

    #[test]
    fn solarml_event_energy_beats_duty_cycle() {
        // For the same wait (5 s), SolarML's off-state E_E is far below a
        // duty-cycled system's deep-sleep E_E.
        let (_, duty) = DutyCycleConfig {
            sleep: Seconds::new(5.0),
            task: gesture_task(),
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(1000.0),
        }
        .run()
        .expect("duty cycle runs");
        let (_, solar) = InteractionConfig::standard(gesture_task())
            .run()
            .expect("interaction runs");
        // Compare only the waiting part: duty sleeps at 45 µW for 5 s
        // (225 µJ) while SolarML's detector idles at ~2.4 µW (12 µJ); with
        // boot overheads SolarML stays well below.
        assert!(
            solar.event < duty.event,
            "solar E_E {} vs duty E_E {}",
            solar.event,
            duty.event
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let (_, b) = InteractionConfig::standard(kws_task())
            .run()
            .expect("interaction runs");
        let (e, s, m) = b.fractions();
        assert!((e.get() + s.get() + m.get() - 1.0).abs() < 1e-9);
    }
}
