//! The intermittency-aware runtime: resumable lifecycle runs under a
//! [`FaultPlan`], with checkpoint/restore and graceful degradation.
//!
//! [`crate::endtoend::simulate_day`] assumes every sensing→inference cycle
//! that starts also finishes — no real solar-powered node does that under
//! the paper's 200–600 lux conditions once clouds, connector faults and an
//! aged supercap enter the picture. This module replays a day against a
//! seeded [`FaultPlan`] with the full electrical stack in the loop:
//!
//! * the **physical** supercap is built by the plan (possibly degraded),
//!   while the runtime's energy gate keeps planning with the *nominal*
//!   capacitance — exactly the mismatch that produces mid-task brownouts
//!   the plan said could not happen;
//! * a [`BrownoutComparator`] watches the ESR-sagged terminal voltage and
//!   cuts the MCU (via [`Mcu::brownout`]) when it crosses the threshold;
//! * task phases ([`TaskPhase`]) checkpoint at phase boundaries under a
//!   volatile-vs-retained-RAM cost model ([`CheckpointPolicy`]);
//! * interrupted cycles retry with bounded wait-for-energy backoff instead
//!   of returning an opaque error;
//! * when the energy at wake cannot cover the full model, the runtime
//!   downshifts along a [`DegradationLadder`] (earlier exits of the
//!   `nn::multi_exit` model, or coarser sensing) and reports the
//!   accuracy/energy trade taken.
//!
//! Every joule flows through [`Supercap::step`] and is folded into the
//! [`EnergyAudit`] ledger on the co-simulation bus, so injected faults
//! cannot silently create or destroy energy: a healthy run keeps the
//! accumulated conservation residual below a nanojoule. The whole day is
//! driven by one [`Scheduler`] clock: the MCU state machine and the
//! electrical rail are [`Clocked`] components exchanging signals over a
//! [`SimBus`], and the runtime's control flow (retries, suspends,
//! checkpoint windows) observes bus events between steps. The simulation
//! is seeded and wall-clock free — identical configs yield bit-identical
//! [`DayFaultReport`]s.

use std::ops::AddAssign;

use solarml_circuit::fault::{
    BrownoutComparator, BrownoutThresholds, ComparatorState, FaultPlan, PowerEvent,
};
use solarml_circuit::harvest::{HarvestingArray, UnshadedArray};
use solarml_circuit::Supercap;
use solarml_mcu::{Mcu, McuPowerModel, PowerState};
use solarml_sim::{
    Clocked, DtPolicy, EnergyAudit, Scheduler, SimBus, SimEvent, StepControl, StepOutcome,
};
use solarml_trace::JsonObject;
use solarml_units::{Amps, Energy, Farads, Lux, Power, Ratio, Seconds, Volts};

use crate::endtoend::DaySimConfig;
use crate::lifecycle::{LifecycleError, TaskPhase, TaskProfile};

/// Durations and powers of the three task phases, the unit of work the
/// runtime schedules and checkpoints. Derive one from a [`TaskProfile`]
/// with [`PhasePlan::from_task`], or use the dependency-free
/// [`PhasePlan::representative_gesture`] in examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePlan {
    /// Tickless sampling window.
    pub sense_duration: Seconds,
    /// Total MCU power while sampling.
    pub sense_power: Power,
    /// Preprocessing compute time.
    pub process_duration: Seconds,
    /// MCU power while preprocessing (active draw).
    pub process_power: Power,
    /// Inference time of the *full* model (a [`DegradationRung`] scales it).
    pub infer_duration: Seconds,
    /// MCU power while inferring (active draw).
    pub infer_power: Power,
}

impl PhasePlan {
    /// Derives the plan from a task profile and MCU power model.
    pub fn from_task(task: &TaskProfile, mcu: &McuPowerModel) -> Self {
        Self {
            sense_duration: task.sampling_duration(),
            sense_power: task.sampling_power(mcu),
            process_duration: task.processing_duration(mcu),
            process_power: mcu.active,
            infer_duration: task.inference_duration(mcu),
            infer_power: mcu.active,
        }
    }

    /// A representative gesture task sized so day-scale fault scenarios
    /// exercise the interesting regime (tens of millijoules per cycle,
    /// inference-dominated so the degradation ladder has leverage).
    pub fn representative_gesture() -> Self {
        let mcu = McuPowerModel::default();
        Self {
            sense_duration: Seconds::new(2.0),
            sense_power: Power::from_milli_watts(1.2),
            process_duration: Seconds::new(0.3),
            process_power: mcu.active,
            infer_duration: Seconds::new(1.2),
            infer_power: mcu.active,
        }
    }

    /// Duration of `phase` at degradation rung `rung`.
    pub fn duration(&self, phase: TaskPhase, rung: &DegradationRung) -> Seconds {
        match phase {
            TaskPhase::Sense => self.sense_duration * rung.sense_scale,
            // Preprocessing work tracks the number of captured samples.
            TaskPhase::Process => self.process_duration * rung.sense_scale,
            TaskPhase::Infer => self.infer_duration * rung.infer_scale,
        }
    }

    /// MCU power during `phase` (rung-independent; degradation shortens
    /// phases rather than changing draws).
    pub fn power(&self, phase: TaskPhase) -> Power {
        match phase {
            TaskPhase::Sense => self.sense_power,
            TaskPhase::Process => self.process_power,
            TaskPhase::Infer => self.infer_power,
        }
    }

    /// Energy of `phase` at `rung`.
    pub fn energy(&self, phase: TaskPhase, rung: &DegradationRung) -> Energy {
        self.power(phase) * self.duration(phase, rung)
    }
}

/// One rung of the degradation ladder: how much of the full sensing window
/// and inference to run, and the estimated accuracy retained.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRung {
    /// Human-readable name (`"full"`, `"exit-1"`, `"coarse-sense"`, …).
    pub name: String,
    /// Fraction of the full sensing window captured.
    pub sense_scale: Ratio,
    /// Fraction of the full inference executed (an early exit's MAC share).
    pub infer_scale: Ratio,
    /// Estimated fraction of full-model accuracy retained at this rung.
    pub accuracy_proxy: Ratio,
}

impl DegradationRung {
    /// The undegraded configuration.
    pub fn full() -> Self {
        Self {
            name: "full".to_string(),
            sense_scale: Ratio::ONE,
            infer_scale: Ratio::ONE,
            accuracy_proxy: Ratio::ONE,
        }
    }
}

/// The graceful-degradation ladder, ordered best-first: rung 0 is the full
/// configuration, later rungs trade accuracy for energy. The runtime picks
/// the *first* rung whose remaining-work budget fits the energy at wake.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationLadder {
    rungs: Vec<DegradationRung>,
}

impl DegradationLadder {
    /// A ladder with only the full configuration — the "naive" runtime that
    /// would rather fail than degrade.
    pub fn full_only() -> Self {
        Self {
            rungs: vec![DegradationRung::full()],
        }
    }

    /// Builds the ladder from a multi-exit model's per-exit cumulative MAC
    /// counts (earliest exit first, as returned by
    /// `nn::multi_exit::MultiExitModel::exit_macs`). Rung 0 is the final
    /// exit (the full model); each earlier exit becomes a cheaper rung with
    /// `infer_scale = macs_i / macs_final`. The accuracy proxy is linear in
    /// the retained MAC share, calibrated to the ~30 % relative accuracy
    /// an earliest exit typically gives up: `1 − 0.3·(1 − share)`.
    ///
    /// # Panics
    ///
    /// Panics if `exit_macs` is empty or its final entry is zero.
    pub fn from_exit_macs(exit_macs: &[u64]) -> Self {
        let Some(&full) = exit_macs.last() else {
            panic!("exit_macs must not be empty");
        };
        assert!(full > 0, "final exit must have nonzero MACs");
        let mut rungs = vec![DegradationRung::full()];
        for (i, &macs) in exit_macs.iter().enumerate().rev().skip(1) {
            let share = macs as f64 / full as f64;
            rungs.push(DegradationRung {
                name: format!("exit-{i}"),
                sense_scale: Ratio::ONE,
                infer_scale: Ratio::new(share),
                accuracy_proxy: Ratio::new(1.0 - 0.3 * (1.0 - share)),
            });
        }
        Self { rungs }
    }

    /// The representative multi-exit ladder: exits at 100 k, 400 k and
    /// 1 M MACs, then a coarse-sensing rung at half the sensing window
    /// keeping 55 % of full accuracy. Fleet ladder nodes, the
    /// scheduler-parity fixtures and the cloudy-day example deploy it.
    pub fn representative() -> Self {
        Self::from_exit_macs(&[100_000, 400_000, 1_000_000])
            .with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.55))
    }

    /// Appends a coarse-sensing rung below everything else: the cheapest
    /// existing inference paired with a truncated sensing window.
    pub fn with_coarse_sensing(mut self, sense_scale: Ratio, accuracy_proxy: Ratio) -> Self {
        let cheapest = self
            .rungs
            .last()
            .map(|r| r.infer_scale)
            .unwrap_or(Ratio::ONE);
        self.rungs.push(DegradationRung {
            name: "coarse-sense".to_string(),
            sense_scale,
            infer_scale: cheapest,
            accuracy_proxy,
        });
        self
    }

    /// The rungs, best (full) first.
    pub fn rungs(&self) -> &[DegradationRung] {
        &self.rungs
    }
}

/// Where checkpoints live, which determines what survives a brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointPolicy {
    /// No checkpoints: any interruption restarts the cycle from scratch.
    None,
    /// Progress markers in ordinary SRAM: free, and completed phases
    /// survive a *voluntary* suspend on [`PowerEvent::BrownoutWarn`]
    /// (power stays up in standby) — but a full brownout wipes them.
    Volatile,
    /// Phase snapshots written to retained RAM / FRAM: each phase boundary
    /// pays a save cost and the region draws retention power, but progress
    /// survives a full power-loss brownout and resumes after cold boot +
    /// restore.
    Retained,
}

/// Energy/time cost model of the retained-checkpoint path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCostModel {
    /// Energy to serialize one phase snapshot into the retained region.
    pub save_energy: Energy,
    /// Wall time of one save (the snapshot is vulnerable until done).
    pub save_duration: Seconds,
    /// Energy to restore a snapshot after a cold boot.
    pub restore_energy: Energy,
    /// Wall time of one restore.
    pub restore_duration: Seconds,
    /// Standby draw of the retained region while a checkpoint is live.
    pub retention_power: Power,
}

impl Default for CheckpointCostModel {
    /// FRAM/backup-SRAM scale: ~120 µJ to save, ~60 µJ to restore, 1.5 µW
    /// retention.
    fn default() -> Self {
        Self {
            save_energy: Energy::from_micro_joules(120.0),
            save_duration: Seconds::from_millis(8.0),
            restore_energy: Energy::from_micro_joules(60.0),
            restore_duration: Seconds::from_millis(4.0),
            retention_power: Power::from_micro_watts(1.5),
        }
    }
}

/// Configuration of an intermittency-aware day simulation.
///
/// `base.budget_per_inference` is superseded by the phase-resolved
/// [`PhasePlan`]; the other [`DaySimConfig`] fields (profile, interaction
/// schedule, supercap sizing, thresholds, standby draw) are used as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermittentConfig {
    /// The fault-free day this run perturbs.
    pub base: DaySimConfig,
    /// The seeded fault schedule.
    pub faults: FaultPlan,
    /// Brownout supervisor thresholds.
    pub thresholds: BrownoutThresholds,
    /// Phase durations/powers of the task.
    pub plan: PhasePlan,
    /// The degradation ladder (rung 0 = full).
    pub ladder: DegradationLadder,
    /// Checkpoint placement policy.
    pub checkpoint: CheckpointPolicy,
    /// Costs of the retained-checkpoint path.
    pub checkpoint_costs: CheckpointCostModel,
    /// MCU power model.
    pub mcu: McuPowerModel,
    /// Brownout retries allowed per cycle before abandoning.
    pub max_retries: usize,
    /// Idle wait between energy-gate checks (wait-for-energy backoff), and
    /// the longest a warned task will stay suspended hoping for recovery.
    /// Must be positive: a wait polls at the wait's start plus whole
    /// multiples of it.
    pub retry_backoff: Seconds,
    /// Fine timestep while the MCU is running a task.
    pub active_dt: Seconds,
    /// Timestep policy of the day's scheduler clock. [`DtPolicy::fixed`]
    /// reproduces the legacy stepping bit-for-bit; an adaptive policy lets
    /// the clock stretch through dead/idle windows.
    pub dt_policy: DtPolicy,
}

impl IntermittentConfig {
    /// The naive-restart runtime: no checkpoints, no degradation — every
    /// interruption loses all progress and only the full model ever runs.
    pub fn naive(base: DaySimConfig, faults: FaultPlan, plan: PhasePlan) -> Self {
        Self {
            checkpoint: CheckpointPolicy::None,
            ..Self::resilient(base, faults, plan, DegradationLadder::full_only())
        }
    }

    /// The resilient runtime: retained checkpoints plus the given
    /// degradation ladder.
    pub fn resilient(
        base: DaySimConfig,
        faults: FaultPlan,
        plan: PhasePlan,
        ladder: DegradationLadder,
    ) -> Self {
        Self {
            base,
            faults,
            thresholds: BrownoutThresholds::default(),
            plan,
            ladder,
            checkpoint: CheckpointPolicy::Retained,
            checkpoint_costs: CheckpointCostModel::default(),
            mcu: McuPowerModel::default(),
            max_retries: 3,
            retry_backoff: Seconds::new(30.0),
            active_dt: Seconds::from_millis(10.0),
            dt_policy: DtPolicy::fixed(),
        }
    }
}

/// Outcome of one simulated day under faults. All counters are exact and
/// the energy fields reconcile against the embedded [`EnergyAudit`] ledger
/// (conservation residual ≤ 1 nJ on a healthy run).
#[derive(Debug, Clone, PartialEq)]
pub struct DayFaultReport {
    /// Interaction cycles the user attempted.
    pub attempted: usize,
    /// Cycles that ran to a completed inference.
    pub completed: usize,
    /// Brownout interruptions suffered while a task was running.
    pub interrupted: usize,
    /// Boots or warn-suspends that resumed earlier progress instead of
    /// restarting from scratch.
    pub resumed: usize,
    /// Cycles abandoned (retries or energy exhausted).
    pub abandoned: usize,
    /// Completed cycles that ran below the full rung.
    pub degraded: usize,
    /// Brownout warnings emitted by the comparator.
    pub warns: usize,
    /// Brownouts emitted by the comparator.
    pub brownouts: usize,
    /// Recoveries emitted by the comparator.
    pub recoveries: usize,
    /// Completions per ladder rung (index-aligned with the config ladder).
    pub rung_completions: Vec<usize>,
    /// Mean accuracy proxy over completed cycles (1.0 when none degraded,
    /// 0.0 when nothing completed).
    pub mean_accuracy: Ratio,
    /// Energy delivered into the supercap over the day.
    pub harvested: Energy,
    /// Energy drawn by all loads over the day.
    pub consumed: Energy,
    /// Energy spent on task progress that was subsequently lost.
    pub wasted: Energy,
    /// Energy spent on checkpoint save/restore/retention.
    pub checkpoint_overhead: Energy,
    /// Total time the MCU sat dead in brownout windows.
    pub dead_window: Seconds,
    /// Supercap voltage at midnight.
    pub final_voltage: Volts,
    /// Minimum supercap voltage seen.
    pub min_voltage: Volts,
    /// The conservation ledger for the whole day.
    pub audit: EnergyAudit,
    /// What the day cost the simulator: deterministic counts, not
    /// outcomes, so [`DayFaultReport::to_json`] leaves them out.
    pub cost: DayCost,
}

/// The simulator's cost counts for one day, or for many folded together
/// with `+=`. Each count is a pure function of the config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayCost {
    /// Rail steps by width, one count per [`STEP_BANDS`] band.
    pub step_bands: [usize; STEP_BANDS.len()],
    /// Which bound set each adaptive step hint, one count per
    /// [`STEP_LIMITS`] entry; all zero under [`DtPolicy::fixed`].
    pub step_limits: [usize; STEP_LIMITS.len()],
    /// Energy-gate checks the runtime made while waiting for energy, one
    /// per poll.
    pub energy_polls: usize,
    /// Scheduler runs that idled past polls which could not pass (a
    /// wait's strides).
    pub wait_strides: usize,
    /// Stride steps that began with the rail up and ended with the cell at
    /// or above the voltage the cheapest rung needs: each one may have
    /// skipped a poll that would have passed. The wait's exactness
    /// argument says there are none.
    pub stride_overshoots: usize,
}

impl DayCost {
    /// Rail steps the scheduler took.
    pub fn steps(&self) -> usize {
        self.step_bands.iter().sum()
    }
}

impl AddAssign for DayCost {
    fn add_assign(&mut self, other: Self) {
        let DayCost {
            step_bands,
            step_limits,
            energy_polls,
            wait_strides,
            stride_overshoots,
        } = other;
        for (n, more) in self.step_bands.iter_mut().zip(step_bands) {
            *n += more;
        }
        for (n, more) in self.step_limits.iter_mut().zip(step_limits) {
            *n += more;
        }
        self.energy_polls += energy_polls;
        self.wait_strides += wait_strides;
        self.stride_overshoots += stride_overshoots;
    }
}

/// The bounds an adaptive rail step hint takes the least of, by name, in
/// the index order of [`DayCost::step_limits`]: the local error
/// bound, the ΔV cap, the comparator threshold, the next knot and a
/// pinned stride.
pub const STEP_LIMITS: [&str; 5] = ["error", "ΔV cap", "threshold", "knot", "pinned"];

/// [`STEP_LIMITS`] indices.
const LIMIT_ERROR: usize = 0;
const LIMIT_DV: usize = 1;
const LIMIT_THRESHOLD: usize = 2;
const LIMIT_KNOT: usize = 3;
const LIMIT_PINNED: usize = 4;

/// The step width bound `b` names when it is tighter than `a`, else `a`:
/// ties keep the earlier bound.
fn tighter(a: (Seconds, usize), b: (Seconds, usize)) -> (Seconds, usize) {
    if b.0 < a.0 {
        b
    } else {
        a
    }
}

/// The step-width bands of [`DayCost::step_bands`], by their lower
/// edge in seconds: `< 0.1`, `0.1–1`, `1–10`, `10–100` and `≥ 100` s.
pub const STEP_BANDS: [f64; 5] = [0.0, 0.1, 1.0, 10.0, 100.0];

/// The [`STEP_BANDS`] index of a step of width `dt`.
fn step_band(dt: Seconds) -> usize {
    STEP_BANDS
        .iter()
        .rposition(|&lo| dt.as_seconds() >= lo)
        .unwrap_or(0)
}

impl DayFaultReport {
    /// Renders the report as a JSON document via the workspace's shared
    /// byte-stable writer ([`solarml_trace::JsonObject`]; the workspace has
    /// no JSON dependency). Numeric formatting uses Rust's shortest
    /// round-trip `f64` representation, so identical reports produce
    /// byte-identical JSON — the exact bytes are pinned by the golden
    /// fixtures in `tests/golden/`.
    pub fn to_json(&self) -> String {
        self.to_json_object().render()
    }

    /// The report as a [`JsonObject`], for embedding in larger documents
    /// (the cloudy-day example nests two of these; fleet campaigns embed
    /// per-cohort summaries).
    pub fn to_json_object(&self) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.count("attempted", self.attempted)
            .count("completed", self.completed)
            .count("interrupted", self.interrupted)
            .count("resumed", self.resumed)
            .count("abandoned", self.abandoned)
            .count("degraded", self.degraded)
            .count("brownout_warns", self.warns)
            .count("brownouts", self.brownouts)
            .count("recoveries", self.recoveries)
            .counts("rung_completions", &self.rung_completions)
            .number("mean_accuracy", self.mean_accuracy.get())
            .number("harvested_j", self.harvested.as_joules())
            .number("consumed_j", self.consumed.as_joules())
            .number("wasted_j", self.wasted.as_joules())
            .number(
                "checkpoint_overhead_j",
                self.checkpoint_overhead.as_joules(),
            )
            .number("dead_window_s", self.dead_window.as_seconds())
            .number("final_voltage_v", self.final_voltage.as_volts())
            .number("min_voltage_v", self.min_voltage.as_volts())
            .number("audit_discrepancy_j", self.audit.discrepancy.as_joules());
        obj
    }
}

/// How one attempt to run (or finish) a cycle ended.
enum AttemptEnd {
    /// All phases done.
    Completed,
    /// Interrupted; the caller decides whether to retry.
    Interrupted(LifecycleError),
}

/// Bound on one adaptive rail step's local error: the trapezoid's
/// `dt³·|d²I_net/dt²|/(12·C)`, or Euler's `½·dt²·|dI_net/dt|/C` where the
/// curvature is not known yet (DESIGN.md §4e).
const STEP_ERROR_V: Volts = Volts::new(1e-5);

/// Cap on the voltage one adaptive rail step may move, however flat the
/// net current.
const STEP_MAX_DV: Volts = Volts::new(0.1);

/// How much wider than the step before it a trapezoid-bounded step may
/// be: the curvature is measured over the last two steps and is not known
/// far beyond them. At 4 and above the hinted-step proptests below fail
/// within 20,000 cases (DESIGN.md §4e).
const STEP_GROWTH: f64 = 3.5;

/// An energy wait strides while the cell sits more than this below the
/// voltage it waits for ([`Engine::wait_for_energy`]).
const STRIDE_BAND_V: Volts = Volts::new(0.05);

/// The longest predicted-event width, in seconds: an hour.
const NEVER_S: f64 = 3600.0;

/// How far past the comparator threshold it heads for one adaptive rail
/// step may carry the terminal voltage.
const THRESHOLD_OVERSHOOT_V: Volts = Volts::new(3e-4);

/// The light at `t` and the power the harvester delivers under it (zero
/// while it is disconnected).
#[derive(Debug, Clone, Copy)]
struct Sample {
    t: Seconds,
    lux: Lux,
    power: Power,
}

impl Sample {
    /// The charging current the sample's power drives into the cell at `v`.
    fn charge(&self, v: Volts) -> Amps {
        HarvestingArray::current_into(self.power, v)
    }
}

/// How much the net current rose across one adaptive step of `dt`, under
/// its load.
#[derive(Debug, Clone, Copy)]
struct Slope {
    rise: Amps,
    dt: Seconds,
    load: Power,
}

/// The electrical side of the faulted day as one [`Clocked`] component:
/// fault-modulated harvesting, the (possibly degraded) supercap, standby /
/// retention / checkpoint-overhead loads and the brownout comparator.
///
/// Each step it reads the MCU's pre-advance draw and metered energy off
/// the bus (the MCU component must be listed first), pushes every flow
/// through the supercap into the bus ledger, and republishes rail state
/// plus any comparator event. Under an adaptive policy the cell advances
/// by the trapezoid rule and the rail then hints the next step
/// ([`Rail::hint`]).
struct Rail<'a> {
    cfg: &'a IntermittentConfig,
    array: UnshadedArray,
    cap: Supercap,
    comparator: BrownoutComparator,
    /// Extra load of an in-flight checkpoint save/restore window.
    extra: Power,
    /// Whether a retained checkpoint is live (draws retention power).
    retained_live: bool,
    min_voltage: Volts,
    /// MCU-side energy spent since the last durable point of the current
    /// attempt (lost if a brownout hits now).
    unsaved: Energy,
    checkpoint_overhead: Energy,
    warns: usize,
    brownouts: usize,
    recoveries: usize,
    cost: DayCost,
    /// The fault plan's knots ([`FaultPlan::knots`]) and the index of the
    /// first one after the clock.
    fault_knots: Vec<Seconds>,
    next_fault_knot: usize,
    /// The knot the running step was hinted up to.
    knot: Seconds,
    /// The light and harvester output where the next adaptive step starts.
    ahead: Option<Sample>,
    /// The previous adaptive step's slope, while the light segment lasts.
    slope: Option<Slope>,
    /// The cell voltage a running energy-wait stride stops at.
    band: Option<Volts>,
}

impl Rail<'_> {
    /// The retention draw and the whole load on the cell while the MCU
    /// draws `mcu`. While browned out the supervisor latches the whole
    /// rail off (the Fig. 5 MOSFET network physically disconnects the
    /// load), so only the cap's own leakage drains storage and recharge is
    /// possible. Retained checkpoints are FRAM-like: they persist
    /// unpowered.
    fn loads(&self, mcu: Power) -> (Power, Power) {
        let rail_up = !self.comparator.is_browned_out();
        let retention = if self.retained_live && rail_up {
            self.cfg.checkpoint_costs.retention_power
        } else {
            Power::ZERO
        };
        let standby = if rail_up {
            self.cfg.base.standby_power
        } else {
            Power::ZERO
        };
        (retention, mcu + standby + retention + self.extra)
    }

    /// Starts an energy-wait stride that stops at `band`, and returns how
    /// far its first step may run ([`Rail::band_dt`]); `None` before the
    /// first adaptive step. The last hint saw the load of the step before,
    /// so the net current is taken afresh under the load the stride draws,
    /// with the MCU drawing `mcu`.
    fn start_stride(&mut self, band: Volts, mcu: Power) -> Option<Seconds> {
        self.band = Some(band);
        let ahead = self.ahead?;
        let v = self.cap.voltage();
        let net = self.cap.net_current(ahead.charge(v), self.loads(mcu).1);
        self.band_dt(self.drift(net, self.slope))
    }

    /// The cell voltage's rate under the net current `net` and its rate
    /// of change under a step's `slope`, in V/s and V/s².
    fn drift(&self, net: Amps, slope: Option<Slope>) -> (f64, f64) {
        let c = self.cap.capacitance().as_farads();
        let accel = slope.map_or(0.0, |s| s.rise.as_amps() / s.dt.as_seconds());
        (net.as_amps() / c, accel / c)
    }

    /// The light at `t` and the harvester's output under it. An adaptive
    /// step passes `windows_at`, its midpoint, so that both its ends see
    /// the fault windows active over it ([`FaultPlan::lux_factor_under`]);
    /// a fixed-dt step passes `None` and sees the windows at `t`.
    fn sample(&self, t: Seconds, windows_at: Option<Seconds>) -> Sample {
        let faults = &self.cfg.faults;
        let (factor, connected) = match windows_at {
            Some(at) => (
                faults.lux_factor_under(t, at),
                faults.harvester_connected(at),
            ),
            None => (faults.lux_factor(t), faults.harvester_connected(t)),
        };
        let lux = self.cfg.base.profile.lux_at(t) * factor;
        let power = if connected {
            self.array.output_power(lux)
        } else {
            Power::ZERO
        };
        Sample { t, lux, power }
    }

    /// Charging current at `t` into the cell at its rating, under the
    /// profile's light with no fault window active.
    fn clear_sky_charge(&self, t: Seconds) -> Amps {
        let lux = self.cfg.base.profile.lux_at(t);
        self.array.charging_current(lux, self.cap.max_voltage)
    }

    /// The next adaptive step, from the end `t` of a step whose light and
    /// harvester output at its end were `end` and whose net current had
    /// the slope `slope`. The step runs to the earliest of:
    ///
    /// * the next knot: a profile hour or a fault knot, where the light's
    ///   slope or the harvester's connection changes;
    /// * the width whose trapezoid error reaches [`STEP_ERROR_V`], with
    ///   the net current's curvature taken from this step's slope and the
    ///   previous one's, and no wider than [`STEP_GROWTH`] times this step.
    ///   Right after a knot or a load change, where there is no such pair,
    ///   the width whose Euler error reaches it instead, with the slope
    ///   taken from this step, or, when the step ended on a knot where the
    ///   light bends, from a probe one candidate step ahead;
    /// * a ΔV of [`STEP_MAX_DV`];
    /// * the predicted crossing of the next comparator threshold, or of a
    ///   running stride's band, plus [`THRESHOLD_OVERSHOOT_V`]
    ///   ([`Rail::event_dt`]). The scheduler's `min_dt` does not floor this
    ///   one ([`StepOutcome::event_dt`]).
    ///
    /// A pinned cell is the zero-error case: its voltage cannot leave the
    /// rating, so it strides to the knot when no fault window is active
    /// and the light at the knot still holds it pinned. Lux is linear
    /// between knots and the charging current monotone in lux, so the net
    /// current stays `≥ 0` across the stride.
    fn hint(&mut self, t: Seconds, end: Sample, slope: Slope) -> StepOutcome {
        let landed = t >= self.knot;
        while self
            .fault_knots
            .get(self.next_fault_knot)
            .is_some_and(|&k| k <= t)
        {
            self.next_fault_knot += 1;
        }
        let hour = self.cfg.base.profile.next_knot_after(t);
        self.knot = self
            .fault_knots
            .get(self.next_fault_knot)
            .map_or(hour, |&k| k.min(hour));
        // The next step starts where this one ended, unless this one
        // ended on a knot, past which other fault windows may be active.
        let next = if landed {
            self.sample(t, Some(t + (self.knot - t) * 0.5))
        } else {
            end
        };
        self.ahead = Some(next);
        let load = slope.load;
        let charge = next.charge(self.cap.voltage());
        let to_knot = self.knot - t;
        // Two slopes under one load inside one light segment give the
        // curvature.
        let previous = if landed {
            None
        } else {
            self.slope.filter(|p| p.load == load)
        };
        self.slope = (!landed).then_some(slope);
        if self.cap.is_pinned(charge, load)
            && self.cfg.faults.quiet_at(t)
            && self.cap.is_pinned(self.clear_sky_charge(self.knot), load)
        {
            self.cost.step_limits[LIMIT_PINNED] += 1;
            return StepOutcome::hint(to_knot);
        }
        let to = self.cap.net_current(charge, load);
        let event = self.event_dt(to, slope, load);
        let bound = [
            (self.cap.dv_span(to, STEP_MAX_DV), LIMIT_DV),
            (event, LIMIT_THRESHOLD),
        ]
        .into_iter()
        .fold((to_knot, LIMIT_KNOT), tighter);
        let error = match previous {
            Some(p) => self
                .cap
                .trapezoid_error_dt((p.rise, p.dt), (slope.rise, slope.dt), STEP_ERROR_V)
                .min(slope.dt * STEP_GROWTH),
            None if landed => {
                // A probe from the predictor, one candidate step ahead.
                let v = self.cap.predict(bound.0, to);
                let ahead = self.sample(t + bound.0, Some(t + bound.0 * 0.5));
                let probe = self.cap.currents_at(v, ahead.charge(v), load).net();
                self.cap.error_dt(probe - to, bound.0, STEP_ERROR_V)
            }
            None => self.cap.error_dt(slope.rise, slope.dt, STEP_ERROR_V),
        };
        let (width, limit) = tighter(bound, (error, LIMIT_ERROR));
        self.cost.step_limits[limit] += 1;
        StepOutcome::hint(width).with_event_dt(event)
    }

    /// The width of the next step's first predicted event: the terminal
    /// voltage passing the next comparator threshold it heads for, or the
    /// cell passing a running stride's band, by [`THRESHOLD_OVERSHOOT_V`].
    /// The cell moves at the rate the net current `net` drives, changing
    /// at the rate the last step's `slope` drives, so the step that
    /// crosses averages its start and end rates as the trapezoid does.
    fn event_dt(&self, net: Amps, slope: Slope, load: Power) -> Seconds {
        let drift = self.drift(net, Some(slope));
        self.threshold_dt(drift, load)
            .min(self.band_dt(drift).unwrap_or(Seconds::new(NEVER_S)))
    }

    /// How long the terminal voltage takes to pass the next comparator
    /// threshold it heads for, for a cell whose voltage `drift`s at
    /// (rate, rate of change).
    fn threshold_dt(&self, (rate, accel): (f64, f64), load: Power) -> Seconds {
        let v = self.cap.voltage().as_volts();
        if v <= 0.0 {
            return Seconds::new(NEVER_S);
        }
        // d(v − P·ESR/v)/dv for a constant-power load behind the ESR.
        let sag = 1.0 + load.as_watts() * self.cap.esr.as_ohms() / (v * v);
        let (rate, accel) = (rate * sag, accel * sag);
        let th = self.comparator.thresholds();
        let (down, up) = match self.comparator.state() {
            ComparatorState::Nominal => (Some(th.warn), None),
            ComparatorState::Warned => (Some(th.brownout), Some(th.recovery())),
            ComparatorState::Browned => (None, Some(th.recovery())),
        };
        let at = self.cap.terminal_voltage(load).as_volts();
        let over = THRESHOLD_OVERSHOOT_V.as_volts();
        let below = down.map_or(NEVER_S, |th| {
            reach((at - th.as_volts()).max(0.0) + over, -rate, -accel)
        });
        let above = up.map_or(NEVER_S, |th| {
            reach((th.as_volts() - at).max(0.0) + over, rate, accel)
        });
        Seconds::new(below.min(above))
    }

    /// How long the cell, its voltage `drift`ing at (rate, rate of
    /// change), takes to pass a running stride's band by
    /// [`THRESHOLD_OVERSHOOT_V`]; `None` with no stride running or the
    /// cell at or above the band.
    fn band_dt(&self, (rate, accel): (f64, f64)) -> Option<Seconds> {
        let below = (self.band? - self.cap.voltage()).as_volts();
        (below > 0.0)
            .then(|| Seconds::new(reach(below + THRESHOLD_OVERSHOOT_V.as_volts(), rate, accel)))
    }
}

/// The first time a voltage moving at `rate`, changing by `accel`, covers
/// `distance > 0`, in seconds: the root of rate·h + ½·accel·h² = distance
/// in its cancellation-free form, at most [`NEVER_S`].
fn reach(distance: f64, rate: f64, accel: f64) -> f64 {
    let disc = rate * rate + 2.0 * accel * distance;
    let den = rate + disc.max(0.0).sqrt();
    if disc < 0.0 || den <= 0.0 {
        NEVER_S
    } else {
        (2.0 * distance / den).min(NEVER_S)
    }
}

impl Clocked for Rail<'_> {
    fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        self.cost.step_bands[step_band(dt)] += 1;
        let adaptive = self.cfg.dt_policy.adaptive;
        let windows_at = adaptive.then(|| t + dt * 0.5);
        let start = match self.ahead.take() {
            Some(ahead) if ahead.t == t => ahead,
            _ => self.sample(t, windows_at),
        };
        let charge = start.charge(self.cap.voltage());
        let rail_up = !self.comparator.is_browned_out();
        let (retention, load) = self.loads(bus.mcu_load);
        // Under an adaptive policy the cell advances by the trapezoid rule:
        // an Euler predictor, the currents at the step's end under the
        // step's own load and fault windows, and their mean with the
        // start's. Fixed dt keeps the Euler step.
        let mut end = None;
        let flows = if adaptive {
            let now = self.cap.currents_at(self.cap.voltage(), charge, load);
            let v = self.cap.predict(dt, now.net());
            let at_end = self.sample(t + dt, windows_at);
            let then = self.cap.currents_at(v, at_end.charge(v), load);
            let rise = then.net() - now.net();
            end = Some((at_end, Slope { rise, dt, load }));
            self.cap.step_trapezoid(dt, now, then)
        } else {
            self.cap.step(dt, charge, load)
        };
        bus.record(flows.into());
        // physics-lint: allow(ledger-coverage): unsaved-work meter, not an energy ledger — the joules themselves flow through bus.record above
        self.unsaved += bus.mcu_spent + self.extra * dt;
        // physics-lint: allow(ledger-coverage): derived checkpoint-overhead metric; the underlying draw is already in the bus flows recorded above
        self.checkpoint_overhead += (self.extra + retention) * dt;
        self.min_voltage = self.min_voltage.min(self.cap.voltage());
        let event = self.comparator.observe(self.cap.terminal_voltage(load));
        match event {
            Some(PowerEvent::BrownoutWarn) => {
                self.warns += 1;
                bus.emit(SimEvent::BrownoutWarn);
            }
            Some(PowerEvent::Brownout) => {
                self.brownouts += 1;
                bus.emit(SimEvent::Brownout);
            }
            Some(PowerEvent::Recovered) => {
                self.recoveries += 1;
                bus.emit(SimEvent::Recovered);
            }
            None => {}
        }
        bus.illuminance = start.lux;
        bus.rail_voltage = self.cap.voltage();
        bus.rail_connected = rail_up;
        bus.load_power = load;
        let outcome = match end {
            Some((at_end, slope)) => self.hint(t + dt, at_end, slope),
            None => StepOutcome::quiescent(),
        };
        outcome.with_edge(event.is_some())
    }
}

/// The day-scale simulation engine. One instance per run; everything is
/// deterministic given the config. The [`Scheduler`] owns the single
/// monotonic clock; the engine's methods are the control flow *between*
/// steps, reacting to [`SimEvent`]s the rail publishes.
struct Engine<'a> {
    cfg: &'a IntermittentConfig,
    sched: Scheduler,
    bus: SimBus,
    mcu: Mcu,
    rail: Rail<'a>,
    // Report counters.
    attempted: usize,
    completed: usize,
    interrupted: usize,
    resumed: usize,
    abandoned: usize,
    degraded: usize,
    rung_completions: Vec<usize>,
    accuracy_sum: f64,
    wasted: Energy,
    /// Energy banked behind retained checkpoints of the current cycle
    /// (lost only if the whole cycle is abandoned).
    banked: Energy,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a IntermittentConfig) -> Self {
        let cap = cfg
            .faults
            .build_supercap(cfg.base.capacitance, cfg.base.initial_voltage);
        Self {
            cfg,
            sched: Scheduler::new(cfg.dt_policy),
            bus: SimBus::new(),
            mcu: Mcu::new(cfg.mcu),
            rail: Rail {
                cfg,
                array: HarvestingArray::new().unshaded(),
                cap,
                comparator: BrownoutComparator::new(cfg.thresholds),
                extra: Power::ZERO,
                retained_live: false,
                min_voltage: cfg.base.initial_voltage,
                unsaved: Energy::ZERO,
                checkpoint_overhead: Energy::ZERO,
                warns: 0,
                brownouts: 0,
                recoveries: 0,
                cost: DayCost::default(),
                fault_knots: cfg.faults.knots(),
                next_fault_knot: 0,
                knot: Seconds::ZERO,
                ahead: None,
                slope: None,
                band: None,
            },
            attempted: 0,
            completed: 0,
            interrupted: 0,
            resumed: 0,
            abandoned: 0,
            degraded: 0,
            rung_completions: vec![0; cfg.ladder.rungs().len()],
            accuracy_sum: 0.0,
            wasted: Energy::ZERO,
            banked: Energy::ZERO,
        }
    }

    /// The clock, read off the scheduler.
    fn time(&self) -> Seconds {
        self.sched.time()
    }

    /// Runs the `[mcu, rail]` pair until `until` at one-second slices,
    /// stopping early after the first step whose bus `stop` accepts.
    fn drive_until(&mut self, until: Seconds, mut stop: impl FnMut(&SimBus) -> bool) {
        let Self {
            sched,
            bus,
            mcu,
            rail,
            ..
        } = self;
        sched.run_until(
            until,
            Seconds::new(1.0),
            &mut [&mut *mcu as &mut dyn Clocked, &mut *rail],
            bus,
            |_, _, bus| {
                if stop(bus) {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            },
        );
    }

    /// Runs the `[mcu, rail]` pair through a span of `duration` at the
    /// fine `active_dt`, resuming from the caller's `elapsed` accumulator.
    /// Stops on a brownout (always) or a brownout warning (when
    /// `stop_on_warn`), returning the stopping event.
    fn drive_span(
        &mut self,
        duration: Seconds,
        elapsed: &mut Seconds,
        stop_on_warn: bool,
    ) -> Option<PowerEvent> {
        let Self {
            cfg,
            sched,
            bus,
            mcu,
            rail,
            ..
        } = self;
        let mut hit = None;
        sched.run_span(
            duration,
            cfg.active_dt,
            elapsed,
            &mut [&mut *mcu as &mut dyn Clocked, &mut *rail],
            bus,
            |_, _, bus| {
                if bus.saw(SimEvent::Brownout) {
                    hit = Some(PowerEvent::Brownout);
                    return StepControl::Stop;
                }
                if stop_on_warn && bus.saw(SimEvent::BrownoutWarn) {
                    hit = Some(PowerEvent::BrownoutWarn);
                    return StepControl::Stop;
                }
                StepControl::Continue
            },
        );
        hit
    }

    /// Idles (MCU off or browned out) until `until`, at one-second steps.
    fn idle_until(&mut self, until: Seconds) {
        self.drive_until(until, |_| false);
    }

    /// The runtime's belief about usable energy: *nominal* capacitance at
    /// the measured open-circuit voltage, above the inference threshold.
    /// A degraded cell makes this an overestimate — by design.
    fn believed_usable(&self) -> Energy {
        let v = self.rail.cap.voltage();
        let v_th = self.cfg.base.inference_threshold;
        if v <= v_th {
            return Energy::ZERO;
        }
        let c = self.cfg.base.capacitance;
        c.stored_energy(v) - c.stored_energy(v_th)
    }

    /// Budget to finish the cycle from `from_phase` at ladder rung `rung`:
    /// cold boot, restore if resuming, remaining phases, and the retained
    /// saves still to pay.
    fn remaining_cost(&self, from_phase: usize, rung: &DegradationRung) -> Energy {
        let costs = &self.cfg.checkpoint_costs;
        let mut total = self.cfg.mcu.cold_boot_energy();
        if from_phase > 0 {
            total += costs.restore_energy;
        }
        for phase in &TaskPhase::ALL[from_phase..] {
            total += self.cfg.plan.energy(*phase, rung);
            if self.cfg.checkpoint == CheckpointPolicy::Retained {
                total += costs.save_energy;
            }
        }
        total
    }

    /// The best affordable rung at or below `min_rung`, per the runtime's
    /// (optimistic) energy belief. `None` when even the cheapest rung does
    /// not fit, or while the supervisor still holds the rail cut.
    fn affordable_rung(&self, from_phase: usize, min_rung: usize) -> Option<usize> {
        if self.rail.comparator.is_browned_out() {
            return None;
        }
        let usable = self.believed_usable();
        self.cfg
            .ladder
            .rungs()
            .iter()
            .enumerate()
            .skip(min_rung)
            .find(|(_, rung)| usable >= self.remaining_cost(from_phase, rung))
            .map(|(i, _)| i)
    }

    /// The open-circuit voltage the runtime believes the cheapest rung at
    /// or below `min_rung` needs. Its belief is monotone in the voltage, so
    /// below this no rung fits ([`Engine::affordable_rung`]); infinite when
    /// there is no such rung.
    fn required_voltage(&self, from_phase: usize, min_rung: usize) -> Volts {
        let cheapest = self
            .cfg
            .ladder
            .rungs()
            .iter()
            .skip(min_rung)
            .map(|rung| self.remaining_cost(from_phase, rung).as_joules())
            .fold(f64::INFINITY, f64::min);
        let v_th = self.cfg.base.inference_threshold.as_volts();
        let c = self.cfg.base.capacitance.as_farads();
        Volts::new((v_th * v_th + 2.0 * cheapest / c).sqrt())
    }

    /// Wait-for-energy: polls the energy gate at the wait's start `t0` and
    /// at `t0 + k·retry_backoff` (one addition per poll) until a rung fits,
    /// and once more at `deadline`. Returns the selected rung index.
    ///
    /// Polls that cannot pass are not stepped to. While the supervisor
    /// holds the rail cut, or the cell sits more than [`STRIDE_BAND_V`]
    /// below [`Engine::required_voltage`], one scheduler run strides on
    /// until the rail is up with the cell inside that band
    /// ([`Engine::stride`]). Polling resumes at the first poll instant at
    /// or after the stride's end.
    ///
    /// # Panics
    ///
    /// Panics if `retry_backoff` is not positive: the polls would never
    /// advance the clock.
    fn wait_for_energy(
        &mut self,
        from_phase: usize,
        min_rung: usize,
        deadline: Seconds,
    ) -> Option<usize> {
        let backoff = self.cfg.retry_backoff;
        assert!(
            backoff > Seconds::ZERO,
            "IntermittentConfig::retry_backoff must be positive, got {} s",
            backoff.as_seconds()
        );
        let v_req = self.required_voltage(from_phase, min_rung);
        let band = v_req - STRIDE_BAND_V;
        let mut poll = self.time();
        loop {
            self.rail.cost.energy_polls += 1;
            if let Some(r) = self.affordable_rung(from_phase, min_rung) {
                return Some(r);
            }
            if self.time() >= deadline {
                return None;
            }
            if self.rail.comparator.is_browned_out() || self.rail.cap.voltage() < band {
                self.stride(deadline, band, v_req);
                while poll < self.time() {
                    poll += backoff;
                }
            } else {
                poll += backoff;
            }
            self.idle_until(poll.min(deadline));
        }
    }

    /// One wait stride: idles until `deadline`, stopping after the first
    /// step that leaves the rail up with the cell at or above `band`.
    ///
    /// The band's crossing is a predicted event of the rail
    /// ([`Rail::band_dt`]), which bounds the step that carries the cell
    /// into the band, the stride's first included, to end just past it: so
    /// every poll the stride passes would have failed, whatever the ΔV
    /// cap. [`DayCost::stride_overshoots`] counts the stride steps that
    /// break that premise.
    fn stride(&mut self, deadline: Seconds, band: Volts, v_req: Volts) {
        self.rail.cost.wait_strides += 1;
        if let Some(dt) = self.rail.start_stride(band, self.mcu.power()) {
            self.sched.bound_next(dt);
        }
        let mut cut = self.rail.comparator.is_browned_out();
        let mut overshoots = 0;
        self.drive_until(deadline, |bus| {
            // `rail_connected` is the rail's state at the step's start.
            if bus.rail_connected && bus.rail_voltage >= v_req {
                overshoots += 1;
            }
            if bus.saw(SimEvent::Recovered) {
                cut = false;
            } else if bus.saw(SimEvent::Brownout) {
                cut = true;
            }
            !cut && bus.rail_voltage >= band
        });
        self.rail.band = None;
        self.rail.cost.stride_overshoots += overshoots;
    }

    /// Books the loss of this attempt's unsaved progress. Retained
    /// checkpoints keep `resume_phase`; everything else restarts the cycle
    /// from scratch.
    fn account_loss(&mut self, resume_phase: &mut usize) {
        self.wasted += self.rail.unsaved;
        self.rail.unsaved = Energy::ZERO;
        if self.cfg.checkpoint != CheckpointPolicy::Retained {
            *resume_phase = 0;
            self.wasted += self.banked;
            self.banked = Energy::ZERO;
        }
    }

    /// A brownout hit: the rail died under us.
    fn lose_progress(&mut self, resume_phase: &mut usize) {
        self.mcu.brownout();
        self.account_loss(resume_phase);
    }

    /// The runtime gives up this attempt voluntarily (suspend timed out):
    /// an orderly power-down, not a brownout — but SRAM state is still
    /// gone once the MCU is off.
    fn give_up(&mut self, resume_phase: &mut usize) {
        if !matches!(self.mcu.state(), PowerState::Off | PowerState::Brownout) {
            self.mcu.power_off();
        }
        self.account_loss(resume_phase);
    }

    /// Voluntary suspend after a [`PowerEvent::BrownoutWarn`]: park in
    /// standby (volatile state retained, power still up) and wait for the
    /// comparator to recover, for at most `retry_backoff`. Returns `true`
    /// when recovered, `false` when a brownout (or the timeout, treated as
    /// imminent brownout by powering off) ended the wait.
    fn suspend_for_recovery(&mut self, deadline: Seconds) -> Result<bool, LifecycleError> {
        self.mcu
            .enter(PowerState::Standby)
            .map_err(LifecycleError::Transition)?;
        let until = (self.time() + self.cfg.retry_backoff).min(deadline);
        let mut recovered = false;
        self.drive_until(until, |bus| {
            recovered = bus.saw(SimEvent::Recovered);
            recovered || bus.saw(SimEvent::Brownout)
        });
        Ok(recovered)
    }

    /// Runs a checkpoint save/restore window of `duration` at the extra
    /// power that delivers `energy` over it, watching the comparator.
    fn run_overhead_window(&mut self, energy: Energy, duration: Seconds) -> Option<PowerEvent> {
        let extra = if duration.as_seconds() > 0.0 {
            Power::new(energy.as_joules() / duration.as_seconds())
        } else {
            Power::ZERO
        };
        self.rail.extra = extra;
        let mut elapsed = Seconds::ZERO;
        let ev = self.drive_span(duration, &mut elapsed, false);
        self.rail.extra = Power::ZERO;
        ev
    }

    /// One powered attempt: cold boot, restore if resuming, then the
    /// remaining phases with per-boundary checkpoints.
    fn run_attempt(
        &mut self,
        rung_idx: usize,
        resume_phase: &mut usize,
        deadline: Seconds,
    ) -> Result<AttemptEnd, LifecycleError> {
        let costs = self.cfg.checkpoint_costs;
        let rung = &self.cfg.ladder.rungs()[rung_idx];
        let starting_phase = *resume_phase;
        if starting_phase > 0 {
            self.resumed += 1;
        }
        self.mcu.power_on().map_err(LifecycleError::Transition)?;
        // Burn through the cold boot at the fine timestep.
        let boot_phase = TaskPhase::ALL[starting_phase.min(2)];
        if let Some(PowerEvent::Brownout) =
            self.run_overhead_window(Energy::ZERO, self.cfg.mcu.cold_boot_duration)
        {
            self.lose_progress(resume_phase);
            return Ok(AttemptEnd::Interrupted(
                LifecycleError::BrownoutDuringPhase {
                    phase: boot_phase,
                    elapsed: Seconds::ZERO,
                },
            ));
        }
        if starting_phase > 0 {
            // Restore the retained snapshot.
            if let Some(PowerEvent::Brownout) =
                self.run_overhead_window(costs.restore_energy, costs.restore_duration)
            {
                self.lose_progress(resume_phase);
                return Ok(AttemptEnd::Interrupted(
                    LifecycleError::BrownoutDuringPhase {
                        phase: boot_phase,
                        elapsed: Seconds::ZERO,
                    },
                ));
            }
        }

        for pi in starting_phase..TaskPhase::ALL.len() {
            let phase = TaskPhase::ALL[pi];
            let duration = self.cfg.plan.duration(phase, rung);
            match self.run_phase(phase, duration, deadline, resume_phase)? {
                None => {}
                Some(err) => return Ok(AttemptEnd::Interrupted(err)),
            }
            // Phase boundary: bank progress.
            if self.cfg.checkpoint == CheckpointPolicy::Retained {
                if let Some(PowerEvent::Brownout) =
                    self.run_overhead_window(costs.save_energy, costs.save_duration)
                {
                    // Died mid-save: this boundary is not durable.
                    self.lose_progress(resume_phase);
                    return Ok(AttemptEnd::Interrupted(
                        LifecycleError::BrownoutDuringPhase {
                            phase,
                            elapsed: duration,
                        },
                    ));
                }
                self.rail.retained_live = true;
                self.banked += self.rail.unsaved;
                self.rail.unsaved = Energy::ZERO;
            }
            *resume_phase = pi + 1;
        }
        self.mcu.power_off();
        Ok(AttemptEnd::Completed)
    }

    /// Runs one phase window. Returns `Ok(None)` when the phase completed,
    /// `Ok(Some(err))` when it was interrupted (brownout or failed
    /// suspend), `Err` only on state-machine bugs.
    fn run_phase(
        &mut self,
        phase: TaskPhase,
        duration: Seconds,
        deadline: Seconds,
        resume_phase: &mut usize,
    ) -> Result<Option<LifecycleError>, LifecycleError> {
        self.enter_phase_state(phase)?;
        let mut elapsed = Seconds::ZERO;
        loop {
            let stop_on_warn = self.cfg.checkpoint != CheckpointPolicy::None;
            match self.drive_span(duration, &mut elapsed, stop_on_warn) {
                None => return Ok(None),
                Some(PowerEvent::Brownout) => {
                    self.lose_progress(resume_phase);
                    return Ok(Some(LifecycleError::BrownoutDuringPhase { phase, elapsed }));
                }
                Some(_) => {
                    // Pause before the rail dies: standby retains SRAM, so
                    // compute phases continue where they stopped after the
                    // supply recovers (the span resumes from the same
                    // elapsed accumulator). Only an in-flight *capture* is
                    // stale and must be redone.
                    if self.suspend_for_recovery(deadline)? {
                        self.resumed += 1;
                        if phase == TaskPhase::Sense {
                            self.wasted += self.rail.unsaved;
                            self.rail.unsaved = Energy::ZERO;
                            elapsed = Seconds::ZERO;
                        }
                        self.enter_phase_state(phase)?;
                    } else if self.rail.comparator.is_browned_out() {
                        // The rail died while suspended.
                        self.lose_progress(resume_phase);
                        return Ok(Some(LifecycleError::BrownoutDuringPhase { phase, elapsed }));
                    } else {
                        // Recovery took too long: orderly give-up.
                        self.give_up(resume_phase);
                        return Ok(Some(LifecycleError::EnergyExhausted));
                    }
                }
            }
        }
    }

    /// Puts the MCU in the right state for `phase`.
    fn enter_phase_state(&mut self, phase: TaskPhase) -> Result<(), LifecycleError> {
        match phase {
            TaskPhase::Sense => self
                .mcu
                .begin_sampling(self.cfg.plan.sense_power)
                .map_err(LifecycleError::Transition),
            TaskPhase::Process | TaskPhase::Infer => self
                .mcu
                .enter(PowerState::Active)
                .map_err(LifecycleError::Transition),
        }
    }

    /// Runs one user interaction cycle: energy gate, attempt, bounded
    /// retries, final bookkeeping.
    fn run_cycle(&mut self, deadline: Seconds) {
        self.attempted += 1;
        self.rail.unsaved = Energy::ZERO;
        self.banked = Energy::ZERO;
        let mut resume_phase = 0usize;
        let mut min_rung = 0usize;
        let mut retries = 0usize;
        loop {
            let Some(rung_idx) = self.wait_for_energy(resume_phase, min_rung, deadline) else {
                self.abandon();
                return;
            };
            min_rung = rung_idx;
            match self.run_attempt(rung_idx, &mut resume_phase, deadline) {
                Ok(AttemptEnd::Completed) => {
                    self.completed += 1;
                    self.rung_completions[rung_idx] += 1;
                    let rung = &self.cfg.ladder.rungs()[rung_idx];
                    self.accuracy_sum += rung.accuracy_proxy.get();
                    if rung_idx > 0 {
                        self.degraded += 1;
                    }
                    self.rail.retained_live = false;
                    self.rail.unsaved = Energy::ZERO;
                    self.banked = Energy::ZERO;
                    return;
                }
                Ok(AttemptEnd::Interrupted(err)) => {
                    debug_assert!(
                        matches!(
                            err,
                            LifecycleError::BrownoutDuringPhase { .. }
                                | LifecycleError::EnergyExhausted
                        ),
                        "only interruptions are retryable, got {err}"
                    );
                    self.interrupted += 1;
                    retries += 1;
                    if retries > self.cfg.max_retries {
                        self.abandon();
                        return;
                    }
                }
                Err(_) => {
                    // A state-machine corner (configuration bug): abandon
                    // the cycle rather than unwinding the whole day.
                    self.abandon();
                    return;
                }
            }
        }
    }

    /// Abandons the current cycle; all banked progress is wasted.
    fn abandon(&mut self) {
        self.abandoned += 1;
        self.wasted += self.rail.unsaved + self.banked;
        self.rail.unsaved = Energy::ZERO;
        self.banked = Energy::ZERO;
        self.rail.retained_live = false;
        if !matches!(self.mcu.state(), PowerState::Off | PowerState::Brownout) {
            self.mcu.power_off();
        }
    }

    fn finish(self) -> DayFaultReport {
        let mean_accuracy = if self.completed > 0 {
            Ratio::new(self.accuracy_sum / self.completed as f64)
        } else {
            Ratio::ZERO
        };
        let audit = *self.bus.audit();
        DayFaultReport {
            attempted: self.attempted,
            completed: self.completed,
            interrupted: self.interrupted,
            resumed: self.resumed,
            abandoned: self.abandoned,
            degraded: self.degraded,
            warns: self.rail.warns,
            brownouts: self.rail.brownouts,
            recoveries: self.rail.recoveries,
            rung_completions: self.rung_completions,
            mean_accuracy,
            harvested: audit.harvested,
            consumed: audit.consumed,
            wasted: self.wasted,
            checkpoint_overhead: self.rail.checkpoint_overhead,
            dead_window: self.mcu.time_in(PowerState::Brownout),
            final_voltage: self.rail.cap.voltage(),
            min_voltage: self.rail.min_voltage,
            audit,
            cost: self.rail.cost,
        }
    }
}

/// An office day rescaled into the regime where intermittency actually
/// bites: the lit hours are scaled so the midday peak equals `peak`, the
/// user interacts every ten minutes of the working day, and storage is a
/// small 47 mF cap (≈ 1–2 cycles of buffer) instead of the paper's 1 F
/// tank. Under [`FaultPlan::seeded_cloudy_day`] this produces genuine
/// energy droughts; under [`FaultPlan::none`] it is comfortably solvent.
pub fn stressed_office_day(peak: Lux) -> DaySimConfig {
    let mut base = DaySimConfig::office_day(Energy::from_milli_joules(30.0));
    let scale = peak.as_lux() / 800.0;
    for lux in &mut base.profile.lux_by_hour {
        if *lux > 1.0 {
            *lux *= scale;
        }
    }
    base.interactions = (0..60)
        .map(|i| Seconds::new(8.0 * 3600.0 + i as f64 * 600.0))
        .collect();
    base.capacitance = Farads::new(0.047);
    base
}

/// Simulates 24 hours of the intermittency-aware runtime under the given
/// fault plan. Deterministic: identical configs yield bit-identical
/// reports, independent of anything outside the config.
pub fn simulate_faulted_day(cfg: &IntermittentConfig) -> DayFaultReport {
    let mut engine = Engine::new(cfg);
    let mut interactions = cfg.base.interactions.clone();
    interactions.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
    let day_end = Seconds::new(24.0 * 3600.0);
    for (i, &at) in interactions.iter().enumerate() {
        let at = at.min(day_end);
        engine.idle_until(at);
        let deadline = interactions
            .get(i + 1)
            .copied()
            .unwrap_or(day_end)
            .min(day_end);
        engine.run_cycle(deadline);
    }
    engine.idle_until(day_end);
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_circuit::fault::OutageWindow;
    use solarml_units::Farads;

    /// A scenario sized so the fault plan actually bites: a small supercap,
    /// a dim office and an inference-heavy task.
    fn scenario(seed: u64) -> (DaySimConfig, FaultPlan, PhasePlan) {
        (
            stressed_office_day(Lux::new(200.0)),
            FaultPlan::seeded_cloudy_day(seed),
            PhasePlan::representative_gesture(),
        )
    }

    #[test]
    fn faultless_fresh_day_completes_everything() {
        let (mut base, _, plan) = scenario(1);
        base.capacitance = Farads::new(1.0);
        base.initial_voltage = Volts::new(3.0);
        let cfg = IntermittentConfig::naive(base, FaultPlan::none(), plan);
        let report = simulate_faulted_day(&cfg);
        assert_eq!(report.attempted, 60);
        assert_eq!(report.completed, 60, "report: {report:?}");
        assert_eq!(report.brownouts, 0);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.wasted, Energy::ZERO);
    }

    #[test]
    fn audit_ledger_stays_below_a_nanojoule() {
        let (base, faults, plan) = scenario(42);
        let ladder = DegradationLadder::from_exit_macs(&[100_000, 400_000, 1_000_000]);
        for cfg in [
            IntermittentConfig::naive(base.clone(), faults.clone(), plan),
            IntermittentConfig::resilient(base, faults, plan, ladder),
        ] {
            let report = simulate_faulted_day(&cfg);
            assert!(
                report.audit.discrepancy.as_joules() <= 1e-9,
                "conservation residual {} J",
                report.audit.discrepancy.as_joules()
            );
            // Ledger identity: harvested - consumed - leaked - clamped
            // equals the net stored-energy change.
            let a = &report.audit;
            let net = a.harvested.as_joules()
                - a.consumed.as_joules()
                - a.leaked.as_joules()
                - a.clamped.as_joules();
            assert!(
                (net - a.delta_stored.as_joules()).abs() <= a.discrepancy.as_joules() + 1e-12,
                "ledger identity broken"
            );
        }
    }

    #[test]
    fn identical_seeds_give_bit_identical_reports() {
        let (base, faults, plan) = scenario(7);
        let ladder = DegradationLadder::from_exit_macs(&[150_000, 600_000]);
        let cfg = IntermittentConfig::resilient(base, faults, plan, ladder);
        let a = simulate_faulted_day(&cfg);
        let b = simulate_faulted_day(&cfg);
        assert_eq!(a, b, "same config must reproduce bit-identically");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn degraded_cap_with_clouds_causes_brownouts_for_the_naive_runtime() {
        let (base, faults, plan) = scenario(42);
        let cfg = IntermittentConfig::naive(base, faults, plan);
        let report = simulate_faulted_day(&cfg);
        assert!(
            report.brownouts > 0,
            "a 40-55% degraded cap must brown out mid-task: {report:?}"
        );
        assert!(report.wasted > Energy::ZERO);
        assert!(report.warns >= report.brownouts);
        assert!(report.dead_window > Seconds::ZERO);
    }

    #[test]
    fn checkpoint_and_degrade_beats_naive_restart() {
        let (base, faults, plan) = scenario(42);
        let ladder = DegradationLadder::representative();
        let naive = simulate_faulted_day(&IntermittentConfig::naive(
            base.clone(),
            faults.clone(),
            plan,
        ));
        let resilient =
            simulate_faulted_day(&IntermittentConfig::resilient(base, faults, plan, ladder));
        assert!(
            resilient.completed > naive.completed,
            "checkpoint+degrade {} must beat naive {}: naive {:?} vs resilient {:?}",
            resilient.completed,
            naive.completed,
            naive,
            resilient
        );
        assert!(
            resilient.wasted < naive.wasted,
            "lost-progress energy must shrink: {} vs {}",
            resilient.wasted,
            naive.wasted
        );
    }

    #[test]
    fn pinned_cap_strides_knot_to_knot() {
        let mut base = DaySimConfig::office_day(Energy::from_milli_joules(30.0));
        base.interactions.clear();
        base.capacitance = Farads::new(0.047);
        base.initial_voltage = Volts::new(5.5);
        // A brightening morning, so every hour is a sloped segment.
        base.profile.lux_by_hour[8..=12].copy_from_slice(&[300.0, 500.0, 700.0, 900.0, 1100.0]);
        let mut cfg =
            IntermittentConfig::naive(base, FaultPlan::none(), PhasePlan::representative_gesture());
        cfg.dt_policy = DtPolicy::adaptive(Seconds::from_millis(50.0), Seconds::new(3600.0));
        let mut engine = Engine::new(&cfg);
        let start = Seconds::new(8.0 * 3600.0);
        engine.sched = Scheduler::starting_at(start, cfg.dt_policy);
        let Engine {
            sched,
            bus,
            mcu,
            rail,
            ..
        } = &mut engine;
        let max = rail.cap.max_voltage;
        let mut ends = Vec::new();
        sched.run_until(
            Seconds::new(12.0 * 3600.0),
            Seconds::new(1.0),
            &mut [&mut *mcu as &mut dyn Clocked, &mut *rail],
            bus,
            |t, _, bus| {
                assert_eq!(bus.rail_voltage, max, "pinned at {t}");
                ends.push(t.as_seconds());
                StepControl::Continue
            },
        );
        // One warm-up step at the 50 ms floor, then one stride per hour,
        // each landing exactly on the knot.
        let hours: Vec<f64> = (9..=12).map(|h| f64::from(h) * 3600.0).collect();
        assert_eq!(ends[1..], hours[..], "steps ended at {ends:?}");
        let audit = engine.bus.audit();
        assert!(audit.discrepancy.as_joules() <= 1e-9, "ledger: {audit:?}");
        // Every step, the warm-up one included, books the trapezoid of its
        // endpoint currents.
        let charge = |t: f64| {
            let lux = cfg.base.profile.lux_at(Seconds::new(t));
            engine.rail.array.charging_current(lux, max).as_amps()
        };
        let mut expected = 0.0;
        let mut from = start.as_seconds();
        for &to in &ends {
            expected += 0.5 * (charge(from) + charge(to)) * (to - from);
            from = to;
        }
        let booked = audit.harvested.as_joules() / max.as_volts();
        assert!(
            (booked / expected - 1.0).abs() < 1e-12,
            "{booked} vs {expected} C"
        );
    }

    /// An office day without interactions whose 09:00–10:00 light ramps
    /// linearly from `lux0` to `lux1`, under the constant standby load
    /// `load`, at the fleet's adaptive policy.
    fn ramp_config(lux0: f64, lux1: f64, load: Power, farads: f64, v0: f64) -> IntermittentConfig {
        let mut base = DaySimConfig::office_day(Energy::from_milli_joules(30.0));
        base.interactions.clear();
        base.profile.lux_by_hour[9] = lux0;
        base.profile.lux_by_hour[10] = lux1;
        base.standby_power = load;
        base.capacitance = Farads::new(farads);
        base.initial_voltage = Volts::new(v0);
        let mut cfg =
            IntermittentConfig::naive(base, FaultPlan::none(), PhasePlan::representative_gesture());
        cfg.dt_policy = DtPolicy::adaptive(Seconds::from_millis(50.0), Seconds::new(3600.0));
        cfg
    }

    /// Each adaptive step sees the fault windows active over it at both
    /// its ends: one that ends where an outage starts harvests as if there
    /// were no outage, and one that ends where it stops harvests nothing.
    #[test]
    fn a_step_ending_on_an_outage_start_integrates_the_connected_harvester() {
        let clear = ramp_config(300.0, 700.0, Power::from_micro_watts(5.0), 0.047, 3.0);
        let mut outage = clear.clone();
        let start = Seconds::new(9.5 * 3600.0);
        let length = Seconds::new(300.0);
        outage.faults.outages = vec![OutageWindow {
            at: start,
            duration: length,
        }];
        let harvested = |cfg: &IntermittentConfig, t: Seconds| {
            let mut engine = Engine::new(cfg);
            let mut bus = SimBus::new();
            engine.rail.step(t, Seconds::new(20.0), &mut bus);
            bus.audit().harvested
        };
        let before = start - Seconds::new(20.0);
        assert!(harvested(&outage, before) > Energy::ZERO);
        assert_eq!(harvested(&outage, before), harvested(&clear, before));
        for during in [start, start + length - Seconds::new(20.0)] {
            assert_eq!(harvested(&outage, during), Energy::ZERO);
        }
        let after = start + length;
        assert_eq!(harvested(&outage, after), harvested(&clear, after));
    }

    /// The comparator threshold a transition from `from` to `to` crossed.
    fn crossed(th: &BrownoutThresholds, from: ComparatorState, to: ComparatorState) -> Volts {
        match (from, to) {
            (ComparatorState::Nominal, ComparatorState::Warned) => th.warn,
            (ComparatorState::Warned, ComparatorState::Browned) => th.brownout,
            _ => th.recovery(),
        }
    }

    proptest::proptest! {
        /// One hinted step lands within twice the step tolerance of a
        /// fine fixed-step reference (1 ms, or 1/20,000 of a longer step;
        /// the tolerance bounds the error estimated from a slope one step
        /// old, and the light's curvature moves it by up to ~1.3× here).
        /// The warm-up steps give the rail a slope to go by: a fresh rail
        /// counts as standing on a knot, so a probe sizes the second step,
        /// and the checked step is hinted from the previous step's two
        /// ends.
        #[test]
        fn a_hinted_step_tracks_a_fine_reference(
            lux0 in 0.0f64..1500.0,
            lux1 in 0.0f64..1500.0,
            load_uw in 1.0f64..3000.0,
            farads in 0.02f64..1.0,
            v0 in 2.1f64..5.4,
            offset in 0.0f64..3000.0,
        ) {
            let cfg = ramp_config(lux0, lux1, Power::from_micro_watts(load_uw), farads, v0);
            let mut engine = Engine::new(&cfg);
            let rail = &mut engine.rail;
            let mut bus = SimBus::new();
            let mut t = Seconds::new(9.0 * 3600.0 + offset);
            let mut dt = Seconds::new(1.0);
            // The scheduler holds the floor after a comparator edge, whose
            // load change no hint foresees; warm up past any edges.
            let mut quiet = 0;
            while quiet < 2 {
                let outcome = rail.step(t, dt, &mut bus);
                quiet = if outcome.edge { 0 } else { quiet + 1 };
                t += dt;
                dt = outcome.max_dt.unwrap_or(dt).max(Seconds::from_millis(1.0));
            }
            let cap = rail.cap;
            let load = if rail.comparator.is_browned_out() {
                Power::ZERO
            } else {
                cfg.base.standby_power
            };
            rail.step(t, dt, &mut bus);
            let substeps = (dt.as_seconds() / 1e-3).ceil().clamp(1.0, 20_000.0);
            let fine = dt / substeps;
            let mut reference = cap;
            for k in 0..substeps as usize {
                let at = t + fine * k as f64;
                let lux = cfg.base.profile.lux_at(at);
                let charge = rail.array.charging_current(lux, reference.voltage());
                reference.step(fine, charge, load);
            }
            let error = (rail.cap.voltage() - reference.voltage()).as_volts().abs();
            proptest::prop_assert!(
                error <= 2.0 * STEP_ERROR_V.as_volts(),
                "{} s step off the reference by {} V", dt.as_seconds(), error
            );
        }

        /// Once the rail holds two slopes under one load, the step it
        /// hints from their curvature lands within twice the step
        /// tolerance of a fine trapezoid reference (1 ms, or 1/20,000 of a
        /// longer step) from the same state.
        #[test]
        fn a_curvature_hinted_step_tracks_a_fine_trapezoid_reference(
            lux0 in 0.0f64..1500.0,
            lux1 in 0.0f64..1500.0,
            load_uw in 1.0f64..3000.0,
            farads in 0.02f64..1.0,
            v0 in 2.1f64..5.4,
            offset in 0.0f64..3000.0,
        ) {
            let cfg = ramp_config(lux0, lux1, Power::from_micro_watts(load_uw), farads, v0);
            let mut engine = Engine::new(&cfg);
            let rail = &mut engine.rail;
            let mut bus = SimBus::new();
            let mut t = Seconds::new(9.0 * 3600.0 + offset);
            let mut dt = Seconds::new(1.0);
            // A fresh rail stands on a knot; two steps later it has a pair
            // of slopes. Warm up past comparator edges as well.
            let mut quiet = 0;
            while quiet < 3 {
                let outcome = rail.step(t, dt, &mut bus);
                quiet = if outcome.edge { 0 } else { quiet + 1 };
                t += dt;
                dt = outcome.max_dt.unwrap_or(dt).max(Seconds::from_millis(1.0));
            }
            let cap = rail.cap;
            let load = if rail.comparator.is_browned_out() {
                Power::ZERO
            } else {
                cfg.base.standby_power
            };
            rail.step(t, dt, &mut bus);
            let substeps = (dt.as_seconds() / 1e-3).ceil().clamp(1.0, 20_000.0);
            let fine = dt / substeps;
            let currents = |cell: &Supercap, at: Seconds, v: Volts| {
                let lux = cfg.base.profile.lux_at(at);
                let charge = rail.array.charging_current(lux, v);
                cell.currents_at(v, charge, load)
            };
            let mut reference = cap;
            for k in 0..substeps as usize {
                let at = t + fine * k as f64;
                let start = currents(&reference, at, reference.voltage());
                let v = reference.predict(fine, start.net());
                let end = currents(&reference, at + fine, v);
                reference.step_trapezoid(fine, start, end);
            }
            let error = (rail.cap.voltage() - reference.voltage()).as_volts().abs();
            proptest::prop_assert!(
                error <= 2.0 * STEP_ERROR_V.as_volts(),
                "{} s step off the reference by {} V", dt.as_seconds(), error
            );
        }

        /// Hinted steps around the comparator band never carry the
        /// terminal voltage more than 1 mV past a threshold they cross.
        /// A step right after a comparator edge runs under a load its hint
        /// did not see (the scheduler holds its floor there), so it is
        /// taken at 1 ms and not checked.
        #[test]
        fn hinted_steps_stop_within_a_millivolt_past_each_threshold(
            lux0 in 0.0f64..1500.0,
            lux1 in 0.0f64..1500.0,
            load_uw in 1.0f64..3000.0,
            farads in 0.02f64..1.0,
            v0 in 2.16f64..2.45,
            offset in 0.0f64..3000.0,
        ) {
            let cfg = ramp_config(lux0, lux1, Power::from_micro_watts(load_uw), farads, v0);
            let mut engine = Engine::new(&cfg);
            let rail = &mut engine.rail;
            let mut bus = SimBus::new();
            let mut t = Seconds::new(9.0 * 3600.0 + offset);
            let end_of_hour = Seconds::new(10.0 * 3600.0);
            let mut dt = Seconds::from_millis(1.0);
            let mut hinted = false;
            while t + dt < end_of_hour {
                let state = rail.comparator.state();
                let load = if rail.comparator.is_browned_out() {
                    Power::ZERO
                } else {
                    cfg.base.standby_power
                };
                let before = rail.cap.terminal_voltage(load);
                let outcome = rail.step(t, dt, &mut bus);
                let after = rail.comparator.state();
                if hinted && after != state {
                    let threshold = crossed(rail.comparator.thresholds(), state, after);
                    let end = rail.cap.terminal_voltage(load);
                    let across = (before - threshold).as_volts() * (end - threshold).as_volts() < 0.0;
                    proptest::prop_assert!(
                        !across || (end - threshold).as_volts().abs() <= 1e-3,
                        "{} s step carried the terminal voltage from {} to {} across {}",
                        dt.as_seconds(), before.as_volts(), end.as_volts(), threshold.as_volts()
                    );
                }
                t += dt;
                hinted = !outcome.edge;
                dt = match outcome.max_dt {
                    Some(hint) if hinted => hint.max(Seconds::from_millis(1.0)),
                    _ => Seconds::from_millis(1.0),
                };
            }
        }
    }

    /// Only adaptive steps are hinted, and each one hints the next, the
    /// day's last included.
    #[test]
    fn step_limits_count_every_adaptive_step_and_no_fixed_one() {
        for seed in [3, 7, 42] {
            let (base, faults, plan) = scenario(seed);
            let mut cfg = if seed == 3 {
                IntermittentConfig::naive(base, faults, plan)
            } else {
                IntermittentConfig::resilient(
                    base,
                    faults,
                    plan,
                    DegradationLadder::representative(),
                )
            };
            let fixed = simulate_faulted_day(&cfg).cost;
            assert!(fixed.steps() > 0);
            assert_eq!(fixed.step_limits, [0; STEP_LIMITS.len()], "seed {seed}");
            cfg.dt_policy = DtPolicy::adaptive(Seconds::from_millis(50.0), Seconds::new(3600.0));
            let adaptive = simulate_faulted_day(&cfg).cost;
            assert_eq!(
                adaptive.step_limits.iter().sum::<usize>(),
                adaptive.steps(),
                "seed {seed}"
            );
        }
    }

    /// A bright light on a small cell: the ΔV cap alone lets one hinted
    /// step carry the cell from below a wait's band past the voltage the
    /// wait needs, which would skip a poll that passes. The band's
    /// predicted crossing stops every stride just inside the band instead.
    #[test]
    fn a_wait_stride_stops_inside_its_band_under_a_bright_light() {
        let deadline = Seconds::new(10.0 * 3600.0);
        let probe = ramp_config(1500.0, 1500.0, Power::from_micro_watts(5.0), 0.02, 2.2);
        let v_req = Engine::new(&probe).required_voltage(0, 0);
        let band = v_req - STRIDE_BAND_V;
        let mut blind_overshoots = 0;
        for k in 0..10 {
            let v0 = band.as_volts() - 0.3 - 0.01 * f64::from(k);
            let cfg = ramp_config(1500.0, 1500.0, Power::from_micro_watts(5.0), 0.02, v0);
            let warmed = || {
                let mut engine = Engine::new(&cfg);
                engine.sched = Scheduler::starting_at(Seconds::new(9.0 * 3600.0), cfg.dt_policy);
                engine.idle_until(Seconds::new(9.0 * 3600.0 + 1.0));
                engine
            };
            // The stride as it ran without the band's event.
            let mut blind = warmed();
            let mut from = blind.rail.cap.voltage();
            blind.drive_until(deadline, |bus| {
                if from < band && bus.rail_voltage >= v_req {
                    blind_overshoots += 1;
                }
                from = bus.rail_voltage;
                bus.rail_voltage >= band
            });
            let mut engine = warmed();
            engine.stride(deadline, band, v_req);
            let v = engine.rail.cap.voltage();
            assert_eq!(engine.rail.cost.stride_overshoots, 0, "from {v0} V");
            assert!(
                v >= band && v < band + Volts::new(1e-3),
                "from {v0} V the stride stopped at {} V, band {} V",
                v.as_volts(),
                band.as_volts()
            );
        }
        assert!(
            blind_overshoots > 0,
            "no step would have passed {} V",
            v_req.as_volts()
        );
    }

    /// A poll that never advances the clock would wait forever.
    #[test]
    #[should_panic(expected = "IntermittentConfig::retry_backoff must be positive")]
    fn a_zero_retry_backoff_is_refused() {
        let (base, faults, plan) = scenario(42);
        let mut cfg = IntermittentConfig::naive(base, faults, plan);
        cfg.retry_backoff = Seconds::ZERO;
        simulate_faulted_day(&cfg);
    }

    #[test]
    fn degradation_ladder_orders_full_first() {
        let ladder = DegradationLadder::from_exit_macs(&[100, 400, 1000]);
        let rungs = ladder.rungs();
        assert_eq!(rungs.len(), 3);
        assert_eq!(rungs[0].name, "full");
        assert_eq!(rungs[0].infer_scale, Ratio::ONE);
        assert!(rungs[1].infer_scale.get() > rungs[2].infer_scale.get());
        assert!(rungs[1].accuracy_proxy.get() > rungs[2].accuracy_proxy.get());
        let with_coarse = ladder.with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.5));
        let last = with_coarse.rungs().last();
        match last {
            Some(r) => {
                assert_eq!(r.name, "coarse-sense");
                assert!((r.sense_scale.get() - 0.5).abs() < 1e-12);
            }
            None => unreachable!("ladder cannot be empty"),
        }
    }

    #[test]
    fn report_json_has_all_fields() {
        let (base, faults, plan) = scenario(3);
        let cfg = IntermittentConfig::naive(base, faults, plan);
        let json = simulate_faulted_day(&cfg).to_json();
        for key in [
            "attempted",
            "completed",
            "interrupted",
            "resumed",
            "abandoned",
            "degraded",
            "brownout_warns",
            "brownouts",
            "recoveries",
            "rung_completions",
            "mean_accuracy",
            "harvested_j",
            "consumed_j",
            "wasted_j",
            "checkpoint_overhead_j",
            "dead_window_s",
            "final_voltage_v",
            "min_voltage_v",
            "audit_discrepancy_j",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }

    #[test]
    fn phase_plan_scales_with_rungs() {
        let plan = PhasePlan::representative_gesture();
        let full = DegradationRung::full();
        let early = DegradationRung {
            name: "exit-0".to_string(),
            sense_scale: Ratio::ONE,
            infer_scale: Ratio::new(0.25),
            accuracy_proxy: Ratio::new(0.8),
        };
        let e_full = plan.energy(TaskPhase::Infer, &full);
        let e_early = plan.energy(TaskPhase::Infer, &early);
        assert!((e_early.as_joules() / e_full.as_joules() - 0.25).abs() < 1e-12);
        assert_eq!(
            plan.energy(TaskPhase::Sense, &full),
            plan.energy(TaskPhase::Sense, &early)
        );
    }
}
