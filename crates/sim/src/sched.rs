//! The single co-simulation clock and its stepping strategies.

use solarml_units::Seconds;

use crate::bus::SimBus;
use crate::clocked::{Clocked, StepOutcome};

/// What the driving loop's observer tells a runner after each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Keep stepping.
    Continue,
    /// Stop the current run after this step.
    Stop,
}

/// How long after an edge adaptive steps stay pinned at `min_dt`.
const EDGE_HOLD: Seconds = Seconds::new(0.05);

/// Timestep policy for a [`Scheduler`].
///
/// Fixed policy reproduces the legacy loops bit-for-bit: every step takes
/// the caller's slice, clipped to the deadline or span end. Adaptive policy
/// instead derives each step from the components' [`StepOutcome`] hints,
/// stretching through quiescent deep-sleep windows up to `max_dt` and
/// shrinking to `min_dt` around edges (detector transitions, brownout
/// events, MOSFET switching) for the [`edge_hold`](Self::edge_hold) window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtPolicy {
    /// Whether steps adapt to component hints instead of the fixed slice.
    pub adaptive: bool,
    /// Smallest adaptive step; also the step width pinned around edges.
    pub min_dt: Seconds,
    /// Largest adaptive step through fully quiescent windows.
    pub max_dt: Seconds,
}

impl DtPolicy {
    /// Fixed-dt policy: every step takes the runner's slice verbatim,
    /// reproducing the legacy loops exactly.
    pub fn fixed() -> Self {
        Self {
            adaptive: false,
            min_dt: Seconds::ZERO,
            max_dt: Seconds::ZERO,
        }
    }

    /// Adaptive policy stepping within `[min_dt, max_dt]`, holding
    /// `min_dt` for 50 ms after each edge.
    pub fn adaptive(min_dt: Seconds, max_dt: Seconds) -> Self {
        Self {
            adaptive: true,
            min_dt,
            max_dt,
        }
    }

    /// How long after an edge steps stay pinned at `min_dt`: 50 ms under
    /// the adaptive policy, zero under the fixed one.
    pub fn edge_hold(&self) -> Seconds {
        if self.adaptive {
            EDGE_HOLD
        } else {
            Seconds::ZERO
        }
    }
}

impl Default for DtPolicy {
    fn default() -> Self {
        Self::fixed()
    }
}

/// The single monotonic co-simulation clock.
///
/// One scheduler drives every component of a simulation through the
/// [`Clocked`] trait. [`run_span`](Self::run_span) is its one stepping
/// loop: deadline-clipped runs ([`run_until`](Self::run_until)) are spans
/// over a copy of the clock, and [`run_steps`](Self::run_steps) takes a
/// fixed count of steps for sample-indexed replays. The observer passed to
/// each runner is the one way to stop a run early. Ports stay bit-exact at
/// fixed dt, while the adaptive policy accelerates quiescent stretches
/// without touching the ledger's error bound.
#[derive(Debug, Clone)]
pub struct Scheduler {
    time: Seconds,
    policy: DtPolicy,
    /// Steps stay at `min_dt` until the clock passes this mark.
    edge_until: Seconds,
    /// The merged component hint from the previous step, applied to the
    /// next one.
    pending_hint: Option<Seconds>,
    /// The merged predicted-event width from the previous step, which the
    /// next one may not pass ([`StepOutcome::event_dt`]).
    pending_event: Option<Seconds>,
}

impl Scheduler {
    /// A scheduler starting at `t = 0` under `policy`.
    pub fn new(policy: DtPolicy) -> Self {
        Self::starting_at(Seconds::ZERO, policy)
    }

    /// A scheduler whose clock starts at `t` under `policy`.
    ///
    /// The start is treated as an edge: adaptive runs warm up at `min_dt`
    /// until components have published their first hints.
    pub fn starting_at(t: Seconds, policy: DtPolicy) -> Self {
        Self {
            time: t,
            policy,
            edge_until: t + policy.edge_hold(),
            pending_hint: None,
            pending_event: None,
        }
    }

    /// The current clock reading.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Bounds the next step by a discontinuity predicted `dt` ahead, as a
    /// component's [`StepOutcome::event_dt`] does: for an event a
    /// component learns of between two runs, after it published its last
    /// outcome. Fixed policies ignore it.
    pub fn bound_next(&mut self, dt: Seconds) {
        self.pending_event = Some(self.pending_event.map_or(dt, |e| e.min(dt)));
    }

    /// Takes exactly one step of width `dt`: clears the bus events, steps
    /// every component in order, advances the clock, and folds the merged
    /// [`StepOutcome`] into the adaptive state.
    fn step_once(&mut self, dt: Seconds, comps: &mut [&mut dyn Clocked], bus: &mut SimBus) {
        bus.events.clear();
        let t = self.time;
        let mut outcome = StepOutcome::quiescent();
        for comp in comps.iter_mut() {
            outcome = outcome.merge(comp.step(t, dt, bus));
        }
        self.time += dt;
        self.pending_hint = outcome.max_dt;
        self.pending_event = outcome.event_dt;
        if outcome.edge {
            self.edge_until = self.time + self.policy.edge_hold();
        }
    }

    /// Picks the next step width. `remaining` clips the step so it cannot
    /// overshoot a deadline or span end; `slice` is the fixed-policy step.
    fn choose_dt(&self, remaining: Seconds, slice: Seconds) -> Seconds {
        let dt = if self.policy.adaptive {
            let hinted = self.pending_hint.unwrap_or(self.policy.max_dt);
            let mut dt = hinted.clamp(self.policy.min_dt, self.policy.max_dt);
            if self.time < self.edge_until {
                dt = self.policy.min_dt;
            }
            match self.pending_event {
                Some(event) => dt.min(event),
                None => dt,
            }
        } else {
            slice
        };
        dt.min(remaining)
    }

    /// Runs until the clock reaches `deadline`, clipping the final step so
    /// the clock lands on the deadline exactly (the legacy `idle_until`
    /// discipline). Returns `true` if the deadline was reached, `false` if
    /// the observer stopped the run early.
    ///
    /// This is [`run_span`](Self::run_span) over a copy of the clock: the
    /// copy takes the same `+= dt` additions as the clock itself, so the
    /// steps are those of a loop on the clock.
    pub fn run_until(
        &mut self,
        deadline: Seconds,
        slice: Seconds,
        comps: &mut [&mut dyn Clocked],
        bus: &mut SimBus,
        observe: impl FnMut(Seconds, Seconds, &mut SimBus) -> StepControl,
    ) -> bool {
        let mut clock = self.time;
        self.run_span(deadline, slice, &mut clock, comps, bus, observe)
    }

    /// Runs a span of `duration`, clipping the final step so the span
    /// completes exactly. `elapsed` is the caller-owned progress
    /// accumulator: a run stopped early can be *resumed* by calling again
    /// with the same accumulator, continuing the exact clipped-dt sequence
    /// (the legacy interruptible phase-window discipline). Returns `true`
    /// if the span completed, `false` if the observer stopped the run.
    pub fn run_span(
        &mut self,
        duration: Seconds,
        slice: Seconds,
        elapsed: &mut Seconds,
        comps: &mut [&mut dyn Clocked],
        bus: &mut SimBus,
        mut observe: impl FnMut(Seconds, Seconds, &mut SimBus) -> StepControl,
    ) -> bool {
        while *elapsed < duration {
            let dt = self.choose_dt(duration - *elapsed, slice);
            self.step_once(dt, comps, bus);
            *elapsed += dt;
            if observe(self.time, dt, bus) == StepControl::Stop {
                return false;
            }
        }
        true
    }

    /// Takes exactly `steps` steps of width `dt` (the legacy rounded
    /// fixed-count discipline). Returns `true` if all steps ran, `false`
    /// if the observer stopped the run.
    pub fn run_steps(
        &mut self,
        steps: usize,
        dt: Seconds,
        comps: &mut [&mut dyn Clocked],
        bus: &mut SimBus,
        mut observe: impl FnMut(Seconds, Seconds, &mut SimBus) -> StepControl,
    ) -> bool {
        for _ in 0..steps {
            self.step_once(dt, comps, bus);
            if observe(self.time, dt, bus) == StepControl::Stop {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_units::Energy;

    /// Integrates elapsed time; hints `hint` and edges when `edge_at`
    /// crossing occurs.
    struct Integrator {
        total: Seconds,
        hint: Option<Seconds>,
        edge_at: Option<Seconds>,
        steps: usize,
    }

    impl Integrator {
        fn new() -> Self {
            Self {
                total: Seconds::ZERO,
                hint: None,
                edge_at: None,
                steps: 0,
            }
        }
    }

    impl Clocked for Integrator {
        fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
            self.total += dt;
            self.steps += 1;
            bus.record(crate::EnergyFlows {
                delta_stored: Energy::new(dt.as_seconds()),
                harvested: Energy::new(dt.as_seconds()),
                ..crate::EnergyFlows::default()
            });
            let edge = self.edge_at.is_some_and(|at| t < at && at <= t + dt);
            match self.hint {
                Some(h) => StepOutcome::hint(h).with_edge(edge),
                None => StepOutcome::quiescent().with_edge(edge),
            }
        }
    }

    #[test]
    fn run_until_lands_exactly_on_the_deadline() {
        let mut sched = Scheduler::new(DtPolicy::fixed());
        let mut comp = Integrator::new();
        let mut bus = SimBus::new();
        let done = sched.run_until(
            Seconds::new(1.05),
            Seconds::new(0.5),
            &mut [&mut comp],
            &mut bus,
            |_, _, _| StepControl::Continue,
        );
        assert!(done);
        assert_eq!(sched.time(), Seconds::new(1.05));
        assert_eq!(comp.steps, 3);
        assert_eq!(comp.total, Seconds::new(1.05));
        assert_eq!(bus.audit().discrepancy, Energy::ZERO);
    }

    #[test]
    fn stopped_span_resumes_with_the_same_dt_sequence() {
        let mut sched = Scheduler::new(DtPolicy::fixed());
        let mut comp = Integrator::new();
        let mut bus = SimBus::new();
        let mut elapsed = Seconds::ZERO;
        let mut count = 0;
        let done = sched.run_span(
            Seconds::new(1.25),
            Seconds::new(0.5),
            &mut elapsed,
            &mut [&mut comp],
            &mut bus,
            |_, _, _| {
                count += 1;
                if count == 2 {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            },
        );
        assert!(!done);
        assert_eq!(elapsed, Seconds::new(1.0));
        let done = sched.run_span(
            Seconds::new(1.25),
            Seconds::new(0.5),
            &mut elapsed,
            &mut [&mut comp],
            &mut bus,
            |_, _, _| StepControl::Continue,
        );
        assert!(done);
        assert_eq!(elapsed, Seconds::new(1.25));
        assert_eq!(comp.total, Seconds::new(1.25));
    }

    #[test]
    fn adaptive_steps_follow_hints_and_shrink_on_edges() {
        let policy = DtPolicy::adaptive(Seconds::new(0.001), Seconds::new(10.0));
        let mut sched = Scheduler::new(policy);
        let mut comp = Integrator::new();
        comp.hint = Some(Seconds::new(2.0));
        comp.edge_at = Some(Seconds::new(4.0));
        let mut bus = SimBus::new();
        let mut dts = Vec::new();
        sched.run_until(
            Seconds::new(6.0),
            Seconds::new(1.0),
            &mut [&mut comp],
            &mut bus,
            |_, dt, _| {
                dts.push(dt);
                StepControl::Continue
            },
        );
        assert_eq!(sched.time(), Seconds::new(6.0));
        // Warm-up at min_dt (start counts as an edge), then hint-sized
        // strides, then min_dt again inside the post-edge hold window.
        assert_eq!(dts[0], Seconds::new(0.001));
        assert!(dts.contains(&Seconds::new(2.0)));
        let edge_idx = dts
            .iter()
            .position(|&d| d == Seconds::new(2.0))
            .expect("hinted stride");
        // Immediately after the edge-containing step the hold pins min_dt.
        let after_edge = dts[edge_idx + 2];
        assert_eq!(after_edge, Seconds::new(0.001));
    }

    /// Hints `hint` and predicts an event `event` ahead, every step.
    struct Predictor {
        hint: Seconds,
        event: Seconds,
    }

    impl Clocked for Predictor {
        fn step(&mut self, _t: Seconds, _dt: Seconds, _bus: &mut SimBus) -> StepOutcome {
            StepOutcome::hint(self.hint).with_event_dt(self.event)
        }
    }

    #[test]
    fn predicted_events_cut_steps_below_the_floor() {
        let run = |policy: DtPolicy, event: f64| {
            let mut sched = Scheduler::new(policy);
            let mut comp = Predictor {
                hint: Seconds::new(2.0),
                event: Seconds::new(event),
            };
            let mut bus = SimBus::new();
            let mut dts = Vec::new();
            sched.run_until(
                Seconds::new(1.0),
                Seconds::new(0.5),
                &mut [&mut comp],
                &mut bus,
                |_, dt, _| {
                    dts.push(dt.as_seconds());
                    StepControl::Continue
                },
            );
            dts
        };
        let policy = DtPolicy::adaptive(Seconds::new(0.05), Seconds::new(10.0));
        // The event bound goes below the 50 ms floor; the first step has
        // no prediction yet.
        let dts = run(policy, 0.01);
        assert_eq!(dts[..3], [0.05, 0.01, 0.01]);
        // An event further off than the hint changes nothing.
        assert_eq!(run(policy, 5.0), [0.05, 0.95]);
        // Fixed dt ignores it.
        assert_eq!(run(DtPolicy::fixed(), 0.01), [0.5, 0.5]);
    }

    #[test]
    fn a_bound_set_between_runs_cuts_the_next_step_only() {
        let run = |sched: &mut Scheduler, until: f64| {
            let mut comp = Predictor {
                hint: Seconds::new(2.0),
                event: Seconds::new(5.0),
            };
            let mut dts = Vec::new();
            sched.run_until(
                Seconds::new(until),
                Seconds::new(0.5),
                &mut [&mut comp],
                &mut SimBus::new(),
                |_, dt, _| {
                    dts.push(dt.as_seconds());
                    StepControl::Continue
                },
            );
            dts
        };
        let mut sched = Scheduler::new(DtPolicy::adaptive(Seconds::new(0.25), Seconds::new(10.0)));
        assert_eq!(run(&mut sched, 2.25), [0.25, 2.0]);
        sched.bound_next(Seconds::new(0.125));
        assert_eq!(run(&mut sched, 4.375), [0.125, 2.0]);
        let mut fixed = Scheduler::new(DtPolicy::fixed());
        fixed.bound_next(Seconds::new(0.125));
        assert_eq!(run(&mut fixed, 1.0), [0.5, 0.5]);
    }

    #[test]
    fn fixed_count_runner_takes_exactly_n_steps() {
        let mut sched = Scheduler::new(DtPolicy::fixed());
        let mut comp = Integrator::new();
        let mut bus = SimBus::new();
        let done = sched.run_steps(
            7,
            Seconds::new(0.25),
            &mut [&mut comp],
            &mut bus,
            |_, _, _| StepControl::Continue,
        );
        assert!(done);
        assert_eq!(comp.steps, 7);
        assert_eq!(sched.time(), Seconds::new(1.75));
    }
}
