//! The component trait every simulated block implements.

use solarml_units::Seconds;

use crate::bus::SimBus;

/// What a component tells the scheduler after taking a step.
///
/// `max_dt` is a *hint* for the next step: the largest timestep this
/// component can integrate accurately from its current state (e.g. the
/// supercap's error-bounded `stable_dt`, or the time until the next
/// scheduled environment transition). The scheduler takes the minimum over
/// all components and clamps it into the policy's `[min_dt, max_dt]` band.
///
/// `edge` marks that something discontinuous happened *inside* this step
/// (a comparator fired, the detector switched). The scheduler reacts by
/// pinning the next steps to `min_dt` for the policy's
/// [`edge_hold`](crate::DtPolicy::edge_hold) window, so post-event
/// dynamics are resolved finely.
///
/// `event_dt` is the time until a discontinuity the component predicts
/// (a comparator threshold crossing). Unlike `max_dt` the policy's
/// `min_dt` does not floor it, and it cuts the edge-hold steps too, so
/// the step that crosses ends just past the event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepOutcome {
    /// Largest next-step dt this component can tolerate; `None` means "any".
    pub max_dt: Option<Seconds>,
    /// Whether a discontinuity occurred during this step.
    pub edge: bool,
    /// Time until a predicted discontinuity; `None` means none is due.
    pub event_dt: Option<Seconds>,
}

impl StepOutcome {
    /// No constraint on the next step.
    pub fn quiescent() -> Self {
        Self::default()
    }

    /// Bounds the next step to at most `dt`.
    pub fn hint(dt: Seconds) -> Self {
        Self {
            max_dt: Some(dt),
            ..Self::default()
        }
    }

    /// Adds a predicted discontinuity `dt` ahead.
    pub fn with_event_dt(mut self, dt: Seconds) -> Self {
        self.event_dt = min_hint(self.event_dt, Some(dt));
        self
    }

    /// Adds the edge mark to an existing outcome.
    pub fn with_edge(mut self, edge: bool) -> Self {
        self.edge |= edge;
        self
    }

    /// Merges another component's outcome into this one: hints combine by
    /// minimum, edges by OR.
    pub fn merge(self, other: Self) -> Self {
        Self {
            max_dt: min_hint(self.max_dt, other.max_dt),
            edge: self.edge || other.edge,
            event_dt: min_hint(self.event_dt, other.event_dt),
        }
    }
}

/// The lesser of two optional widths, `None` standing for no bound.
fn min_hint(a: Option<Seconds>, b: Option<Seconds>) -> Option<Seconds> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// A simulated component advanced by the scheduler's single clock.
///
/// `t` is the time at the *start* of the step and `dt` its length; the
/// component must advance its internal state across `[t, t + dt)`, reading
/// inputs published earlier on the `bus` and publishing its own outputs.
/// Components are stepped in the order the driving loop lists them.
pub trait Clocked {
    /// Advances this component across `[t, t + dt)`.
    fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_min_hint_and_or_edge() {
        let a = StepOutcome::hint(Seconds::new(0.5));
        let b = StepOutcome::hint(Seconds::new(0.2)).with_edge(true);
        let m = a.merge(b);
        assert_eq!(m.max_dt, Some(Seconds::new(0.2)));
        assert!(m.edge);
        let n = StepOutcome::quiescent().merge(a);
        assert_eq!(n.max_dt, Some(Seconds::new(0.5)));
        assert!(!n.edge);
        assert_eq!(n.event_dt, None);
        let e = a.with_event_dt(Seconds::new(0.01));
        let f = b.with_event_dt(Seconds::new(0.02));
        assert_eq!(e.merge(f).event_dt, Some(Seconds::new(0.01)));
        assert_eq!(e.merge(b).event_dt, Some(Seconds::new(0.01)));
    }
}
