//! Light and user-interaction stimuli for the circuit simulation.
//!
//! The simulators need two environmental inputs over time: how much light
//! falls on the array (office ≈500 lux, window ≈1000 lux, dim ≈250 lux) and
//! when/where a user's hand hovers over cells (the event-detection and
//! gesture-sensing stimulus).

use solarml_units::{Lux, Ratio, Seconds};

/// Instantaneous illumination of the array: ambient level plus per-use
/// shading of the event-detection cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Illumination {
    /// Ambient illuminance falling on un-shaded cells.
    pub ambient: Lux,
    /// Shading of the event-detection cells, [`Ratio::ZERO`] (clear) to
    /// [`Ratio::ONE`] (covered).
    pub event_cell_shading: Ratio,
}

/// A scripted sequence of hover gestures over the event-detection cells.
///
/// Each entry is `(start, duration)`; during a hover the event cells are
/// fully shaded. Hovers are how a user starts and ends an interaction
/// (paper §III-B2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoverSchedule {
    hovers: Vec<(Seconds, Seconds)>,
}

impl HoverSchedule {
    /// An empty schedule: nobody ever hovers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schedule from `(start, duration)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any duration is non-positive.
    pub fn from_hovers(hovers: impl IntoIterator<Item = (Seconds, Seconds)>) -> Self {
        let hovers: Vec<_> = hovers.into_iter().collect();
        for &(start, dur) in &hovers {
            assert!(
                dur.as_seconds() > 0.0,
                "hover duration must be positive at t={start}"
            );
        }
        Self { hovers }
    }

    /// Appends one hover.
    pub fn push(&mut self, start: Seconds, duration: Seconds) {
        assert!(
            duration.as_seconds() > 0.0,
            "hover duration must be positive"
        );
        self.hovers.push((start, duration));
    }

    /// Whether a hover is in progress at time `t`.
    pub fn hovering_at(&self, t: Seconds) -> bool {
        self.hovers.iter().any(|&(s, d)| t >= s && t < s + d)
    }

    /// The scripted hovers.
    pub fn hovers(&self) -> &[(Seconds, Seconds)] {
        &self.hovers
    }

    /// The earliest hover start or end strictly after `t`, if any.
    pub fn next_transition_after(&self, t: Seconds) -> Option<Seconds> {
        self.hovers
            .iter()
            .flat_map(|&(s, d)| [s, s + d])
            .filter(|&edge| edge > t)
            .fold(None, |best: Option<Seconds>, edge| match best {
                Some(b) => Some(b.min(edge)),
                None => Some(edge),
            })
    }

    /// The canonical "one interaction" schedule: a start-hover at `t0`, then
    /// an end-hover after `gesture` seconds of gesturing.
    pub fn interaction(t0: Seconds, gesture: Seconds) -> Self {
        let tap = Seconds::from_millis(300.0);
        Self::from_hovers([(t0, tap), (t0 + tap + gesture, tap)])
    }
}

/// A scripted ambient-light change: from `t`, the ambient ramps linearly to
/// `level` over `ramp` seconds (zero ramp = a step, e.g. lights switched
/// off; seconds-scale ramps model passing clouds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightChange {
    /// When the change starts.
    pub at: Seconds,
    /// The new ambient level.
    pub level: Lux,
    /// Transition duration (0 = instantaneous).
    pub ramp: Seconds,
}

/// Ambient light plus scripted hover events and ambient changes.
#[derive(Debug, Clone, PartialEq)]
pub struct LightEnvironment {
    ambient: Lux,
    hovers: HoverSchedule,
    changes: Vec<LightChange>,
}

impl LightEnvironment {
    /// Constant ambient light, no hovers.
    pub fn constant(ambient: Lux) -> Self {
        Self {
            ambient,
            hovers: HoverSchedule::new(),
            changes: Vec::new(),
        }
    }

    /// Constant ambient light with the given hover script.
    pub fn with_hovers(ambient: Lux, hovers: HoverSchedule) -> Self {
        Self {
            ambient,
            hovers,
            changes: Vec::new(),
        }
    }

    /// Adds scripted ambient changes (must be in time order).
    ///
    /// # Panics
    ///
    /// Panics if the changes are not sorted by start time.
    pub fn with_changes(mut self, changes: Vec<LightChange>) -> Self {
        assert!(
            changes.windows(2).all(|w| w[0].at <= w[1].at),
            "light changes must be sorted by time"
        );
        self.changes = changes;
        self
    }

    /// Initial ambient illuminance level.
    pub fn ambient(&self) -> Lux {
        self.ambient
    }

    /// The hover schedule.
    pub fn hovers(&self) -> &HoverSchedule {
        &self.hovers
    }

    /// Ambient level at time `t`, applying the scripted changes.
    pub fn ambient_at(&self, t: Seconds) -> Lux {
        let mut level = self.ambient;
        for change in &self.changes {
            if t < change.at {
                break;
            }
            let elapsed = (t - change.at).as_seconds();
            let ramp = change.ramp.as_seconds();
            if ramp <= 0.0 || elapsed >= ramp {
                level = change.level;
            } else {
                let frac = elapsed / ramp;
                level = Lux::new(level.as_lux() + (change.level.as_lux() - level.as_lux()) * frac);
                break; // mid-ramp: later changes have not begun
            }
        }
        level
    }

    /// Whether the ambient level is mid-ramp (continuously changing) at `t`.
    pub fn is_ramping_at(&self, t: Seconds) -> bool {
        self.changes
            .iter()
            .any(|c| c.ramp.as_seconds() > 0.0 && t >= c.at && t < c.at + c.ramp)
    }

    /// The earliest scripted discontinuity strictly after `t`: a hover edge,
    /// a light-change start, or a ramp end. `None` when the environment is
    /// constant from `t` on — the adaptive scheduler's license to stretch
    /// the timestep.
    pub fn next_transition_after(&self, t: Seconds) -> Option<Seconds> {
        let light = self
            .changes
            .iter()
            .flat_map(|c| [c.at, c.at + c.ramp])
            .filter(|&edge| edge > t);
        light.chain(self.hovers.next_transition_after(t)).fold(
            None,
            |best: Option<Seconds>, edge| match best {
                Some(b) => Some(b.min(edge)),
                None => Some(edge),
            },
        )
    }

    /// Illumination state at time `t`.
    pub fn illumination(&self, t: Seconds) -> Illumination {
        Illumination {
            ambient: self.ambient_at(t),
            event_cell_shading: if self.hovers.hovering_at(t) {
                Ratio::ONE
            } else {
                Ratio::ZERO
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_environment_never_shades() {
        let env = LightEnvironment::constant(Lux::new(500.0));
        for t in [0.0, 1.0, 100.0] {
            let ill = env.illumination(Seconds::new(t));
            assert_eq!(ill.event_cell_shading, Ratio::ZERO);
            assert_eq!(ill.ambient, Lux::new(500.0));
        }
    }

    #[test]
    fn hover_windows_are_half_open() {
        let sched = HoverSchedule::from_hovers([(Seconds::new(1.0), Seconds::new(0.5))]);
        assert!(!sched.hovering_at(Seconds::new(0.99)));
        assert!(sched.hovering_at(Seconds::new(1.0)));
        assert!(sched.hovering_at(Seconds::new(1.49)));
        assert!(!sched.hovering_at(Seconds::new(1.5)));
    }

    #[test]
    fn interaction_has_two_taps() {
        let sched = HoverSchedule::interaction(Seconds::new(0.0), Seconds::new(2.0));
        assert_eq!(sched.hovers().len(), 2);
        // Start tap at t=0, end tap after tap+gesture.
        assert!(sched.hovering_at(Seconds::new(0.1)));
        assert!(!sched.hovering_at(Seconds::new(1.0)));
        assert!(sched.hovering_at(Seconds::new(2.4)));
    }

    #[test]
    #[should_panic(expected = "hover duration must be positive")]
    fn zero_duration_hover_rejected() {
        let _ = HoverSchedule::from_hovers([(Seconds::new(1.0), Seconds::ZERO)]);
    }

    #[test]
    fn light_changes_step_and_ramp() {
        let env = LightEnvironment::constant(Lux::new(500.0)).with_changes(vec![
            LightChange {
                at: Seconds::new(10.0),
                level: Lux::new(100.0),
                ramp: Seconds::new(4.0),
            },
            LightChange {
                at: Seconds::new(20.0),
                level: Lux::new(2.0),
                ramp: Seconds::ZERO,
            },
        ]);
        assert_eq!(env.ambient_at(Seconds::new(5.0)).as_lux(), 500.0);
        // Mid-ramp at t = 12: halfway from 500 to 100.
        assert!((env.ambient_at(Seconds::new(12.0)).as_lux() - 300.0).abs() < 1e-9);
        assert_eq!(env.ambient_at(Seconds::new(15.0)).as_lux(), 100.0);
        // Step to darkness.
        assert_eq!(env.ambient_at(Seconds::new(20.0)).as_lux(), 2.0);
        assert_eq!(env.ambient_at(Seconds::new(100.0)).as_lux(), 2.0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_changes_rejected() {
        let _ = LightEnvironment::constant(Lux::new(500.0)).with_changes(vec![
            LightChange {
                at: Seconds::new(10.0),
                level: Lux::new(100.0),
                ramp: Seconds::ZERO,
            },
            LightChange {
                at: Seconds::new(5.0),
                level: Lux::new(50.0),
                ramp: Seconds::ZERO,
            },
        ]);
    }

    #[test]
    fn environment_reports_shading_during_hover() {
        let sched = HoverSchedule::from_hovers([(Seconds::new(0.5), Seconds::new(0.2))]);
        let env = LightEnvironment::with_hovers(Lux::new(500.0), sched);
        assert_eq!(
            env.illumination(Seconds::new(0.6)).event_cell_shading,
            Ratio::ONE
        );
        assert_eq!(
            env.illumination(Seconds::new(0.8)).event_cell_shading,
            Ratio::ZERO
        );
    }
}
