//! Search candidates: a sensing configuration plus a model architecture.

use std::fmt;

use solarml_dsp::{AudioFrontendParams, GestureSensingParams};
use solarml_nn::ModelSpec;
use solarml_units::Energy;

/// A task-specific sensing configuration (the Table II half of a candidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensingConfig {
    /// Gesture task: `(n, r, b, q)`.
    Gesture(GestureSensingParams),
    /// KWS task: `(s, d, f)`.
    Audio(AudioFrontendParams),
}

impl fmt::Display for SensingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensingConfig::Gesture(p) => write!(f, "{p}"),
            SensingConfig::Audio(p) => write!(f, "{p}"),
        }
    }
}

/// One point in the joint search space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The sensing half.
    pub sensing: SensingConfig,
    /// The architecture half.
    pub spec: ModelSpec,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {}", self.sensing, self.spec.describe())
    }
}

/// A candidate with its measured quality and estimated/true energies.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// The candidate.
    pub candidate: Candidate,
    /// Held-out accuracy after training.
    pub accuracy: f64,
    /// Estimated end-to-end energy `E_S + E_M` (what the search optimizes).
    pub estimated_energy: Energy,
    /// Ground-truth end-to-end energy (what the evaluation reports).
    pub true_energy: Energy,
    /// Whether the accuracy constraint was satisfied.
    pub meets_accuracy: bool,
    /// Search cycle at which the candidate was produced (0 = phase 1).
    pub cycle: usize,
}

impl Evaluated {
    /// The paper's scalarized objective:
    /// `A − λ·(E − E_min)/(E_max − E_min)`, with the energy term clamped to
    /// `[0, 1]` so outliers beyond the phase-1 envelope stay comparable.
    /// Candidates missing the accuracy constraint are pushed far below any
    /// feasible candidate.
    pub fn objective(&self, lambda: f64, e_min: Energy, e_max: Energy) -> f64 {
        let span = (e_max - e_min).as_joules().max(1e-15);
        let norm = ((self.estimated_energy - e_min).as_joules() / span).clamp(0.0, 1.0);
        let base = self.accuracy - lambda * norm;
        if self.meets_accuracy {
            base
        } else {
            base - 10.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_dsp::Resolution;
    use solarml_nn::LayerSpec;

    fn evaluated(accuracy: f64, energy_uj: f64, feasible: bool) -> Evaluated {
        let params = GestureSensingParams::new(3, 50, Resolution::Int, 8).expect("valid");
        let spec = solarml_nn::ModelSpec::new(
            [10, 3, 1],
            vec![LayerSpec::flatten(), LayerSpec::dense(10)],
        )
        .expect("valid");
        Evaluated {
            candidate: Candidate {
                sensing: SensingConfig::Gesture(params),
                spec,
            },
            accuracy,
            estimated_energy: Energy::from_micro_joules(energy_uj),
            true_energy: Energy::from_micro_joules(energy_uj),
            meets_accuracy: feasible,
            cycle: 0,
        }
    }

    #[test]
    fn lambda_zero_is_pure_accuracy() {
        let lo = evaluated(0.8, 100.0, true);
        let hi = evaluated(0.9, 10_000.0, true);
        let (e0, e1) = (
            Energy::from_micro_joules(100.0),
            Energy::from_micro_joules(10_000.0),
        );
        assert!(hi.objective(0.0, e0, e1) > lo.objective(0.0, e0, e1));
    }

    #[test]
    fn lambda_one_prioritizes_energy() {
        let cheap = evaluated(0.8, 100.0, true);
        let pricey = evaluated(0.9, 10_000.0, true);
        let (e0, e1) = (
            Energy::from_micro_joules(100.0),
            Energy::from_micro_joules(10_000.0),
        );
        assert!(cheap.objective(1.0, e0, e1) > pricey.objective(1.0, e0, e1));
    }

    #[test]
    fn energy_term_clamps_outside_envelope() {
        let way_out = evaluated(0.9, 1_000_000.0, true);
        let (e0, e1) = (
            Energy::from_micro_joules(100.0),
            Energy::from_micro_joules(200.0),
        );
        // Clamped to 1: objective = 0.9 − λ.
        assert!((way_out.objective(0.5, e0, e1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn infeasible_loses_to_any_feasible() {
        let bad = evaluated(0.99, 100.0, false);
        let ok = evaluated(0.5, 10_000.0, true);
        let (e0, e1) = (
            Energy::from_micro_joules(100.0),
            Energy::from_micro_joules(10_000.0),
        );
        assert!(ok.objective(0.5, e0, e1) > bad.objective(0.5, e0, e1));
    }

    mod objective_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn monotone_increasing_in_accuracy(
                a1 in 0.0f64..1.0,
                delta in 0.001f64..0.5,
                e in 100.0f64..10_000.0,
                lambda in 0.0f64..1.0,
            ) {
                let lo = evaluated(a1, e, true);
                let hi = evaluated((a1 + delta).min(1.0), e, true);
                let (e0, e1) = (
                    Energy::from_micro_joules(100.0),
                    Energy::from_micro_joules(10_000.0),
                );
                prop_assert!(hi.objective(lambda, e0, e1) >= lo.objective(lambda, e0, e1));
            }

            #[test]
            fn monotone_decreasing_in_energy(
                a in 0.0f64..1.0,
                e1_uj in 100.0f64..9_000.0,
                extra in 1.0f64..1_000.0,
                lambda in 0.01f64..1.0,
            ) {
                let cheap = evaluated(a, e1_uj, true);
                let pricey = evaluated(a, e1_uj + extra, true);
                let (lo, hi) = (
                    Energy::from_micro_joules(100.0),
                    Energy::from_micro_joules(10_000.0),
                );
                prop_assert!(cheap.objective(lambda, lo, hi) >= pricey.objective(lambda, lo, hi));
            }

            #[test]
            fn objective_is_finite_for_degenerate_envelopes(
                a in 0.0f64..1.0,
                e in 0.0f64..10_000.0,
                lambda in 0.0f64..1.0,
            ) {
                let x = evaluated(a, e, true);
                // Zero-width envelope must not divide by zero.
                let point = Energy::from_micro_joules(500.0);
                prop_assert!(x.objective(lambda, point, point).is_finite());
            }
        }
    }

    #[test]
    fn display_combines_both_halves() {
        let e = evaluated(0.5, 1.0, true);
        let s = e.candidate.to_string();
        assert!(s.contains("n=3"));
        assert!(s.contains("dense10"));
    }
}
