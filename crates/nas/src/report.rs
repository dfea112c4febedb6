//! Textual summaries of search outcomes: feasibility rates, energy/accuracy
//! distributions, sensing-space coverage and an ASCII Pareto sketch. Used by
//! the CLI and the bench harnesses; also a convenient debugging lens on a
//! search run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::candidate::SensingConfig;
use crate::pareto::pareto_front;
use crate::task::SearchOutcome;

/// Summary statistics of a search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSummary {
    /// Total candidates evaluated.
    pub evaluations: usize,
    /// Fraction meeting the accuracy constraint.
    pub feasible_fraction: f64,
    /// Best accuracy observed.
    pub best_accuracy: f64,
    /// Cheapest feasible true energy in µJ (`None` if nothing was feasible).
    pub cheapest_feasible_uj: Option<f64>,
    /// Number of distinct sensing configurations visited.
    pub distinct_sensing: usize,
    /// Size of the (accuracy ↑, energy ↓) Pareto front.
    pub pareto_size: usize,
}

impl SearchSummary {
    /// Computes the summary of an outcome.
    pub fn of(outcome: &SearchOutcome) -> Self {
        let n = outcome.history.len();
        let feasible = outcome.history.iter().filter(|e| e.meets_accuracy).count();
        let best_accuracy = outcome
            .history
            .iter()
            .map(|e| e.accuracy)
            .fold(0.0f64, f64::max);
        let cheapest_feasible_uj = outcome
            .history
            .iter()
            .filter(|e| e.meets_accuracy)
            .map(|e| e.true_energy.as_micro_joules())
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map(|a| a.min(e)).unwrap_or(e))
            });
        let distinct_sensing = distinct_sensing(outcome);
        Self {
            evaluations: n,
            feasible_fraction: if n == 0 {
                0.0
            } else {
                feasible as f64 / n as f64
            },
            best_accuracy,
            cheapest_feasible_uj,
            distinct_sensing,
            pareto_size: pareto_front(&outcome.history).len(),
        }
    }
}

fn distinct_sensing(outcome: &SearchOutcome) -> usize {
    let mut seen = std::collections::HashSet::new();
    for e in &outcome.history {
        let key = match e.candidate.sensing {
            SensingConfig::Gesture(p) => format!("g:{p}"),
            SensingConfig::Audio(p) => format!("a:{p}"),
        };
        seen.insert(key);
    }
    seen.len()
}

/// Renders a multi-line report: summary stats, a per-cycle feasibility
/// histogram and an ASCII accuracy-vs-energy scatter of the Pareto front.
pub fn render_report(outcome: &SearchOutcome) -> String {
    let summary = SearchSummary::of(outcome);
    let mut out = String::new();
    let _ = writeln!(out, "search report");
    let _ = writeln!(out, "  evaluations        : {}", summary.evaluations);
    let _ = writeln!(
        out,
        "  feasible           : {:.0}%",
        100.0 * summary.feasible_fraction
    );
    let _ = writeln!(out, "  best accuracy      : {:.3}", summary.best_accuracy);
    match summary.cheapest_feasible_uj {
        Some(uj) => {
            let _ = writeln!(out, "  cheapest feasible  : {uj:.0} µJ");
        }
        None => {
            let _ = writeln!(out, "  cheapest feasible  : none met the accuracy bound");
        }
    }
    let _ = writeln!(out, "  sensing configs    : {}", summary.distinct_sensing);
    let _ = writeln!(out, "  pareto front       : {} points", summary.pareto_size);

    // Per-phase/cycle accuracy progress (binned into five stages).
    let max_cycle = outcome.history.iter().map(|e| e.cycle).max().unwrap_or(0);
    if max_cycle > 0 {
        let mut bins: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        for e in &outcome.history {
            let bin = e.cycle * 5 / (max_cycle + 1);
            let entry = bins.entry(bin).or_insert((0.0, 0));
            entry.0 += e.accuracy;
            entry.1 += 1;
        }
        let _ = writeln!(out, "  accuracy by search stage:");
        for (bin, (sum, n)) in bins {
            let mean = sum / n as f64;
            let bar = "#".repeat((mean * 30.0).round() as usize);
            let _ = writeln!(out, "    stage {bin}: {mean:.3} |{bar}");
        }
    }

    // ASCII Pareto sketch: 10 energy columns × accuracy rows.
    let front = pareto_front(&outcome.history);
    if front.len() >= 2 {
        let e_lo = front[0].true_energy.as_micro_joules();
        let e_hi = front
            .last()
            .expect("front has >= 2 points")
            .true_energy
            .as_micro_joules();
        let _ = writeln!(out, "  pareto front (acc vs E, {e_lo:.0}..{e_hi:.0} µJ):");
        for row in (0..5).rev() {
            let acc_lo = row as f64 * 0.2;
            let mut line = String::from("    ");
            for col in 0..20 {
                let ce_lo = e_lo + (e_hi - e_lo) * col as f64 / 20.0;
                let ce_hi = e_lo + (e_hi - e_lo) * (col + 1) as f64 / 20.0;
                let hit = front.iter().any(|p| {
                    let e = p.true_energy.as_micro_joules();
                    let within_e = e >= ce_lo && (e < ce_hi || (col == 19 && e <= ce_hi));
                    let within_a = p.accuracy >= acc_lo && p.accuracy < acc_lo + 0.2 + 1e-9;
                    within_e && within_a
                });
                line.push(if hit { '*' } else { '.' });
            }
            let _ = writeln!(out, "{line}  acc ≥ {acc_lo:.1}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Evaluated};
    use solarml_dsp::{GestureSensingParams, Resolution};
    use solarml_nn::{LayerSpec, ModelSpec};
    use solarml_units::Energy;

    fn outcome_with(points: Vec<(f64, f64, bool, usize)>) -> SearchOutcome {
        let history: Vec<Evaluated> = points
            .into_iter()
            .enumerate()
            .map(|(i, (acc, uj, feasible, cycle))| {
                let params = GestureSensingParams::new((1 + (i % 9)) as u8, 50, Resolution::Int, 8)
                    .expect("valid");
                Evaluated {
                    candidate: Candidate {
                        sensing: SensingConfig::Gesture(params),
                        spec: ModelSpec::new(
                            [4, 1, 1],
                            vec![LayerSpec::flatten(), LayerSpec::dense(2)],
                        )
                        .expect("valid"),
                    },
                    accuracy: acc,
                    estimated_energy: Energy::from_micro_joules(uj),
                    true_energy: Energy::from_micro_joules(uj),
                    meets_accuracy: feasible,
                    cycle,
                }
            })
            .collect();
        let best = history[0].clone();
        SearchOutcome {
            history,
            best,
            energy_envelope: (Energy::ZERO, Energy::new(1.0)),
            groups: Vec::new(),
        }
    }

    #[test]
    fn summary_counts_feasibility_and_coverage() {
        let outcome = outcome_with(vec![
            (0.9, 1000.0, true, 0),
            (0.5, 500.0, false, 1),
            (0.8, 700.0, true, 2),
        ]);
        let s = SearchSummary::of(&outcome);
        assert_eq!(s.evaluations, 3);
        assert!((s.feasible_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.best_accuracy, 0.9);
        assert_eq!(s.cheapest_feasible_uj, Some(700.0));
        assert_eq!(s.distinct_sensing, 3);
    }

    #[test]
    fn summary_handles_all_infeasible() {
        let outcome = outcome_with(vec![(0.3, 1000.0, false, 0)]);
        let s = SearchSummary::of(&outcome);
        assert_eq!(s.cheapest_feasible_uj, None);
    }

    #[test]
    fn report_renders_all_sections() {
        let outcome = outcome_with(vec![
            (0.9, 1500.0, true, 0),
            (0.7, 600.0, true, 3),
            (0.5, 400.0, true, 7),
            (0.95, 2500.0, true, 9),
        ]);
        let report = render_report(&outcome);
        assert!(report.contains("evaluations        : 4"));
        assert!(report.contains("feasible           : 100%"));
        assert!(report.contains("accuracy by search stage"));
        assert!(report.contains("pareto front ("));
        // The sketch contains at least one plotted point.
        assert!(report.contains('*'), "report:\n{report}");
    }

    #[test]
    fn report_is_stable_for_single_point() {
        let outcome = outcome_with(vec![(0.8, 1000.0, true, 0)]);
        let report = render_report(&outcome);
        assert!(report.contains("pareto front       : 1 points"));
        // No sketch section with fewer than two front points.
        assert!(!report.contains("pareto front (acc vs E"));
    }
}
