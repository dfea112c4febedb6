//! `--compare A.json B.json`: B against A, workload by workload.
//!
//! Each results file holds one or more runs per workload (`--out` appends).
//! A metric's runs are summarised by the median and quartiles of their
//! reported values, the way the benchmark's acceptance runs are judged. It
//! regresses when B's median is worse than A's by more than its bound. It
//! is *unresolved* when its median is within the bound but either side's
//! quartile spread is wider than the bound, since the runs cannot then tell
//! "no worse" from noise; the one exception is every B run reading better
//! than every A run. A metric with a zero bound (`failed_frac`) regresses
//! as soon as any B run is worse than A's worst, spread or not. Any
//! deterministic count that differs between two runs of the same workload
//! and seed fails the comparison: a speed-only change must leave them all
//! identical.

use crate::json::{parse, Value};
use crate::stats::Summary;

/// The benchmark definition the bounds come from.
const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

/// Absolute slack on `setup_s`, so a set-up of a few milliseconds does not
/// fail on scheduler noise.
const SETUP_FLOOR_S: f64 = 0.05;

/// How far a metric may worsen: a share of A's median, but at least `floor`
/// in the metric's own unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of A's median.
    pub frac: f64,
    /// Absolute floor.
    pub floor: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

impl Bound {
    /// A value's badness: the higher, the worse.
    fn badness(&self, x: f64) -> f64 {
        if self.lower_is_better {
            x
        } else {
            -x
        }
    }

    /// The worst and the best badness of `runs`.
    fn extremes(&self, runs: &[f64]) -> (f64, f64) {
        runs.iter()
            .map(|&x| self.badness(x))
            .fold((f64::NEG_INFINITY, f64::INFINITY), |(worst, best), x| {
                (worst.max(x), best.min(x))
            })
    }
}

/// The outcome for one metric on one workload, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// The median is within the bound, but the runs' spread is wider than
    /// the bound, so "no worse" is not shown.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

/// Judges B's runs against A's; `None` when a side has no runs.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> Option<Verdict> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let (worst_a, best_a) = bound.extremes(a);
    let (worst_b, _) = bound.extremes(b);
    if bound.frac <= 0.0 && bound.floor <= 0.0 {
        return Some(if worst_b > worst_a {
            Verdict::Regressed
        } else {
            Verdict::Within
        });
    }
    let allowed = (bound.frac * sa.median.abs()).max(bound.floor);
    Some(
        if bound.badness(sb.median) - bound.badness(sa.median) > allowed {
            Verdict::Regressed
        } else if sa.iqr().max(sb.iqr()) > allowed && worst_b >= best_a {
            Verdict::Unresolved
        } else {
            Verdict::Within
        },
    )
}

/// The compared metrics and their bounds: every end-to-end metric of
/// `BENCHMARK.json` (with the set-up floor), plus `failed_frac`, which may
/// not rise at all.
pub fn bounds() -> Result<Vec<(String, Bound)>, String> {
    let doc = parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Vec::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let frac = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        let lower_is_better = m.get("better").and_then(Value::as_str) != Some("higher");
        let floor = if name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        };
        out.push((
            name.to_string(),
            Bound {
                frac,
                floor,
                lower_is_better,
            },
        ));
    }
    out.push((
        "failed_frac".to_string(),
        Bound {
            frac: 0.0,
            floor: 0.0,
            lower_is_better: true,
        },
    ));
    Ok(out)
}

fn workload(entry: &Value) -> Option<&str> {
    entry.get("workload")?.as_str()
}

fn entries(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

/// The runs of workload `name` in a results file.
fn runs_of<'a>(doc: &'a Value, name: &str) -> Vec<&'a Value> {
    entries(doc)
        .iter()
        .filter(|e| workload(e) == Some(name))
        .collect()
}

/// The reported values of `metric` over `runs`.
fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn counts(entry: &Value) -> Vec<(String, String)> {
    entry
        .get("counts")
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
        .collect()
}

/// Lines naming each count that differs between two runs; empty when none.
fn count_drift(a: &Value, b: &Value) -> Vec<String> {
    let (ca, cb) = (counts(a), counts(b));
    let mut out = Vec::new();
    for (key, va) in &ca {
        let vb = cb.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        if vb != Some(va.as_str()) {
            out.push(format!("{key}: {va} -> {}", vb.unwrap_or("missing")));
        }
    }
    for (key, vb) in &cb {
        if !ca.iter().any(|(k, _)| k == key) {
            out.push(format!("{key}: missing -> {vb}"));
        }
    }
    out
}

/// Compares two parsed results files. Returns the report and the worst
/// verdict: `Regressed` for a regression or any count drift, `Unresolved`
/// when some metric is, `Within` when B passes.
pub fn compare(a: &Value, b: &Value, bounds: &[(String, Bound)]) -> (String, Verdict) {
    let mut out = String::new();
    let mut overall = Verdict::Within;
    let mut names: Vec<&str> = Vec::new();
    for name in entries(a).iter().filter_map(workload) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    for name in names {
        let (ra, rb) = (runs_of(a, name), runs_of(b, name));
        if rb.is_empty() {
            out.push_str(&format!("{name}: only in A\n"));
            continue;
        }
        out.push_str(&format!(
            "{name}\n  {:<14} {:>32} {:>32} {:>8}  verdict\n",
            "metric", "A median [p25, p75] runs", "B median [p25, p75] runs", "change"
        ));
        for (metric, bound) in bounds {
            let (va, vb) = (values(&ra, metric), values(&rb, metric));
            let (Some(verdict), Some(sa), Some(sb)) =
                (judge(&va, &vb, *bound), Summary::of(&va), Summary::of(&vb))
            else {
                continue;
            };
            overall = overall.max(verdict);
            let show =
                |s: &Summary| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.p25, s.p75, s.n);
            let change = if sa.median.abs() > 0.0 {
                format!("{:+.1}%", (sb.median / sa.median - 1.0) * 100.0)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {:<14} {:>32} {:>32} {:>8}  {}\n",
                metric,
                show(&sa),
                show(&sb),
                change,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                    Verdict::Regressed => "REGRESSED",
                }
            ));
        }
        let seed = |e: &Value| e.get("seed").and_then(Value::as_f64);
        let mut paired = 0;
        for ea in &ra {
            let Some(eb) = rb.iter().find(|eb| seed(eb) == seed(ea)) else {
                continue;
            };
            paired += 1;
            let drift = count_drift(ea, eb);
            for line in &drift {
                out.push_str(&format!(
                    "  COUNT DRIFT (seed {}) {line}\n",
                    seed(ea).unwrap_or(f64::NAN)
                ));
            }
            if !drift.is_empty() {
                overall = Verdict::Regressed;
            }
        }
        out.push_str(&match paired {
            0 => "  counts not compared: no seed ran on both sides\n".to_string(),
            n => format!("  deterministic counts compared on {n} seed(s)\n"),
        });
    }
    (out, overall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound_of(name: &str) -> Bound {
        bounds()
            .expect("BENCHMARK.json parses")
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("{name} has a bound"))
    }

    fn verdict(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
        judge(a, b, bound).expect("both sides have runs")
    }

    /// Five runs spread evenly by `spread` around `median`.
    fn runs(median: f64, spread: f64) -> Vec<f64> {
        [-1.0, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|k| median * (1.0 + k * spread))
            .collect()
    }

    #[test]
    fn a_median_past_the_bound_regresses() {
        let rep = bound_of("rep_s");
        let limit = 1.0 + rep.frac;
        let base = runs(1.0, 0.01);
        assert_eq!(
            verdict(&base, &runs(limit - 0.01, 0.01), rep),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &runs(limit + 0.01, 0.01), rep),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &runs(0.5, 0.01), rep), Verdict::Within);
        // However wide the spread, a doubled median is a regression.
        assert_eq!(verdict(&base, &runs(2.0, 0.5), rep), Verdict::Regressed);
        assert_eq!(
            verdict(&runs(1.0, 0.9), &runs(2.0, 0.01), rep),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let rep = bound_of("rep_s");
        let wide = runs(1.0, 2.0 * rep.frac);
        assert_eq!(verdict(&wide, &runs(1.0, 0.01), rep), Verdict::Unresolved);
        assert_eq!(verdict(&runs(1.0, 0.01), &wide, rep), Verdict::Unresolved);
        // Unless every B run reads better than every A run.
        let faster: Vec<f64> = wide.iter().map(|x| x * 0.1).collect();
        assert_eq!(verdict(&wide, &faster, rep), Verdict::Within);
        // For a higher-is-better metric, better means higher.
        let rate = Bound {
            lower_is_better: false,
            ..rep
        };
        let slower_rates: Vec<f64> = wide.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&wide, &slower_rates, rate), Verdict::Unresolved);
        let higher: Vec<f64> = wide.iter().map(|x| x * 10.0).collect();
        assert_eq!(verdict(&wide, &higher, rate), Verdict::Within);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = bound_of("setup_s");
        assert!((setup.floor - SETUP_FLOOR_S).abs() < 1e-12);
        let fast = [0.010; 5];
        assert_eq!(verdict(&fast, &[0.055; 5], setup), Verdict::Within);
        assert_eq!(verdict(&fast, &[0.070; 5], setup), Verdict::Regressed);
        let limit = 10.0 * (1.0 + setup.frac);
        assert_eq!(
            verdict(&[10.0; 5], &[limit + 0.1; 5], setup),
            Verdict::Regressed
        );
    }

    #[test]
    fn failed_frac_may_not_rise_at_all() {
        let failed = bound_of("failed_frac");
        let zero = [0.0; 5];
        assert_eq!(verdict(&zero, &zero, failed), Verdict::Within);
        // Two failing runs of five: the median and quartile spread hide
        // them, the zero bound does not.
        let some = [0.0, 0.0, 0.0, 0.01, 0.02];
        assert_eq!(verdict(&zero, &some, failed), Verdict::Regressed);
        assert_eq!(verdict(&some, &zero, failed), Verdict::Within);
        assert_eq!(verdict(&some, &some, failed), Verdict::Within);
    }

    /// A results file with one `fleet_cold` run per `(seed, rep_s)`.
    fn results(runs: &[(u64, f64)], fnv: &str) -> Value {
        let entries: Vec<String> = runs
            .iter()
            .map(|(seed, rep)| {
                format!(
                    r#"{{"workload": "fleet_cold", "seed": {seed},
                        "end_to_end": {{
                            "rep_s": {{"unit": "s", "value": {rep}}},
                            "failed_frac": {{"unit": "frac", "value": 0}}
                        }},
                        "counts": {{"fleet.report_fnv": "{fnv}"}}}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"schema": "solarbench-results/v1", "workloads": [{}]}}"#,
            entries.join(",")
        );
        parse(&text).expect("valid results")
    }

    #[test]
    fn compare_fails_on_regressions_and_count_drift() {
        let bounds = bounds().expect("bounds");
        let base = results(&[(7, 1.0)], "aa");
        let (_, verdict) = compare(&base, &results(&[(7, 1.0)], "aa"), &bounds);
        assert_eq!(verdict, Verdict::Within);
        let (report, verdict) = compare(&base, &results(&[(7, 2.0)], "aa"), &bounds);
        assert!(
            verdict == Verdict::Regressed && report.contains("REGRESSED"),
            "{report}"
        );
        let (report, verdict) = compare(&base, &results(&[(7, 1.0)], "bb"), &bounds);
        assert!(
            verdict == Verdict::Regressed
                && report.contains("COUNT DRIFT (seed 7) fleet.report_fnv"),
            "{report}"
        );
        let (report, verdict) = compare(&base, &results(&[(11, 1.0)], "bb"), &bounds);
        assert!(
            verdict == Verdict::Within && report.contains("no seed ran on both sides"),
            "{report}"
        );
    }

    #[test]
    fn compare_summarises_several_runs_per_side() {
        let bounds = bounds().expect("bounds");
        let steady: Vec<(u64, f64)> = (1..=5).map(|s| (s, 1.0 + 0.001 * s as f64)).collect();
        let noisy: Vec<(u64, f64)> = (1..=5).zip([0.5, 1.0, 1.5, 0.7, 1.3]).collect();
        let (report, verdict) = compare(&results(&steady, "aa"), &results(&steady, "aa"), &bounds);
        assert!(
            verdict == Verdict::Within && report.contains("compared on 5 seed(s)"),
            "{report}"
        );
        let (report, verdict) = compare(&results(&steady, "aa"), &results(&noisy, "aa"), &bounds);
        assert!(
            verdict == Verdict::Unresolved && report.contains("UNRESOLVED"),
            "{report}"
        );
    }
}
