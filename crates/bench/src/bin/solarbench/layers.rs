//! Per-layer metrics from the traced run's spans.
//!
//! A span's layer is the first dotted component of its name
//! (`store.require` belongs to `store`). Shares are taken over the timed
//! reps only (spans under a `rep` root), because those are what the
//! end-to-end `rep_s` measures; set-up, replays, re-folds and probe passes
//! feed the per-call latency figures but no share.

use std::collections::BTreeMap;

use solarml::platform::DayFaultReport;

use crate::stats::quantile;
use crate::tracer::{roots, self_times, Span};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The per-layer metrics `BENCHMARK.json` names, in its order. Every traced
/// run prints all of them; a share, fraction or count of a layer the
/// workload bypasses reads 0. Per-call latencies of layers only some
/// workloads exercise are in the full table and the `--out` file instead,
/// so no time here can read 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("day_sim.ms.p50", "ms"),
    ("day_sim.ms.p99", "ms"),
    ("day_sim.us_per_cycle", "us"),
    ("population.blueprint_us.p50", "us"),
    ("population.blueprint_us.p99", "us"),
    ("report.to_json_us.p50", "us"),
    ("day_sim.share", "frac"),
    ("population.share", "frac"),
    ("task.share", "frac"),
    ("checkpoint.share", "frac"),
    ("store.share", "frac"),
    ("campaign.share", "frac"),
    ("report.share", "frac"),
    ("nas.share", "frac"),
    ("energy.share", "frac"),
    ("campaign.worker_busy_frac", "frac"),
    ("campaign.self_frac", "frac"),
    ("campaign.named_frac", "frac"),
    ("store.hit_ratio", "frac"),
    ("nas.memo_hit_ratio", "frac"),
    ("nas.replay_coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("day_sim.cycles_attempted", "count"),
    ("day_sim.cycles_completed", "count"),
    ("day_sim.interrupted", "count"),
    ("day_sim.resumed", "count"),
    ("day_sim.brownouts", "count"),
    ("day_sim.recoveries", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "B"),
    ("store.entries", "count"),
    ("store.bytes", "B"),
    ("nas.trained", "count"),
];

/// Deterministic day-simulation counts summed over a set of simulated days.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayTally {
    /// Interaction cycles attempted.
    pub attempted: u64,
    /// Cycles completed.
    pub completed: u64,
    /// Brownout interruptions of a running task.
    pub interrupted: u64,
    /// Boots that resumed earlier progress.
    pub resumed: u64,
    /// Brownouts.
    pub brownouts: u64,
    /// Recoveries.
    pub recoveries: u64,
}

impl DayTally {
    /// Adds one simulated day.
    pub fn add(&mut self, day: &DayFaultReport) {
        self.attempted += day.attempted as u64;
        self.completed += day.completed as u64;
        self.interrupted += day.interrupted as u64;
        self.resumed += day.resumed as u64;
        self.brownouts += day.brownouts as u64;
        self.recoveries += day.recoveries as u64;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Self) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.interrupted += other.interrupted;
        self.resumed += other.resumed;
        self.brownouts += other.brownouts;
        self.recoveries += other.recoveries;
    }

    /// The tally as `day_sim.*` count metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        [
            ("day_sim.cycles_attempted", self.attempted),
            ("day_sim.cycles_completed", self.completed),
            ("day_sim.interrupted", self.interrupted),
            ("day_sim.resumed", self.resumed),
            ("day_sim.brownouts", self.brownouts),
            ("day_sim.recoveries", self.recoveries),
        ]
        .into_iter()
        .map(|(name, v)| Metric::new(name, v as f64, "count"))
        .collect()
    }
}

#[derive(Clone, Copy)]
enum Stat {
    P50,
    P99,
    Total,
}

/// Per-call latency metrics: (metric, span name, statistic, ns per unit, unit).
const SPAN_STATS: [(&str, &str, Stat, f64, &str); 28] = [
    ("day_sim.ms.p50", "day_sim", Stat::P50, 1e6, "ms"),
    ("day_sim.ms.p99", "day_sim", Stat::P99, 1e6, "ms"),
    (
        "population.blueprint_us.p50",
        "population.blueprint",
        Stat::P50,
        1e3,
        "us",
    ),
    (
        "population.blueprint_us.p99",
        "population.blueprint",
        Stat::P99,
        1e3,
        "us",
    ),
    ("task.resolve_us.p50", "task.resolve", Stat::P50, 1e3, "us"),
    (
        "scenario.eval_us.p50",
        "scenario.eval",
        Stat::P50,
        1e3,
        "us",
    ),
    (
        "aggregate.record_ns.p50",
        "aggregate.record",
        Stat::P50,
        1.0,
        "ns",
    ),
    (
        "aggregate.merge_us",
        "aggregate.merge",
        Stat::Total,
        1e3,
        "us",
    ),
    (
        "report.to_json_us.p50",
        "report.to_json",
        Stat::P50,
        1e3,
        "us",
    ),
    (
        "checkpoint.write_ms.p50",
        "checkpoint.write",
        Stat::P50,
        1e6,
        "ms",
    ),
    (
        "checkpoint.resume_ms",
        "checkpoint.resume",
        Stat::P50,
        1e6,
        "ms",
    ),
    ("store.open_ms.p50", "store.open", Stat::P50, 1e6, "ms"),
    ("store.load_us.p50", "store.require", Stat::P50, 1e3, "us"),
    ("store.load_us.p99", "store.require", Stat::P99, 1e3, "us"),
    (
        "store.persist_us.p50",
        "store.persist",
        Stat::P50,
        1e3,
        "us",
    ),
    (
        "nas.gesture.context_s",
        "nas.gesture.context",
        Stat::P50,
        1e9,
        "s",
    ),
    ("nas.kws.context_s", "nas.kws.context", Stat::P50, 1e9, "s"),
    (
        "nas.gesture.search_s",
        "nas.gesture.search",
        Stat::P50,
        1e9,
        "s",
    ),
    ("nas.kws.search_s", "nas.kws.search", Stat::P50, 1e9, "s"),
    (
        "dsp.gesture.dataset_ms.p50",
        "dsp.gesture.dataset",
        Stat::P50,
        1e6,
        "ms",
    ),
    (
        "dsp.kws.dataset_ms.p50",
        "dsp.kws.dataset",
        Stat::P50,
        1e6,
        "ms",
    ),
    (
        "nn.gesture.train_ms.p50",
        "nn.gesture.train",
        Stat::P50,
        1e6,
        "ms",
    ),
    ("nn.kws.train_ms.p50", "nn.kws.train", Stat::P50, 1e6, "ms"),
    (
        "nn.gesture.eval_ms.p50",
        "nn.gesture.eval",
        Stat::P50,
        1e6,
        "ms",
    ),
    ("nn.kws.eval_ms.p50", "nn.kws.eval", Stat::P50, 1e6, "ms"),
    (
        "energy.estimate_us.p50",
        "energy.estimate",
        Stat::P50,
        1e3,
        "us",
    ),
    (
        "energy.ground_us.p50",
        "energy.ground",
        Stat::P50,
        1e3,
        "us",
    ),
    ("trace.rep_ms.p50", "rep", Stat::P50, 1e6, "ms"),
];

/// Spans of the traced run, with their self times and roots.
pub struct Analysis<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    root: Vec<&'static str>,
}

impl<'a> Analysis<'a> {
    /// Analyses `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        Self {
            spans,
            self_ns: self_times(spans),
            root: roots(spans),
        }
    }

    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time by layer over the timed reps, and its total.
    fn rep_self_by_layer(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut by_layer = BTreeMap::new();
        let mut total = 0;
        for ((span, &own), &root) in self.spans.iter().zip(&self.self_ns).zip(&self.root) {
            if root == "rep" {
                *by_layer.entry(layer(span.name)).or_insert(0) += own;
                total += own;
            }
        }
        (by_layer, total)
    }

    /// Every span-derived per-layer metric this run has data for.
    pub fn metrics(&self, workers: usize, days: &DayTally) -> Vec<Metric> {
        let mut out = Vec::new();
        for (metric, span, stat, per_unit, unit) in SPAN_STATS {
            let durations = self.durations_ns(span);
            if durations.is_empty() {
                continue;
            }
            let ns = match stat {
                Stat::P50 => quantile(&durations, 0.5),
                Stat::P99 => quantile(&durations, 0.99),
                Stat::Total => durations.iter().sum(),
            };
            out.push(Metric::new(metric, ns / per_unit, unit));
        }
        let day_ns: f64 = self.durations_ns("day_sim").iter().sum();
        if days.attempted > 0 {
            out.push(Metric::new(
                "day_sim.us_per_cycle",
                day_ns / 1e3 / days.attempted as f64,
                "us",
            ));
        }

        let (by_layer, total) = self.rep_self_by_layer();
        if total > 0 {
            for (name, own) in by_layer {
                let share = own as f64 / total as f64;
                out.push(Metric::new(format!("{name}.share"), share, "frac"));
            }
        }

        // Campaign spans of the timed reps, and the per-node spans their
        // worker threads ran for them.
        let campaigns: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == "campaign" && self.root[i] == "rep")
            .collect();
        let wall: u64 = campaigns.iter().map(|&i| self.spans[i].dur_ns()).sum();
        if wall > 0 {
            let own: u64 = campaigns.iter().map(|&i| self.self_ns[i]).sum();
            let ids: Vec<u64> = campaigns.iter().map(|&i| self.spans[i].id).collect();
            let (mut busy, mut named) = (0u64, 0u64);
            for (span, &own) in self.spans.iter().zip(&self.self_ns) {
                if span.name == "node" && ids.contains(&span.parent) {
                    busy += span.dur_ns();
                    named += span.dur_ns() - own;
                }
            }
            out.push(Metric::new(
                "campaign.worker_busy_frac",
                busy as f64 / (wall as f64 * workers.max(1) as f64),
                "frac",
            ));
            out.push(Metric::new(
                "campaign.self_frac",
                own as f64 / wall as f64,
                "frac",
            ));
            if busy > 0 {
                out.push(Metric::new(
                    "campaign.named_frac",
                    named as f64 / busy as f64,
                    "frac",
                ));
            }
        }
        out
    }

    /// A table of every span name: calls, total and self time, per-call
    /// median and p99, and the share of the timed reps' busy time.
    pub fn table(&self) -> String {
        struct Row {
            calls: usize,
            total: u64,
            own: u64,
            rep_own: u64,
            durations: Vec<f64>,
        }
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        for ((span, &own), &root) in self.spans.iter().zip(&self.self_ns).zip(&self.root) {
            let row = rows.entry(span.name).or_insert(Row {
                calls: 0,
                total: 0,
                own: 0,
                rep_own: 0,
                durations: Vec::new(),
            });
            row.calls += 1;
            row.total += span.dur_ns();
            row.own += own;
            if root == "rep" {
                row.rep_own += own;
            }
            row.durations.push(span.dur_ns() as f64);
        }
        let (_, rep_total) = self.rep_self_by_layer();
        let mut rows: Vec<(&str, Row)> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1.own.cmp(&a.1.own).then(a.0.cmp(b.0)));
        let mut out = format!(
            "  {:<24} {:>8} {:>11} {:>11} {:>10} {:>10} {:>9}\n",
            "span", "calls", "total ms", "self ms", "p50", "p99", "rep share"
        );
        for (name, row) in rows {
            let share = if rep_total > 0 {
                format!("{:.4}", row.rep_own as f64 / rep_total as f64)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {:<24} {:>8} {:>11.3} {:>11.3} {:>10} {:>10} {:>9}\n",
                name,
                row.calls,
                row.total as f64 / 1e6,
                row.own as f64 / 1e6,
                human_ns(quantile(&row.durations, 0.5)),
                human_ns(quantile(&row.durations, 0.99)),
                share,
            ));
        }
        out
    }
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 0,
            req: None,
        }
    }

    #[test]
    fn shares_and_campaign_fractions_cover_the_rep_only() {
        let spans = [
            span(1, 0, "setup", 0, 1_000),
            span(2, 1, "day_sim", 0, 900),
            span(10, 0, "rep", 1_000, 2_000),
            span(11, 10, "campaign", 1_000, 1_900),
            span(12, 11, "node", 1_000, 1_800),
            span(13, 12, "day_sim", 1_000, 1_700),
            span(14, 11, "node", 1_100, 1_850),
            span(15, 14, "day_sim", 1_100, 1_850),
            span(16, 10, "report.to_json", 1_900, 1_950),
        ];
        let tally = DayTally {
            attempted: 3,
            ..DayTally::default()
        };
        let metrics = Analysis::new(&spans).metrics(2, &tally);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // Rep self times: rep 50, campaign 50, node 100 + 0, day_sim
        // 700 + 750, report 50: 1700 in all.
        assert!((get("day_sim.share") - 1450.0 / 1700.0).abs() < 1e-12);
        assert!((get("report.share") - 50.0 / 1700.0).abs() < 1e-12);
        assert!((get("campaign.worker_busy_frac") - 1550.0 / 1800.0).abs() < 1e-12);
        assert!((get("campaign.self_frac") - 50.0 / 900.0).abs() < 1e-12);
        assert!((get("campaign.named_frac") - 1450.0 / 1550.0).abs() < 1e-12);
        // Latencies use every day_sim span, set-up included.
        assert!((get("day_sim.us_per_cycle") - 2.35 / 3.0).abs() < 1e-12);
        assert!(metrics.iter().all(|m| m.name != "setup.share"));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
