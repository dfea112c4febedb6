//! What a run prints and writes: the table on stderr, the `--out` results
//! file, and the one-line JSON result that ends standard output.

use solarml::trace::json::float_repr;
use solarml::trace::JsonObject;

use crate::layers::Metric;
use crate::run::Run;
use crate::stats::{tail, Summary};

/// The end-to-end metrics `BENCHMARK.json` names, in its order. Every
/// untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("rep_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Schema tag of the `--out` file.
pub const RESULTS_SCHEMA: &str = "solarbench-results/v1";

/// One end-to-end metric: the value a run reports, and the samples it was
/// taken from.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One sample per rep (or per set-up, or one per run).
    pub values: Vec<f64>,
}

impl Samples {
    fn new(name: &'static str, unit: &'static str, value: f64, values: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value,
            values,
        }
    }
}

/// The median of `samples`; NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// The end-to-end metrics of an untraced run: the `BENCHMARK.json` ones,
/// then `failed_frac` and, for fleet workloads, `node_days_per_s`. Times
/// and rates are the medians over the run's reps (set-ups for `setup_s`);
/// their quartiles, count and tail go to the table and the `--out` file.
pub fn end_to_end(run: &Run, peak_rss_mib: Option<f64>) -> Vec<Samples> {
    let rss = peak_rss_mib.unwrap_or(f64::NAN);
    let failed = run.failed() as f64 / run.attempted().max(1) as f64;
    let mut out = vec![
        Samples::new("rep_s", "s", median(&run.rep_s), run.rep_s.clone()),
        Samples::new("setup_s", "s", median(&run.setup_s), run.setup_s.clone()),
        Samples::new("peak_rss_mib", "MiB", rss, vec![rss]),
        Samples::new("failed_frac", "frac", failed, vec![failed]),
    ];
    if let Some(nodes) = run.nodes_per_rep {
        let rates: Vec<f64> = run.rep_s.iter().map(|s| nodes as f64 / s).collect();
        out.push(Samples::new(
            "node_days_per_s",
            "1/s",
            median(&rates),
            rates,
        ));
    }
    out
}

/// The per-layer metrics of a traced run as `BENCHMARK.json` names them,
/// 0 for a layer this workload bypasses.
pub fn benchmark_per_layer(measured: &[Metric]) -> Vec<Metric> {
    crate::layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The `BENCHMARK.json` end-to-end metrics as the result line reports them.
pub fn benchmark_end_to_end(samples: &[Samples]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = samples
                .iter()
                .find(|s| s.name == name)
                .map_or(f64::NAN, |s| s.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The last line of standard output.
pub fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                float_repr(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed() == 0,
        run.attempted().max(1),
        run.failed(),
        fields.join(", ")
    )
}

/// How the run was made, for the results file and the table header.
#[derive(Debug, Clone, Copy)]
pub struct Setting<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Traced run or not.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
}

/// One workload's entry in the results file.
pub fn results_object(
    setting: Setting<'_>,
    run: &Run,
    samples: &[Samples],
    per_layer: &[Metric],
) -> JsonObject {
    let mut e2e = JsonObject::new();
    for s in samples {
        let Some(summary) = Summary::of(&s.values) else {
            continue;
        };
        let mut m = JsonObject::new();
        m.string("unit", s.unit)
            .number("value", s.value)
            .number("median", summary.median)
            .number("p25", summary.p25)
            .number("p75", summary.p75)
            .count("n", summary.n);
        if let Some((pct, value)) = tail(&s.values) {
            m.number("tail_pct", pct).number("tail", value);
        }
        e2e.object(s.name, m);
    }
    let mut counts = JsonObject::new();
    for (key, value) in &run.counts {
        counts.string(key, value);
    }
    let mut layers = JsonObject::new();
    for m in per_layer {
        let mut v = JsonObject::new();
        v.string("unit", m.unit).number("value", m.value);
        layers.object(&m.name, v);
    }
    let failures: Vec<&str> = run.failures().iter().map(String::as_str).collect();
    let mut obj = JsonObject::new();
    obj.string("workload", setting.workload)
        .raw("seed", setting.seed.to_string())
        .number("seconds", setting.seconds)
        .flag("trace", setting.trace)
        .count("nproc", setting.nproc)
        .count("workers", run.workers)
        .flag("correct", run.failed() == 0)
        .raw("attempted", run.attempted().to_string())
        .raw("failed", run.failed().to_string())
        .strings("failures", &failures)
        .object("end_to_end", e2e)
        .object("counts", counts)
        .object("per_layer", layers);
    obj
}

/// The results file around rendered workload entries.
pub fn results_file(entries: &[String]) -> String {
    let mut doc = JsonObject::new();
    doc.string("schema", RESULTS_SCHEMA)
        .raw("workloads", format!("[{}]", entries.join(",\n")));
    doc.render() + "\n"
}

/// The human-readable table printed to stderr.
pub fn table(
    setting: Setting<'_>,
    run: &Run,
    samples: &[Samples],
    per_layer: &[Metric],
    spans: &str,
) -> String {
    let mut out = format!(
        "solarbench {}: seed {}, {} s, trace {}, {} workers of nproc {}\n",
        setting.workload,
        setting.seed,
        setting.seconds,
        if setting.trace { "on" } else { "off" },
        run.workers,
        setting.nproc
    );
    if !samples.is_empty() {
        out.push_str(&format!(
            "  {:<16} {:<5} {:>13} {:>13} {:>13} {:>13} {:>6}  {}\n",
            "end-to-end", "unit", "value", "median", "p25", "p75", "n", "tail"
        ));
        for s in samples {
            let Some(summary) = Summary::of(&s.values) else {
                continue;
            };
            let tail = tail(&s.values).map_or(String::new(), |(pct, v)| format!("p{pct} {v:.6}"));
            out.push_str(&format!(
                "  {:<16} {:<5} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>6}  {}\n",
                s.name, s.unit, s.value, summary.median, summary.p25, summary.p75, summary.n, tail
            ));
        }
    }
    if !per_layer.is_empty() {
        out.push_str("  per-layer (traced run)\n");
        for m in per_layer {
            out.push_str(&format!(
                "    {:<32} {:>16.6} {}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(spans);
    }
    out.push_str(&format!(
        "  outputs: {} ({} operations, {} failed)\n",
        if run.failed() == 0 {
            "correct"
        } else {
            "INCORRECT"
        },
        run.attempted(),
        run.failed()
    ));
    for failure in run.failures() {
        out.push_str(&format!("    failed: {failure}\n"));
    }
    out
}
