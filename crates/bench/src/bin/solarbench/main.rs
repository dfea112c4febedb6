//! `solarbench` — the SolarML end-to-end benchmark.
//!
//! Four named workloads, each a closed loop of timed reps in one process:
//! `fleet_cold`, `fleet_stressed`, `fleet_warm` and `paper_pipeline` (see
//! `README.md` beside this file for why each exists). An untraced run
//! prints the end-to-end metrics; a traced run (`--trace 1`) times the calls
//! into each layer from outside and prints the per-layer metrics, a table
//! of self times, and a Chrome trace under `.solarbench/`.
//!
//! ```text
//! solarbench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--out results.json]
//! solarbench --compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! output check passed. `--out` appends each run to a results file, and
//! `--compare` judges one results file against another: exit 0 when B is
//! within every bound, 1 when something regressed or a count drifted, 3
//! when some metric is unresolved, and 2 on bad arguments or files.

// A measurement binary: a scratch directory it cannot create is fatal.
#![allow(clippy::expect_used)]

mod compare;
mod fleet;
mod json;
mod layers;
mod pipeline;
mod report;
mod run;
mod stats;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use solarml::nas::available_workers;

use crate::layers::{Analysis, Metric};
use crate::report::Setting;
use crate::run::Run;
use crate::tracer::Tracer;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    "fleet_cold",
    "fleet_stressed",
    "fleet_warm",
    "paper_pipeline",
];

/// Scratch stores, checkpoints and trace files, under the working directory.
const OUT_DIR: &str = ".solarbench";

/// Worker threads for campaigns and searches: the box the benchmark was
/// tuned on has two vCPUs, and more workers than cores only adds noise.
const MAX_WORKERS: usize = 2;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Bench(Opts),
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: solarbench [--workload <name>|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out results.json]\n       solarbench --compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Mode::Compare(a.into(), b.into())),
            _ => Err("--compare takes exactly two results files".to_string()),
        };
    }
    let mut opts = Opts {
        workload: "all".to_string(),
        seed: 7,
        seconds: 15.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}`; known: all, {}",
                        WORKLOADS.join(", ")
                    ));
                }
                opts.workload = value.clone();
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, not `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Mode::Bench(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("solarbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Compare(a, b)) => run_compare(&a, &b),
        Ok(Mode::Bench(opts)) => match WORKLOADS.iter().find(|w| **w == opts.workload) {
            Some(name) => run_workload(&opts, name),
            None => run_all(&opts),
        },
    }
}

/// Writes `text` to `path`, creating its directory.
fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends rendered workload entries to the results file at `path`,
/// creating it when missing, so that several runs make one side of a
/// `--compare`.
fn append_results(path: &Path, new: Vec<String>) -> Result<(), String> {
    let mut entries: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(json::render)
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    entries.extend(new);
    write(path, &report::results_file(&entries))
}

/// The per-layer metrics of a traced run: span-derived, measured by the
/// workload itself, the day counts, and the tracing overhead.
fn per_layer(run: &Run, analysis: &Analysis<'_>) -> Vec<Metric> {
    let mut measured = analysis.metrics(run.workers, &run.days_all);
    measured.extend(run.layers.iter().cloned());
    if let Some(days) = run.days_first {
        measured.extend(days.metrics());
    }
    if !run.traced_rep_s.is_empty() {
        let overhead = report::median(&run.traced_rep_s) / report::median(&run.rep_s) - 1.0;
        measured.push(Metric::new("trace.overhead_frac", overhead, "frac"));
    }
    measured.sort_by(|a, b| a.name.cmp(&b.name));
    measured
}

/// Runs one workload in this process.
fn run_workload(opts: &Opts, name: &str) -> ExitCode {
    let nproc = available_workers();
    let scratch = Path::new(OUT_DIR).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("the working directory is writable");
    let tracer = Tracer::new();
    let mut run = Run::new(
        opts.seed,
        opts.seconds,
        nproc.min(MAX_WORKERS),
        opts.trace,
        scratch.clone(),
    );
    match name {
        "fleet_cold" => fleet::fleet_cold(&mut run, &tracer),
        "fleet_stressed" => fleet::fleet_stressed(&mut run, &tracer),
        "fleet_warm" => fleet::fleet_warm(&mut run, &tracer),
        _ => pipeline::paper_pipeline(&mut run, &tracer),
    }
    let peak_rss = run::peak_rss_mib();
    let _ = std::fs::remove_dir_all(&scratch);

    let setting = Setting {
        workload: name,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        nproc,
    };
    let (samples, measured, line, spans_table) = if opts.trace {
        let spans = tracer.spans();
        let analysis = Analysis::new(&spans);
        let measured = per_layer(&run, &analysis);
        let trace_path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        if let Err(e) = write(&trace_path, &tracer::chrome_json(&spans)) {
            eprintln!("solarbench: cannot write the trace: {e}");
        }
        let line = report::benchmark_per_layer(&measured);
        (Vec::new(), measured, line, analysis.table())
    } else {
        let samples = report::end_to_end(&run, peak_rss);
        let line = report::benchmark_end_to_end(&samples);
        (samples, Vec::new(), line, String::new())
    };
    eprint!(
        "{}",
        report::table(setting, &run, &samples, &measured, &spans_table)
    );
    if let Some(out) = &opts.out {
        let entry = report::results_object(setting, &run, &samples, &measured).render();
        if let Err(e) = append_results(out, vec![entry]) {
            eprintln!("solarbench: cannot write results: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&run, &line));
    if run.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own, so peak RSS
/// is per workload and no workload warms another's caches.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut entries = Vec::new();
    let mut fields = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for name in WORKLOADS {
        let part = Path::new(OUT_DIR).join(format!("part-{name}-{}.json", std::process::id()));
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status();
        correct &= status.is_ok_and(|s| s.success());
        let doc = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| json::parse(&t).ok());
        let _ = std::fs::remove_file(&part);
        let Some(entry) = doc
            .as_ref()
            .and_then(|d| d.get("workloads"))
            .and_then(json::Value::as_array)
            .and_then(<[json::Value]>::first)
        else {
            correct = false;
            continue;
        };
        // The child wrote these as whole numbers.
        #[allow(clippy::cast_possible_truncation)]
        let count = |key: &str| entry.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        let section = if opts.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        for (metric, m) in entry
            .get(section)
            .and_then(json::Value::as_object)
            .unwrap_or_default()
        {
            let v = m
                .get("value")
                .and_then(json::Value::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
            fields.push(format!(
                "\"{name}.{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                solarml::trace::json::float_repr(v)
            ));
        }
        entries.push(json::render(entry));
    }
    if let Some(out) = &opts.out {
        if let Err(e) = append_results(out, entries) {
            eprintln!("solarbench: cannot write results: {e}");
            correct = false;
        }
    }
    correct &= failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let loaded = load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| Ok((a, b, compare::bounds()?)));
    match loaded {
        Err(e) => {
            eprintln!("solarbench: {e}");
            ExitCode::from(2)
        }
        Ok((a, b, bounds)) => {
            let (text, verdict) = compare::compare(&a, &b, &bounds);
            print!("{text}");
            let (status, code) = match verdict {
                compare::Verdict::Within => ("pass", 0),
                compare::Verdict::Regressed => ("FAIL", 1),
                compare::Verdict::Unresolved => (
                    "UNRESOLVED (medians within bound, spread wider than bound)",
                    3,
                ),
            };
            println!("compare: {status}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let Ok(Mode::Bench(opts)) = parse_args(&args(
            "--workload fleet_warm --seed 11 --seconds 10 --trace 1",
        )) else {
            panic!("the BENCHMARK.json arguments must parse");
        };
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.trace),
            ("fleet_warm", 11, true)
        );
        assert!((opts.seconds - 10.0).abs() < 1e-12);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus 1",
            "--compare a",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn code_and_benchmark_json_name_the_same_metrics() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&report::END_TO_END));
        assert_eq!(listed("per_layer"), owned(&layers::PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
