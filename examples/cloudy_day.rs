//! A cloudy day in the life of an intermittently-powered platform.
//!
//! The same seeded fault plan — cloud transients, a harvester dropout, and
//! an aged supercap that holds roughly half its nameplate charge — hits two
//! runtimes:
//!
//! * **naive restart**: no checkpoints, only the full model; every brownout
//!   throws away all progress on the current interaction;
//! * **checkpoint + degrade**: retained (FRAM) checkpoints at phase
//!   boundaries plus a multi-exit degradation ladder, so interrupted work
//!   resumes and scarce energy buys an early-exit answer instead of none.
//!
//! Everything is deterministic: same seed, same reports, byte-identical
//! JSON. Usage:
//!
//! ```sh
//! cargo run --release --example cloudy_day [-- --out PATH]
//! ```
//!
//! `--out PATH` writes both reports as a JSON document (the CI `faults`
//! job uploads it as an artifact).

use std::env;
use std::fs;
use std::process::ExitCode;

use solarml::circuit::FaultPlan;
use solarml::platform::{
    simulate_faulted_day, stressed_office_day, DayFaultReport, DegradationLadder,
    IntermittentConfig, PhasePlan,
};
use solarml::trace::JsonObject;
use solarml::units::Lux;

const SEED: u64 = 42;

/// Simulates the seeded cloudy day at `peak` office lighting under both
/// runtimes. Returns `(naive, resilient)` reports.
fn compare_at(peak: Lux) -> (DayFaultReport, DayFaultReport) {
    let base = stressed_office_day(peak);
    let faults = FaultPlan::seeded_cloudy_day(SEED);
    let plan = PhasePlan::representative_gesture();
    // A three-exit gesture backbone plus a coarse-sensing rung of last
    // resort: half the capture window.
    let ladder = DegradationLadder::representative();

    let naive = simulate_faulted_day(&IntermittentConfig::naive(
        base.clone(),
        faults.clone(),
        plan,
    ));
    let resilient =
        simulate_faulted_day(&IntermittentConfig::resilient(base, faults, plan, ladder));
    (naive, resilient)
}

fn print_report(name: &str, r: &DayFaultReport) {
    println!("--- {name} ---");
    println!(
        "  cycles: {}/{} completed, {} interrupted, {} resumed, {} abandoned",
        r.completed, r.attempted, r.interrupted, r.resumed, r.abandoned
    );
    println!(
        "  supervisor: {} warns, {} brownouts, {} recoveries; {} dead",
        r.warns, r.brownouts, r.recoveries, r.dead_window
    );
    println!(
        "  degradation: {} completions below full rung (per-rung {:?}), mean accuracy proxy {:.3}",
        r.degraded,
        r.rung_completions,
        r.mean_accuracy.get()
    );
    println!(
        "  energy: harvested {}, consumed {}, wasted on lost progress {}, checkpoint overhead {}",
        r.harvested, r.consumed, r.wasted, r.checkpoint_overhead
    );
    println!(
        "  supercap: {} at midnight (min {}); ledger residual {}",
        r.final_voltage, r.min_voltage, r.audit.discrepancy
    );
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cloudy_day [--out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("seeded cloudy day (seed {SEED}): completed interactions out of 60,");
    println!("naive restart vs checkpoint+degrade, by peak office lighting:\n");
    println!("  peak lux   naive (abandoned)   checkpoint+degrade (abandoned, degraded)");
    for peak in [200.0, 400.0, 600.0] {
        let (naive, resilient) = compare_at(Lux::new(peak));
        println!(
            "  {peak:>8}   {:>2}/60 ({:>2})         {:>2}/60 ({:>2}, {:>2})",
            naive.completed,
            naive.abandoned,
            resilient.completed,
            resilient.abandoned,
            resilient.degraded
        );
    }
    println!();

    // The headline comparison at the scarcest setting.
    let (naive, resilient) = compare_at(Lux::new(200.0));
    print_report("naive restart @ 200 lux", &naive);
    println!();
    print_report("checkpoint + degrade @ 200 lux", &resilient);
    println!();

    let saved = naive.wasted - resilient.wasted;
    println!(
        "checkpointing recovered {saved} of energy the naive runtime burned on \
         progress it then lost ({} vs {}), and turned {} extra interactions \
         from abandoned into answered.",
        naive.wasted,
        resilient.wasted,
        resilient.completed.saturating_sub(naive.completed)
    );

    if let Some(path) = out_path {
        let mut doc = JsonObject::new();
        doc.raw("seed", SEED.to_string())
            .count("peak_lux", 200)
            .object("naive", naive.to_json_object())
            .object("resilient", resilient.to_json_object());
        let json = doc.render() + "\n";
        if let Err(err) = fs::write(&path, json) {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote both reports to {path}");
    }
    ExitCode::SUCCESS
}
