//! The `solarml` command-line tool.
//!
//! ```text
//! solarml detector                      Table III event-detector comparison
//! solarml trace [--task T] [--sleep S]  duty-cycle energy decomposition
//! solarml search [--task T] [--lambda L] [--full] [--csv FILE]
//!                                       run eNAS and report the winner
//! solarml harvest [--budget-uj E]       harvesting times at 250/500/1000 lux
//! solarml day [--budget-mj E]           24-hour interaction simulation
//! solarml fleet [--nodes N] [--seed S] [--workers W] [--out FILE]
//!               [--store-dir D] [--checkpoint-dir C [--resume]] [--param P --value V]
//!                                       population campaign with aggregate report
//! solarml fleet sweep --store-dir D --param P --values V1,V2,..
//!                                       spec variants against one node-day store
//! solarml scenario list                 shipped scenario scripts
//! solarml scenario show <name|path>     a scenario's source and canonical form
//! solarml scenario run <name|path>      fleet campaign under the scenario
//! solarml help                          this text
//! ```

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        commands::help();
        return ExitCode::SUCCESS;
    };
    // `fleet sweep` and the `scenario` family are the two-word commands:
    // shift the subcommand out of the flag list before parsing.
    let (command, rest) = if command == "fleet" && rest.first().is_some_and(|w| w == "sweep") {
        ("fleet sweep", &rest[1..])
    } else if command == "scenario" {
        match rest.first().map(String::as_str) {
            Some("list") => ("scenario list", &rest[1..]),
            Some("show") => ("scenario show", &rest[1..]),
            Some("run") => ("scenario run", &rest[1..]),
            _ => ("scenario", rest),
        }
    } else {
        (command.as_str(), rest)
    };
    // `scenario show|run` take their target as one positional word, so the
    // natural `solarml scenario run monsoon_season --nodes 64` works.
    let mut positional = None;
    let rest = match (command, rest.split_first()) {
        ("scenario show" | "scenario run", Some((first, more))) if !first.starts_with('-') => {
            positional = Some(first.clone());
            more
        }
        _ => rest,
    };
    let mut opts = match args::Options::parse(rest) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            commands::help();
            return ExitCode::FAILURE;
        }
    };
    if positional.is_some() {
        if opts.scenario.is_some() {
            eprintln!("error: give the scenario either as a word or via --scenario, not both");
            return ExitCode::FAILURE;
        }
        opts.scenario = positional;
    }
    let result = match command {
        "detector" => commands::detector(),
        "trace" => commands::trace(&opts),
        "search" => commands::search(&opts),
        "harvest" => commands::harvest(&opts),
        "day" => commands::day(&opts),
        "fleet" => commands::fleet(&opts),
        "fleet sweep" => commands::fleet_sweep(&opts),
        "scenario" => {
            Err("scenario needs a subcommand: list, show <name|path>, run <name|path>".to_string())
        }
        "scenario list" => commands::scenario_list(),
        "scenario show" => commands::scenario_show(&opts),
        "scenario run" => commands::scenario_run(&opts),
        "help" | "--help" | "-h" => {
            commands::help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
