//! The `solarml` command-line tool. `solarml help` lists its commands and
//! flags, rendered from the tables in `args.rs`.

use std::process::ExitCode;

use args::Command;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = args::resolve(&argv)
        .and_then(|(command, rest)| Ok((command, args::Options::parse(command, rest)?)));
    let (command, opts) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            print!("{}", args::help());
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Detector => commands::detector(),
        Command::Trace => commands::trace(&opts),
        Command::Search => commands::search(&opts),
        Command::Harvest => commands::harvest(&opts),
        Command::Day => commands::day(&opts),
        Command::Fleet => commands::fleet(&opts),
        Command::FleetSweep => commands::fleet_sweep(&opts),
        Command::ScenarioList => commands::scenario_list(),
        Command::ScenarioShow => commands::scenario_show(&opts),
        Command::ScenarioRun => commands::scenario_run(&opts),
        Command::Help => {
            print!("{}", args::help());
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
