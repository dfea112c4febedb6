//! The CLI's input vocabulary, declared once: the subcommand table and the
//! flag table. Parsing, the `takes no <flag>` refusal, the required-flag
//! checks and `solarml help` all read these two tables, so a flag cannot
//! parse for a subcommand that would then drop it.

use std::fmt::{Display, Write as _};
use std::num::ParseIntError;
use std::str::FromStr;

/// A subcommand: [`COMMANDS`] holds its name and help line, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Detector,
    Trace,
    Search,
    Harvest,
    Day,
    Fleet,
    FleetSweep,
    ScenarioList,
    ScenarioShow,
    ScenarioRun,
    Help,
}

/// One subcommand: the words that select it, whether it takes a
/// `<name|path>` target word before its flags, and its help line.
struct CommandRow {
    command: Command,
    name: &'static str,
    target: bool,
    about: &'static str,
}

/// Every subcommand, in help order, which is [`Command`]'s order.
#[rustfmt::skip]
const COMMANDS: &[CommandRow] = &[
    CommandRow { command: Detector, name: "detector", target: false, about: "Table III event-detector comparison" },
    CommandRow { command: Trace, name: "trace", target: false, about: "duty-cycle E_E/E_S/E_M decomposition" },
    CommandRow { command: Search, name: "search", target: false, about: "run eNAS on a task" },
    CommandRow { command: Harvest, name: "harvest", target: false, about: "harvesting time vs illuminance" },
    CommandRow { command: Day, name: "day", target: false, about: "24-hour interaction simulation" },
    CommandRow { command: Fleet, name: "fleet", target: false, about: "population campaign: N node-days, aggregated" },
    CommandRow { command: FleetSweep, name: "fleet sweep", target: false, about: "N spec variants against one node-day store" },
    CommandRow { command: ScenarioList, name: "scenario list", target: false, about: "shipped scenario scripts (name + description)" },
    CommandRow { command: ScenarioShow, name: "scenario show", target: true, about: "a scenario's source and canonical form" },
    CommandRow { command: ScenarioRun, name: "scenario run", target: true, about: "fleet campaign under the scenario" },
    CommandRow { command: Help, name: "help", target: false, about: "this text" },
];

impl Command {
    /// The subcommand as typed, e.g. `fleet sweep`.
    fn name(self) -> &'static str {
        COMMANDS[self as usize].name
    }
}

/// Parsed command options: one field per row of [`FLAGS`], named after
/// its flag; the target word of `scenario show|run` lands in `scenario`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    pub task: Option<String>,
    pub lambda: Option<f64>,
    pub sleep: Option<f64>,
    pub budget_uj: Option<f64>,
    pub budget_mj: Option<f64>,
    pub csv: Option<String>,
    pub seed: Option<u64>,
    pub workers: Option<usize>,
    pub nodes: Option<usize>,
    pub out: Option<String>,
    pub checkpoint_dir: Option<String>,
    pub checkpoint_every: Option<u64>,
    pub resume: bool,
    pub full: bool,
    pub store_dir: Option<String>,
    pub store_max_entries: Option<usize>,
    pub store_max_bytes: Option<u64>,
    pub scenario: Option<String>,
    pub param: Option<String>,
    pub value: Option<f64>,
    pub values: Option<Vec<f64>>,
}

/// How a flag takes its value.
enum Kind {
    /// A switch: takes no value.
    Switch(fn(&mut Options)),
    /// Takes one value, shown as the placeholder in help; the function
    /// parses it, checks its domain and stores it.
    Value(&'static str, fn(&mut Options, &str) -> Result<(), String>),
}

/// One flag: its name, the subcommands that read it, the flag it
/// requires, its help text, and its value kind and domain check.
struct Flag {
    name: &'static str,
    commands: &'static [Command],
    requires: Option<&'static str>,
    help: &'static str,
    kind: Kind,
}

use Command::*;
use Kind::{Switch, Value};

/// The single-campaign commands (`scenario run` takes every `fleet` flag).
const CAMPAIGN: &[Command] = &[Fleet, ScenarioRun];
/// The commands that run campaigns, sweeps included.
const CAMPAIGNS: &[Command] = &[Fleet, FleetSweep, ScenarioRun];

/// Every flag, in help order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--task", commands: &[Trace, Search], requires: None, help: "application profile [gesture]",
        kind: Value("gesture|kws", |o, v| {
            within(v == "gesture" || v == "kws", v, "`gesture` or `kws`").map(|t| o.task = Some(t.into()))
        }) },
    Flag { name: "--sleep", commands: &[Trace], requires: None, help: "sleep period [60]",
        kind: Value("<s>", |o, v| num(v).map(|s| o.sleep = Some(s))) },
    Flag { name: "--lambda", commands: &[Search], requires: None, help: "accuracy/energy knob [0.5]",
        kind: Value("<0..1>", |o, v| {
            num(v).and_then(|l| within((0.0..=1.0).contains(&l), l, "in [0,1]")).map(|l| o.lambda = Some(l))
        }) },
    Flag { name: "--full", commands: &[Search], requires: None, help: "paper-scale 50/20/150 settings",
        kind: Switch(|o| o.full = true) },
    Flag { name: "--csv", commands: &[Trace, Search], requires: None, help: "write the power trace (trace) or the search history (search) as CSV",
        kind: Value("<file>", |o, v| text(v).map(|p| o.csv = Some(p))) },
    Flag { name: "--budget-uj", commands: &[Harvest], requires: None, help: "per-inference energy, µJ [6660]",
        kind: Value("<e>", |o, v| num(v).map(|e| o.budget_uj = Some(e))) },
    Flag { name: "--budget-mj", commands: &[Day], requires: None, help: "per-inference energy, mJ [2.5]",
        kind: Value("<e>", |o, v| num(v).map(|e| o.budget_mj = Some(e))) },
    Flag { name: "--nodes", commands: CAMPAIGNS, requires: None, help: "fleet size [64]",
        kind: Value("<n>", |o, v| int(v).map(|n| o.nodes = Some(n))) },
    Flag { name: "--seed", commands: &[Search, Fleet, FleetSweep, ScenarioRun], requires: None, help: "RNG seed [search 0xE7A5, campaigns 0xF1EE7]",
        kind: Value("<n>", |o, v| int(v).map(|s| o.seed = Some(s))) },
    Flag { name: "--workers", commands: &[Search, Fleet, FleetSweep, ScenarioRun], requires: None, help: "worker threads, 0=auto, at most 256 [auto]",
        kind: Value("<n>", |o, v| {
            int(v).and_then(|w| within(w <= 256, w, "at most 256")).map(|w| o.workers = Some(w))
        }) },
    Flag { name: "--out", commands: CAMPAIGNS, requires: None, help: "write the FleetReport JSON (fleet sweep: one line per variant)",
        kind: Value("<file>", |o, v| text(v).map(|p| o.out = Some(p))) },
    Flag { name: "--checkpoint-dir", commands: CAMPAIGN, requires: None, help: "crash-safe snapshots into <d>",
        kind: Value("<d>", |o, v| text(v).map(|d| o.checkpoint_dir = Some(d))) },
    Flag { name: "--checkpoint-every", commands: CAMPAIGN, requires: Some("--checkpoint-dir"), help: "snapshot cadence, node-days [4096]",
        kind: Value("<n>", |o, v| {
            int(v).and_then(|n| within(n >= 1, n, "at least 1 node-day")).map(|n| o.checkpoint_every = Some(n))
        }) },
    Flag { name: "--resume", commands: CAMPAIGN, requires: Some("--checkpoint-dir"), help: "continue the campaign checkpointed in <d>",
        kind: Switch(|o| o.resume = true) },
    Flag { name: "--store-dir", commands: CAMPAIGNS, requires: None, help: "replay cached node-days from <d> (also on --resume; fleet sweep needs it)",
        kind: Value("<d>", |o, v| text(v).map(|d| o.store_dir = Some(d))) },
    Flag { name: "--store-max-entries", commands: CAMPAIGNS, requires: Some("--store-dir"), help: "GC bound on cached node-days",
        kind: Value("<n>", |o, v| int(v).map(|n| o.store_max_entries = Some(n))) },
    Flag { name: "--store-max-bytes", commands: CAMPAIGNS, requires: Some("--store-dir"), help: "GC bound on the store's on-disk size",
        kind: Value("<n>", |o, v| int(v).map(|n| o.store_max_bytes = Some(n))) },
    Flag { name: "--scenario", commands: &[Fleet, FleetSweep, ScenarioShow, ScenarioRun], requires: None, help: "conditions from a named scenario or .scn path",
        kind: Value("<s>", |o, v| text(v).map(|s| o.scenario = Some(s))) },
    Flag { name: "--param", commands: CAMPAIGNS, requires: None, help: "population parameter to edit (fleet sweep: to sweep)",
        kind: Value("<p>", |o, v| text(v).map(|p| o.param = Some(p))) },
    Flag { name: "--value", commands: CAMPAIGN, requires: Some("--param"), help: "the edited parameter's value",
        kind: Value("<v>", |o, v| num(v).map(|x| o.value = Some(x))) },
    Flag { name: "--values", commands: &[FleetSweep], requires: Some("--param"), help: "one campaign per value, warm after the first",
        kind: Value("<v1,v2,..>", |o, v| {
            v.split(',').map(|x| num(x.trim())).collect::<Result<_, _>>().map(|vs| o.values = Some(vs))
        }) },
];

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// `value` when `ok`, else an error naming the domain it must lie in.
fn within<T: Display>(ok: bool, value: T, domain: &str) -> Result<T, String> {
    if ok {
        Ok(value)
    } else {
        Err(format!("must be {domain}, got `{value}`"))
    }
}

fn num(v: &str) -> Result<f64, String> {
    v.parse().map_err(|e| format!("invalid number `{v}` ({e})"))
}

fn int<T: FromStr<Err = ParseIntError>>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|e| format!("invalid integer `{v}` ({e})"))
}

/// Splits the command line into its subcommand and the words after it.
/// No words at all means `help`.
///
/// # Errors
///
/// Returns a message for an unknown subcommand.
pub fn resolve(argv: &[String]) -> Result<(Command, &[String]), String> {
    let Some(first) = argv.first() else {
        return Ok((Command::Help, argv));
    };
    // Two-word names first, so `fleet sweep` is not read as `fleet`.
    let two = argv.get(..2).map(|words| words.join(" "));
    let matched = COMMANDS
        .iter()
        .find(|row| Some(row.name) == two.as_deref())
        .or_else(|| COMMANDS.iter().find(|row| row.name == first));
    match (matched, first.as_str()) {
        (Some(row), _) => Ok((row.command, &argv[row.name.split(' ').count()..])),
        (None, "--help" | "-h") => Ok((Command::Help, &argv[1..])),
        (None, "scenario") => {
            Err("scenario needs a subcommand: list, show <name|path>, run <name|path>".to_string())
        }
        (None, other) => Err(format!("unknown command `{other}`")),
    }
}

impl Options {
    /// Parses the words after `command` against the flag table.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a flag `command` does not
    /// read (`<command> takes no <flag>`), a missing or out-of-domain
    /// value, and a flag given without the flag it requires.
    pub fn parse(command: Command, args: &[String]) -> Result<Self, String> {
        let mut opts = Options::default();
        // `scenario show|run` take their target as one word, so the
        // natural `solarml scenario run monsoon_season --nodes 64` works.
        let (positional, args) = match args.split_first() {
            Some((first, rest)) if COMMANDS[command as usize].target && !first.starts_with('-') => {
                (Some(first.clone()), rest)
            }
            _ => (None, args),
        };
        let mut words = args.iter();
        let mut given: Vec<&Flag> = Vec::new();
        while let Some(word) = words.next() {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == word)
                .ok_or_else(|| format!("unknown flag `{word}`"))?;
            if !flag.commands.contains(&command) {
                return Err(format!("{} takes no {word}", command.name()));
            }
            match flag.kind {
                Switch(set) => set(&mut opts),
                Value(_, set) => {
                    let value = words
                        .next()
                        .ok_or_else(|| format!("{word} needs a value"))?;
                    set(&mut opts, value).map_err(|e| format!("{word}: {e}"))?;
                }
            }
            given.push(flag);
        }
        for flag in &given {
            if let Some(required) = flag.requires {
                if !given.iter().any(|f| f.name == required) {
                    return Err(format!("{} requires {required}", flag.name));
                }
            }
        }
        if positional.is_some() {
            if opts.scenario.is_some() {
                return Err(
                    "give the scenario either as a word or via --scenario, not both".to_string(),
                );
            }
            opts.scenario = positional;
        }
        Ok(opts)
    }
}

/// `solarml help`, rendered from the command and flag tables.
pub fn help() -> String {
    let mut out = String::from(
        "solarml — SolarML (DATE'25) reproduction toolkit\n\n\
         USAGE: solarml <command> [flags]\n\nCOMMANDS:\n",
    );
    for row in COMMANDS {
        let usage = format!(
            "{}{}",
            row.name,
            if row.target { " <name|path>" } else { "" }
        );
        let _ = writeln!(out, "  {usage:<28}{}", row.about);
    }
    out.push_str("\nFLAGS:\n");
    for flag in FLAGS {
        let usage = match flag.kind {
            Switch(_) => flag.name.to_string(),
            Value(placeholder, _) => format!("{} {placeholder}", flag.name),
        };
        let commands: Vec<&str> = flag.commands.iter().map(|c| c.name()).collect();
        let requires = flag
            .requires
            .map(|r| format!("; requires {r}"))
            .unwrap_or_default();
        let _ = writeln!(out, "  {usage:<28}{}", flag.help);
        let _ = writeln!(out, "  {:<28}({}{requires})", "", commands.join(", "));
    }
    out.push_str(
        "\nA flag is refused by every command it does not list: `<command> takes no <flag>`.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(command: Command, args: &[&str]) -> Result<Options, String> {
        Options::parse(command, &words(args))
    }

    /// A value inside every flag's domain.
    fn sample(flag: &Flag) -> Vec<&'static str> {
        match flag.kind {
            Switch(_) => vec![flag.name],
            Value(..) if flag.name == "--task" => vec![flag.name, "kws"],
            Value(..) => vec![flag.name, "1"],
        }
    }

    /// The flag plus the companion it requires.
    fn with_companion(flag: &Flag) -> Vec<&'static str> {
        let mut args = sample(flag);
        if let Some(required) = flag.requires {
            let companion = FLAGS.iter().find(|f| f.name == required).expect("row");
            args.extend(sample(companion));
        }
        args
    }

    #[test]
    fn parses_mixed_flags() {
        let opts = parse(
            Command::Search,
            &[
                "--task",
                "kws",
                "--lambda",
                "0.5",
                "--full",
                "--workers",
                "4",
            ],
        )
        .expect("valid");
        assert_eq!(opts.task.as_deref(), Some("kws"));
        assert_eq!(opts.lambda, Some(0.5));
        assert!(opts.full);
        assert_eq!(opts.workers, Some(4));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        let search = |args: &[&str]| parse(Command::Search, args);
        assert!(search(&["--bogus"]).is_err());
        assert!(search(&["--lambda"]).is_err());
        assert!(search(&["--lambda", "nope"]).is_err());
        assert!(search(&["--lambda", "2.0"]).is_err());
        assert!(search(&["--task", "audio"]).is_err());
        assert!(search(&["--workers", "-1"]).is_err());
        assert!(search(&["--workers", "two"]).is_err());
        // Each worker past the jobs would be a thread parked for nothing.
        let err = search(&["--workers", "257"]).expect_err("above the bound");
        assert!(err.contains("at most 256"), "{err}");
        assert!(parse(Command::Fleet, &["--workers", "1000000"]).is_err());
        assert_eq!(
            search(&["--workers", "256"]).expect("valid").workers,
            Some(256)
        );
    }

    #[test]
    fn parses_fleet_flags() {
        let opts =
            parse(Command::Fleet, &["--nodes", "256", "--out", "report.json"]).expect("valid");
        assert_eq!(opts.nodes, Some(256));
        assert_eq!(opts.out.as_deref(), Some("report.json"));
    }

    #[test]
    fn rejects_bad_fleet_flags() {
        let fleet = |args: &[&str]| parse(Command::Fleet, args);
        assert!(fleet(&["--nodes"]).is_err(), "--nodes needs a value");
        assert!(fleet(&["--nodes", "-5"]).is_err());
        assert!(fleet(&["--nodes", "many"]).is_err());
        assert!(fleet(&["--out"]).is_err(), "--out needs a path");
    }

    #[test]
    fn parses_checkpoint_flags() {
        let opts = parse(
            Command::Fleet,
            &[
                "--checkpoint-dir",
                "ckpts",
                "--checkpoint-every",
                "64",
                "--resume",
            ],
        )
        .expect("valid");
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpts"));
        assert_eq!(opts.checkpoint_every, Some(64));
        assert!(opts.resume);
    }

    #[test]
    fn rejects_checkpoint_flags_without_a_dir() {
        let fleet = |args: &[&str]| parse(Command::Fleet, args);
        let err = fleet(&["--resume"]).expect_err("resume needs a dir");
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = fleet(&["--checkpoint-every", "8"]).expect_err("cadence needs a dir");
        assert!(err.contains("--checkpoint-dir"), "{err}");
        assert!(fleet(&["--checkpoint-dir"]).is_err(), "needs a value");
        assert!(fleet(&["--checkpoint-dir", "d", "--checkpoint-every", "0"]).is_err());
        assert!(fleet(&["--checkpoint-dir", "d", "--checkpoint-every", "x"]).is_err());
    }

    #[test]
    fn parses_store_and_sweep_flags() {
        let opts = parse(
            Command::FleetSweep,
            &[
                "--store-dir",
                "cache",
                "--store-max-entries",
                "512",
                "--store-max-bytes",
                "65536",
                "--param",
                "office-peak-hi",
                "--values",
                "700, 800,900",
            ],
        )
        .expect("valid");
        assert_eq!(opts.store_dir.as_deref(), Some("cache"));
        assert_eq!(opts.store_max_entries, Some(512));
        assert_eq!(opts.store_max_bytes, Some(65536));
        assert_eq!(opts.param.as_deref(), Some("office-peak-hi"));
        assert_eq!(opts.values, Some(vec![700.0, 800.0, 900.0]));

        let opts = parse(
            Command::Fleet,
            &[
                "--store-dir",
                "cache",
                "--param",
                "ladder-share",
                "--value",
                "0.5",
            ],
        )
        .expect("valid");
        assert_eq!(opts.value, Some(0.5));
    }

    #[test]
    fn rejects_inconsistent_store_and_sweep_flags() {
        let fleet = |args: &[&str]| parse(Command::Fleet, args);
        let sweep = |args: &[&str]| parse(Command::FleetSweep, args);
        let err = fleet(&["--store-max-entries", "9"]).expect_err("needs a dir");
        assert!(err.contains("--store-dir"), "{err}");
        let err = fleet(&["--store-max-bytes", "9"]).expect_err("needs a dir");
        assert!(err.contains("--store-dir"), "{err}");
        let both = fleet(&["--store-dir", "s", "--checkpoint-dir", "c"]).expect("they compose");
        assert_eq!(
            (both.store_dir, both.checkpoint_dir),
            (Some("s".into()), Some("c".into()))
        );
        let err = fleet(&["--value", "1.0"]).expect_err("value needs param");
        assert!(err.contains("--param"), "{err}");
        let err = sweep(&["--values", "1,2"]).expect_err("values need param");
        assert!(err.contains("--param"), "{err}");
        let err = fleet(&["--param", "x", "--value", "1", "--values", "2"]).expect_err("no sweep");
        assert_eq!(err, "fleet takes no --values");
        assert!(sweep(&["--param", "x", "--values", "1,oops"]).is_err());
        assert!(sweep(&["--param", "x", "--values", ""]).is_err());
        assert!(fleet(&["--store-max-entries", "none"]).is_err());
    }

    #[test]
    fn empty_args_are_defaults() {
        for row in COMMANDS {
            let opts = parse(row.command, &[]).expect("valid");
            assert_eq!(opts, Options::default());
        }
    }

    #[test]
    fn fleet_sweep_refuses_checkpoint_flags() {
        for flag in ["--checkpoint-dir", "--checkpoint-every", "--resume"] {
            let mut args = vec!["--store-dir", "s", "--param", "ladder-share"];
            args.extend(["--values", "0.5", flag]);
            let err = parse(Command::FleetSweep, &args).expect_err("checkpoint flag on a sweep");
            assert_eq!(err, format!("fleet sweep takes no {flag}"));
        }
    }

    #[test]
    fn every_command_and_flag_pair_is_honoured_or_refused() {
        for row in COMMANDS {
            let command = row.command;
            for flag in FLAGS {
                let result = parse(command, &with_companion(flag));
                if flag.commands.contains(&command) {
                    result.unwrap_or_else(|e| panic!("{} {}: {e}", row.name, flag.name));
                } else {
                    assert_eq!(
                        result.expect_err("refused"),
                        format!("{} takes no {}", row.name, flag.name)
                    );
                }
            }
            let err = parse(command, &["--bogus"]).expect_err("unknown flag");
            assert!(err.contains("--bogus"), "{err}");
        }
    }

    #[test]
    fn every_pairwise_flag_combination_is_honoured_or_refused() {
        for row in COMMANDS {
            let command = row.command;
            for a in FLAGS {
                for b in FLAGS.iter().filter(|b| b.name != a.name) {
                    let mut args = with_companion(a);
                    args.extend(with_companion(b));
                    let result = parse(command, &args);
                    match [a, b].into_iter().find(|f| !f.commands.contains(&command)) {
                        None => {
                            result.unwrap_or_else(|e| panic!("{} {args:?}: {e}", row.name));
                        }
                        Some(refused) => assert_eq!(
                            result.expect_err("refused"),
                            format!("{} takes no {}", row.name, refused.name)
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn required_companions_are_read_wherever_their_flag_is() {
        for flag in FLAGS {
            let Some(required) = flag.requires else {
                continue;
            };
            let companion = FLAGS.iter().find(|f| f.name == required).expect("a row");
            for &command in flag.commands {
                assert!(companion.commands.contains(&command), "{}", flag.name);
                let err = parse(command, &sample(flag)).expect_err("needs its companion");
                assert_eq!(err, format!("{} requires {required}", flag.name));
            }
        }
    }

    #[test]
    fn flag_and_command_names_are_unique() {
        for (i, flag) in FLAGS.iter().enumerate() {
            assert!(FLAGS[i + 1..].iter().all(|f| f.name != flag.name));
        }
        for (i, row) in COMMANDS.iter().enumerate() {
            assert_eq!(row.command as usize, i, "{} out of enum order", row.name);
            assert!(COMMANDS[i + 1..].iter().all(|r| r.name != row.name));
        }
    }

    #[test]
    fn commands_resolve_by_their_longest_name() {
        for row in COMMANDS {
            let mut argv: Vec<&str> = row.name.split(' ').collect();
            argv.push("--nodes");
            let argv = words(&argv);
            let (command, rest) = resolve(&argv).expect("known");
            assert_eq!((command, rest), (row.command, &argv[argv.len() - 1..]));
        }
        assert_eq!(resolve(&[]).expect("help").0, Command::Help);
        assert!(resolve(&words(&["bogus"])).is_err());
        assert!(resolve(&words(&["scenario", "bogus"])).is_err());
    }

    #[test]
    fn scenario_targets_are_one_word_or_a_flag_not_both() {
        let opts = parse(Command::ScenarioRun, &["cloudy_day", "--nodes", "2"]).expect("word");
        assert_eq!(opts.scenario.as_deref(), Some("cloudy_day"));
        let opts = parse(Command::ScenarioShow, &["--scenario", "cloudy_day"]).expect("flag");
        assert_eq!(opts.scenario.as_deref(), Some("cloudy_day"));
        assert!(parse(Command::ScenarioRun, &["a", "--scenario", "b"]).is_err());
        let err = parse(Command::Fleet, &["cloudy_day"]).expect_err("no target word");
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn help_names_every_command_and_flag_in_the_tables() {
        let text = help();
        for row in COMMANDS {
            assert!(text.contains(row.name), "{}", row.name);
        }
        for flag in FLAGS {
            assert!(text.contains(flag.name), "{}", flag.name);
            assert!(text.contains(flag.help), "{}", flag.help);
        }
    }
}
