//! `cargo xtask` — the workspace's task driver.
//!
//! `cargo xtask lint` passes, in order:
//! 1. physics lint (lexical scan; see [`xtask::scan`])
//! 2. manifest gate ([`xtask::manifest`])
//! 3. `cargo fmt --check` (skipped with `--fast`)
//! 4. `cargo clippy --workspace` with the `[workspace.lints]` deny-set
//!    (skipped with `--fast`)
//!
//! Exit status 0 means every pass was clean; 1 means violations (printed
//! one per line as `file:line: [rule] detail`); 2 means the driver itself
//! failed (I/O, missing cargo, …).
//!
//! `--json` switches the report to a machine-readable JSON document on
//! stdout; `--out PATH` additionally writes that document to `PATH`
//! (written even when the lint fails, so CI can upload it as an artifact
//! from a red job). Exit status semantics are unchanged.
//!
//! `cargo xtask bench [--quick]` builds and runs the `quickbench` binary
//! (crate `solarml-bench`), which times the conv kernels and the quick
//! eNAS search and writes `BENCH_hotpaths.json` at the workspace root.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::scan::{scan_workspace, AllowList};
use xtask::{json_report, manifest, Violation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let json = args.iter().any(|a| a == "--json");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(fast, json, out.as_deref()),
        Some("bench") => run_bench(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         lint [--fast] [--json] [--out PATH]\n                          \
         Physics lint, manifest gate, `cargo fmt\n                          \
         --check` and `cargo clippy`. `--fast` skips\n                          \
         the two cargo subprocess gates. `--json`\n                          \
         prints a JSON report; `--out PATH` also\n                          \
         writes it to PATH (even on failure).\n  \
         bench [--quick] [args]  Build and run the quickbench binary; writes\n                          \
         BENCH_hotpaths.json at the workspace root.\n                          \
         `--quick` cuts repetitions for CI."
    );
}

/// Shells out to the release-built `quickbench` binary from the workspace
/// root so `BENCH_hotpaths.json` lands next to the manifest. Extra args
/// (`--quick`, `--out PATH`) are forwarded verbatim.
fn run_bench(extra: &[String]) -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("xtask: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cmd_args: Vec<&str> = vec![
        "run",
        "--release",
        "-p",
        "solarml-bench",
        "--bin",
        "quickbench",
        "--",
    ];
    cmd_args.extend(extra.iter().map(String::as_str));
    eprintln!("xtask: running cargo {}…", cmd_args.join(" "));
    match Command::new("cargo")
        .args(&cmd_args)
        .current_dir(&root)
        .status()
    {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask: quickbench failed ({status})");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask: could not run cargo: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_lint(fast: bool, json: bool, out: Option<&Path>) -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("xtask: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let mut violations: Vec<Violation> = Vec::new();
    let mut gates: Vec<(&str, bool)> = Vec::new();
    let mut driver_failed = false;

    match load_allow_list(&root) {
        Ok(allow) => match scan_workspace(&root, &allow) {
            Ok(vs) => violations.extend(vs),
            Err(e) => {
                eprintln!("xtask: physics lint failed: {e}");
                driver_failed = true;
            }
        },
        Err(e) => {
            eprintln!("xtask: cannot read allow-list: {e}");
            driver_failed = true;
        }
    }

    match manifest::check_manifests(&root) {
        Ok(vs) => violations.extend(vs),
        Err(e) => {
            eprintln!("xtask: manifest gate failed: {e}");
            driver_failed = true;
        }
    }

    if !json {
        for v in &violations {
            println!("{v}");
        }
    }
    let mut failed = !violations.is_empty();

    if !fast {
        for (label, cmd_args) in [
            ("cargo fmt --check", vec!["fmt", "--", "--check"]),
            (
                "cargo clippy",
                vec!["clippy", "--workspace", "--lib", "--bins", "--quiet"],
            ),
        ] {
            eprintln!("xtask: running {label}…");
            match Command::new("cargo")
                .args(&cmd_args)
                .current_dir(&root)
                .status()
            {
                Ok(status) if status.success() => gates.push((label, true)),
                Ok(_) => {
                    eprintln!("xtask: {label} reported problems");
                    gates.push((label, false));
                    failed = true;
                }
                Err(e) => {
                    eprintln!("xtask: could not run {label}: {e}");
                    driver_failed = true;
                }
            }
        }
    }

    if json || out.is_some() {
        let report = json_report(&violations, &gates);
        if json {
            println!("{report}");
        }
        if let Some(path) = out {
            // Written before the exit decision so a red run still leaves
            // the artifact behind for CI upload.
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("xtask: cannot write report to {}: {e}", path.display());
                driver_failed = true;
            }
        }
    }

    if driver_failed {
        ExitCode::from(2)
    } else if failed {
        eprintln!(
            "xtask: lint FAILED ({} violation{})",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" }
        );
        ExitCode::from(1)
    } else {
        eprintln!("xtask: lint clean");
        ExitCode::SUCCESS
    }
}

/// The allow-list ships next to the xtask crate so edits to it show up in
/// the same review as the code they exempt.
fn load_allow_list(root: &Path) -> std::io::Result<AllowList> {
    let path = root.join("crates/xtask/physics-lint.allow");
    Ok(AllowList::parse(&std::fs::read_to_string(path)?))
}

/// Walks up from the binary's manifest dir to the workspace root.
fn workspace_root() -> std::io::Result<PathBuf> {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "xtask crate is not at <root>/crates/xtask",
            )
        })
}
