//! A flag its subcommand does not read is refused before the subcommand
//! runs: exit 1, `error: <subcommand> takes no <flag>`, and no file
//! written, where the flag used to parse and be dropped.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solarml-cli-ref-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_solarml-cli"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run solarml-cli")
}

#[test]
fn an_ignored_flag_is_refused_before_any_file_is_written() {
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &["search", "--task", "gesture", "--out", "S.json"],
            "error: search takes no --out",
            "S.json",
        ),
        (
            &["fleet", "--nodes", "2", "--csv", "C.csv"],
            "error: fleet takes no --csv",
            "C.csv",
        ),
        (
            &["scenario", "show", "cloudy_day", "--out", "R.json"],
            "error: scenario show takes no --out",
            "R.json",
        ),
    ];
    for (i, (args, expected, file)) in cases.into_iter().enumerate() {
        let dir = scratch(&i.to_string());
        let out = run(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(expected), "{args:?}: {stderr}");
        assert!(!dir.join(file).exists(), "{args:?} wrote {file}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_sweep_with_a_checkpoint_flag_creates_neither_store_nor_checkpoints() {
    let dir = scratch("sweep");
    let out = run(
        &dir,
        &[
            "fleet",
            "sweep",
            "--nodes",
            "2",
            "--store-dir",
            "S",
            "--param",
            "office-peak-hi",
            "--values",
            "800,900",
            "--checkpoint-dir",
            "C",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: fleet sweep takes no --checkpoint-dir"),
        "{stderr}"
    );
    assert!(!dir.join("S").exists(), "the store was created");
    assert!(!dir.join("C").exists(), "the checkpoint dir was created");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_names_every_flag() {
    let dir = scratch("help");
    let out = run(&dir, &["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The CLI's whole flag vocabulary: a flag dropped from the table, or
    // renamed, fails here as well as in the table's own tests.
    for flag in [
        "--task",
        "--sleep",
        "--lambda",
        "--full",
        "--csv",
        "--budget-uj",
        "--budget-mj",
        "--nodes",
        "--seed",
        "--workers",
        "--out",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--resume",
        "--store-dir",
        "--store-max-entries",
        "--store-max-bytes",
        "--scenario",
        "--param",
        "--value",
        "--values",
    ] {
        assert!(
            stdout.contains(&format!("\n  {flag} ")),
            "help lacks {flag}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
