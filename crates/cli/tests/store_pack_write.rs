//! The CLI never loses a store session silently: when the node-day
//! store's pack cannot be read or written, `fleet --store-dir` and
//! `fleet sweep` exit 1 with `fleet store: <pack path>: …`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solarml-cli-pack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `solarml-cli fleet` (or `fleet sweep`) against the store at `dir`
/// and returns its exit code and stderr.
fn run_fleet(dir: &Path, sweep: bool) -> (Option<i32>, String) {
    let store = dir.display().to_string();
    let mut args = vec!["fleet"];
    if sweep {
        args.extend(["sweep", "--param", "office-peak-hi", "--values", "800,900"]);
    }
    args.extend([
        "--nodes",
        "2",
        "--seed",
        "7",
        "--workers",
        "1",
        "--store-dir",
    ]);
    args.push(&store);
    let out = Command::new(env!("CARGO_BIN_EXE_solarml-cli"))
        .args(&args)
        .output()
        .expect("run solarml-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_pack_error(dir: &Path, sweep: bool) {
    let (code, stderr) = run_fleet(dir, sweep);
    let expected = format!("error: fleet store: {}: ", dir.join("store.pack").display());
    assert_eq!(code, Some(1), "sweep {sweep}: {stderr}");
    assert!(stderr.starts_with(&expected), "sweep {sweep}: {stderr}");
}

#[test]
fn a_directory_in_place_of_the_pack_is_exit_1_naming_it() {
    for sweep in [false, true] {
        let dir = scratch(&format!("pack-dir-{sweep}"));
        std::fs::create_dir_all(dir.join("store.pack").join("occupied")).expect("mkdir");
        assert_pack_error(&dir, sweep);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_pack_write_is_exit_1_naming_the_pack() {
    for sweep in [false, true] {
        let dir = scratch(&format!("pack-write-{sweep}"));
        // The store opens fine, but the atomic write cannot create its
        // staging file beside the pack, so the session's entries cannot
        // reach disk.
        std::fs::create_dir_all(dir.join(".store.pack.tmp")).expect("mkdir");
        assert_pack_error(&dir, sweep);
        assert!(!dir.join("store.pack").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
