//! The CLI refuses a node-day store written under an older key function:
//! `fleet --store-dir` and `fleet sweep` exit 1 naming the directory and
//! both format versions, instead of treating every entry as a miss.

use std::path::PathBuf;
use std::process::Command;

use solarml::fleet::{STORE_MAGIC, STORE_VERSION};
use solarml::trace::Envelope;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solarml-cli-ver-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_version_three_store_is_refused_naming_both_versions() {
    assert_eq!(STORE_VERSION, 4);
    for sweep in [false, true] {
        let dir = scratch(&format!("v3-{sweep}"));
        let v3 = Envelope {
            magic: STORE_MAGIC,
            version: 3,
        };
        std::fs::write(dir.join("store.meta"), v3.seal(|_| {})).expect("stamp v3");

        let store = dir.display().to_string();
        let mut args = vec!["fleet"];
        if sweep {
            args.extend(["sweep", "--param", "office-peak-hi", "--values", "800,900"]);
        }
        args.extend(["--nodes", "2", "--seed", "7", "--store-dir", &store]);
        let out = Command::new(env!("CARGO_BIN_EXE_solarml-cli"))
            .args(&args)
            .output()
            .expect("run solarml-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "sweep {sweep}: {stderr}");
        let expected = format!(
            "error: fleet store: {}: store format v3, this build reads v4",
            dir.join("store.meta").display()
        );
        assert!(stderr.starts_with(&expected), "sweep {sweep}: {stderr}");
        // Nothing was written over the old store.
        assert!(!dir.join("store.pack").exists(), "sweep {sweep}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
