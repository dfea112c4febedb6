//! A `--param` value outside the parameter's domain is refused before any
//! node is drawn: exit 1 at once, an error naming the parameter and its
//! bound, and no report written.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solarml-cli-dom-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `fleet` with one `--param` edit; returns its exit code and stderr,
/// killing it if it has not exited within 20 s.
fn fleet_with(dir: &PathBuf, param: &str, value: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_solarml-cli"))
        .current_dir(dir)
        .args(["fleet", "--nodes", "4", "--seed", "7", "--param", param])
        .args(["--value", value, "--out", "F.json"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run solarml-cli");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll solarml-cli").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("fleet --param {param} --value {value} still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect solarml-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_domain_params_are_refused_before_any_node_is_drawn() {
    let cases = [
        ("interactions-lo", "1e9", "at most 86400"),
        ("outages-hi", "100000", "at most 86400"),
        ("office-share", "-5", "non-negative"),
        ("ladder-share", "-3", "non-negative"),
    ];
    for (i, (param, value, bound)) in cases.into_iter().enumerate() {
        let dir = scratch(&i.to_string());
        let (code, stderr) = fleet_with(&dir, param, value);
        assert_eq!(code, Some(1), "{param} {value}: {stderr}");
        assert!(
            stderr.starts_with("error:") && stderr.contains(param) && stderr.contains(bound),
            "{param} {value}: {stderr}"
        );
        assert!(!dir.join("F.json").exists(), "{param} {value} wrote F.json");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
