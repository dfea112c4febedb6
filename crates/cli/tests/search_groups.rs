//! The quick searches' phase-2 evaluation groups, as `search` prints them:
//! aging evolution plans cycles ahead while their tournaments are decided,
//! and the planned cycles' children train together. The groups are a
//! function of the inputs, so the summary line is the same at 1 and 2
//! workers, and so is the history, which must match its golden.

use std::path::Path;
use std::process::Command;

#[test]
fn quick_searches_report_their_evaluation_groups_at_any_worker_count() {
    let cases = [
        (
            "gesture",
            "phase 2: 9 trained cycles in 6 evaluation groups (mean 1.50, largest 3)",
        ),
        (
            "kws",
            "phase 2: 10 trained cycles in 7 evaluation groups (mean 1.43, largest 3)",
        ),
    ];
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/search");
    for (task, expected) in cases {
        for workers in ["1", "2"] {
            let csv = std::env::temp_dir().join(format!(
                "solarml-cli-groups-{task}-{workers}w-{}.csv",
                std::process::id()
            ));
            let out = Command::new(env!("CARGO_BIN_EXE_solarml-cli"))
                .args(["search", "--task", task, "--workers", workers, "--csv"])
                .arg(&csv)
                .output()
                .expect("run solarml-cli");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{task} {workers}w: {stdout}");
            assert!(
                stdout.lines().any(|line| line == expected),
                "{task} {workers}w: no `{expected}` in\n{stdout}"
            );
            let history = std::fs::read(&csv).expect("search wrote its CSV");
            let golden =
                std::fs::read(golden_dir.join(format!("{task}_quick.csv"))).expect("golden");
            assert!(
                history == golden,
                "{task} {workers}w: history differs from its golden"
            );
            let _ = std::fs::remove_file(&csv);
        }
    }
}
