//! The shipped tree must pass the physics lint and the manifest gate with
//! the checked-in allow-list — and a seeded-violation fixture must fail.
//!
//! This is the regression guard for the lint itself: if a refactor
//! reintroduces a raw-f64 public signature in a physics crate (or the
//! scanner regresses into accepting one), this test fails before CI even
//! reaches `cargo xtask lint`.

use std::io;
use std::path::{Path, PathBuf};

use xtask::manifest::check_manifests;
use xtask::rules::{Family, Scope, FAMILIES};
use xtask::scan::{scan_file, scan_scenario_scripts, scan_workspace, AllowList};
use xtask::{Violation, ViolationKind};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

fn shipped_allow_list() -> AllowList {
    let path = workspace_root().join("crates/xtask/physics-lint.allow");
    AllowList::parse(&std::fs::read_to_string(path).expect("allow-list exists"))
}

/// Scans `src` as a `circuit` source under the signature, strict and
/// send/sync families, with the shipped allow-list.
fn scan_classic(src: &str) -> Vec<Violation> {
    let families: Vec<&Family> = FAMILIES
        .iter()
        .filter(|f| ["signatures", "strict", "sendsync"].contains(&f.word))
        .collect();
    scan_file(
        Path::new("crates/circuit/src/seeded_fixture.rs"),
        src,
        &families,
        &shipped_allow_list(),
    )
}

/// A fresh, empty directory under the system temp dir, unique to `name`
/// and this process.
fn temp_root(name: &str) -> io::Result<PathBuf> {
    let root = std::env::temp_dir().join(format!("xtask-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root)?;
    Ok(root)
}

/// Writes `text` to `root/rel`, creating parent directories.
fn write(root: &Path, rel: &str, text: &str) -> io::Result<()> {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap_or(root))?;
    std::fs::write(path, text)
}

#[test]
fn shipped_tree_is_lint_clean() {
    let violations =
        scan_workspace(workspace_root(), &shipped_allow_list()).expect("workspace scans");
    assert!(
        violations.is_empty(),
        "physics lint must be clean on the shipped tree:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shipped_manifests_opt_into_workspace_lints() {
    let violations = check_manifests(workspace_root()).expect("manifests scan");
    assert!(
        violations.is_empty(),
        "every crate must set `[lints] workspace = true`:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violations_are_caught() {
    // One of each rule family, in a file that matches no allow-list entry.
    let fixture = "\
pub fn leaky(&self, lux: f64) -> f64 { lux }\n\
pub fn check(&self) -> bool { self.v == 3.3 }\n\
fn helper(&self) { let v = self.cell.lock().unwrap(); drop(v); }\n\
fn other(&self) { let v = self.opt.expect(\"set\"); drop(v); }\n\
struct Shared { cache: Rc<RefCell<Vec<u8>>> }\n";
    let violations = scan_classic(fixture);
    let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
    assert!(
        kinds.contains(&ViolationKind::RawFloatSignature),
        "{kinds:?}"
    );
    assert!(kinds.contains(&ViolationKind::FloatEq), "{kinds:?}");
    assert!(kinds.contains(&ViolationKind::Unwrap), "{kinds:?}");
    assert!(kinds.contains(&ViolationKind::Expect), "{kinds:?}");
    assert!(kinds.contains(&ViolationKind::RcRefCell), "{kinds:?}");
}

#[test]
fn inline_escape_is_statement_scoped() {
    // rustfmt keeps a standalone escape comment directly above the
    // statement it annotates; that placement must cover the statement —
    // and ONLY that statement. The old line-adjacency slop let an escape
    // placed after a flagged line suppress it retroactively, and let one
    // escape bleed onto its neighbors.
    let covered = "\
fn pick(&self) {\n\
    // physics-lint: allow(expect): invariant established at construction\n\
    let v = self.opt.expect(\"set\");\n\
    drop(v);\n\
}\n";
    let violations = scan_classic(covered);
    assert!(violations.is_empty(), "{violations:?}");

    // The same escape placed after the statement covers nothing before it.
    let trailing_line = "\
fn pick(&self) {\n\
    let v = self.opt.expect(\"set\");\n\
    // physics-lint: allow(expect): invariant established at construction\n\
    drop(v);\n\
}\n";
    let violations = scan_classic(trailing_line);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::Expect);
    assert_eq!(violations[0].line, 2);
}

#[test]
fn missing_scope_path_is_an_error_naming_it() -> io::Result<()> {
    // Every crate directory exists, and so does one of the two fault-path
    // files: renaming the other must not switch its rule off silently.
    let root = temp_root("missing-scope")?;
    for family in FAMILIES {
        if let Scope::Crates(crates) = family.scope {
            for name in crates {
                write(&root, &format!("crates/{name}/src/lib.rs"), "")?;
            }
        }
    }
    write(&root, "crates/circuit/src/fault.rs", "")?;
    let err = scan_workspace(&root, &AllowList::default()).expect_err("missing file must fail");
    std::fs::remove_dir_all(&root)?;
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(
        err.to_string()
            .contains("crates/platform/src/intermittent.rs"),
        "{err}"
    );
    Ok(())
}

#[test]
fn registry_must_include_each_script_by_its_full_path() -> io::Result<()> {
    // `registry.rs` including `cloudy_day.scn` does not ship `day.scn`.
    let root = temp_root("scenario-registry")?;
    write(
        &root,
        "crates/scenario/src/registry.rs",
        "const S: &str = include_str!(\"../scenarios/cloudy_day.scn\");\n",
    )?;
    write(
        &root,
        "crates/scenario/scenarios/cloudy_day.scn",
        "# cloudy_day: overcast\n",
    )?;
    write(&root, "crates/scenario/scenarios/day.scn", "# day: clear\n")?;
    let violations = scan_scenario_scripts(&root)?;
    std::fs::remove_dir_all(&root)?;
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::ScenarioRegistry);
    assert!(violations[0].file.ends_with("day.scn"));
    assert!(
        violations[0].detail.contains("not included"),
        "{violations:?}"
    );
    Ok(())
}
