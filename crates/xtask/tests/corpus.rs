//! Runs every fixture under `tests/corpus/` through the golden-diff
//! harness, and proves the harness itself fails on divergence in both
//! directions — a finding with no expectation and an expectation with no
//! finding must each break the build.

use std::io;
use std::path::{Path, PathBuf};

use xtask::corpus::{check_fixture, parse_expectations, rules_from_header};
use xtask::rules::FAMILIES;

fn fixture_paths() -> io::Result<Vec<PathBuf>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "rs") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

#[test]
fn corpus_fixtures_match_expectations() -> io::Result<()> {
    let paths = fixture_paths()?;
    assert!(
        paths.len() >= 6,
        "corpus shrank to {} fixtures — every rule family needs coverage",
        paths.len()
    );
    let mut failures = String::new();
    for path in &paths {
        let src = std::fs::read_to_string(path)?;
        let name = path.file_name().expect("fixture has a name");
        // Fixtures are scanned as if they were library sources of a policy
        // crate; the path only labels diagnostics.
        let rel = Path::new("crates/xtask/tests/corpus").join(name);
        if let Err(e) = check_fixture(&rel, &src) {
            failures.push_str(&e);
        }
    }
    assert!(failures.is_empty(), "\n{failures}");
    Ok(())
}

#[test]
fn every_family_has_a_fixture() -> io::Result<()> {
    // A family is exercised when some fixture runs it and expects one of
    // its rules to fire.
    let fixtures = fixture_paths()?
        .iter()
        .map(std::fs::read_to_string)
        .collect::<io::Result<Vec<String>>>()?;
    for family in FAMILIES {
        let exercised = fixtures.iter().any(|src| {
            let runs =
                rules_from_header(src).is_ok_and(|fs| fs.iter().any(|f| std::ptr::eq(*f, family)));
            runs && parse_expectations(src)
                .iter()
                .any(|e| family.kinds.iter().any(|k| k.name() == e.rule))
        });
        assert!(exercised, "no corpus fixture exercises `{}`", family.word);
    }
    Ok(())
}

#[test]
fn harness_rejects_unexpected_finding() {
    let src = "\
// lint-rules: strict
pub fn f(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    let err = check_fixture(Path::new("broken.rs"), src)
        .expect_err("an unannotated finding must fail the fixture");
    assert!(err.contains("unexpected `unwrap` on line 3"), "{err}");
}

#[test]
fn harness_rejects_stale_expectation() {
    let src = "\
// lint-rules: strict
pub fn f() -> u32 {
    0 //~ ERROR unwrap
}
";
    let err = check_fixture(Path::new("stale.rs"), src)
        .expect_err("an expectation that does not fire must fail the fixture");
    assert!(
        err.contains("expected `unwrap` on line 3 — did not fire"),
        "{err}"
    );
}

#[test]
fn harness_rejects_unknown_family_header() {
    let src = "// lint-rules: strictt\n";
    let err = check_fixture(Path::new("typo.rs"), src).expect_err("typo must be rejected");
    assert!(err.contains("unknown lint-rules family"), "{err}");
}
