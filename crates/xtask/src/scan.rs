//! The physics lint engine: one table, one token pass per file.
//!
//! No `syn` is available in the offline build environment, so the lint is
//! built on the hand-rolled lexer in [`crate::lexer`]. [`scan_workspace`]
//! reads each family's scope from [`FAMILIES`], lexes every file in any
//! scope exactly once into a [`FileCtx`], and runs each family that covers
//! the file through a [`Cx`], which applies the family's exemptions and
//! collects its findings. Lexical rather than type-aware means the rules
//! are deliberately conservative in what they match (a float *literal*
//! next to `==`, a textual `f64` inside a `pub fn` signature, an ident
//! *declared* as a `HashMap`) — everything type-aware is delegated to the
//! clippy gate.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, FnItem, Token};
use crate::rules::{scan_allow_hygiene, Family, Scope, FAMILIES};
use crate::{Violation, ViolationKind};

/// The allow-list: one entry per line, `path/to/file.rs::item`, where `item`
/// is a function name (for `raw-float-signature`) or `*` (whole file, every
/// exemptible rule). `#` starts a comment. Inline escapes are spelled in the
/// source itself: a comment containing `physics-lint: allow(<rule>): <reason>`
/// suppresses that rule on the statement it is attached to — the statement
/// it trails, or (for a comment on its own line) the next statement,
/// brace body included. See [`crate::lexer::allow_spans`]. The reason is
/// mandatory; a bare escape is itself a violation (`allow-without-reason`).
#[derive(Debug, Clone, Default)]
pub struct AllowList {
    entries: HashSet<(String, String)>,
}

impl AllowList {
    /// Parses the allow-list file contents.
    pub fn parse(text: &str) -> Self {
        let mut entries = HashSet::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some((path, item)) = line.rsplit_once("::") {
                entries.insert((path.trim().to_string(), item.trim().to_string()));
            }
        }
        Self { entries }
    }

    /// Whether `item` (a fn name, or any rule via `*`) is allowed in `file`.
    pub fn allows(&self, file: &Path, item: &str) -> bool {
        let key = file.to_string_lossy().replace('\\', "/");
        self.entries.contains(&(key.clone(), item.to_string()))
            || self.entries.contains(&(key, "*".to_string()))
    }
}

const MARKER: &str = "physics-lint: allow(";

/// Every escape marker in the comments of a lexed file: the marker's byte
/// offset and the comment text after `allow(`.
pub(crate) fn escape_markers<'s: 't, 't>(
    src: &'s str,
    tokens: &'t [Token],
) -> impl Iterator<Item = (usize, &'s str)> + 't {
    tokens.iter().filter(|t| t.is_comment()).flat_map(move |t| {
        let body = t.text(src);
        body.match_indices(MARKER)
            .map(move |(off, _)| (t.start + off, &body[off + MARKER.len()..]))
    })
}

/// One source file, lexed once: what every scanner reads.
pub struct FileCtx<'a> {
    /// Path relative to the workspace root, for reports and the allow-list.
    pub(crate) rel: &'a Path,
    /// The source text.
    pub(crate) src: &'a str,
    /// Every token, comments and literals included.
    pub(crate) tokens: Vec<Token>,
    /// The code tokens: no comments, strings or char literals.
    pub(crate) code: Vec<Token>,
    /// Byte offset of each line's first byte. Findings take their line from
    /// here: a token's own `line` does not count the newline after a `\`
    /// string continuation.
    line_starts: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items.
    tests: Vec<(usize, usize)>,
    /// The byte ranges each rule's inline escapes cover.
    escapes: Vec<(&'a str, Vec<(usize, usize)>)>,
    /// `fn` items, extracted the first time a family registers exempt fns.
    fns: OnceCell<Vec<FnItem>>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `src` and derives its test regions and escape spans.
    fn new(rel: &'a Path, src: &'a str) -> Self {
        let tokens = lexer::lex(src);
        let code: Vec<Token> = tokens.iter().filter(|t| t.is_code()).copied().collect();
        let mut rules: Vec<&str> = escape_markers(src, &tokens)
            .filter_map(|(_, after)| after.split_once(')').map(|(rule, _)| rule))
            .collect();
        rules.sort_unstable();
        rules.dedup();
        let escapes = rules
            .into_iter()
            .map(|rule| (rule, lexer::allow_spans(src, &tokens, rule)))
            .collect();
        Self {
            rel,
            src,
            tests: test_regions(src, &code),
            line_starts: std::iter::once(0)
                .chain(src.match_indices('\n').map(|(i, _)| i + 1))
                .collect(),
            tokens,
            code,
            escapes,
            fns: OnceCell::new(),
        }
    }

    /// Whether the code tokens from `code[i]` on spell `parts`, one token
    /// each, with no whitespace between them.
    pub(crate) fn spells(&self, i: usize, parts: &[&str]) -> bool {
        let Some(toks) = self.code.get(i..i + parts.len()) else {
            return false;
        };
        toks.iter().zip(parts).all(|(t, p)| t.text(self.src) == *p)
            && toks.windows(2).all(|w| w[0].end == w[1].start)
    }

    /// The 1-based line holding byte `pos`.
    pub(crate) fn line(&self, pos: usize) -> usize {
        self.line_starts.partition_point(|&start| start <= pos)
    }

    /// A finding in this file.
    pub(crate) fn violation(&self, kind: ViolationKind, line: usize, detail: String) -> Violation {
        Violation {
            file: self.rel.to_path_buf(),
            line,
            kind,
            detail,
        }
    }
}

/// Byte ranges of `#[cfg(test)]` items, attribute included.
fn test_regions(src: &str, code: &[Token]) -> Vec<(usize, usize)> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::new();
    let mut i = 0;
    while i + ATTR.len() <= code.len() {
        if ATTR.iter().zip(&code[i..]).all(|(a, t)| t.text(src) == *a) {
            let end = item_end(src, code, i + ATTR.len(), code[i].depth);
            out.push((code[i].start, code[end].end));
            i = end;
        }
        i += 1;
    }
    out
}

/// Index of the last code token of the item starting at `code[from]`: its
/// own `;`, the `}` closing its first brace body, or the token before the
/// `}` that closes the enclosing block. Parens and brackets nest, so the
/// `;` in `[u8; 2]` does not end an item.
fn item_end(src: &str, code: &[Token], from: usize, depth: u32) -> usize {
    let mut nest = 0i32;
    for (j, t) in code.iter().enumerate().skip(from) {
        match t.text(src) {
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            "}" if t.depth < depth => return j - 1,
            ";" if nest == 0 && t.depth == depth => return j,
            "{" if nest == 0 && t.depth == depth => {
                let close = code[j + 1..]
                    .iter()
                    .position(|c| c.depth == depth && c.text(src) == "}");
                return close.map_or(code.len() - 1, |off| j + 1 + off);
            }
            _ => {}
        }
    }
    code.len() - 1
}

/// One family's pass over one file: the shared lex, the family's
/// exemptions, and the findings it reports.
pub struct Cx<'f> {
    /// The lexed file.
    pub(crate) file: &'f FileCtx<'f>,
    /// The family being run.
    pub(crate) family: &'static Family,
    /// The allow-list (the signature rule exempts functions by name).
    pub(crate) allow: &'f AllowList,
    /// Bodies of the family's registered exempt fns.
    bodies: Vec<(usize, usize)>,
    out: Vec<Violation>,
}

impl<'f> Cx<'f> {
    fn new(file: &'f FileCtx<'f>, family: &'static Family, allow: &'f AllowList) -> Self {
        let bodies = if family.exempt_fns.is_empty() {
            Vec::new()
        } else {
            let fns = file
                .fns
                .get_or_init(|| lexer::fn_items(file.src, &file.tokens));
            fns.iter()
                .filter(|f| family.exempt_fns.contains(&f.name.as_str()))
                .map(|f| f.body)
                .collect()
        };
        Self {
            file,
            family,
            allow,
            bodies,
            out: Vec::new(),
        }
    }

    /// Whether a `kind` finding at byte `pos` is exempt: inside a
    /// `#[cfg(test)]` item, an inline escape naming `kind`, or a registered
    /// fn body — never, for a family that honours no exemptions.
    pub(crate) fn exempt(&self, kind: ViolationKind, pos: usize) -> bool {
        let f = self.file;
        self.family.exemptible
            && (lexer::in_spans(&f.tests, pos)
                || lexer::in_spans(&self.bodies, pos)
                || f.escapes
                    .iter()
                    .any(|(rule, spans)| *rule == kind.name() && lexer::in_spans(spans, pos)))
    }

    /// Records a `kind` finding at byte `pos`, unless it is exempt there.
    pub(crate) fn report(&mut self, kind: ViolationKind, pos: usize, detail: String) {
        if !self.exempt(kind, pos) {
            let v = self.file.violation(kind, self.file.line(pos), detail);
            self.out.push(v);
        }
    }
}

/// Scans one file under `families`, then runs the allow-hygiene check,
/// which applies to every scanned file: an unexplained escape is a finding
/// whichever rule it names. The allow-list's `file::*` wildcard silences
/// the hygiene check and every exemptible family.
pub fn scan_file(
    rel: &Path,
    src: &str,
    families: &[&'static Family],
    allow: &AllowList,
) -> Vec<Violation> {
    let file = FileCtx::new(rel, src);
    let wildcard = allow.allows(rel, "*");
    let mut out = Vec::new();
    for &family in families.iter().filter(|f| !(wildcard && f.exemptible)) {
        let mut cx = Cx::new(&file, family, allow);
        (family.scan)(&mut cx);
        out.append(&mut cx.out);
    }
    if !wildcard {
        out.extend(scan_allow_hygiene(&file));
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Scans every file in any family's scope, each lexed once, plus the
/// shipped scenario scripts. `root` is the workspace root. A scope entry
/// whose crate or file is missing is a `NotFound` error naming the path:
/// renaming a file must not switch its rule off without a word.
pub fn scan_workspace(root: &Path, allow: &AllowList) -> io::Result<Vec<Violation>> {
    let mut plan: BTreeMap<PathBuf, Vec<&'static Family>> = BTreeMap::new();
    for family in FAMILIES {
        let files: Vec<PathBuf> = match family.scope {
            Scope::Crates(crates) => crates
                .iter()
                .map(|name| rs_files(existing(root.join("crates").join(name).join("src"))?))
                .collect::<io::Result<Vec<_>>>()?
                .concat(),
            Scope::Files(files) => files
                .iter()
                .map(|f| existing(root.join(f)))
                .collect::<io::Result<_>>()?,
        };
        for file in files {
            plan.entry(file).or_default().push(family);
        }
    }
    let mut out = Vec::new();
    for (path, families) in &plan {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let src = std::fs::read_to_string(path)?;
        out.extend(scan_file(rel, &src, families, allow));
    }
    out.extend(scan_scenario_scripts(root)?);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn existing(path: PathBuf) -> io::Result<PathBuf> {
    if path.exists() {
        return Ok(path);
    }
    let msg = format!("lint scope path `{}` does not exist", path.display());
    Err(io::Error::new(io::ErrorKind::NotFound, msg))
}

/// The `scenario-registry` check: audits the shipped `.scn` scripts under
/// `crates/scenario/scenarios/`. Each script must open with a
/// `# <name>: <description>` header whose name equals the file stem (the
/// registry resolves scripts by that name, and `scenario show` prints the
/// header as documentation), names must be unique across the directory,
/// and `registry.rs` must include every script by its full path — a script
/// on disk that the registry does not ship is a silently dead scenario the
/// CLI can no longer find by name.
pub fn scan_scenario_scripts(root: &Path) -> io::Result<Vec<Violation>> {
    let dir = root.join("crates/scenario/scenarios");
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let registry_src =
        std::fs::read_to_string(root.join("crates/scenario/src/registry.rs")).unwrap_or_default();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    files.retain(|p| p.extension().is_some_and(|e| e == "scn"));
    files.sort();
    let mut seen: HashSet<String> = HashSet::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let mut flag = |detail: String| {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: 1,
                kind: ViolationKind::ScenarioRegistry,
                detail,
            })
        };
        let stem = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(file)?;
        let header_name = text.lines().next().and_then(|l| {
            let body = l.strip_prefix('#')?.trim_start();
            let (name, desc) = body.split_once(':')?;
            (!desc.trim().is_empty()).then(|| name.trim().to_string())
        });
        match header_name {
            None => flag(
                "shipped script must open with a `# <name>: <description>` \
                 header — `scenario show` prints it as the scenario's \
                 documentation"
                    .to_string(),
            ),
            Some(name) => {
                if name != stem {
                    flag(format!(
                        "header names `{name}` but the file stem is `{stem}` — \
                         the registry resolves scripts by stem, so the two must \
                         agree"
                    ));
                }
                if !seen.insert(name.clone()) {
                    flag(format!(
                        "scenario name `{name}` is declared by more than one \
                         shipped script — registry names must be unique"
                    ));
                }
            }
        }
        if !registry_src.contains(&format!("\"../scenarios/{stem}.scn\"")) {
            flag(format!(
                "`{stem}.scn` is not included by `registry.rs` — a script on \
                 disk the registry does not ship is a dead scenario the CLI \
                 cannot find by name"
            ));
        }
    }
    Ok(out)
}

/// The workspace's two size figures, reported by `cargo xtask lint --json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCounts {
    /// Every line of every `.rs` file under `crates/`.
    pub rs_lines: usize,
    /// Lines before each file's first line that opens with `#[cfg(test)]`,
    /// leaving out the integration tests under `crates/*/tests`.
    pub non_test_lines: usize,
}

impl LineCounts {
    /// Folds in one file, `rel` relative to `crates/`.
    fn add_file(&mut self, rel: &Path, src: &str) {
        self.rs_lines += src.lines().count();
        if rel
            .components()
            .nth(1)
            .is_some_and(|c| c.as_os_str() == "tests")
        {
            return;
        }
        self.non_test_lines += src
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
            .count();
    }
}

/// Counts the `.rs` lines under `root/crates` (see [`LineCounts`]).
pub fn count_lines(root: &Path) -> io::Result<LineCounts> {
    let crates = root.join("crates");
    let mut counts = LineCounts::default();
    for path in rs_files(crates.clone())? {
        let rel = path.strip_prefix(&crates).unwrap_or(&path);
        counts.add_file(rel, &std::fs::read_to_string(&path)?);
    }
    Ok(counts)
}

fn rs_files(dir: PathBuf) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::blank_noncode;
    use crate::rules::{family, is_float_literal};

    /// Scans `src` as `rel` under the families named by `words`.
    fn scan(rel: &str, src: &str, words: &[&str], allow: &AllowList) -> Vec<Violation> {
        let families: Vec<&Family> = words
            .iter()
            .map(|w| family(w).expect("known family"))
            .collect();
        scan_file(Path::new(rel), src, &families, allow)
    }

    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn line_counts_stop_at_the_first_test_item() {
        let src = "//! Docs.\nfn a() {}\n// #[cfg(test)] in a comment\n\
                   #[cfg(test)]\nmod tests {\n    #[cfg(test)]\n}\n";
        let mut counts = LineCounts::default();
        counts.add_file(Path::new("nn/src/lib.rs"), src);
        counts.add_file(Path::new("nn/tests/golden.rs"), src);
        counts.add_file(Path::new("nn/src/tests/mod.rs"), "fn b() {}\n");
        let want = LineCounts {
            rs_lines: 15,
            non_test_lines: 4,
        };
        assert_eq!(counts, want);
    }

    #[test]
    fn blanking_removes_comments_and_strings() {
        let src = "let x = \"== 1.0\"; // f64 here\nlet y = 2; /* .unwrap() */";
        let blanked = blank_noncode(src);
        assert!(!blanked.contains("1.0"));
        assert!(!blanked.contains("f64"));
        assert!(!blanked.contains("unwrap"));
        assert!(blanked.contains("let y = 2;"));
        assert_eq!(blanked.len(), src.len());
    }

    #[test]
    fn blanking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"a \"quoted\" f64\"#; let c = '\\''; let l: &'static str = s;";
        let blanked = blank_noncode(src);
        assert!(!blanked.contains("f64"));
        assert!(blanked.contains("'static"));
    }

    #[test]
    fn detects_raw_float_in_pub_signature() {
        let src = "pub fn power(&self, lux: f64) -> Power { todo!() }";
        let vs = scan(
            "crates/x/src/lib.rs",
            src,
            &["signatures"],
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
        // Same file, strict-only policy: no signature finding.
        let vs = scan(
            "crates/x/src/lib.rs",
            src,
            &["strict"],
            &AllowList::default(),
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn detects_float_return_type() {
        let src = "pub fn efficiency(&self) -> f64 { 0.0 }";
        let vs = scan("a.rs", src, &["signatures"], &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
    }

    #[test]
    fn closure_param_floats_are_flagged() {
        let src = "pub fn step(&mut self, shading: impl Fn(usize) -> f64) -> SimStep { todo!() }";
        let vs = scan("a.rs", src, &["signatures"], &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
    }

    #[test]
    fn units_newtype_signature_is_clean() {
        let src = "pub fn power(&self, lux: Lux, shading: Ratio) -> Power { todo!() }\n\
                   pub fn raw(&self) -> Vec<u64> { vec![] }";
        let vs = scan(
            "a.rs",
            src,
            &["signatures", "strict"],
            &AllowList::default(),
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn pub_crate_fns_are_exempt() {
        let src = "pub(crate) fn helper(x: f64) -> f64 { x }";
        let vs = scan("a.rs", src, &["signatures"], &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn body_floats_do_not_trip_signature_rule() {
        let src = "pub fn tidy(&self) -> Power {\n    let x: f64 = 1.0;\n    Power::new(x)\n}";
        let vs = scan("a.rs", src, &["signatures"], &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn allow_list_suppresses_by_fn_name_and_wildcard() {
        let src =
            "pub fn mean(xs: &[f64]) -> f64 { 0.0 }\npub fn median(xs: &[f64]) -> f64 { 0.0 }";
        let allow = AllowList::parse("crates/trace/src/stats.rs::mean\n# comment\n");
        let rel = "crates/trace/src/stats.rs";
        let vs = scan(rel, src, &["signatures"], &allow);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("median"));
        let allow_all = AllowList::parse("crates/trace/src/stats.rs::*");
        assert!(scan(rel, src, &["signatures"], &allow_all).is_empty());
    }

    #[test]
    fn detects_unwrap_and_expect_outside_tests() {
        let src = "fn go() { let x = maybe().unwrap(); let y = other().expect(\"boom\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = maybe().unwrap(); }\n}";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert_eq!(
            kinds(&vs),
            vec![ViolationKind::Unwrap, ViolationKind::Expect]
        );
    }

    #[test]
    fn inline_marker_suppresses_unwrap() {
        let src = "fn go() { let x = lock().unwrap(); } // physics-lint: allow(unwrap): poisoned lock is fatal";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn detects_float_eq_against_literal() {
        let src = "fn go(x: f64) -> bool { x == 0.0 }";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::FloatEq]);
        let src_neq = "fn go(x: f64) -> bool { 1.5e-3 != x }";
        let vs = scan("a.rs", src_neq, &["strict"], &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::FloatEq]);
    }

    #[test]
    fn integer_eq_and_comparisons_are_fine() {
        let src = "fn go(x: usize, y: f64) -> bool { x == 3 && y >= 0.0 && y <= 1.0 }";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn float_eq_in_doc_comment_is_ignored() {
        let src = "/// Returns true when `x == 0.0`.\nfn go(x: u64) -> bool { x == 0 }";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn test_region_masking_handles_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n    fn deep() { if true { x.unwrap(); } }\n}\n\
                   fn live() { y.unwrap(); }";
        let vs = scan("a.rs", src, &["strict"], &AllowList::default());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn detects_rc_and_refcell_outside_tests() {
        let src = "use std::rc::Rc;\nstruct S { cache: Rc<RefCell<Vec<u8>>> }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _: Rc<u8> = todo!(); }\n}";
        let vs = scan(
            "crates/nas/src/task.rs",
            src,
            &["sendsync"],
            &AllowList::default(),
        );
        assert_eq!(
            kinds(&vs),
            vec![ViolationKind::RcRefCell, ViolationKind::RcRefCell]
        );
        assert_eq!(vs[0].line, 2);
        // Rule family off: the same source is clean.
        let vs = scan(
            "crates/nas/src/task.rs",
            src,
            &["strict"],
            &AllowList::default(),
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn arc_and_rwlock_do_not_trip_rc_rule() {
        let src = "struct S { cache: Arc<RwLock<Vec<u8>>>, weak: std::sync::Weak<u8> }";
        let vs = scan("a.rs", src, &["sendsync"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn inline_marker_suppresses_rc_refcell() {
        let src =
            "type Scratch = RefCell<Vec<u8>>; // physics-lint: allow(rc-refcell): thread-local";
        let vs = scan("a.rs", src, &["sendsync"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn fault_path_rule_covers_tests_and_ignores_escapes() {
        let src = "\
fn live() { let x = maybe().unwrap(); } // physics-lint: allow(unwrap): nope\n\
#[cfg(test)]\nmod tests {\n    fn t() { other().expect(\"boom\"); }\n}\n";
        let vs = scan(
            "crates/circuit/src/fault.rs",
            src,
            &["fault-path"],
            &AllowList::default(),
        );
        assert_eq!(
            kinds(&vs),
            vec![
                ViolationKind::FaultPathUnwrap,
                ViolationKind::FaultPathUnwrap
            ],
            "{vs:?}"
        );
        assert_eq!(vs[0].line, 1, "inline escape must not be honored");
        assert_eq!(vs[1].line, 4, "test regions are not exempt");
    }

    #[test]
    fn fault_path_rule_ignores_comments_and_strings() {
        let src = "/// Never call `.unwrap()` here.\nfn go() { log(\".expect(\"); }\n";
        let vs = scan(
            "crates/circuit/src/fault.rs",
            src,
            &["fault-path"],
            &AllowList::default(),
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn detects_while_time_loop_around_step() {
        let src = "\
fn run(sim: &mut Sim) {\n\
    let mut time = 0.0;\n\
    while time < 60.0 {\n\
        let s = sim.step();\n\
        time += 0.001;\n\
    }\n\
}\n";
        let vs = scan(
            "crates/circuit/src/sim.rs",
            src,
            &["sim-loops"],
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn detects_counter_loop_around_step() {
        let src = "fn run(sim: &mut Sim, n: usize) {\n    for _ in 0..n {\n        sim.step();\n    }\n}\n";
        let vs = scan("a.rs", src, &["sim-loops"], &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
    }

    #[test]
    fn non_stepping_and_non_time_loops_are_fine() {
        // A time loop that never calls `.step(`, a `.step(` under a
        // non-time `while`, and an iterator `for` are all clean.
        let src = "\
fn a(mut elapsed: f64) { while elapsed < 9.0 { elapsed += 1.0; } }\n\
fn b(q: &mut Vec<Sim>) { while let Some(mut s) = q.pop() { s.step(); } }\n\
fn c(xs: &[u8]) { for x in xs { step_count(*x); } }\n";
        let vs = scan("a.rs", src, &["sim-loops"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn sim_loops_in_tests_and_comments_are_exempt() {
        let src = "\
/// while t < end { sim.step(); }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn reference() { let mut t = 0.0; while t < 1.0 { sim.step(); t += 0.1; } }\n\
}\n";
        let vs = scan("a.rs", src, &["sim-loops"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn inline_marker_and_wildcard_suppress_sim_loop() {
        let src = "\
fn run(sim: &mut Sim) {\n\
    let mut time = 0.0;\n\
    // physics-lint: allow(adhoc-sim-loop): scheduler bootstrap\n\
    while time < 60.0 {\n\
        sim.step();\n\
        time += 0.001;\n\
    }\n\
}\n";
        let vs = scan("a.rs", src, &["sim-loops"], &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
        let flagged = "fn r(sim: &mut Sim) {\n    let mut t = 0.0;\n    while t < 1.0 {\n        sim.step();\n        t += 0.1;\n    }\n}\n";
        let allow = AllowList::parse("crates/x/src/lib.rs::*");
        let vs = scan("crates/x/src/lib.rs", flagged, &["sim-loops"], &allow);
        assert!(vs.is_empty(), "{vs:?}");
        let vs = scan(
            "crates/x/src/lib.rs",
            flagged,
            &["sim-loops"],
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
    }

    #[test]
    fn float_literal_classifier() {
        for yes in ["1.0", "0.5", "1e-9", "2.33e-3", "2f64", "1_000.0", "3.3f32"] {
            assert!(is_float_literal(yes), "{yes} should be a float literal");
        }
        for no in ["1", "x", "0x1e", "len", "f64", "Power", "1_000"] {
            assert!(!is_float_literal(no), "{no} should NOT be a float literal");
        }
    }
}
