//! The lint policy and its scanners.
//!
//! [`FAMILIES`] is the policy: one row per rule family, naming the
//! `// lint-rules:` header word the corpus uses, the rules the family
//! reports (see [`ViolationKind`] for what each one catches and why), the
//! crates or files it covers, whether the usual exemptions apply, its
//! registries, and its scanner. It is the one place scopes live;
//! [`crate::scan`] reads it to decide what runs where.
//!
//! Every scanner reads the same per-file token stream ([`FileCtx`]) through
//! a [`Cx`], so a `HashMap` in a doc comment, a `.unwrap()` in a string
//! literal or a `seed + i` in a raw string never fires. Escapes use
//! statement-scoped `physics-lint: allow(<rule>): <reason>` comments, and
//! the allow-hygiene check makes the reason mandatory.

use crate::lexer::{Token, TokenKind};
use crate::scan::{escape_markers, Cx, FileCtx};
use crate::ViolationKind as K;
use crate::{Violation, ViolationKind};

/// One rule family: a row of the lint policy.
pub struct Family {
    /// The word naming the family in a corpus fixture's `// lint-rules:`
    /// header.
    pub word: &'static str,
    /// The rules the family reports. Their names are the rule names an
    /// inline escape may carry.
    pub kinds: &'static [ViolationKind],
    /// What the family scans in the shipped tree.
    pub scope: Scope,
    /// Whether `#[cfg(test)]` items, inline escapes and the allow-list's
    /// `file::*` wildcard exempt the family's findings.
    pub exemptible: bool,
    /// Registered functions whose bodies are exempt: the sanctioned home of
    /// what the rule bans elsewhere (the mixing or the raw syscalls have to
    /// live *somewhere*, and the registry pins where).
    pub exempt_fns: &'static [&'static str],
    /// Registered names the rule sanctions as operands (seed cycle tags).
    /// Registering a tag is the reviewed act that reserves its stream.
    pub tags: &'static [&'static str],
    /// The scanner.
    pub scan: fn(&mut Cx),
}

/// Where a family applies in the shipped tree.
pub enum Scope {
    /// Every `.rs` file under `crates/<name>/src` of the named crates.
    Crates(&'static [&'static str]),
    /// Workspace-relative files.
    Files(&'static [&'static str]),
}

/// The five crates whose public APIs carry physical quantities.
const PHYSICS: &[&str] = &["circuit", "mcu", "energy", "platform", "trace"];

/// The lint policy: one row per family.
pub static FAMILIES: &[Family] = &[
    Family {
        word: "signatures",
        kinds: &[K::RawFloatSignature],
        scope: Scope::Crates(PHYSICS),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_signatures,
    },
    // `fleet` is strict but not signature-checked: its sampling
    // distributions legitimately traffic in raw `f64` parameters.
    Family {
        word: "strict",
        kinds: &[K::Unwrap, K::Expect, K::FloatEq],
        scope: Scope::Crates(&[
            "circuit", "mcu", "energy", "platform", "trace", "units", "cli", "fleet",
        ]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_strict,
    },
    // State shared across the worker threads of the parallel evaluation
    // engine and the fleet campaign must stay `Send + Sync`.
    Family {
        word: "sendsync",
        kinds: &[K::RcRefCell],
        scope: Scope::Crates(&["nas", "nn", "fleet"]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_rc_refcell,
    },
    // The scheduler crate `sim` is exempt by omission; campaigns in `fleet`
    // must drive days through it too.
    Family {
        word: "sim-loops",
        kinds: &[K::AdhocSimLoop],
        scope: Scope::Crates(&["circuit", "mcu", "energy", "platform", "trace", "fleet"]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_sim_loops,
    },
    // Everything that feeds a published result: the engine crates plus
    // `energy` (its lookup tables are cached and serialized, so iteration
    // order reaches bytes on disk) and `scenario` (evaluation must be a pure
    // function of `(script, seed)`: golden reports and store keys replay it).
    Family {
        word: "determinism",
        kinds: &[K::Determinism],
        scope: Scope::Crates(&[
            "sim", "circuit", "mcu", "energy", "platform", "fleet", "nas", "scenario",
        ]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_determinism,
    },
    // `energy` is deliberately absent: its xorshift lives in local
    // regression-bootstrap helpers that never share streams. `trace` holds
    // the one seed module every other crate draws from.
    Family {
        word: "seed-discipline",
        kinds: &[K::SeedDiscipline],
        scope: Scope::Crates(&[
            "sim", "circuit", "mcu", "platform", "fleet", "nas", "scenario", "trace",
        ]),
        exemptible: true,
        exempt_fns: &["derive_seed", "mix64", "splitmix64"],
        tags: &[
            "FLEET_SEED_CYCLE",
            "FAULT_STREAM_TAG",
            "POPULATION_STREAM_TAG",
            "ENV_STREAM_TAG",
            "SCENARIO_STREAM_TAG",
        ],
        scan: scan_seed_discipline,
    },
    // The `sim` crate is exempt by omission: it is where `SimBus` and
    // `EnergyAudit` live.
    Family {
        word: "ledger-coverage",
        kinds: &[K::LedgerCoverage],
        scope: Scope::Crates(&["circuit", "mcu", "platform", "fleet"]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_ledger_coverage,
    },
    // The crates that own checkpoint bytes: `trace` holds the codec and
    // `write_atomic`, `fleet` holds the campaign snapshots.
    Family {
        word: "atomic-persist",
        kinds: &[K::AtomicPersist],
        scope: Scope::Crates(&["fleet", "trace"]),
        exemptible: true,
        exempt_fns: &["write_atomic"],
        tags: &[],
        scan: scan_atomic_persist,
    },
    // The crates that derive node-day store keys: `fleet` owns the task/key
    // layer, `trace` owns the key hasher and the codec.
    Family {
        word: "stable-store-key",
        kinds: &[K::StableStoreKey],
        scope: Scope::Crates(&["fleet", "trace"]),
        exemptible: true,
        exempt_fns: &[],
        tags: &[],
        scan: scan_stable_store_key,
    },
    // A panic in fault-handling code is indistinguishable from the fault it
    // was supposed to model, so nothing here is exempt: a panicking helper
    // inside a brownout test aborts the run exactly like a product bug.
    Family {
        word: "fault-path",
        kinds: &[K::FaultPathUnwrap],
        scope: Scope::Files(&[
            "crates/circuit/src/fault.rs",
            "crates/platform/src/intermittent.rs",
        ]),
        exemptible: false,
        exempt_fns: &[],
        tags: &[],
        scan: scan_fault_path,
    },
];

/// The family a `// lint-rules:` header word names.
pub fn family(word: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.word == word)
}

/// Every rule name an inline escape may carry.
fn known_rules() -> impl Iterator<Item = &'static str> {
    FAMILIES.iter().flat_map(|f| f.kinds).map(|k| k.name())
}

fn is_punct(src: &str, t: Option<&Token>, p: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == p)
}

fn ident_text<'s>(src: &'s str, t: Option<&Token>) -> Option<&'s str> {
    t.filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
}

/// The signature rule: a `pub fn` (not `pub(crate)`) whose signature, up to
/// the body's `{` or the `;`, names `f64`/`f32`. The allow-list exempts a
/// function by name.
fn scan_signatures(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    let mut i = 0;
    while i < code.len() {
        let at = i;
        i += 1;
        if !f.spells(at, &["pub"]) || f.spells(at + 1, &["("]) {
            continue;
        }
        let qualifiers = code[at + 1..]
            .iter()
            .take(3)
            .take_while(|t| matches!(t.text(src), "const" | "async" | "unsafe" | "extern"));
        let j = at + 1 + qualifiers.count();
        if !f.spells(j, &["fn"]) {
            continue;
        }
        let name = ident_text(src, code.get(j + 1)).unwrap_or_default();
        let sig_start = if name.is_empty() { j + 1 } else { j + 2 };
        let sig_end = code[sig_start..]
            .iter()
            .position(|t| t.kind == TokenKind::Punct && matches!(t.text(src), "{" | ";"))
            .map_or(code.len(), |n| sig_start + n);
        i = sig_end;
        let raw_float = code[sig_start..sig_end]
            .iter()
            .any(|t| matches!(ident_text(src, Some(t)), Some("f64" | "f32")));
        if !raw_float || cx.allow.allows(f.rel, name) {
            continue;
        }
        cx.report(
            K::RawFloatSignature,
            code[at].start,
            format!(
                "`pub fn {name}` exposes raw f64/f32 — use a solarml-units newtype \
                 or add `{}::{name}` to the allow-list",
                f.rel.display()
            ),
        );
    }
}

/// `.unwrap()` / `.expect(` call sites: the `.`'s byte offset, the call
/// as written, and the rule it breaks under the strict family.
fn panicking_calls<'f>(f: &'f FileCtx) -> impl Iterator<Item = (usize, &'static str, K)> + 'f {
    (0..f.code.len()).filter_map(|i| {
        let pos = f.code[i].start;
        if f.spells(i, &[".", "unwrap", "(", ")"]) {
            Some((pos, ".unwrap()", K::Unwrap))
        } else {
            f.spells(i, &[".", "expect", "("])
                .then_some((pos, ".expect(", K::Expect))
        }
    })
}

/// The strict family: `.unwrap()`/`.expect(` in non-test library code, and
/// float `==`/`!=` against a literal.
fn scan_strict(cx: &mut Cx) {
    for (pos, needle, kind) in panicking_calls(cx.file) {
        cx.report(
            kind,
            pos,
            format!(
                "`{needle}…` in library code — thread a Result or use \
                 `// physics-lint: allow({})` with a reason",
                kind.name()
            ),
        );
    }
    scan_float_eq(cx);
}

/// The fault-path rule: every `.unwrap()` and `.expect(`; the family is
/// not exemptible, so test regions, escapes and the allow-list do not
/// count. Fault-handling code must thread errors, full stop.
fn scan_fault_path(cx: &mut Cx) {
    for (pos, needle, _) in panicking_calls(cx.file) {
        cx.report(
            K::FaultPathUnwrap,
            pos,
            format!(
                "`{needle}…` on the fault path — a panic here masquerades as the \
                 injected fault; match or propagate instead (no escapes honored)"
            ),
        );
    }
}

/// Does this token text look like a float literal (`1.0`, `1e-9`, `2f64`)?
pub(crate) fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() {
        // Bare `f64`/`f32` suffix means the original was e.g. `2f64`… but an
        // empty remainder means the token was just the suffix text: not a
        // literal unless digits preceded, which trim would have kept.
        return tok != "f64" && tok != "f32" && !tok.is_empty();
    }
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp =
        t.chars().any(|c| c == 'e' || c == 'E') && !t.starts_with("0x") && !t.starts_with("0b");
    let had_suffix = tok.ends_with("f64") || tok.ends_with("f32");
    (has_dot || has_exp || had_suffix)
        && t.chars()
            .all(|c| c.is_ascii_digit() || "._eE+-".contains(c))
}

/// Whether `t` can be part of a path-like operand (`self.v`, `1.5e-3`).
fn is_operand_part(src: &str, t: &Token) -> bool {
    matches!(t.kind, TokenKind::Ident | TokenKind::Number) || t.text(src) == "."
}

/// Float `==`/`!=` where either operand is a float literal. Lexical: the
/// operands are the glued ident/number/`.` runs beside the operator.
fn scan_float_eq(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    let glued = |a: usize, b: usize| code[a].end == code[b].start;
    // The text of `code[a..b]`.
    let span = |a: usize, b: usize| (a < b).then(|| &src[code[a].start..code[b - 1].end]);
    for i in 0..code.len() {
        let op = if f.spells(i, &["=", "="]) {
            // Not the tail of `<==`, `>==`, `===`, `!==`.
            if i > 0
                && ["<", ">", "=", "!"]
                    .iter()
                    .any(|p| f.spells(i - 1, &[p, "="]))
            {
                continue;
            }
            "=="
        } else if f.spells(i, &["!", "="]) {
            "!="
        } else {
            continue;
        };
        if f.spells(i + 1, &["=", "="]) {
            continue;
        }
        let mut s = i;
        while s > 0 && is_operand_part(src, &code[s - 1]) && (s == i || glued(s - 1, s)) {
            s -= 1;
        }
        let mut a = i + 2;
        if f.spells(a, &["-"]) && a + 1 < code.len() && glued(a, a + 1) {
            a += 1;
        }
        let mut e = a;
        while e < code.len() && is_operand_part(src, &code[e]) && (e == a || glued(e - 1, e)) {
            e += 1;
        }
        if [span(s, i), span(a, e)]
            .into_iter()
            .flatten()
            .any(is_float_literal)
        {
            cx.report(
                K::FloatEq,
                code[i].start,
                format!(
                    "float literal compared with `{op}` — use a tolerance or \
                     `// physics-lint: allow(float-eq)` with a reason"
                ),
            );
        }
    }
}

/// Flags `Rc<` and `RefCell<` in non-test library code. Single-threaded
/// shared state in `nas`/`nn` would make `TaskContext` `!Send`/`!Sync`
/// again and silently break the parallel evaluation engine; use
/// `Arc`/`RwLock`/`Mutex` instead (as `TaskContext`'s caches do).
fn scan_rc_refcell(cx: &mut Cx) {
    let f = cx.file;
    for (i, t) in f.code.iter().enumerate() {
        let Some(name) = ["Rc", "RefCell"]
            .into_iter()
            .find(|&n| f.spells(i, &[n, "<"]))
        else {
            continue;
        };
        cx.report(
            K::RcRefCell,
            t.start,
            format!(
                "`{name}<…` is not Send/Sync — use Arc/Mutex (as \
                 nas::TaskContext's caches do), or add \
                 `// physics-lint: allow(rc-refcell)` with a reason"
            ),
        );
    }
}

/// The co-simulation rule: flags a manual time-stepping loop in non-test
/// library code. A loop header opens its line and is either a `while` whose
/// condition compares (`<`/`>`) a time-like ident (`t`, `…time…`,
/// `…elapsed…`, `…deadline…`, `…clock…`, `…remaining…`) or a
/// `for … in 0..` counter — the two shapes the legacy per-module loops
/// used — and it drives a `.step(` call on its own line or the six after.
/// All stepping must go through the `solarml_sim::Scheduler` so the
/// workspace keeps one clock and one bus-owned energy ledger. An escape on
/// either the loop statement or the `.step(` statement suppresses it.
fn scan_sim_loops(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    let time_like = |id: &str| {
        id == "t"
            || ["time", "elapsed", "deadline", "clock", "remaining"]
                .iter()
                .any(|w| id.contains(w))
    };
    let lines: Vec<usize> = code.iter().map(|t| f.line(t.start)).collect();
    for (i, head) in code.iter().enumerate() {
        let keyword = head.text(src);
        if !matches!(keyword, "while" | "for") || (i > 0 && lines[i - 1] == lines[i]) {
            continue;
        }
        // The rest of the header's line.
        let n = lines[i + 1..]
            .iter()
            .take_while(|&&l| l == lines[i])
            .count();
        let rest = &code[i + 1..i + 1 + n];
        let is_loop = if keyword == "while" {
            rest.iter().any(|t| matches!(t.text(src), "<" | ">"))
                && rest.iter().any(|t| {
                    matches!(t.kind, TokenKind::Ident | TokenKind::Lifetime)
                        && time_like(t.text(src).trim_start_matches('\''))
                })
        } else {
            (i + 1..i + 1 + n).any(|j| f.spells(j, &["in"]) && f.spells(j + 1, &["0", ".", "."]))
        };
        if !is_loop {
            continue;
        }
        // Six lines of lookahead covers a rustfmt-wrapped call without
        // reaching into a sibling loop.
        let step = (i..code.len())
            .take_while(|&j| lines[j] <= lines[i] + 6)
            .find(|&j| f.spells(j, &[".", "step", "("]));
        let Some(step) = step else {
            continue;
        };
        if cx.exempt(K::AdhocSimLoop, code[step].start) {
            continue;
        }
        cx.report(
            K::AdhocSimLoop,
            head.start,
            format!(
                "manual stepping loop drives `.step(` (line {}) outside the \
                 co-simulation scheduler — use `solarml_sim::Scheduler` \
                 (run_until/run_span/run_steps) or add \
                 `// physics-lint: allow(adhoc-sim-loop)` with a reason",
                lines[step]
            ),
        );
    }
}

/// Methods whose receiver order is the hasher's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Integer-arithmetic methods that count as seed mixing.
const WRAPPING_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_rem",
    "rotate_left",
    "rotate_right",
];

/// Idents *declared* as `HashMap`/`HashSet` in this file: `name: HashMap<…>`
/// (fields, params, typed lets) and `let [mut] name = HashMap::new()`-style
/// initializers. Declaration-driven rather than type-driven keeps the rule
/// lexical; a hashed container smuggled in through a type alias is clippy's
/// `disallowed_types` job.
fn hashed_idents<'s>(src: &'s str, code: &[Token]) -> Vec<&'s str> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        let Some(name) = ident_text(src, code.get(i)) else {
            continue;
        };
        // `name: [&] [mut] [std :: collections ::] HashMap<…>` — but not a
        // path segment (`name::`) and not the second half of one (`::name`).
        if is_punct(src, code.get(i + 1), ":")
            && !is_punct(src, code.get(i + 2), ":")
            && !is_punct(src, code.get(i.wrapping_sub(1)), ":")
        {
            let skipped = code[i + 2..].iter().take(8).take_while(|t| match t.kind {
                TokenKind::Punct => matches!(t.text(src), ":" | "&"),
                TokenKind::Lifetime => true,
                TokenKind::Ident => matches!(t.text(src), "mut" | "std" | "collections"),
                _ => false,
            });
            let j = i + 2 + skipped.count();
            if matches!(ident_text(src, code.get(j)), Some("HashMap" | "HashSet")) {
                out.push(name);
            }
        }
        // `let [mut] bound = … HashMap::new() …` up to the closing `;`.
        if name == "let" {
            let mut j = i + 1;
            if ident_text(src, code.get(j)) == Some("mut") {
                j += 1;
            }
            let Some(bound) = ident_text(src, code.get(j)) else {
                continue;
            };
            if !is_punct(src, code.get(j + 1), "=") {
                continue;
            }
            let mut k = j + 2;
            while k < code.len() && k < j + 40 && !is_punct(src, code.get(k), ";") {
                if matches!(ident_text(src, code.get(k)), Some("HashMap" | "HashSet"))
                    && is_punct(src, code.get(k + 1), ":")
                {
                    out.push(bound);
                    break;
                }
                k += 1;
            }
        }
    }
    out
}

/// The determinism rule: flags iteration over hashed containers, wall-clock
/// reads, and ambient OS entropy in non-test library code.
fn scan_determinism(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    let hashed = hashed_idents(src, code);
    let kind = K::Determinism;
    for i in 0..code.len() {
        let t = &code[i];
        let Some(name) = ident_text(src, Some(t)) else {
            continue;
        };
        // `recv.iter()` / `recv.values()` / … where recv was declared hashed.
        if ITER_METHODS.contains(&name)
            && is_punct(src, code.get(i + 1), "(")
            && is_punct(src, code.get(i.wrapping_sub(1)), ".")
        {
            let recv = ident_text(src, code.get(i.wrapping_sub(2)));
            if let Some(recv) = recv.filter(|r| hashed.contains(r)) {
                cx.report(
                    kind,
                    t.start,
                    format!(
                        "`{recv}.{name}(…)` iterates a hashed container — \
                         RandomState order is run-dependent (and poisons any \
                         float accumulation over it); use BTreeMap/BTreeSet or \
                         sorted keys, or add \
                         `// physics-lint: allow(determinism): <reason>`"
                    ),
                );
            }
        }
        // `for … in <hashed> {` — direct IntoIterator over the container.
        if name == "for" {
            let header_end = code[i + 1..]
                .iter()
                .take(60)
                .position(|c| {
                    c.kind == TokenKind::Punct && c.text(src) == "{" && c.depth == t.depth
                })
                .map(|off| i + 1 + off);
            if let Some(end) = header_end {
                let over_hashed = code[i + 1..end]
                    .iter()
                    .any(|c| c.kind == TokenKind::Ident && hashed.contains(&c.text(src)));
                // `.iter()`-style headers are already flagged above; only
                // report the bare `for k in map` shape here to avoid
                // double-counting one loop.
                let has_method = code[i + 1..end]
                    .iter()
                    .any(|c| ident_text(src, Some(c)).is_some_and(|n| ITER_METHODS.contains(&n)));
                if over_hashed && !has_method {
                    cx.report(
                        kind,
                        t.start,
                        "`for … in` over a hashed container — RandomState \
                         order is run-dependent; use BTreeMap/BTreeSet or \
                         sorted keys, or add \
                         `// physics-lint: allow(determinism): <reason>`"
                            .to_string(),
                    );
                }
            }
        }
        // Wall clock: `Instant::now` / `SystemTime::now`.
        if matches!(name, "Instant" | "SystemTime")
            && is_punct(src, code.get(i + 1), ":")
            && is_punct(src, code.get(i + 2), ":")
            && ident_text(src, code.get(i + 3)) == Some("now")
        {
            cx.report(
                kind,
                t.start,
                format!(
                    "`{name}::now()` reads the wall clock — simulated time comes \
                     from the Scheduler's SimBus; host time may not influence \
                     results (benchmarking lives in solarml-bench)"
                ),
            );
        }
        // Ambient OS entropy.
        if matches!(name, "thread_rng" | "from_entropy") {
            cx.report(
                kind,
                t.start,
                format!(
                    "`{name}` draws ambient OS entropy — all randomness must be \
                     derived from the run seed via `derive_seed(seed, CYCLE_TAG, \
                     index)` so results replay bit-identically"
                ),
            );
        }
    }
}

/// The seed-discipline rule: raw arithmetic on seed-named values is only
/// legal inside the sanctioned mixer functions or against a registered
/// cycle-tag constant, and `derive_seed`'s cycle argument must be one of
/// those registered names.
fn scan_seed_discipline(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    let tags = cx.family.tags;
    let is_tag = |name: &str| tags.contains(&name);
    let seedish = |t: Option<&Token>| {
        ident_text(src, t).is_some_and(|n| n.to_ascii_lowercase().contains("seed"))
    };
    let kind = K::SeedDiscipline;
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind == TokenKind::Ident {
            let name = t.text(src);
            // `seed.wrapping_mul(…)`-style mixing.
            let method = ident_text(src, code.get(i + 2)).filter(|m| WRAPPING_METHODS.contains(m));
            if let Some(method) =
                method.filter(|_| seedish(Some(t)) && is_punct(src, code.get(i + 1), "."))
            {
                cx.report(
                    kind,
                    t.start,
                    format!(
                        "`{name}.{method}(…)` mixes a seed by hand — route through \
                         `derive_seed(seed, CYCLE_TAG, index)` (or a registered \
                         mixer fn), or add \
                         `// physics-lint: allow(seed-discipline): <reason>`"
                    ),
                );
            }
            // `derive_seed(seed, <tag>, index)`: the cycle tag must be a
            // registered constant, not a bare literal or an ad-hoc const.
            if name == "derive_seed" && is_punct(src, code.get(i + 1), "(") {
                check_derive_seed_tag(cx, i);
            }
            continue;
        }
        // Binary seed arithmetic: + - * % ^ and << >> (adjacent pairs).
        if t.kind != TokenKind::Punct {
            continue;
        }
        let op = t.text(src);
        let (op_disp, mut right_idx) = match op {
            "+" | "-" | "*" | "%" | "^" => (op.to_string(), i + 1),
            "<" | ">" => {
                let doubles_next = f.spells(i, &[op, op]);
                let doubles_prev = i > 0 && f.spells(i - 1, &[op, op]);
                if doubles_prev || !doubles_next {
                    continue; // second half of a shift, or a comparison
                }
                (format!("{op}{op}"), i + 2)
            }
            _ => continue,
        };
        // `->` return arrows and `=>` match arms never have ident operands
        // adjacent on both sides, so no special-casing needed; compound
        // assignment (`^=`, `+=`…) shifts the RHS right by one.
        if is_punct(src, code.get(right_idx), "=") {
            right_idx += 1;
        }
        let left = if i > 0 { code.get(i - 1) } else { None };
        let right = code.get(right_idx);
        let left_seed = seedish(left);
        let right_seed = seedish(right);
        if !left_seed && !right_seed {
            continue;
        }
        // Unary `-x` / `*x` / `&x`: no left operand means not arithmetic.
        if !left_seed
            && matches!(op, "-" | "*")
            && !left.is_some_and(|l| {
                matches!(l.kind, TokenKind::Ident | TokenKind::Number)
                    || matches!(l.text(src), ")" | "]")
            })
        {
            continue;
        }
        // Sanctioned: the other operand is a registered cycle-tag constant.
        let other = if left_seed { right } else { left };
        if ident_text(src, other).is_some_and(is_tag) {
            continue;
        }
        let lhs = left.map(|l| l.text(src)).unwrap_or_default();
        let rhs = right.map(|r| r.text(src)).unwrap_or_default();
        cx.report(
            kind,
            t.start,
            format!(
                "raw seed arithmetic `{lhs} {op_disp} {rhs}` — derive per-stream \
                 seeds via `derive_seed(seed, CYCLE_TAG, index)` with a tag \
                 registered in the seed-discipline row of FAMILIES, or add \
                 `// physics-lint: allow(seed-discipline): <reason>`"
            ),
        );
    }
}

/// Checks the second argument of a `derive_seed(…)` call at `code[at]`.
fn check_derive_seed_tag(cx: &mut Cx, at: usize) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    // The tokens of the second top-level argument.
    let (mut depth, mut arg, mut cycle) = (0, 0, Vec::new());
    for t in &code[at + 2..] {
        match t.text(src) {
            ")" | "]" if depth == 0 => break,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 0 => {
                arg += 1;
                continue;
            }
            _ => {}
        }
        if arg == 1 {
            cycle.push(t);
        }
    }
    let [only] = cycle.as_slice() else {
        return; // an expression (e.g. `req.cycle`) carries its own provenance
    };
    let name = only.text(src);
    let detail = match only.kind {
        TokenKind::Number => format!(
            "`derive_seed` cycle tag is the bare literal `{name}` — use a named \
             constant registered in the seed-discipline row of FAMILIES so the \
             stream is reserved exactly once"
        ),
        TokenKind::Ident
            if name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                && name.chars().any(|c| c.is_ascii_uppercase())
                && !cx.family.tags.contains(&name) =>
        {
            format!(
                "`derive_seed` cycle tag `{name}` is not registered — add it to \
                 the seed-discipline row of FAMILIES (reserving the stream is a \
                 reviewed decision)"
            )
        }
        _ => return,
    };
    cx.report(K::SeedDiscipline, code[at].start, detail);
}

/// The ledger-coverage rule: a compound assignment whose right-hand side
/// multiplies by `dt` is an energy/charge integral happening outside the
/// bus ledger. Everything integrated over simulated time must flow through
/// `SimBus::record` / `EnergyAudit` so conservation checks see it.
fn scan_ledger_coverage(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    for i in 0..code.len() {
        let t = &code[i];
        if !(f.spells(i, &["+", "="]) || f.spells(i, &["-", "="])) {
            continue;
        }
        // RHS runs to the statement's `;`; look for `… * dt` / `dt * …`.
        let integrates = (i + 2..code.len())
            .take_while(|&j| !is_punct(src, code.get(j), ";"))
            .any(|j| {
                ident_text(src, code.get(j)) == Some("dt")
                    && (is_punct(src, code.get(j - 1), "*") || is_punct(src, code.get(j + 1), "*"))
            });
        if !integrates {
            continue;
        }
        let name = |k: usize| code.get(k).map(|t| t.text(src)).unwrap_or_default();
        let target = if i >= 3 && is_punct(src, code.get(i - 2), ".") {
            format!("{}.{}", name(i - 3), name(i - 1))
        } else {
            name(i.wrapping_sub(1)).to_string()
        };
        cx.report(
            K::LedgerCoverage,
            t.start,
            format!(
                "`{target} {}= … * dt` integrates energy outside the ledger — \
                 route the flow through SimBus::record / EnergyAudit so \
                 conservation checks see it, or add \
                 `// physics-lint: allow(ledger-coverage): <reason>`",
                t.text(src)
            ),
        );
    }
}

/// The atomic-persist rule: `fs::write(…)` and `File::create(…)` in
/// non-test persistence code are torn-write hazards — a crash between the
/// create and the final flush leaves a half-written file that checkpoint
/// recovery must then treat as corruption. All durable bytes go through a
/// registered atomic-write helper (`write_atomic`: temp sibling + fsync +
/// rename), whose own body is exempt.
fn scan_atomic_persist(cx: &mut Cx) {
    let f = cx.file;
    let (src, code) = (f.src, &f.code);
    for (i, t) in code.iter().enumerate() {
        // `fs :: write (` / `File :: create (` — `::` lexes as two `:`
        // puncts; the qualifier ident sits three tokens back either way
        // (`std::fs::write` still has `fs` at i-3).
        let qualifier = match ident_text(src, Some(t)) {
            Some("write") => "fs",
            Some("create") => "File",
            _ => continue,
        };
        if !is_punct(src, code.get(i + 1), "(")
            || !is_punct(src, code.get(i.wrapping_sub(1)), ":")
            || !is_punct(src, code.get(i.wrapping_sub(2)), ":")
            || ident_text(src, code.get(i.wrapping_sub(3))) != Some(qualifier)
        {
            continue;
        }
        cx.report(
            K::AtomicPersist,
            t.start,
            format!(
                "`{qualifier}::{}(…)` writes durable bytes non-atomically — a \
                 crash mid-write leaves a torn file; route through \
                 `solarml_trace::bytes::write_atomic` (temp sibling + fsync + \
                 rename), or add \
                 `// physics-lint: allow(atomic-persist): <reason>`",
                t.text(src)
            ),
        );
    }
}

/// Std hasher types whose output is salted per process (`RandomState`) or
/// whose algorithm std does not guarantee across releases (`DefaultHasher`,
/// the deprecated `SipHasher` family). Exact ident matches — the lexer
/// yields whole identifiers, so `BuildHasherDefault` never matches.
const UNSTABLE_HASHERS: &[&str] = &["DefaultHasher", "RandomState", "SipHasher", "SipHasher13"];

/// The stable-store-key rule: any mention of a randomized/unstable std
/// hasher in non-test store-key code. Content-addressed store entries are
/// looked up by recomputing the key in a *different* process than the one
/// that wrote them; a per-process-seeded hash turns every lookup into a
/// silent permanent miss (the cache "works" but never hits), and an
/// algorithm std may change re-keys the whole store on a toolchain bump.
/// Keys go through the registered stable key hasher
/// (`solarml_trace::KeyHasher`). Flagging the *type name* rather
/// than a call shape is deliberate: the `use` line, the construction, and
/// a type ascription are each independently a finding, so the import alone
/// fails fast.
fn scan_stable_store_key(cx: &mut Cx) {
    let f = cx.file;
    for t in &f.code {
        let Some(name) = ident_text(f.src, Some(t)).filter(|n| UNSTABLE_HASHERS.contains(n)) else {
            continue;
        };
        cx.report(
            K::StableStoreKey,
            t.start,
            format!(
                "`{name}` is seeded per process / unstable across std releases — \
                 a content key minted with it is unfindable by the next run; use \
                 the registered stable key hasher `solarml_trace::KeyHasher`, or add \
                 `// physics-lint: allow(stable-store-key): <reason>`"
            ),
        );
    }
}

/// The allow-hygiene check: every `physics-lint: allow(<rule>)` escape must
/// name a known rule and carry a `: <reason>` trailer. Runs on every
/// scanned file regardless of which families apply — CI fails on any
/// violation lacking a reasoned escape, so an unreasoned escape must itself
/// be a violation.
pub(crate) fn scan_allow_hygiene(f: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    for (pos, after) in escape_markers(f.src, &f.tokens) {
        let detail = match after.split_once(')') {
            None => "malformed escape: missing `)` after the rule name".to_string(),
            Some((rule, _)) if !known_rules().any(|k| k == rule) => format!(
                "escape names unknown rule `{rule}` — known rules: {}",
                known_rules().collect::<Vec<_>>().join(", ")
            ),
            Some((rule, rest)) => {
                let rest = rest.trim_start();
                if rest.starts_with(':') && !rest.trim_start_matches(':').trim().is_empty() {
                    continue;
                }
                format!(
                    "`allow({rule})` has no reason — escapes are reviewed \
                     decisions; spell it \
                     `physics-lint: allow({rule}): <why this is sound>`"
                )
            }
        };
        out.push(f.violation(K::AllowWithoutReason, f.line(pos), detail));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::scan::{scan_file, AllowList};

    /// Scans `src` as `crates/t/src/lib.rs` under the named families.
    fn scan(words: &[&str], src: &str) -> Vec<Violation> {
        let families: Vec<&Family> = words
            .iter()
            .map(|w| family(w).expect("known family"))
            .collect();
        scan_file(
            Path::new("crates/t/src/lib.rs"),
            src,
            &families,
            &AllowList::default(),
        )
    }

    /// The determinism families, together.
    fn scan_new_families(src: &str) -> Vec<Violation> {
        let words = [
            "determinism",
            "seed-discipline",
            "ledger-coverage",
            "atomic-persist",
            "stable-store-key",
        ];
        scan(&words, src)
    }

    fn kinds(src: &str) -> Vec<ViolationKind> {
        scan_new_families(src).iter().map(|v| v.kind).collect()
    }

    #[test]
    fn hashmap_iteration_is_flagged_lookup_is_not() {
        let src = "\
struct C { table: HashMap<u32, f64> }
impl C {
    fn get(&self, k: u32) -> Option<&f64> { self.table.get(&k) }
    fn all(&self) -> Vec<f64> { self.table.values().copied().collect() }
}
";
        assert_eq!(kinds(src), vec![ViolationKind::Determinism]);
    }

    #[test]
    fn for_loop_over_hashed_container_is_flagged() {
        let src = "\
fn f() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(3u32);
    for v in seen {
        drop(v);
    }
}
";
        assert_eq!(kinds(src), vec![ViolationKind::Determinism]);
    }

    #[test]
    fn btreemap_and_vec_iteration_are_clean() {
        let src = "\
struct C { table: BTreeMap<u32, f64>, rows: Vec<f64> }
impl C {
    fn all(&self) -> Vec<f64> { self.table.values().chain(self.rows.iter()).copied().collect() }
}
";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn wall_clock_and_entropy_are_flagged() {
        let src = "\
fn f() -> u64 {
    let t = Instant::now();
    let mut rng = thread_rng();
    drop(t); drop(rng); 0
}
";
        assert_eq!(
            kinds(src),
            vec![ViolationKind::Determinism, ViolationKind::Determinism]
        );
    }

    #[test]
    fn hashed_mention_in_doc_comment_or_string_is_inert() {
        let src = "\
/// Uses a HashMap internally? No: `table.iter()` would be nondeterministic.
fn f() -> &'static str { \"Instant::now() and thread_rng in a string\" }
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn raw_seed_arithmetic_is_flagged_registered_tag_is_not() {
        let flagged = "fn f(seed: u64, i: u64) -> u64 { seed + i }";
        assert_eq!(kinds(flagged), vec![ViolationKind::SeedDiscipline]);
        let xor = "fn f(seed: u64) -> u64 { seed ^ 0xDEAD }";
        assert_eq!(kinds(xor), vec![ViolationKind::SeedDiscipline]);
        let tagged = "fn f(seed: u64) -> u64 { seed ^ FLEET_SEED_CYCLE as u64 }";
        assert!(kinds(tagged).is_empty(), "{:?}", kinds(tagged));
    }

    #[test]
    fn mixer_fn_bodies_are_exempt() {
        // The workspace's one seed module: `derive_seed` XORs `base_seed`,
        // which fires anywhere outside a registered mixer body.
        let src = include_str!("../../trace/src/seed.rs");
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
        let outside = "fn g(base_seed: u64, cycle: usize) -> u64 { base_seed ^ (cycle as u64) }";
        assert_eq!(kinds(outside), vec![ViolationKind::SeedDiscipline]);
    }

    #[test]
    fn seed_comparisons_and_plain_use_are_clean() {
        let src = "\
fn f(seed: u64, other: u64) -> bool { seed < other && seed != 0 }
fn g(seed: u64) -> Rng { Rng::seed_from_u64(seed) }
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn derive_seed_literal_tag_is_flagged_named_arg_is_not() {
        let lit = "fn f(s: u64) -> u64 { derive_seed(s, 7, 0) }";
        assert_eq!(kinds(lit), vec![ViolationKind::SeedDiscipline]);
        let unregistered = "fn f(s: u64) -> u64 { derive_seed(s, MY_TAG, 0) }";
        assert_eq!(kinds(unregistered), vec![ViolationKind::SeedDiscipline]);
        let registered = "fn f(s: u64, n: usize) -> u64 { derive_seed(s, FLEET_SEED_CYCLE, n) }";
        assert!(kinds(registered).is_empty(), "{:?}", kinds(registered));
        let variable = "fn f(s: u64, req: &Req) -> u64 { derive_seed(s, req.cycle, 0) }";
        assert!(kinds(variable).is_empty(), "{:?}", kinds(variable));
    }

    #[test]
    fn side_channel_integration_is_flagged_plain_time_step_is_not() {
        let flagged = "fn f(&mut self, p: f64, dt: f64) { self.harvested += p * dt; }";
        assert_eq!(kinds(flagged), vec![ViolationKind::LedgerCoverage]);
        let clean = "fn f(&mut self, dt: f64) { self.time += dt; }";
        assert!(kinds(clean).is_empty(), "{:?}", kinds(clean));
    }

    #[test]
    fn test_regions_are_exempt_from_all_three_families() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(seed: u64, dt: f64) {
        let m: HashMap<u32, u32> = HashMap::new();
        for kv in m.iter() { drop(kv); }
        let s = seed + 1;
        let mut acc = 0.0;
        acc += s as f64 * dt;
    }
}
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn statement_scoped_allows_suppress_each_family() {
        let src = "\
impl C {
    fn f(&mut self, dt: f64) {
        // physics-lint: allow(ledger-coverage): derived metric, bus has the flow
        self.extra += self.rate * dt;
        self.plain += self.rate * dt;
    }
}
";
        let vs = scan_new_families(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 5, "only the un-annotated statement fires");
    }

    #[test]
    fn bare_persistence_writes_are_flagged_reads_are_not() {
        let torn = "fn save(p: &Path, b: &[u8]) -> io::Result<()> { std::fs::write(p, b) }";
        assert_eq!(kinds(torn), vec![ViolationKind::AtomicPersist]);
        let create = "fn open(p: &Path) -> io::Result<File> { File::create(p) }";
        assert_eq!(kinds(create), vec![ViolationKind::AtomicPersist]);
        let clean = "\
fn load(p: &Path) -> io::Result<Vec<u8>> { fs::read(p) }
fn tidy(p: &Path) -> io::Result<()> { fs::remove_file(p) }
fn buffered(w: &mut impl Write, b: &[u8]) -> io::Result<()> { w.write(b).map(|_| ()) }
";
        assert!(kinds(clean).is_empty(), "{:?}", kinds(clean));
    }

    #[test]
    fn registered_atomic_helper_bodies_are_exempt() {
        let src = "\
fn write_atomic(p: &Path, b: &[u8]) -> io::Result<()> {
    let tmp = p.with_extension(\"tmp\");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(b)?;
    f.sync_all()?;
    std::fs::rename(&tmp, p)
}
fn sneaky(p: &Path, b: &[u8]) -> io::Result<()> { fs::write(p, b) }
";
        let vs = scan_new_families(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 8, "only the write outside the helper fires");
    }

    #[test]
    fn unstable_hashers_are_flagged_the_key_hasher_is_not() {
        let import = "use std::collections::hash_map::DefaultHasher;";
        assert_eq!(kinds(import), vec![ViolationKind::StableStoreKey]);
        let construct = "\
fn key(node: u64) -> u64 {
    let state = RandomState::new();
    let mut h = state.build_hasher();
    h.write_u64(node);
    h.finish()
}
";
        assert_eq!(kinds(construct), vec![ViolationKind::StableStoreKey]);
        let stable = "\
fn key(node: u64) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(node);
    h.finish()
}
";
        assert!(kinds(stable).is_empty(), "{:?}", kinds(stable));
    }

    #[test]
    fn build_hasher_default_and_comments_do_not_trip_store_key_rule() {
        let src = "\
/// Never key a store with `DefaultHasher` — `RandomState` salts it.
fn f<H: Default + Hasher>() -> BuildHasherDefault<H> { BuildHasherDefault::default() }
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn store_key_rule_honors_tests_and_statement_allows() {
        let src = "\
fn scratch() -> u64 {
    // physics-lint: allow(stable-store-key): in-memory dedup, never persisted
    let mut h = DefaultHasher::new();
    h.finish()
}
#[cfg(test)]
mod tests {
    fn t() -> u64 { DefaultHasher::new().finish() }
}
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
        let unannotated = "fn k() -> u64 { DefaultHasher::new().finish() }";
        assert_eq!(kinds(unannotated), vec![ViolationKind::StableStoreKey]);
    }

    #[test]
    fn hygiene_requires_reason_and_known_rule() {
        let src = "\
fn a() {} // physics-lint: allow(unwrap)
fn b() {} // physics-lint: allow(made-up-rule): whatever
fn c() {} // physics-lint: allow(determinism): cache is rebuilt before read
";
        let vs = scan(&[], src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].detail.contains("no reason"));
        assert_eq!(vs[1].line, 2);
        assert!(vs[1].detail.contains("unknown rule"));
    }
}
