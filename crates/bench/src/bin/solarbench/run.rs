//! State one workload run accumulates: samples, output checks, deterministic
//! counts and per-layer inputs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use crate::layers::{DayTally, Metric};

static PANICS: AtomicU64 = AtomicU64::new(0);
static COUNT_PANICS: Once = Once::new();

/// Panics raised in this process so far, on any thread. The first call
/// installs a panic hook that counts each panic and then runs the hook it
/// replaced. A hook runs even for a panic that `catch_unwind` later
/// catches, so this sees the candidate evaluations a search isolates and
/// drops without a trace in its result.
pub fn panics() -> u64 {
    COUNT_PANICS.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::Relaxed);
            previous(info);
        }));
    });
    // A statistic: the pool joins its threads before the caller reads it.
    PANICS.load(Ordering::Relaxed)
}

/// One workload run.
#[derive(Debug)]
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds to aim for.
    pub seconds: f64,
    /// Worker threads the program may use.
    pub workers: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for stores and checkpoints; removed at exit.
    pub scratch: PathBuf,
    /// Timed seconds of each untraced rep.
    pub rep_s: Vec<f64>,
    /// Timed seconds of each traced rep.
    pub traced_rep_s: Vec<f64>,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Node-days one rep simulates or replays, for fleet workloads.
    pub nodes_per_rep: Option<usize>,
    /// Pure functions of the inputs; a speed-only change keeps them.
    pub counts: BTreeMap<String, String>,
    /// Per-layer metrics the workload measured itself.
    pub layers: Vec<Metric>,
    /// Day-simulation counts of the first traced pass that simulated.
    pub days_first: Option<DayTally>,
    /// Day-simulation counts of every traced day.
    pub days_all: DayTally,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Run {
    /// A fresh run.
    pub fn new(seed: u64, seconds: f64, workers: usize, trace: bool, scratch: PathBuf) -> Self {
        Self {
            seed,
            seconds,
            workers,
            trace,
            scratch,
            rep_s: Vec::new(),
            traced_rep_s: Vec::new(),
            setup_s: Vec::new(),
            nodes_per_rep: None,
            counts: BTreeMap::new(),
            layers: Vec::new(),
            days_first: None,
            days_all: DayTally::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Set-ups to run: `untraced` of them for a steady median, or one when
    /// traced.
    pub fn setups(&self, untraced: usize) -> usize {
        if self.trace {
            1
        } else {
            untraced
        }
    }

    /// Whether to run another rep (untraced run) or untraced/traced pair
    /// (traced run): until the timed total reaches `--seconds` and at least
    /// `min` reps (one pair) ran, and never more than `max_pairs` pairs.
    pub fn more(&self, min: usize, max_pairs: usize) -> bool {
        let total: f64 = self.rep_s.iter().chain(&self.traced_rep_s).sum();
        if self.trace {
            let pairs = self.traced_rep_s.len();
            pairs < max_pairs && (pairs == 0 || total < self.seconds)
        } else {
            self.rep_s.len() < min || total < self.seconds
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records `attempted` operations of which `failed` failed (quarantined
    /// nodes, panicked evaluations).
    pub fn work(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Records a deterministic count; a later rep that reads differently
    /// fails a check.
    pub fn count(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.counts.get(key) {
            Some(prev) if *prev != value => {
                let prev = prev.clone();
                self.check(false, || {
                    format!("{key} drifted between reps: {prev} then {value}")
                });
            }
            Some(_) => {}
            None => {
                self.counts.insert(key.to_string(), value);
            }
        }
    }

    /// Adds the day counts of one traced pass.
    pub fn days(&mut self, tally: DayTally) {
        self.days_all.merge(&tally);
        if self.days_first.is_none() && tally.attempted > 0 {
            self.days_first = Some(tally);
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failures, for the report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a of a rendered report, as the hex string the counts keep.
pub fn fingerprint(bytes: &str) -> String {
    format!("{:016x}", solarml::trace::fnv1a64(bytes.as_bytes()))
}

/// Serialises the tests that panic on purpose, so each sees only its own
/// panics in [`panics`].
#[cfg(test)]
pub static PANICKING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use solarml::nas::parallel::try_parallel_map;

    #[test]
    fn panics_a_pool_isolates_are_still_counted() {
        let _serial = PANICKING_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = panics();
        let results = try_parallel_map(2, &[0, 1, 2, 3], |_, &x: &i32| {
            assert_ne!(x, 2, "injected fault in item 2");
            x
        });
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert_eq!(panics() - before, 1);
    }

    #[test]
    fn drifting_counts_fail_a_check() {
        let mut run = Run::new(7, 1.0, 1, false, PathBuf::new());
        run.count("x", 1);
        run.count("x", 1);
        assert_eq!((run.attempted(), run.failed()), (0, 0));
        run.count("x", 2);
        assert_eq!((run.attempted(), run.failed()), (1, 1));
        assert!(run.failures()[0].contains("drifted"));
    }

    #[test]
    fn reps_run_until_the_budget_and_the_minimum() {
        let mut run = Run::new(7, 1.0, 1, false, PathBuf::new());
        assert!(run.more(2, 0));
        run.rep_s.extend([0.6, 0.6]);
        assert!(!run.more(2, 0));
        assert!(run.more(3, 0));
        let mut traced = Run::new(7, 10.0, 1, true, PathBuf::new());
        assert!(traced.more(5, 10), "at least one pair");
        traced.rep_s.push(2.0);
        traced.traced_rep_s.push(2.0);
        assert!(traced.more(5, 10));
        assert!(!traced.more(5, 1), "the pair cap wins");
        traced.rep_s.push(6.0);
        assert!(!traced.more(5, 10), "the budget is spent");
    }
}
