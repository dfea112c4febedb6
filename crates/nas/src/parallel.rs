//! The parallel candidate-evaluation engine.
//!
//! eNAS evaluates hundreds of candidates per run and each evaluation trains
//! a full model, so this module fans evaluations out across a scoped-thread
//! worker pool. Three properties are load-bearing:
//!
//! 1. **Determinism.** Every evaluation trains with its own RNG whose seed
//!    is derived from `(base_seed, cycle, index-in-batch)` — never from the
//!    shared search RNG — so the `SearchOutcome` history is bit-identical
//!    at any worker count (including 1). The search RNG is only consumed on
//!    the sequential control path (sampling, tournaments, mutations).
//! 2. **Memoization.** Evaluations are cached in the [`TaskContext`] keyed
//!    by the full candidate (sensing config + model spec), so duplicate
//!    candidates never retrain. Cache resolution happens *sequentially*
//!    before the parallel fan-out — duplicates inside one batch are deduped
//!    to the first occurrence — so memoization cannot introduce
//!    worker-count-dependent results.
//! 3. **No external dependencies.** The pool is `std::thread::scope` plus
//!    an atomic work index; the workspace builds offline.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use crate::candidate::{Candidate, Evaluated};
use crate::task::TaskContext;

/// Number of shards in a [`ShardedMap`]. A small power of two keeps the
/// modulo cheap while making write contention between a handful of worker
/// threads unlikely.
const SHARD_COUNT: usize = 16;

/// A concurrent hash map sharded across independent `RwLock`s.
///
/// Reads take a shared lock on one shard; writes take an exclusive lock on
/// one shard. Values are cloned out, so `V` should be cheap to clone (an
/// `Arc`, or a small struct).
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARD_COUNT],
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Clones the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .read()
            .expect("shard lock poisoned")
            .get(key)
            .cloned()
    }

    /// Inserts `value` under `key`. An existing entry is kept (first writer
    /// wins), so concurrent duplicate computations converge on one value.
    pub fn insert_if_absent(&self, key: K, value: V) {
        self.shard(&key)
            .write()
            .expect("shard lock poisoned")
            .entry(key)
            .or_insert(value);
    }

    /// Returns the cached value for `key`, computing and caching it with
    /// `make` on a miss. `make` may run concurrently on racing threads; the
    /// first insert wins and all callers observe that value.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let value = make();
        let mut shard = self.shard(key).write().expect("shard lock poisoned");
        shard.entry(key.clone()).or_insert(value).clone()
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The machine's available parallelism (≥ 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a configured worker count: `0` means "use
/// [`available_workers`]", anything else is taken literally.
pub fn effective_workers(configured: usize) -> usize {
    if configured == 0 {
        available_workers()
    } else {
        configured
    }
}

/// Derives the training seed for one evaluation from the run seed, the
/// search cycle and the candidate's index within its batch — the
/// workspace's one seed splitter, re-exported from its home in
/// `solarml_trace::seed`.
pub use solarml_trace::seed::derive_seed;

/// A panic caught inside a worker while evaluating one item.
///
/// The payload is reduced to its message: panic payloads are `Box<dyn Any>`
/// and rarely more structured than a string, and a cloneable error is what
/// search drivers need to fail one slot without losing the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalPanic {
    /// Index of the item (in the mapped slice / request batch) whose
    /// evaluation panicked.
    pub index: usize,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for EvalPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "evaluation of item {} panicked: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for EvalPanic {}

/// Extracts a printable message from a caught panic payload.
///
/// Public so other per-item isolation layers (the fleet campaign's
/// per-node quarantine) reduce payloads to the same message format as
/// [`EvalPanic`].
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`parallel_map`] with per-item panic isolation: a panic inside `f`
/// fails that item's slot with an [`EvalPanic`] instead of unwinding
/// across the pool and killing every in-flight evaluation. The remaining
/// items still run, results stay in input order, and the pool exits
/// cleanly at any worker count.
pub fn try_parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<Result<R, EvalPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run = |i: usize, item: &T| -> Result<R, EvalPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| EvalPanic {
            index: i,
            message: panic_message(payload),
        })
    };
    let workers = effective_workers(workers).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, EvalPanic>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = run(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// results in input order. Falls back to a plain sequential loop for one
/// worker or ≤ 1 item, so the single-worker path has zero threading
/// overhead (and trivially identical results).
///
/// A panic inside `f` no longer tears down the scope mid-flight: the other
/// items complete, then the first panic is re-raised on the caller's
/// thread with its original message. Use [`try_parallel_map`] to handle
/// panics as values instead.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_parallel_map(workers, items, f)
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(panic) => panic!("{panic}"),
        })
        .collect()
}

/// One evaluation request: a candidate plus the search cycle it belongs to.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The candidate to train and score.
    pub candidate: Candidate,
    /// Search cycle recorded on the resulting [`Evaluated`] (and mixed into
    /// the training seed).
    pub cycle: usize,
}

impl EvalRequest {
    /// Convenience constructor.
    pub fn new(candidate: Candidate, cycle: usize) -> Self {
        Self { candidate, cycle }
    }
}

/// Batch evaluator: cache resolution + deterministic seeding + fan-out.
///
/// Borrow a [`TaskContext`] and call [`EvalEngine::evaluate_batch`] with the
/// cycle's candidates. Results come back in request order, `None` where the
/// static constraints reject a candidate.
#[derive(Debug)]
pub struct EvalEngine<'a> {
    ctx: &'a TaskContext,
    base_seed: u64,
    workers: usize,
}

/// How one request in a batch resolves before the parallel phase.
enum Slot {
    /// Static constraints reject the candidate; nothing is trained.
    Infeasible,
    /// Served from the memo cache (cycle already rewritten).
    Hit(Evaluated),
    /// Needs training; index into the deduped work list.
    Pending(usize),
}

impl<'a> EvalEngine<'a> {
    /// Creates an engine over `ctx`. `workers == 0` selects the machine's
    /// available parallelism.
    pub fn new(ctx: &'a TaskContext, base_seed: u64, workers: usize) -> Self {
        Self {
            ctx,
            base_seed,
            workers: effective_workers(workers),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates a batch of candidates, in parallel, with memoization.
    ///
    /// Guarantees, independent of the worker count:
    /// * `result[i]` corresponds to `requests[i]`;
    /// * a candidate seen before (this batch or any earlier one on the same
    ///   [`TaskContext`]) reuses its first evaluation instead of retraining;
    /// * a fresh candidate trains with the RNG seed
    ///   [`derive_seed`]`(base_seed, cycle, i)` where `i` is the index of
    ///   its *first* occurrence in this batch.
    pub fn evaluate_batch(&self, requests: &[EvalRequest]) -> Vec<Option<Evaluated>> {
        self.evaluate_batch_checked(requests)
            .into_iter()
            .map(Result::unwrap_or_default)
            .collect()
    }

    /// [`EvalEngine::evaluate_batch`] with panic isolation surfaced: a
    /// candidate whose training panics fails *its* slot with an
    /// [`EvalPanic`] (indexed by request position) while the rest of the
    /// batch completes normally. Poisoned slots are never memoized, so a
    /// later attempt retrains rather than replaying the failure.
    pub fn evaluate_batch_checked(
        &self,
        requests: &[EvalRequest],
    ) -> Vec<Result<Option<Evaluated>, EvalPanic>> {
        // Sequential pass: resolve cache hits and dedupe remaining work.
        let mut first_of: HashMap<&Candidate, usize> = HashMap::new();
        let mut work: Vec<(&EvalRequest, u64)> = Vec::new();
        let slots: Vec<Slot> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                if !self.ctx.satisfies_static(&req.candidate) {
                    return Slot::Infeasible;
                }
                if let Some(mut hit) = self.ctx.cached_evaluation(&req.candidate) {
                    hit.cycle = req.cycle;
                    return Slot::Hit(hit);
                }
                if let Some(&w) = first_of.get(&req.candidate) {
                    return Slot::Pending(w);
                }
                let w = work.len();
                first_of.insert(&req.candidate, w);
                work.push((req, derive_seed(self.base_seed, req.cycle, i)));
                Slot::Pending(w)
            })
            .collect();

        // Parallel pass: train the deduped misses, isolating panics.
        let trained: Vec<Result<Option<Evaluated>, EvalPanic>> =
            try_parallel_map(self.workers, &work, |_, (req, seed)| {
                self.ctx.evaluate_seeded(&req.candidate, req.cycle, *seed)
            });

        // Publish to the memo cache, then assemble in request order.
        for ((req, _), eval) in work.iter().zip(&trained) {
            if let Ok(Some(eval)) = eval {
                self.ctx.store_evaluation(&req.candidate, eval);
            }
        }
        slots
            .into_iter()
            .zip(requests)
            .enumerate()
            .map(|(i, (slot, req))| match slot {
                Slot::Infeasible => Ok(None),
                Slot::Hit(eval) => Ok(Some(eval)),
                Slot::Pending(w) => match &trained[w] {
                    Ok(eval) => Ok(eval.clone().map(|mut eval| {
                        eval.cycle = req.cycle;
                        eval
                    })),
                    Err(panic) => Err(EvalPanic {
                        index: i,
                        message: panic.message.clone(),
                    }),
                },
            })
            .collect()
    }

    /// Evaluates a single candidate through the same cache + seeding path
    /// as a one-element batch.
    pub fn evaluate_one(&self, candidate: Candidate, cycle: usize) -> Option<Evaluated> {
        self.evaluate_batch(&[EvalRequest::new(candidate, cycle)])
            .pop()
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_round_trips() {
        let map: ShardedMap<u64, String> = ShardedMap::new();
        assert!(map.is_empty());
        for k in 0..100u64 {
            map.insert_if_absent(k, format!("v{k}"));
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.get(&1000), None);
        // First writer wins.
        map.insert_if_absent(42, "other".to_string());
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.get_or_insert_with(&42, || unreachable!()), "v42");
        assert_eq!(
            map.get_or_insert_with(&500, || "fresh".to_string()),
            "fresh"
        );
        assert_eq!(map.get(&500), Some("fresh".to_string()));
    }

    #[test]
    fn parallel_map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 4, 16] {
            let got = parallel_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let none: Vec<u32> = parallel_map(4, &[], |_, &x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(0xE7A5, 3, 5);
        assert_eq!(a, derive_seed(0xE7A5, 3, 5), "stable");
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..50 {
            for index in 0..50 {
                seen.insert(derive_seed(0xE7A5, cycle, index));
            }
        }
        assert_eq!(seen.len(), 2500, "no collisions in a search-sized grid");
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn try_parallel_map_isolates_panics_at_any_worker_count() {
        let items: Vec<usize> = (0..16).collect();
        for workers in [1, 2, 4] {
            let got = try_parallel_map(workers, &items, |_, &x| {
                assert!(x % 5 != 3, "poisoned item {x}");
                x * 2
            });
            assert_eq!(got.len(), items.len(), "workers={workers}");
            for (i, result) in got.iter().enumerate() {
                if i % 5 == 3 {
                    match result {
                        Err(p) => {
                            assert_eq!(p.index, i);
                            assert!(p.message.contains("poisoned item"), "{p}");
                        }
                        Ok(v) => panic!("item {i} should have panicked, got {v}"),
                    }
                } else {
                    assert_eq!(*result, Ok(i * 2), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn evaluate_batch_survives_a_poisoned_candidate() {
        use crate::candidate::SensingConfig;
        use crate::task::TaskContext;
        use rand::SeedableRng;

        let ctx = TaskContext::gesture(4, 17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let good_a = ctx.random_candidate(&mut rng);
        let good_b = ctx.random_candidate(&mut rng);
        // An audio-sensing candidate in a gesture context passes the static
        // checks (they only look at the model half) but panics inside the
        // worker when it reaches for the missing KWS corpus — a realistic
        // poisoned candidate.
        let poisoned = Candidate {
            sensing: SensingConfig::Audio(
                solarml_dsp::AudioFrontendParams::new(20, 25, 12).expect("valid params"),
            ),
            spec: good_a.spec.clone(),
        };
        let requests = vec![
            EvalRequest::new(good_a, 0),
            EvalRequest::new(poisoned, 0),
            EvalRequest::new(good_b, 0),
        ];

        let mut per_worker_count = Vec::new();
        for workers in [1, 4] {
            let engine = EvalEngine::new(&ctx, 0xBAD5EED, workers);
            let checked = engine.evaluate_batch_checked(&requests);
            assert!(checked[0].is_ok(), "workers={workers}");
            assert!(checked[2].is_ok(), "workers={workers}");
            match &checked[1] {
                Err(p) => {
                    assert_eq!(p.index, 1);
                    assert!(p.message.contains("kws context has a corpus"), "{p}");
                }
                Ok(v) => panic!("poisoned slot must fail, got {v:?}"),
            }
            // The lenient API keeps the run alive with the slot dropped.
            let lenient = engine.evaluate_batch(&requests);
            assert!(lenient[0].is_some() && lenient[2].is_some());
            assert!(lenient[1].is_none());
            per_worker_count.push(lenient);
        }
        assert_eq!(
            per_worker_count[0], per_worker_count[1],
            "panic isolation must not break worker-count determinism"
        );
    }
}
