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
//!    worker-count-dependent results. Results reach the memo only when
//!    published: aging evolution publishes its jobs' results cycle by
//!    cycle as it commits them, and never those of cycles it drops.
//! 3. **No external dependencies.** The pool ([`ordered_pool`]) is one
//!    `std::thread::scope`, an atomic work index and an in-order reorder
//!    buffer; the workspace builds offline. The fleet campaign runs on the
//!    same pool, and [`parallel_map`] and `job_stream` (jobs issued while
//!    earlier ones run) are thin wrappers over it.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::candidate::{Candidate, Evaluated};
use crate::task::TaskContext;

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

/// Why an [`ordered_pool`] stopped early.
enum Halt<E> {
    /// `commit` returned this error.
    Failed(E),
    /// `work` or `commit` panicked with this payload.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The pool's shared state, behind its one lock.
struct Reorder<R, E, C> {
    /// `ready[k]` holds the result of index `committed + k`, once done.
    ready: VecDeque<Option<R>>,
    commit: C,
    halt: Option<Halt<E>>,
    /// Workers blocked on the window; a commit wakes them only if any.
    waiting: usize,
}

/// Locks `m`, ignoring poison: a panic while the lock was held has already
/// halted the pool, and the halt is what the other workers look at.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The workspace's one worker pool: runs `work(i)` for every `i` in
/// `0..items` on up to `workers` threads — `workers − 1` spawned ones plus
/// the calling thread — and hands each result to `commit` in index order.
///
/// Workers claim indices from an atomic counter. A finished result waits
/// in a reorder buffer until every lower index is committed; whichever
/// thread completes the lowest outstanding index commits the ready prefix
/// under the pool's lock, so `commit` runs serially and in index order at
/// any worker count. No index `window` or more past the lowest uncommitted
/// one is started, so at most `window` results are ever live.
///
/// An `Err` from `commit` stops the pool: nothing more is claimed, results
/// not yet committed are dropped, and the error is returned once every
/// worker has exited. A panic in `work` or `commit` stops it the same way
/// and is then re-raised on the caller. With one worker (or ≤ 1 item)
/// everything runs inline on the caller, with no threads and no lock.
pub fn ordered_pool<R, E, W, C>(
    workers: usize,
    items: usize,
    window: usize,
    work: W,
    mut commit: C,
) -> Result<(), E>
where
    R: Send,
    E: Send,
    W: Fn(usize) -> R + Sync,
    C: FnMut(usize, R) -> Result<(), E> + Send,
{
    let workers = effective_workers(workers).min(items);
    if workers <= 1 {
        return (0..items).try_for_each(|i| commit(i, work(i)));
    }
    let window = window.max(1);
    let claimed = AtomicUsize::new(0);
    // Only written under `state`'s lock; read without it to skip the lock
    // when a claim is inside the window.
    let committed = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);
    let state = Mutex::new(Reorder {
        ready: VecDeque::new(),
        commit,
        halt: None,
        waiting: 0,
    });
    let advanced = Condvar::new();

    let claim_and_commit = || loop {
        let i = claimed.fetch_add(1, Ordering::Relaxed);
        if i >= items || halted.load(Ordering::Relaxed) {
            return;
        }
        if i >= committed.load(Ordering::Acquire).saturating_add(window) {
            let mut st = lock(&state);
            st.waiting += 1;
            while st.halt.is_none() && i >= committed.load(Ordering::Relaxed).saturating_add(window)
            {
                st = advanced.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.waiting -= 1;
            if st.halt.is_some() {
                return;
            }
        }
        let result = work(i);
        let mut guard = lock(&state);
        let st = &mut *guard;
        if st.halt.is_some() {
            return;
        }
        let mut next = committed.load(Ordering::Relaxed);
        let slot = i - next;
        if st.ready.len() <= slot {
            st.ready.resize_with(slot + 1, || None);
        }
        st.ready[slot] = Some(result);
        if slot > 0 {
            continue;
        }
        while let Some(result) = st.ready.front_mut().and_then(Option::take) {
            st.ready.pop_front();
            let outcome = (st.commit)(next, result);
            next += 1;
            if let Err(e) = outcome {
                st.halt = Some(Halt::Failed(e));
                halted.store(true, Ordering::Relaxed);
                break;
            }
        }
        committed.store(next, Ordering::Release);
        if st.waiting > 0 {
            advanced.notify_all();
        }
    };
    let run = || {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(claim_and_commit)) {
            let mut st = lock(&state);
            st.halt.get_or_insert(Halt::Panicked(payload));
            halted.store(true, Ordering::Relaxed);
            advanced.notify_all();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(run);
        }
        run();
    });
    match state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .halt
    {
        None => Ok(()),
        Some(Halt::Failed(e)) => Err(e),
        Some(Halt::Panicked(payload)) => resume_unwind(payload),
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
    let mut out = Vec::with_capacity(items.len());
    let run = |i: usize| -> Result<R, EvalPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| EvalPanic {
            index: i,
            message: panic_message(payload),
        })
    };
    let Ok(()) = ordered_pool(workers, items.len(), items.len(), run, |_, result| {
        out.push(result);
        Ok::<(), Infallible>(())
    });
    out
}

/// Maps `f` over `items` on up to `workers` threads of the
/// [`ordered_pool`], the caller among them, returning the results in input
/// order. One worker or ≤ 1 item runs as a plain loop on the caller, so
/// the single-worker path has zero threading overhead (and trivially
/// identical results).
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

/// What an [`EvalEngine`] needs of a task: the static constraints, seeded
/// training and the memo. [`TaskContext`] is the production backend; the
/// aging-evolution tests drive the engine with a stub.
pub trait EvalBackend: Sync {
    /// Whether the static constraints admit `cand`. Nothing trains if not.
    fn satisfies_static(&self, cand: &Candidate) -> bool;
    /// Trains and scores `cand` with an RNG seeded from `seed`.
    fn evaluate_seeded(&self, cand: &Candidate, cycle: usize, seed: u64) -> Option<Evaluated>;
    /// The memoized evaluation of `cand`, if one has been stored.
    fn cached_evaluation(&self, cand: &Candidate) -> Option<Evaluated>;
    /// Memoizes `eval` for `cand`. The first write wins.
    fn store_evaluation(&self, cand: &Candidate, eval: &Evaluated);
}

impl EvalBackend for TaskContext {
    fn satisfies_static(&self, cand: &Candidate) -> bool {
        TaskContext::satisfies_static(self, cand)
    }

    fn evaluate_seeded(&self, cand: &Candidate, cycle: usize, seed: u64) -> Option<Evaluated> {
        TaskContext::evaluate_seeded(self, cand, cycle, seed)
    }

    fn cached_evaluation(&self, cand: &Candidate) -> Option<Evaluated> {
        TaskContext::cached_evaluation(self, cand)
    }

    fn store_evaluation(&self, cand: &Candidate, eval: &Evaluated) {
        TaskContext::store_evaluation(self, cand, eval);
    }
}

/// Batch evaluator: cache resolution + deterministic seeding + fan-out.
///
/// Borrow a [`TaskContext`] and call [`EvalEngine::evaluate_batch`] with the
/// cycle's candidates. Results come back in request order, `None` where the
/// static constraints reject a candidate.
#[derive(Debug)]
pub struct EvalEngine<'a, B: ?Sized = TaskContext> {
    backend: &'a B,
    base_seed: u64,
    workers: usize,
}

/// How one request resolves before anything trains.
pub(crate) enum Slot {
    /// Static constraints reject the candidate; nothing is trained.
    Infeasible,
    /// Served from the memo cache (cycle already rewritten).
    Hit(Evaluated),
    /// Needs training: the index of its [`Job`].
    Pending(usize),
}

/// One training job: a candidate, the cycle that first requested it and
/// its seed.
#[derive(Clone)]
pub(crate) struct Job {
    pub candidate: Candidate,
    pub cycle: usize,
    pub seed: u64,
}

/// What a job's training produced: `Ok(None)` if the static constraints
/// rejected it after all.
pub(crate) type Outcome = Result<Option<Evaluated>, EvalPanic>;

/// `outcome` recorded at `cycle`.
pub(crate) fn at_cycle(outcome: &Outcome, cycle: usize) -> Result<Option<Evaluated>, &EvalPanic> {
    match outcome {
        Ok(eval) => Ok(eval.clone().map(|mut eval| {
            eval.cycle = cycle;
            eval
        })),
        Err(panic) => Err(panic),
    }
}

/// Requests being resolved into jobs. Each is resolved as it is added: a
/// static rejection, a memo hit, or a training job, where a repeat of a
/// queued candidate shares the first occurrence's job and seed.
pub(crate) struct Batch<'e, B: ?Sized> {
    engine: &'e EvalEngine<'e, B>,
    first_of: HashMap<Candidate, usize>,
    jobs: Vec<Job>,
}

impl<B: EvalBackend + ?Sized> Batch<'_, B> {
    /// Resolves `candidate`, the `index`-th request of `cycle`. A new job
    /// trains with the seed [`derive_seed`]`(base_seed, cycle, index)`.
    pub(crate) fn resolve(&mut self, candidate: &Candidate, cycle: usize, index: usize) -> Slot {
        let backend = self.engine.backend;
        if !backend.satisfies_static(candidate) {
            return Slot::Infeasible;
        }
        if let Some(mut hit) = backend.cached_evaluation(candidate) {
            hit.cycle = cycle;
            return Slot::Hit(hit);
        }
        if let Some(&job) = self.first_of.get(candidate) {
            return Slot::Pending(job);
        }
        let job = self.jobs.len();
        self.first_of.insert(candidate.clone(), job);
        self.jobs.push(Job {
            candidate: candidate.clone(),
            cycle,
            seed: derive_seed(self.engine.base_seed, cycle, index),
        });
        Slot::Pending(job)
    }

    /// Every job queued so far, in order.
    pub(crate) fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Stops later requests from sharing any job queued so far; they
    /// resolve from the memo or queue afresh.
    pub(crate) fn forget_jobs(&mut self) {
        self.first_of.clear();
    }

    /// Memoizes `outcome`, job `job`'s result, unless it panicked or was
    /// rejected.
    pub(crate) fn publish(&self, job: usize, outcome: &Outcome) {
        if let Ok(Some(eval)) = outcome {
            let candidate = &self.jobs[job].candidate;
            self.engine.backend.store_evaluation(candidate, eval);
        }
    }
}

impl<'a, B: EvalBackend + ?Sized> EvalEngine<'a, B> {
    /// Creates an engine over `backend`. `workers == 0` selects the
    /// machine's available parallelism.
    pub fn new(backend: &'a B, base_seed: u64, workers: usize) -> Self {
        Self {
            backend,
            base_seed,
            workers: effective_workers(workers),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// An empty [`Batch`] on this engine.
    pub(crate) fn batch(&self) -> Batch<'_, B> {
        Batch {
            engine: self,
            first_of: HashMap::new(),
            jobs: Vec::new(),
        }
    }

    /// Trains job `index`, turning a panic into an [`EvalPanic`].
    pub(crate) fn train(&self, index: usize, job: &Job) -> Outcome {
        catch_unwind(AssertUnwindSafe(|| {
            self.backend
                .evaluate_seeded(&job.candidate, job.cycle, job.seed)
        }))
        .map_err(|payload| EvalPanic {
            index,
            message: panic_message(payload),
        })
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
        let mut batch = self.batch();
        let slots: Vec<Slot> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| batch.resolve(&req.candidate, req.cycle, i))
            .collect();
        // Largest models first: a job's training time grows with its MACs,
        // and a long job started last would leave the other workers idle.
        // The order changes when a job runs, not what it computes.
        let jobs = batch.jobs();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&j| Reverse(jobs[j].candidate.spec.mac_summary().total()));
        let mut trained: Vec<Option<Outcome>> = vec![None; jobs.len()];
        let ran = parallel_map(self.workers, &order, |_, &j| self.train(j, &jobs[j]));
        for (&j, outcome) in order.iter().zip(ran) {
            trained[j] = Some(outcome);
        }
        let trained: Vec<Outcome> = trained.into_iter().flatten().collect();
        for (job, outcome) in trained.iter().enumerate() {
            batch.publish(job, outcome);
        }
        slots
            .into_iter()
            .zip(requests)
            .enumerate()
            .map(|(i, (slot, req))| match slot {
                Slot::Infeasible => Ok(None),
                Slot::Hit(eval) => Ok(Some(eval)),
                Slot::Pending(job) => {
                    at_cycle(&trained[job], req.cycle).map_err(|panic| EvalPanic {
                        index: i,
                        message: panic.message.clone(),
                    })
                }
            })
            .collect()
    }
}

/// The jobs of a [`job_stream`], behind its one lock.
struct Queue<J> {
    jobs: Vec<J>,
    /// Set when the stream ends: workers waiting for a job return.
    done: bool,
}

/// Runs jobs that are issued while earlier ones run, on the
/// [`ordered_pool`]. `run` takes the jobs in issue order on up to `workers`
/// threads, the caller among them. `on_result` gets each result in issue
/// order, serially, and may issue more jobs by pushing them; the stream
/// ends when it returns [`ControlFlow::Break`].
///
/// `on_result` must issue a job or end the stream whenever every issued
/// job has returned; the stream panics otherwise rather than wait forever.
/// A panic in `on_result` is re-raised on the caller once the workers have
/// stopped.
pub(crate) fn job_stream<J, R>(
    workers: usize,
    jobs: Vec<J>,
    run: impl Fn(usize, &J) -> R + Sync,
    mut on_result: impl FnMut(R, &mut Vec<J>) -> ControlFlow<()> + Send,
) where
    J: Clone + Send,
    R: Send,
{
    if jobs.is_empty() {
        return;
    }
    let queue = Mutex::new(Queue { jobs, done: false });
    let issued = Condvar::new();
    let work = |i: usize| -> Option<R> {
        let job = {
            let mut q = lock(&queue);
            loop {
                if let Some(job) = q.jobs.get(i) {
                    break job.clone();
                }
                if q.done {
                    return None;
                }
                q = issued.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        Some(run(i, &job))
    };
    let commit = |i: usize, result: Option<R>| -> Result<(), ()> {
        // `None` only once the stream has ended.
        let Some(result) = result else {
            return Err(());
        };
        let mut fresh = Vec::new();
        let flow = catch_unwind(AssertUnwindSafe(|| on_result(result, &mut fresh)));
        let mut q = lock(&queue);
        q.jobs.append(&mut fresh);
        let go_on = matches!(flow, Ok(ControlFlow::Continue(())));
        let stalled = go_on && q.jobs.len() == i + 1;
        q.done = !go_on || stalled;
        issued.notify_all();
        drop(q);
        match flow {
            Err(payload) => resume_unwind(payload),
            Ok(_) if stalled => panic!("job stream stalled: no job issued after every result"),
            Ok(ControlFlow::Continue(())) => Ok(()),
            Ok(ControlFlow::Break(())) => Err(()),
        }
    };
    let _ = ordered_pool(workers, usize::MAX, usize::MAX, work, commit);
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn ordered_pool_commits_in_order_within_its_window() {
        for workers in [1, 2, 4, 8] {
            let started = AtomicUsize::new(0);
            let mut committed = Vec::new();
            let mut widest = 0;
            let done: Result<(), Infallible> = ordered_pool(
                workers,
                100,
                3,
                |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    // Late items finish first, so the reorder buffer fills.
                    std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) * 5));
                    i * 3
                },
                |i, r| {
                    widest = widest.max(started.load(Ordering::SeqCst) - committed.len());
                    assert_eq!(r, i * 3);
                    committed.push(i);
                    Ok(())
                },
            );
            assert!(done.is_ok());
            assert_eq!(committed, (0..100).collect::<Vec<_>>(), "workers={workers}");
            assert!(
                widest <= 3,
                "workers={workers}: {widest} live past the window"
            );
        }
    }

    #[test]
    fn ordered_pool_stops_at_the_first_commit_error() {
        for workers in [1, 2, 4] {
            let mut committed = Vec::new();
            let done = ordered_pool(
                workers,
                1000,
                8,
                |i| i,
                |i, _| {
                    if i == 17 {
                        return Err(format!("stop at {i}"));
                    }
                    committed.push(i);
                    Ok(())
                },
            );
            assert_eq!(done, Err("stop at 17".to_string()), "workers={workers}");
            assert_eq!(committed, (0..17).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn ordered_pool_reraises_a_worker_panic_on_the_caller() {
        for workers in [1, 2, 4] {
            let caught = catch_unwind(|| {
                let _ = ordered_pool(
                    workers,
                    64,
                    4,
                    |i| {
                        assert!(i != 40, "item {i} exploded");
                        i
                    },
                    |_, _| Ok::<(), Infallible>(()),
                );
            });
            let message = panic_message(caught.expect_err("the panic reaches the caller"));
            assert!(
                message.contains("item 40 exploded"),
                "workers={workers}: {message}"
            );
        }
    }

    #[test]
    fn job_stream_delivers_in_issue_order_while_jobs_are_issued() {
        for workers in [1, 2, 4] {
            let mut delivered = Vec::new();
            let mut next = 3;
            job_stream(
                workers,
                vec![0, 1, 2],
                |i, &job: &usize| {
                    assert_eq!(i, job);
                    // Early jobs finish last, so results arrive out of order.
                    std::thread::sleep(std::time::Duration::from_micros(200 / (job as u64 + 1)));
                    job * 2
                },
                |result, issue| {
                    delivered.push(result);
                    if next < 40 {
                        issue.push(next);
                        next += 1;
                    }
                    if delivered.len() == 40 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            let expected: Vec<usize> = (0..40).map(|j| j * 2).collect();
            assert_eq!(delivered, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_job_stream_that_issues_nothing_more_panics_instead_of_hanging() {
        for workers in [1, 2] {
            let caught = catch_unwind(|| {
                job_stream(
                    workers,
                    vec![0, 1],
                    |_, &j: &u32| j,
                    |_, _| ControlFlow::Continue(()),
                );
            });
            let message = panic_message(caught.expect_err("a stalled stream panics"));
            assert!(message.contains("stalled"), "workers={workers}: {message}");
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
