//! Content-addressed on-disk store of node-day outcomes.
//!
//! The store maps a [`NodeDayTask`]'s content key to its persisted
//! [`NodeDayOutcome`]. Because the key covers every result-affecting input
//! (see [`crate::task`]), a present entry is *proof* the cached outcome is
//! current — there is no invalidation protocol, no timestamps to compare,
//! nothing to go stale. A warm parameter sweep touches the store once per
//! node and recomputes only the nodes whose drawn inputs actually
//! changed; a hit never builds the node's config.
//!
//! A store directory holds two files, both framed by the shared
//! [`solarml_trace::Envelope`] (magic `SLNDSTOR`, version, FNV trailer):
//! `store.meta`, an empty payload that stamps the format version so `open`
//! can reject a foreign store up front, and `store.pack`, one 116-byte frame
//! per entry (content key, then outcome) in ascending key order. `open`
//! reads the pack once; lookups and persists work in memory, and changed
//! entries become durable when the whole sorted pack is rewritten through
//! [`solarml_trace::write_atomic`] — at the end of [`run_campaign_cached`],
//! in [`NodeDayStore::run_gc`] and [`NodeDayStore::flush`], and on drop.
//! The pack's bytes therefore never depend on worker scheduling, and a
//! crash loses at most the unwritten entries of one session, never the
//! pack. Every corrupt or foreign frame decodes to a typed [`StoreError`]
//! and the engine recomputes — never panics, never silently trusts.
//!
//! `open` checks every frame before it answers anything. The frames'
//! FNV-1a checksums are taken four frames at a time, as four independent
//! chains ([`solarml_trace::fnv1a64_x4`]); a frame whose magic, version
//! and checksum hold is read in place at fixed offsets, and only a frame
//! that fails is unsealed through the [`Envelope`] for its typed error.
//! The valid frames arrive in ascending key order, so the in-memory map
//! is built from them in bulk; the error frames are inserted over it.
//!
//! Garbage collection is keep-LRU and size-bounded ([`StoreGc`]): entries
//! touched this session rank by access order above untouched ones, which
//! rank by key. Eviction is safe at any point: a missing entry is just a
//! cache miss.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use solarml_trace::{fnv1a64, fnv1a64_x4, write_atomic, Envelope, EnvelopeError};

use crate::campaign::{run_campaign_replaying, CampaignConfig, NodeSummary};
use crate::population::PopulationSpec;
use crate::report::FleetReport;
use crate::task::{NodeDayOutcome, NodeDayTask, OUTCOME_LEN};

/// Magic prefix of `store.meta` and of every pack frame.
pub const STORE_MAGIC: [u8; 8] = *b"SLNDSTOR";

/// Store-format version. Bump on any layout change; `open` then refuses
/// the old directory with a typed [`StoreError::Envelope`] rather than
/// misreading it. Version 1 kept one file per entry; version 2 keeps
/// every entry in one sorted pack; version 3 keeps that layout under
/// word-at-a-time content keys ([`solarml_trace::KeyHasher`]), so every
/// v2 key names a different node-day; version 4 keeps it under keys over
/// each node's draw record rather than its built config (see
/// [`crate::task`]), so every v3 key names a different node-day.
pub const STORE_VERSION: u32 = 4;

/// The frame of `store.meta` (empty payload) and of every pack entry
/// (content key and outcome).
const ENVELOPE: Envelope = Envelope {
    magic: STORE_MAGIC,
    version: STORE_VERSION,
};

/// Name of the per-directory version stamp.
const META_FILE: &str = "store.meta";

/// Name of the file holding every entry.
const PACK_FILE: &str = "store.pack";

/// Bytes of one pack frame: magic (8), version (4), key (8), outcome (88),
/// checksum (8). The version fixes it, so the pack needs no index.
const FRAME_LEN: usize = 116;

/// Offset of the content key inside a frame, after magic and version.
const KEY_AT: usize = 12;

/// Offset of the outcome inside a frame, after the key.
const OUTCOME_AT: usize = KEY_AT + 8;

/// Bytes of a frame the checksum trailer covers: all but the trailer.
const CONTENT_LEN: usize = OUTCOME_AT + OUTCOME_LEN;

/// Why a store operation failed. Every variant carries enough context to
/// print a one-line diagnosis; none of them is ever promoted to a panic —
/// corrupt entries downgrade to recomputes, foreign stores refuse to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem trouble (permissions, disk, races).
    Io {
        /// Path involved.
        path: String,
        /// OS error description.
        detail: String,
    },
    /// The store path exists but is not a directory.
    NotADirectory {
        /// Path involved.
        path: String,
    },
    /// The meta stamp or a pack frame is not readable: foreign magic,
    /// another format version, bit rot, a torn frame, a payload that does
    /// not decode, or a key out of order.
    Envelope {
        /// Path involved; for a frame, `<pack> frame <index from 0>`.
        path: String,
        /// What the envelope (or the payload decoder) objected to.
        error: EnvelopeError,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "{path}: store I/O error: {detail}"),
            Self::NotADirectory { path } => {
                write!(f, "store path {path} exists but is not a directory")
            }
            Self::Envelope { path, error } => write!(f, "{path}: store {error}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn envelope_err(path: &Path, error: EnvelopeError) -> StoreError {
    StoreError::Envelope {
        path: path.display().to_string(),
        error,
    }
}

/// Garbage-collection bounds. Defaults to unbounded — a sweep's working
/// set is usually worth keeping; callers opt into limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreGc {
    /// Keep at most this many entries (`usize::MAX` = unbounded).
    pub max_entries: usize,
    /// Keep at most this many entry bytes (`u64::MAX` = unbounded).
    pub max_bytes: u64,
}

impl Default for StoreGc {
    fn default() -> Self {
        Self {
            max_entries: usize::MAX,
            max_bytes: u64::MAX,
        }
    }
}

/// Cache-effectiveness counters for one store session (or, after
/// [`NodeDayStore::reset_stats`], one sweep variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups with no entry present (computed and persisted).
    pub misses: u64,
    /// Entries present but undecodable — typed error, recomputed, and
    /// replaced. A subset of the work counted in `misses`' recompute
    /// cost, tracked separately because it signals disk trouble.
    pub corrupt: u64,
    /// Entries removed by [`NodeDayStore::run_gc`].
    pub evictions: u64,
    /// Bytes the store's entries take in the pack (116 per entry,
    /// counting entries not yet written; `store.meta` excluded).
    pub bytes: u64,
}

/// The content-addressed node-day store. All mutation goes through
/// `&self` under one mutex, so a store shared across campaign worker
/// threads needs no external locking.
#[derive(Debug)]
pub struct NodeDayStore {
    dir: PathBuf,
    gc: StoreGc,
    state: Mutex<State>,
}

/// What a session reads and changes, under the store's one lock.
#[derive(Debug, Default)]
struct State {
    /// Every entry by key; a BTreeMap, so a pack write walks keys in
    /// order (the fleet crate bans the randomized std hash maps).
    entries: BTreeMap<u64, Entry>,
    /// Entries changed since the pack was read or last written.
    dirty: bool,
    /// The next session access sequence number.
    next_seq: u64,
    /// Session counters; `bytes` is derived in [`NodeDayStore::stats`].
    stats: CacheStats,
    /// `path: reason` for every corrupt entry `require` recomputed since
    /// the last [`NodeDayStore::reset_stats`].
    corrupt_reasons: Vec<String>,
}

impl State {
    /// A fresh session access sequence number for LRU ranking.
    fn tick(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }
}

/// One entry: its outcome, or why its frame could not be trusted.
#[derive(Debug)]
struct Entry {
    outcome: Result<NodeDayOutcome, StoreError>,
    /// Access sequence of the last `require` or persist this session;
    /// `None` while untouched.
    seq: Option<u64>,
}

/// Locks `m`, recovering the guard from a panicked holder: every update
/// under the lock is a single insert, remove, push, clear or counter bump,
/// so the data is valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Seals one pack frame.
fn seal_frame(key: u64, outcome: &NodeDayOutcome) -> Vec<u8> {
    ENVELOPE.seal(|w| {
        w.push_u64(key);
        outcome.encode_into(w);
    })
}

/// Unseals one pack frame to its key and outcome; a short (torn) frame is
/// [`EnvelopeError::Malformed`].
fn unseal_frame(frame: &[u8]) -> Result<(u64, NodeDayOutcome), EnvelopeError> {
    if frame.len() < FRAME_LEN {
        return Err(EnvelopeError::Malformed {
            detail: format!("torn frame: {} of {FRAME_LEN} bytes", frame.len()),
        });
    }
    ENVELOPE.unseal(frame, |r| {
        Ok((r.read_u64()?, NodeDayOutcome::decode_from(r)?))
    })
}

/// The key a frame's key field names, unverified; `None` for a torn frame
/// too short to name one.
fn named_key(frame: &[u8]) -> Option<u64> {
    let field = frame.get(KEY_AT..OUTCOME_AT)?;
    <[u8; 8]>::try_from(field).ok().map(u64::from_le_bytes)
}

/// The content of a whole frame: the bytes its trailer checksums.
fn content(frame: &[u8; FRAME_LEN]) -> &[u8] {
    &frame[..CONTENT_LEN]
}

/// The FNV-1a of each frame's content, four frames at a time
/// ([`fnv1a64_x4`]), the last one to three one at a time.
fn frame_checksums(frames: &[[u8; FRAME_LEN]]) -> impl Iterator<Item = u64> + '_ {
    let (quads, rest) = frames.as_chunks::<4>();
    quads
        .iter()
        .flat_map(|quad| fnv1a64_x4(quad.each_ref().map(content)))
        .chain(rest.iter().map(|frame| fnv1a64(content(frame))))
}

/// The key and outcome of a whole frame whose content hashes to
/// `checksum`, read in place at fixed offsets when magic, version and
/// trailer all check out — exactly the frames [`unseal_frame`] accepts.
fn sealed_entry(frame: &[u8; FRAME_LEN], checksum: u64) -> Option<(u64, NodeDayOutcome)> {
    let sealed = frame.starts_with(&STORE_MAGIC)
        && frame[STORE_MAGIC.len()..KEY_AT] == STORE_VERSION.to_le_bytes()
        && frame[CONTENT_LEN..] == checksum.to_le_bytes();
    if !sealed {
        return None;
    }
    let outcome = <&[u8; OUTCOME_LEN]>::try_from(&frame[OUTCOME_AT..CONTENT_LEN]).ok()?;
    Some((named_key(frame)?, NodeDayOutcome::from_le_bytes(outcome)))
}

/// Reads every frame of the pack at `path`. Whole frames are checked in
/// place against checksums taken four frames at a time ([`sealed_entry`]);
/// any other frame goes through [`unseal_frame`] for its typed error. A
/// frame that fails — a bad envelope, a torn tail, or a key not above the
/// last valid frame's — is kept as its typed error under the key its
/// unverified key field names, and outranks a valid frame of the same key:
/// the valid frames ascend, so the map is built from them in bulk, and the
/// error frames are inserted over it in frame order. A torn tail too short
/// to name a key is dropped: its node is a plain miss.
fn read_pack(path: &Path, bytes: &[u8]) -> BTreeMap<u64, Entry> {
    let (frames, torn) = bytes.as_chunks::<FRAME_LEN>();
    let whole = frames
        .iter()
        .zip(frame_checksums(frames))
        .map(|(frame, checksum)| (frame.as_slice(), sealed_entry(frame, checksum)));
    let tail = (!torn.is_empty()).then_some((torn, None));
    let mut valid = Vec::with_capacity(frames.len());
    let mut failed = Vec::new();
    let mut last_valid: Option<u64> = None;
    for (index, (frame, sealed)) in whole.chain(tail).enumerate() {
        let Some(named) = named_key(frame) else {
            continue;
        };
        let checked = sealed
            .map_or_else(|| unseal_frame(frame), Ok)
            .and_then(|(key, outcome)| match last_valid {
                Some(previous) if key <= previous => Err(EnvelopeError::Malformed {
                    detail: format!("key {key:#018x} is not above the previous {previous:#018x}"),
                }),
                _ => {
                    last_valid = Some(key);
                    Ok(outcome)
                }
            });
        match checked {
            Ok(outcome) => valid.push((
                named,
                Entry {
                    outcome: Ok(outcome),
                    seq: None,
                },
            )),
            Err(error) => {
                let outcome = Err(StoreError::Envelope {
                    path: format!("{} frame {index}", path.display()),
                    error,
                });
                failed.push((named, Entry { outcome, seq: None }));
            }
        }
    }
    let mut entries: BTreeMap<u64, Entry> = valid.into_iter().collect();
    entries.extend(failed);
    entries
}

impl NodeDayStore {
    /// Opens (creating if absent) the store at `dir` with unbounded GC.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreGc::default())
    }

    /// Opens (creating if absent) the store at `dir` and reads its pack.
    ///
    /// Refuses — with a typed error, before any entry is read — a path
    /// that is not a directory, a directory stamped by a different store
    /// version (version 1 included), or a meta stamp that fails validation.
    /// A corrupt frame does not fail the open: `require` recomputes it.
    pub fn open_with(dir: impl Into<PathBuf>, gc: StoreGc) -> Result<Self, StoreError> {
        let dir = dir.into();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return Err(if dir.exists() && !dir.is_dir() {
                StoreError::NotADirectory {
                    path: dir.display().to_string(),
                }
            } else {
                io_err(&dir, &e)
            });
        }

        let meta = dir.join(META_FILE);
        match std::fs::read(&meta) {
            Ok(bytes) => ENVELOPE
                .unseal(&bytes, |_| Ok(()))
                .map_err(|error| envelope_err(&meta, error))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&meta, &ENVELOPE.seal(|_| {})).map_err(|e| io_err(&meta, &e))?;
            }
            Err(e) => return Err(io_err(&meta, &e)),
        }

        let pack = dir.join(PACK_FILE);
        let entries = match std::fs::read(&pack) {
            Ok(bytes) => read_pack(&pack, &bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(io_err(&pack, &e)),
        };
        Ok(Self {
            dir,
            gc,
            state: Mutex::new(State {
                entries,
                ..State::default()
            }),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Returns `task`'s outcome — replayed when a valid entry exists,
    /// recomputed (and persisted) otherwise. Corrupt entries are counted,
    /// their reasons kept (see [`Self::corrupt_reasons`]), and replaced
    /// with the recomputed outcome. This function never panics on store
    /// trouble and never returns a stale result: the key *is* the proof
    /// of currency.
    pub fn require(&self, task: &NodeDayTask) -> NodeDayOutcome {
        let key = task.key();
        if let Some(outcome) = self.replay(key) {
            return outcome;
        }
        {
            let mut guard = lock(&self.state);
            let state = &mut *guard;
            if let Some(Entry {
                outcome: Err(reason),
                ..
            }) = state.entries.get(&key)
            {
                state.stats.corrupt += 1;
                state.corrupt_reasons.push(reason.to_string());
            }
            state.stats.misses += 1;
        }
        let outcome = task.execute();
        // Never fails: the write happens at the next flush.
        let _ = self.persist(key, &outcome);
        outcome
    }

    /// The valid entry for `key`, counted as a hit and marked accessed;
    /// `None` counts nothing, leaving the miss to [`Self::require`].
    fn replay(&self, key: u64) -> Option<NodeDayOutcome> {
        let mut guard = lock(&self.state);
        let state = &mut *guard;
        let now = state.tick();
        let Some(Entry {
            outcome: Ok(outcome),
            seq,
        }) = state.entries.get_mut(&key)
        else {
            return None;
        };
        *seq = Some(now);
        state.stats.hits += 1;
        Some(outcome.clone())
    }

    /// [`crate::simulate_node`] through [`Self::require`]: same signature,
    /// same result, so it is the `sim` of any campaign entry point.
    pub fn simulate_node(&self, spec: &PopulationSpec, node: usize, seed: u64) -> NodeSummary {
        let task = NodeDayTask::resolve(spec, node, seed);
        task.summary(&self.require(&task))
    }

    /// `path: reason` for each corrupt entry recomputed since the last
    /// [`Self::reset_stats`], sorted so the listing does not depend on
    /// worker scheduling.
    pub fn corrupt_reasons(&self) -> Vec<String> {
        let mut reasons = lock(&self.state).corrupt_reasons.clone();
        reasons.sort();
        reasons
    }

    /// Looks up the entry for `key`: `Ok(None)` when absent, a typed
    /// [`StoreError`] when its frame was present but invalid.
    pub fn load(&self, key: u64) -> Result<Option<NodeDayOutcome>, StoreError> {
        match lock(&self.state).entries.get(&key) {
            None => Ok(None),
            Some(entry) => entry.outcome.clone().map(Some),
        }
    }

    /// Records `outcome` as the entry for `key`, replacing any corrupt
    /// frame, and marks the store for writing. It never fails: the entry
    /// reaches disk at the next [`Self::flush`], GC, cached campaign end or
    /// drop.
    pub fn persist(&self, key: u64, outcome: &NodeDayOutcome) -> Result<(), StoreError> {
        let mut state = lock(&self.state);
        let seq = Some(state.tick());
        state.entries.insert(
            key,
            Entry {
                outcome: Ok(outcome.clone()),
                seq,
            },
        );
        state.dirty = true;
        Ok(())
    }

    /// Writes the pack if any entry changed since it was read or last
    /// written: every valid entry, in key order, in one atomic replace.
    /// Corrupt frames nobody recomputed are left out, so their nodes are
    /// plain misses in later sessions. On failure the changes stay pending
    /// and the next flush retries them.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.write_pending(&mut lock(&self.state))
    }

    fn write_pending(&self, state: &mut State) -> Result<(), StoreError> {
        if !state.dirty {
            return Ok(());
        }
        let mut pack = Vec::with_capacity(state.entries.len() * FRAME_LEN);
        for (&key, entry) in &state.entries {
            if let Ok(outcome) = &entry.outcome {
                pack.extend_from_slice(&seal_frame(key, outcome));
            }
        }
        let path = self.dir.join(PACK_FILE);
        write_atomic(&path, &pack).map_err(|e| io_err(&path, &e))?;
        state.dirty = false;
        Ok(())
    }

    /// Current session counters plus the entries' pack size.
    pub fn stats(&self) -> CacheStats {
        let state = lock(&self.state);
        CacheStats {
            bytes: (state.entries.len() * FRAME_LEN) as u64,
            ..state.stats
        }
    }

    /// Zeroes the per-run counters (hits/misses/corrupt/evictions) and
    /// clears the corrupt-entry reasons, keeping the entries and the LRU
    /// ledger — sweep drivers call this between variants to get
    /// per-variant counts.
    pub fn reset_stats(&self) {
        let mut state = lock(&self.state);
        state.stats = CacheStats::default();
        state.corrupt_reasons.clear();
    }

    /// Number of entries in the store, corrupt ones and ones not yet
    /// written included.
    pub fn entry_count(&self) -> Result<usize, StoreError> {
        Ok(lock(&self.state).entries.len())
    }

    /// Enforces the [`StoreGc`] bounds, evicting least-recently-used
    /// entries first, writes the pack if anything changed, and returns how
    /// many entries were removed.
    ///
    /// Entries touched this session (required or persisted) outrank
    /// untouched ones and rank among themselves by access order; untouched
    /// entries rank by key. Eviction order is thus deterministic given the
    /// same pack and the same session.
    pub fn run_gc(&self) -> Result<usize, StoreError> {
        let mut state = lock(&self.state);
        let by_bytes = usize::try_from(self.gc.max_bytes / FRAME_LEN as u64).unwrap_or(usize::MAX);
        let keep = self.gc.max_entries.min(by_bytes);
        let evict = state.entries.len().saturating_sub(keep);
        if evict > 0 {
            // Oldest first: `None` (untouched) sorts before any sequence.
            let mut ranked: Vec<(Option<u64>, u64)> =
                state.entries.iter().map(|(&key, e)| (e.seq, key)).collect();
            ranked.sort_unstable();
            for &(_, key) in &ranked[..evict] {
                state.entries.remove(&key);
            }
            state.stats.evictions += evict as u64;
            state.dirty = true;
        }
        self.write_pending(&mut state)?;
        Ok(evict)
    }
}

impl Drop for NodeDayStore {
    /// Writes pending entries, best-effort: a failed write costs the next
    /// session recomputes, never correctness. Callers that must know call
    /// [`NodeDayStore::flush`] first.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Runs a campaign with node-days required through `store` instead of
/// always executed. The report is byte-identical to [`crate::run_campaign`]
/// of the same config at any hit pattern, worker count, or chunk size:
/// replayed outcomes are bit-equal to recomputed ones, and the merge tree
/// is exactly associative. In a campaign too small to pay for pool
/// threads on replays, nodes up to the first one the store cannot answer
/// replay on the calling thread, so an all-hit one starts no worker
/// threads. It returns with the campaign's entries written to the pack.
pub fn run_campaign_cached(cfg: &CampaignConfig, store: &NodeDayStore) -> FleetReport {
    let report = run_campaign_replaying(
        cfg,
        |spec, node, seed| {
            let task = NodeDayTask::resolve(spec, node, seed);
            store
                .replay(task.key())
                .map(|outcome| task.summary(&outcome))
        },
        &|spec, node, seed| store.simulate_node(spec, node, seed),
    );
    // Best-effort, like every write inside a campaign: a failed write
    // stays pending for the caller's `flush` to report.
    let _ = store.flush();
    report
}

/// One spec variant of a sweep: a display name plus the population to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// Label for reports and CLI output.
    pub name: String,
    /// The population this variant simulates.
    pub population: PopulationSpec,
}

/// One variant's results: the full fleet report plus the cache counters
/// accumulated while producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariantReport {
    /// The variant's label.
    pub name: String,
    /// The variant's campaign report (byte-identical to a cold run).
    pub report: FleetReport,
    /// Hits/misses/recomputes for exactly this variant.
    pub stats: CacheStats,
    /// `path: reason` for each corrupt entry this variant recomputed.
    pub corrupt_reasons: Vec<String>,
}

/// Runs each variant against one shared store, in order, resetting the
/// per-run counters between variants so each report carries its own
/// hit/miss/recompute tally. GC runs once after the last variant, so a
/// sweep never evicts entries a later variant is about to hit; its pack
/// write is where a failed write surfaces as the error.
pub fn run_sweep(
    cfg: &CampaignConfig,
    variants: &[SweepVariant],
    store: &NodeDayStore,
) -> Result<Vec<SweepVariantReport>, StoreError> {
    let mut out = Vec::with_capacity(variants.len());
    for variant in variants {
        store.reset_stats();
        let mut variant_cfg = cfg.clone();
        variant_cfg.population = variant.population.clone();
        let report = run_campaign_cached(&variant_cfg, store);
        out.push(SweepVariantReport {
            name: variant.name.clone(),
            report,
            stats: store.stats(),
            corrupt_reasons: store.corrupt_reasons(),
        });
    }
    store.run_gc()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("solarml-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn smoke_cfg(nodes: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::smoke(nodes, 0xCAFE);
        cfg.workers = 2;
        cfg.chunk = 4;
        cfg
    }

    #[test]
    fn cached_campaign_matches_cold_campaign_and_counts_hits() {
        let dir = tmp_dir("roundtrip");
        let cfg = smoke_cfg(12);
        let cold = run_campaign(&cfg);

        let store = NodeDayStore::open(&dir).expect("open");
        let first = run_campaign_cached(&cfg, &store);
        assert_eq!(first, cold, "cold cached run equals uncached run");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (0, 12, 0));

        store.reset_stats();
        let second = run_campaign_cached(&cfg, &store);
        assert_eq!(second, cold, "warm run is byte-identical");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (12, 0, 0));
        assert!(s.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A synthetic outcome; only its round trip matters here.
    fn outcome(n: usize) -> NodeDayOutcome {
        NodeDayOutcome {
            attempted: n,
            completed: n / 2,
            abandoned: 1,
            degraded: 0,
            brownouts: n % 3,
            dead_window_s: n as f64 * 60.0,
            harvested_j: 1.5,
            consumed_j: 1.25,
            wasted_j: 0.125,
            residual_j: -0.0,
            mean_accuracy: 0.875,
        }
    }

    fn frames(keys: &[u64]) -> Vec<u8> {
        keys.iter()
            .flat_map(|&key| seal_frame(key, &outcome(key as usize)))
            .collect()
    }

    #[test]
    fn a_frame_is_its_fixed_length() {
        assert_eq!(seal_frame(7, &outcome(7)).len(), FRAME_LEN);
        assert_eq!(
            u64::from_le_bytes(
                seal_frame(0x0102_0304_0506_0708, &outcome(1))[KEY_AT..KEY_AT + 8]
                    .try_into()
                    .unwrap()
            ),
            0x0102_0304_0506_0708
        );
    }

    #[test]
    fn the_pack_is_sorted_frames_written_only_on_change() {
        let dir = tmp_dir("pack");
        let cfg = smoke_cfg(6);
        let store = NodeDayStore::open(&dir).expect("open");
        run_campaign_cached(&cfg, &store);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [META_FILE, PACK_FILE],
            "written before the store drops"
        );

        let pack = std::fs::read(dir.join(PACK_FILE)).expect("pack");
        assert_eq!(pack.len(), 6 * FRAME_LEN);
        let keys: Vec<u64> = pack
            .chunks(FRAME_LEN)
            .map(|frame| unseal_frame(frame).expect("valid frame").0)
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending: {keys:?}");
        for (frame, &key) in pack.chunks(FRAME_LEN).zip(&keys) {
            let stored = store.load(key).expect("load").expect("present");
            assert_eq!(frame, seal_frame(key, &stored).as_slice());
        }
        drop(store);

        // A session that only replays writes nothing: with the pack gone
        // from under it, a warm session must not bring it back.
        let store = NodeDayStore::open(&dir).expect("reopen");
        std::fs::remove_file(dir.join(PACK_FILE)).expect("remove pack");
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.stats().hits, 6);
        drop(store);
        assert!(!dir.join(PACK_FILE).exists(), "an unchanged session wrote");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_trouble_is_a_typed_error_under_the_key_it_names() {
        let dir = tmp_dir("frames");
        drop(NodeDayStore::open(&dir).expect("open"));
        let pack = dir.join(PACK_FILE);
        let reopen = |bytes: &[u8]| {
            std::fs::write(&pack, bytes).expect("write pack");
            NodeDayStore::open(&dir).expect("open")
        };
        let malformed =
            |store: &NodeDayStore, key: u64, frame: usize, what: &str| match store.load(key) {
                Err(StoreError::Envelope {
                    path,
                    error: EnvelopeError::Malformed { detail },
                }) => {
                    assert!(
                        path.ends_with(&format!("store.pack frame {frame}")),
                        "{path}"
                    );
                    assert!(detail.contains(what), "{detail}");
                }
                other => panic!("key {key}: expected a malformed frame, got {other:?}"),
            };
        let valid = |store: &NodeDayStore, key: u64| {
            assert_eq!(store.load(key).expect("load"), Some(outcome(key as usize)));
        };

        // A torn tail that still names its key.
        let mut bytes = frames(&[10, 20, 30]);
        bytes.extend_from_slice(&frames(&[40])[..KEY_AT + 8 + 5]);
        let store = reopen(&bytes);
        malformed(&store, 40, 3, "torn frame");
        [10, 20, 30].into_iter().for_each(|k| valid(&store, k));
        assert_eq!(store.entry_count().expect("count"), 4);

        // A torn tail too short to name one is no entry at all.
        let mut bytes = frames(&[10, 20, 30]);
        bytes.extend_from_slice(&frames(&[40])[..KEY_AT + 3]);
        let store = reopen(&bytes);
        assert_eq!(store.entry_count().expect("count"), 3);
        assert_eq!(store.load(40).expect("load"), None);

        // A duplicate key, and a key below its predecessor.
        let store = reopen(&frames(&[10, 20, 20, 30]));
        malformed(&store, 20, 2, "not above");
        [10, 30].into_iter().for_each(|k| valid(&store, k));
        let store = reopen(&frames(&[10, 30, 20]));
        malformed(&store, 20, 2, "not above");
        [10, 30].into_iter().for_each(|k| valid(&store, k));

        // Recomputing replaces the bad frame; the write drops none of the
        // valid ones.
        store.persist(20, &outcome(20)).expect("persist");
        drop(store);
        assert_eq!(std::fs::read(&pack).expect("pack"), frames(&[10, 20, 30]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn four_frame_checksums_equal_one_frame_fnv() {
        for n in 0..=9 {
            let keys: Vec<u64> = (1..=n).collect();
            let pack = frames(&keys);
            let (whole, torn) = pack.as_chunks::<FRAME_LEN>();
            assert!(torn.is_empty());
            let batched: Vec<u64> = frame_checksums(whole).collect();
            let single: Vec<u64> = whole.iter().map(|f| fnv1a64(&f[..CONTENT_LEN])).collect();
            assert_eq!(batched, single, "{n} frames");
            for (frame, sum) in whole.iter().zip(&batched) {
                assert_eq!(frame[CONTENT_LEN..], sum.to_le_bytes(), "{n} frames");
            }
        }
    }

    #[test]
    fn batched_frame_trouble_is_reported_per_frame() {
        let dir = tmp_dir("batched");
        drop(NodeDayStore::open(&dir).expect("open"));
        // Frames 0–3 and 4–7 are checked as two four-frame batches, frames
        // 8 and 9 one at a time, and frame 10 is a torn tail.
        let mut bytes = frames(&[10, 20, 30, 40, 50, 60, 70, 70, 65, 90]);
        bytes[FRAME_LEN + OUTCOME_AT + 3] ^= 0x10; // frame 1: checksum
        bytes[5 * FRAME_LEN] ^= 0x20; // frame 5: magic
        bytes.extend_from_slice(&frames(&[100])[..OUTCOME_AT + 9]);
        std::fs::write(dir.join(PACK_FILE), &bytes).expect("write pack");
        let store = NodeDayStore::open(&dir).expect("open");

        for key in [10, 30, 40, 50, 90] {
            assert_eq!(store.load(key).expect("load"), Some(outcome(key as usize)));
        }
        let frame =
            |index: usize| &bytes[index * FRAME_LEN..bytes.len().min((index + 1) * FRAME_LEN)];
        let not_above = |key: u64| EnvelopeError::Malformed {
            detail: format!("key {key:#018x} is not above the previous {:#018x}", 70u64),
        };
        for (key, index, error) in [
            (20, 1, unseal_frame(frame(1)).expect_err("flipped")),
            (60, 5, EnvelopeError::BadMagic),
            (70, 7, not_above(70)),
            (65, 8, not_above(65)),
            (100, 10, unseal_frame(frame(10)).expect_err("torn")),
        ] {
            match store.load(key) {
                Err(StoreError::Envelope { path, error: found }) => {
                    assert!(
                        path.ends_with(&format!("store.pack frame {index}")),
                        "key {key}: {path}"
                    );
                    assert_eq!(found, error, "key {key}");
                }
                other => panic!("key {key}: expected frame {index}'s error, got {other:?}"),
            }
        }
        assert!(matches!(
            store.load(20),
            Err(StoreError::Envelope {
                error: EnvelopeError::ChecksumMismatch { .. },
                ..
            })
        ));
        assert_eq!(store.entry_count().expect("count"), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_yield_typed_errors_and_transparent_recompute() {
        let dir = tmp_dir("corrupt");
        let cfg = smoke_cfg(4);
        let cold = run_campaign_cached(&cfg, &NodeDayStore::open(&dir).expect("open"));

        // Flip one outcome byte in every frame.
        let pack = dir.join(PACK_FILE);
        let mut bytes = std::fs::read(&pack).expect("read");
        assert_eq!(bytes.len(), 4 * FRAME_LEN);
        for frame in bytes.chunks_mut(FRAME_LEN) {
            frame[FRAME_LEN / 2] ^= 0x40;
        }
        std::fs::write(&pack, &bytes).expect("write");

        let store = NodeDayStore::open(&dir).expect("reopen");
        let warm = run_campaign_cached(&cfg, &store);
        assert_eq!(warm, cold, "corruption never changes the report");
        let s = store.stats();
        assert_eq!(s.corrupt, 4, "every flipped entry was detected");
        assert_eq!(s.hits, 0);
        let reasons = store.corrupt_reasons();
        assert_eq!(reasons.len(), 4, "{reasons:?}");
        for reason in &reasons {
            assert!(
                reason.contains("store.pack frame "),
                "names the frame: {reason}"
            );
            assert!(reason.contains("checksum mismatch"), "{reason}");
        }
        drop(store);

        // And the rewrite healed the store.
        let store = NodeDayStore::open(&dir).expect("reopen healed");
        run_campaign_cached(&cfg, &store);
        assert_eq!((store.stats().hits, store.stats().corrupt), (4, 0));
        assert!(store.corrupt_reasons().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_stays_pending_and_is_reported() {
        let dir = tmp_dir("blocked");
        let store = NodeDayStore::open(&dir).expect("open");
        store.persist(5, &outcome(5)).expect("persist");
        // A non-empty directory where the pack goes: the rename fails.
        std::fs::create_dir_all(dir.join(PACK_FILE).join("occupied")).expect("mkdir");
        match store.flush() {
            Err(StoreError::Io { path, .. }) => assert!(path.ends_with(PACK_FILE), "{path}"),
            other => panic!("expected an I/O error naming the pack, got {other:?}"),
        }
        std::fs::remove_dir_all(dir.join(PACK_FILE)).expect("unblock");
        store.flush().expect("the retry writes");
        drop(store);
        let store = NodeDayStore::open(&dir).expect("reopen");
        assert_eq!(store.load(5).expect("load"), Some(outcome(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_one_directory_is_refused() {
        let dir = tmp_dir("v1");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let v1 = Envelope {
            magic: STORE_MAGIC,
            version: 1,
        };
        std::fs::write(dir.join(META_FILE), v1.seal(|_| {})).expect("write meta");
        match NodeDayStore::open(&dir) {
            Err(StoreError::Envelope {
                error: EnvelopeError::UnsupportedVersion { found: 1, .. },
                ..
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_store_is_a_typed_open_error() {
        let dir = tmp_dir("foreign");
        drop(NodeDayStore::open(&dir).expect("open"));
        let foreign = Envelope {
            magic: STORE_MAGIC,
            version: STORE_VERSION + 9,
        };
        std::fs::write(dir.join(META_FILE), foreign.seal(|_| {})).expect("write meta");

        match NodeDayStore::open(&dir) {
            Err(StoreError::Envelope {
                error: EnvelopeError::UnsupportedVersion { found, supported },
                ..
            }) => {
                assert_eq!(found, STORE_VERSION + 9);
                assert_eq!(supported, STORE_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_as_store_path_is_a_typed_open_error() {
        let dir = tmp_dir("notadir");
        std::fs::create_dir_all(dir.parent().expect("parent")).expect("mkdir");
        std::fs::write(&dir, b"occupied").expect("write");
        match NodeDayStore::open(&dir) {
            Err(StoreError::NotADirectory { .. }) => {}
            other => panic!("expected NotADirectory, got {other:?}"),
        }
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn gc_keeps_recently_used_entries() {
        let dir = tmp_dir("gc");
        let cfg = smoke_cfg(8);
        let gc = StoreGc {
            max_entries: 3,
            max_bytes: u64::MAX,
        };
        let store = NodeDayStore::open_with(&dir, gc).expect("open");
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.entry_count().expect("count"), 8);

        // Touch three specific nodes, then collect: exactly those survive.
        let keys: Vec<u64> = [1usize, 4, 6]
            .iter()
            .map(|&node| {
                let seed = solarml_trace::seed::derive_seed(
                    cfg.seed,
                    crate::campaign::FLEET_SEED_CYCLE,
                    node,
                );
                let task = NodeDayTask::resolve(&cfg.population, node, seed);
                store.require(&task);
                task.key()
            })
            .collect();
        let evicted = store.run_gc().expect("gc");
        assert_eq!(evicted, 5);
        assert_eq!(store.entry_count().expect("count"), 3);
        assert_eq!(store.stats().evictions, 5);
        for key in keys {
            assert!(
                store.load(key).expect("load").is_some(),
                "recently required entries survive GC"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_reports_per_variant_stats() {
        let dir = tmp_dir("sweep");
        let cfg = smoke_cfg(10);
        let store = NodeDayStore::open(&dir).expect("open");
        let variants = vec![
            SweepVariant {
                name: "base".into(),
                population: cfg.population.clone(),
            },
            SweepVariant {
                name: "base-again".into(),
                population: cfg.population.clone(),
            },
        ];
        let reports = run_sweep(&cfg, &variants, &store).expect("sweep");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].stats.misses, 10);
        assert_eq!(reports[0].stats.hits, 0);
        assert_eq!(reports[1].stats.hits, 10);
        assert_eq!(reports[1].stats.misses, 0);
        assert_eq!(
            reports[0].report, reports[1].report,
            "identical variants produce identical reports"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
