//! Crash-safe campaign snapshots: versioned, checksummed, atomic.
//!
//! A snapshot freezes the streaming engine's whole resumable state — how
//! many node-days are folded, the [`MergeTree`] of partial aggregates, and
//! the quarantined failures so far — inside the shared
//! [`solarml_trace::Envelope`] frame (magic `SLFLTCKP`, format version,
//! FNV-1a trailer), which makes every trust decision before any field is
//! used. The payload:
//!
//! ```text
//! campaign fingerprint (u64)      — FNV over (nodes, seed, population);
//!                                   foreign spec: hard error
//! nodes_done (u64)
//! merge tree                      — see MergeTree codec
//! failed nodes (count + entries)
//! ```
//!
//! Snapshots are written via [`solarml_trace::write_atomic`]
//! (temp + fsync + rename — enforced by the `atomic-persist` lint), named
//! `ckpt-<nodes_done>.bin`, and pruned to a retention window. Resume scans
//! newest-first: a corrupted or truncated snapshot is *skipped* — the range
//! it covered is recomputed from the next older valid one — and every
//! failure mode is a [`CheckpointError`] value, never a panic, so a mangled
//! file can cost wall-clock but not the campaign.

use std::path::{Path, PathBuf};

use solarml_trace::bytes::{
    fnv1a64, write_atomic, ByteWriter, CodecError, Envelope, EnvelopeError,
};

use crate::aggregate::MergeTree;
use crate::campaign::{CampaignConfig, FailedNode};
use crate::population::Dist;

/// Leading bytes of every snapshot file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"SLFLTCKP";

/// Current snapshot format version. Bump on any layout change, including
/// histogram-shape changes in [`crate::aggregate::FleetAggregate::new`].
pub const CHECKPOINT_VERSION: u32 = 1;

/// The snapshot frame.
const ENVELOPE: Envelope = Envelope {
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_VERSION,
};

/// Snapshot filename prefix (`ckpt-<nodes_done>.bin`).
const FILE_PREFIX: &str = "ckpt-";
/// Snapshot filename suffix.
const FILE_SUFFIX: &str = ".bin";

/// Everything that can go wrong touching checkpoint state. Every variant
/// is a value the caller (CLI, resume logic, tests) can match on — decode
/// and I/O paths never panic on foreign bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem operation failed.
    Io {
        /// Path (or directory) the operation touched.
        path: String,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// The file is not a readable snapshot: foreign magic, another format
    /// version, a failed checksum, or a payload that does not decode.
    Envelope {
        /// Offending file.
        path: String,
        /// What the envelope (or the payload decoder) objected to.
        error: EnvelopeError,
    },
    /// The snapshot belongs to a different campaign: its `(nodes, seed,
    /// population)` fingerprint does not match the resuming config.
    /// Resuming would splice two unrelated campaigns, so this is a hard
    /// error, not a skip.
    SpecMismatch {
        /// Offending file.
        path: String,
        /// Fingerprint of the config asking to resume.
        expected: u64,
        /// Fingerprint the snapshot carries.
        found: u64,
    },
    /// `--resume` pointed at a directory that does not exist.
    MissingDir {
        /// The directory.
        dir: String,
    },
    /// The directory holds no usable snapshot (none at all, or only
    /// corrupt ones — listed so the operator sees what was rejected).
    NoCheckpoint {
        /// The directory.
        dir: String,
        /// Snapshots found but rejected, with reasons.
        corrupt: Vec<String>,
    },
    /// A fresh durable run pointed at a directory that already holds
    /// snapshots; refusing beats silently clobbering a resumable campaign.
    DirNotEmpty {
        /// The directory.
        dir: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "checkpoint I/O on {path}: {detail}"),
            Self::Envelope { path, error } => write!(f, "{path}: checkpoint {error}"),
            Self::SpecMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} belongs to a different campaign (spec fingerprint {found:#018x}, \
                 resuming config is {expected:#018x}); refusing to splice campaigns"
            ),
            Self::MissingDir { dir } => {
                write!(f, "checkpoint directory {dir} does not exist")
            }
            Self::NoCheckpoint { dir, corrupt } => {
                if corrupt.is_empty() {
                    write!(f, "no checkpoint found in {dir}")
                } else {
                    write!(
                        f,
                        "no usable checkpoint in {dir}; rejected: {}",
                        corrupt.join("; ")
                    )
                }
            }
            Self::DirNotEmpty { dir } => write!(
                f,
                "{dir} already holds campaign checkpoints; pass --resume to continue \
                 that campaign or point --checkpoint-dir at an empty directory"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The resumable state of a (possibly interrupted) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    /// Fingerprint of the `(nodes, seed, population)` this state belongs
    /// to — see [`campaign_fingerprint`].
    pub fingerprint: u64,
    /// Node-days folded so far: nodes `0..nodes_done` are fully accounted
    /// for in `tree` + `failed`.
    pub nodes_done: u64,
    /// The streaming fold's partial aggregates.
    pub tree: MergeTree,
    /// Nodes quarantined so far, in node order.
    pub failed: Vec<FailedNode>,
}

impl CampaignSnapshot {
    /// Serializes the snapshot, envelope and checksum included. Pure:
    /// identical state encodes to identical bytes.
    pub fn encode(&self) -> Vec<u8> {
        ENVELOPE.seal(|w| {
            w.push_u64(self.fingerprint);
            w.push_u64(self.nodes_done);
            self.tree.encode_into(w);
            w.push_u64(self.failed.len() as u64);
            for fail in &self.failed {
                w.push_u64(fail.node as u64);
                w.push_u64(fail.seed);
                w.push_str(&fail.message);
            }
        })
    }

    /// Deserializes and validates a snapshot. `path` only labels errors.
    /// The envelope is validated before any payload field is trusted (see
    /// [`Envelope::unseal`] for the order).
    pub fn decode(bytes: &[u8], path: &str) -> Result<Self, CheckpointError> {
        ENVELOPE
            .unseal(bytes, |r| {
                let fingerprint = r.read_u64()?;
                let nodes_done = r.read_u64()?;
                let tree = MergeTree::decode_from(r)?;
                let offset = r.position();
                let declared = r.read_u64()?;
                let count = usize::try_from(declared)
                    .ok()
                    .filter(|&n| n <= r.remaining())
                    .ok_or(CodecError::BadLength {
                        offset,
                        declared,
                        remaining: r.remaining(),
                    })?;
                let mut failed = Vec::with_capacity(count);
                for _ in 0..count {
                    failed.push(FailedNode {
                        node: r.read_u64()? as usize,
                        seed: r.read_u64()?,
                        message: r.read_str()?.to_string(),
                    });
                }
                Ok(Self {
                    fingerprint,
                    nodes_done,
                    tree,
                    failed,
                })
            })
            .map_err(|error| CheckpointError::Envelope {
                path: path.to_string(),
                error,
            })
    }
}

/// Appends one sampling distribution to the fingerprint encoding.
fn push_dist(w: &mut ByteWriter, dist: &Dist) {
    match *dist {
        Dist::Constant(v) => {
            w.push_u8(0);
            w.push_f64_bits(v.to_bits());
            w.push_f64_bits(0);
        }
        Dist::Uniform { lo, hi } => {
            w.push_u8(1);
            w.push_f64_bits(lo.to_bits());
            w.push_f64_bits(hi.to_bits());
        }
        Dist::LogUniform { lo, hi } => {
            w.push_u8(2);
            w.push_f64_bits(lo.to_bits());
            w.push_f64_bits(hi.to_bits());
        }
    }
}

/// FNV fingerprint of everything a campaign's result depends on: node
/// count, base seed, and every population field, bit-exactly. Embedded in
/// each snapshot header so resuming against a different spec is a typed
/// hard error instead of a silently spliced report.
pub fn campaign_fingerprint(cfg: &CampaignConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.push_str("solarml-fleet-campaign/v1");
    w.push_u64(cfg.nodes as u64);
    w.push_u64(cfg.seed);
    let p = &cfg.population;
    for share in [
        p.outdoor_share,
        p.office_share,
        p.home_share,
        p.retained_share,
        p.volatile_share,
        p.none_share,
        p.ladder_share,
    ] {
        w.push_f64_bits(share.to_bits());
    }
    push_dist(&mut w, &p.latitude_deg);
    w.push_u32(p.day_of_year);
    push_dist(&mut w, &p.office_peak_lux);
    push_dist(&mut w, &p.home_peak_lux);
    push_dist(&mut w, &p.panel_scale);
    push_dist(&mut w, &p.capacitance_f);
    push_dist(&mut w, &p.initial_voltage_v);
    push_dist(&mut w, &p.capacity_factor);
    push_dist(&mut w, &p.esr_scale);
    push_dist(&mut w, &p.interaction_count);
    push_dist(&mut w, &p.cloud_count);
    push_dist(&mut w, &p.outage_count);
    // Appended only when a scenario is set, so every legacy (unscripted)
    // fingerprint — and with it every existing snapshot — stays valid.
    // The canonical rendering is hashed, not the raw script text, so
    // whitespace and comment edits never invalidate a resume.
    if let Some(scenario) = &p.scenario {
        w.push_str("scenario:");
        w.push_str(&scenario.render());
    }
    fnv1a64(w.as_slice())
}

/// The snapshot filename for a given progress point.
fn snapshot_path(dir: &Path, nodes_done: u64) -> PathBuf {
    dir.join(format!("{FILE_PREFIX}{nodes_done:012}{FILE_SUFFIX}"))
}

/// Parses `ckpt-<n>.bin` back to `n`.
fn snapshot_index(name: &str) -> Option<u64> {
    name.strip_prefix(FILE_PREFIX)?
        .strip_suffix(FILE_SUFFIX)?
        .parse()
        .ok()
}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Snapshot files in `dir`, sorted newest (highest `nodes_done`) first.
/// Sorted explicitly: directory iteration order is filesystem-dependent
/// and resume must not be.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let name = entry.file_name();
        if let Some(idx) = name.to_str().and_then(snapshot_index) {
            found.push((idx, entry.path()));
        }
    }
    found.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
    Ok(found)
}

/// True when `dir` exists and already holds snapshot files.
pub(crate) fn has_snapshots(dir: &Path) -> Result<bool, CheckpointError> {
    if !dir.is_dir() {
        return Ok(false);
    }
    Ok(!list_snapshots(dir)?.is_empty())
}

/// Atomically persists `snapshot` into `dir` and prunes retention: the
/// newest `keep` snapshots survive (pruning is best-effort — a failed
/// delete costs disk, never correctness).
pub fn write_snapshot(
    dir: &Path,
    snapshot: &CampaignSnapshot,
    keep: usize,
) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let path = snapshot_path(dir, snapshot.nodes_done);
    write_atomic(&path, &snapshot.encode()).map_err(|e| io_err(&path, &e))?;
    for (_, stale) in list_snapshots(dir)?.into_iter().skip(keep.max(1)) {
        let _ = std::fs::remove_file(stale);
    }
    Ok(())
}

/// A successfully loaded resume point, plus what was skipped to reach it.
#[derive(Debug, Clone, PartialEq)]
pub struct Resumed {
    /// The newest valid snapshot.
    pub snapshot: CampaignSnapshot,
    /// Newer snapshots rejected as corrupt (path: reason). The node range
    /// they covered is recomputed, not trusted.
    pub skipped: Vec<String>,
}

/// Finds the newest valid snapshot in `dir` for the campaign identified
/// by `expected_fingerprint`.
///
/// Corrupt snapshots (bad magic / checksum / structure) are skipped with
/// their reasons collected; a *valid* snapshot from a different campaign
/// is a hard [`CheckpointError::SpecMismatch`]. No usable snapshot at all
/// is [`CheckpointError::NoCheckpoint`].
pub fn load_latest(dir: &Path, expected_fingerprint: u64) -> Result<Resumed, CheckpointError> {
    if !dir.is_dir() {
        return Err(CheckpointError::MissingDir {
            dir: dir.display().to_string(),
        });
    }
    let mut skipped = Vec::new();
    for (_, path) in list_snapshots(dir)? {
        let label = path.display().to_string();
        let outcome = std::fs::read(&path)
            .map_err(|e| io_err(&path, &e))
            .and_then(|bytes| CampaignSnapshot::decode(&bytes, &label));
        match outcome {
            Ok(snapshot) if snapshot.fingerprint == expected_fingerprint => {
                return Ok(Resumed { snapshot, skipped });
            }
            Ok(snapshot) => {
                return Err(CheckpointError::SpecMismatch {
                    path: label,
                    expected: expected_fingerprint,
                    found: snapshot.fingerprint,
                });
            }
            Err(e) => skipped.push(e.to_string()),
        }
    }
    Err(CheckpointError::NoCheckpoint {
        dir: dir.display().to_string(),
        corrupt: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FleetAggregate;

    fn sample_snapshot() -> CampaignSnapshot {
        let mut tree = MergeTree::new();
        tree.push(FleetAggregate::new());
        CampaignSnapshot {
            fingerprint: 0xABCD_EF01_2345_6789,
            nodes_done: 42,
            tree,
            failed: vec![FailedNode {
                node: 7,
                seed: 99,
                message: "voltage went imaginary".to_string(),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        assert_eq!(bytes, snap.encode(), "encoding must be pure");
        let back = CampaignSnapshot::decode(&bytes, "t").expect("decode");
        assert_eq!(back, snap);
    }

    fn envelope_error(bytes: &[u8]) -> EnvelopeError {
        match CampaignSnapshot::decode(bytes, "t") {
            Err(CheckpointError::Envelope { error, .. }) => error,
            other => panic!("expected an envelope error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_bytes_are_bad_magic_not_a_panic() {
        for bytes in [&b""[..], &b"short"[..], &[0u8; 64][..]] {
            assert_eq!(envelope_error(bytes), EnvelopeError::BadMagic);
        }
    }

    #[test]
    fn truncated_snapshot_with_its_magic_is_malformed_not_bad_magic() {
        let bytes = sample_snapshot().encode();
        for cut in 8..20 {
            assert!(
                matches!(
                    envelope_error(&bytes[..cut]),
                    EnvelopeError::Malformed { .. }
                ),
                "{cut}-byte prefix"
            );
        }
    }

    #[test]
    fn version_bump_is_detected_before_payload_is_trusted() {
        let mut bytes = sample_snapshot().encode();
        bytes[8] = 0xFE; // version field, little-endian low byte
        assert!(matches!(
            envelope_error(&bytes),
            EnvelopeError::UnsupportedVersion { found, .. } if found != CHECKPOINT_VERSION
        ));
    }

    #[test]
    fn fingerprint_tracks_every_spec_field() {
        let base = crate::campaign::CampaignConfig::smoke(100, 7);
        let fp = campaign_fingerprint(&base);
        assert_eq!(fp, campaign_fingerprint(&base.clone()), "pure");
        // Run-shape knobs (workers, chunk) must NOT change identity.
        let mut reshaped = base.clone();
        reshaped.workers = 13;
        reshaped.chunk = 1;
        assert_eq!(fp, campaign_fingerprint(&reshaped));
        // Result-affecting fields must.
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(fp, campaign_fingerprint(&other));
        let mut other = base.clone();
        other.nodes = 101;
        assert_ne!(fp, campaign_fingerprint(&other));
        let mut other = base.clone();
        other.population.day_of_year += 1;
        assert_ne!(fp, campaign_fingerprint(&other));
        let mut other = base;
        other.population.panel_scale = Dist::Constant(1.0);
        assert_ne!(fp, campaign_fingerprint(&other));
    }

    #[test]
    fn snapshot_filenames_sort_and_parse() {
        assert_eq!(snapshot_index("ckpt-000000000042.bin"), Some(42));
        assert_eq!(snapshot_index("ckpt-junk.bin"), None);
        assert_eq!(snapshot_index("report.json"), None);
        let dir = Path::new("/tmp/x");
        assert_eq!(
            snapshot_path(dir, 42),
            dir.join("ckpt-000000000042.bin"),
            "zero-padded so lexicographic order is numeric order"
        );
    }
}
