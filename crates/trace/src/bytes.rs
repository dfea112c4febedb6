//! Byte-stable binary codec and crash-safe persistence primitives.
//!
//! The fleet checkpoint format is built on two guarantees this module owns:
//!
//! * **Byte stability.** Every value is written little-endian with explicit
//!   widths, floats travel as their IEEE-754 bit patterns (`to_bits`), and
//!   variable-length payloads carry length prefixes. Encoding the same state
//!   twice yields identical bytes on every platform, so checkpoint parity
//!   can be checked with `cmp`.
//! * **Fail-closed decoding.** [`ByteReader`] returns a typed
//!   [`CodecError`] for truncated or malformed input — it never panics —
//!   and [`fnv1a64`] gives callers a cheap content checksum so a flipped
//!   bit anywhere in a snapshot is detected before any field is trusted.
//!
//! [`Envelope`] combines the two into the one frame every persisted fleet
//! file uses (magic, version, payload, FNV trailer), with one validation
//! order and one error type.
//!
//! [`write_atomic`] is the single sanctioned way to persist these payloads:
//! write to a temporary sibling, fsync, rename over the target. A crash at
//! any instant leaves either the old file or the new file, never a torn
//! hybrid. The `atomic-persist` lint (`cargo xtask lint`) bans bare
//! `fs::write` / `File::create` in checkpoint-handling crates outside this
//! helper so the invariant cannot erode silently.

use std::io::Write as _;
use std::path::Path;

use crate::seed::mix64;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round: folds `byte` into `hash`.
#[inline]
fn fnv_round(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit hash of `bytes`. Deterministic, dependency-free, and good
/// enough to detect corruption (truncation, bit flips, editor mangling) in
/// checkpoint payloads — this is an integrity check, not a cryptographic
/// one.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| fnv_round(hash, b))
}

/// [`fnv1a64`] of four byte strings at once. Each FNV-1a round waits on
/// the multiply before it, so one string hashes at the multiplier's
/// latency; four independent chains interleaved byte by byte keep four
/// multiplies in flight. Lanes of unequal length are allowed: each lane
/// finishes its own tail after the common prefix.
pub fn fnv1a64_x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..common]);
    let mut hash = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        hash = [
            fnv_round(hash[0], a),
            fnv_round(hash[1], b),
            fnv_round(hash[2], c),
            fnv_round(hash[3], d),
        ];
    }
    for (hash, lane) in hash.iter_mut().zip(lanes) {
        *hash = lane[common..]
            .iter()
            .fold(*hash, |h, &byte| fnv_round(h, byte));
    }
    hash
}

/// The workspace's *registered stable key hasher*: one SplitMix64 round
/// ([`mix64`]) per 64-bit word, `state = mix64(state ^ word)`.
///
/// Content keys that reach disk (the fleet's node-day store) must hash
/// identically across processes, platforms, and std releases, so
/// `std::hash`'s `DefaultHasher`/`RandomState` — whose output is salted
/// per process and explicitly unspecified across versions — are banned in
/// store-key code by the `stable-store-key` lint (`cargo xtask lint`).
/// This type is the sanctioned alternative. Key material is folded in
/// field by field as whole words, without buffering an intermediate
/// encoding: one dependent round per word instead of FNV-1a's eight, which
/// is what keeps key derivation off the top of warm replay's profile.
/// Each round is a bijection of the state, so two inputs of equal length
/// that differ in one word always differ after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    /// A fresh hasher at state zero.
    pub const fn new() -> Self {
        Self { state: 0 }
    }

    /// Folds one word in.
    #[inline]
    pub const fn write_u64(&mut self, word: u64) {
        self.state = mix64(self.state ^ word);
    }

    /// Folds one `f64` in by IEEE-754 bit pattern — `-0.0` and `0.0` hash
    /// differently, NaN payloads are preserved, no epsilon ambiguity.
    #[inline]
    pub const fn write_f64_bits(&mut self, bits: u64) {
        self.write_u64(bits);
    }

    /// Folds a byte string in: its length, then its bytes packed into
    /// little-endian words, the last one zero-padded. The length prefix
    /// keeps `"a" ++ "b"` from aliasing `"ab"` or a padded `"a\0"`.
    /// A `const fn`, so a constant prefix can be folded at compile time.
    pub const fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let (words, tail) = bytes.as_chunks::<8>();
        let mut i = 0;
        while i < words.len() {
            self.write_u64(u64::from_le_bytes(words[i]));
            i += 1;
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word.split_at_mut(tail.len()).0.copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The current hash value. Does not consume the hasher; writing more
    /// words afterwards continues from this state.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A decode failure: what was expected and where the cursor stood.
///
/// Every variant is a *data* problem, not a programming error — corrupted
/// or truncated input must surface as a value the caller can match on,
/// never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before `needed` more bytes could be read.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length prefix exceeded the bytes that follow it.
    BadLength {
        /// Byte offset of the offending prefix.
        offset: usize,
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining after the prefix.
        remaining: usize,
    },
    /// A byte string declared as UTF-8 was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string payload.
        offset: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated input at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            Self::BadLength {
                offset,
                declared,
                remaining,
            } => write!(
                f,
                "bad length prefix at byte {offset}: declares {declared} bytes, {remaining} remain"
            ),
            Self::BadUtf8 { offset } => write!(f, "invalid UTF-8 in string at byte {offset}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian append-only encoder. The write methods are infallible —
/// the buffer grows — so encoding never produces a partial payload.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn push_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn push_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128`, little-endian two's complement.
    pub fn push_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 double as its raw bit pattern (the caller holds
    /// the `f64` and passes `value.to_bits()`), so `-0.0`, subnormals, and
    /// every NaN payload round-trip bit-exactly.
    pub fn push_f64_bits(&mut self, bits: u64) {
        self.push_u64(bits);
    }

    /// Appends a length-prefixed (u64) byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns [`CodecError`] on malformed input.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `N` bytes as an array, for a fixed-width field.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.read_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.read_array()?))
    }

    /// Reads a little-endian `i128`.
    pub fn read_i128(&mut self) -> Result<i128, CodecError> {
        Ok(i128::from_le_bytes(self.read_array()?))
    }

    /// Reads an IEEE-754 bit pattern written by
    /// [`ByteWriter::push_f64_bits`]; the caller rehydrates with
    /// `f64::from_bits`.
    pub fn read_f64_bits(&mut self) -> Result<u64, CodecError> {
        self.read_u64()
    }

    /// Reads a length-prefixed byte string.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let prefix_at = self.pos;
        let declared = self.read_u64()?;
        let remaining = self.remaining();
        let n = usize::try_from(declared).map_err(|_| CodecError::BadLength {
            offset: prefix_at,
            declared,
            remaining,
        })?;
        if n > remaining {
            return Err(CodecError::BadLength {
                offset: prefix_at,
                declared,
                remaining,
            });
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, CodecError> {
        let payload_at = self.pos + 8;
        let raw = self.read_bytes()?;
        std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8 { offset: payload_at })
    }
}

/// Bytes an [`Envelope`] adds around its payload: magic, version, trailer.
const ENVELOPE_OVERHEAD: usize = 8 + 4 + 8;

/// The on-disk frame shared by every persisted fleet file (campaign
/// checkpoints, node-day store entries, the store's `store.meta` stamp):
///
/// ```text
/// offset  size  field
/// 0       8     magic                      — foreign file: BadMagic
/// 8       4     format version (u32 LE)    — mismatch: UnsupportedVersion
/// 12      ..    payload (owner-defined)
/// end-8   8     FNV-1a-64 of bytes [0, end-8)
/// ```
///
/// [`Envelope::unseal`] validates in trust order — magic prefix, length
/// ≥ 20 bytes, version, checksum, then that the payload decoder consumed
/// every byte — so by the time a payload field is trusted the bytes are a
/// complete, uncorrupted file of a readable version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Leading bytes identifying the file kind.
    pub magic: [u8; 8],
    /// The format version this build writes and reads.
    pub version: u32,
}

/// Why bytes failed to unseal. Every variant is a data problem the caller
/// can match on — foreign or mangled input never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The bytes do not start with the envelope's magic.
    BadMagic,
    /// The file declares a format version this build does not read.
    UnsupportedVersion {
        /// Version the file declares.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The trailing FNV-1a checksum does not match the content — a
    /// truncated, bit-flipped, or otherwise mangled file.
    ChecksumMismatch {
        /// Checksum the file carries.
        expected: u64,
        /// Checksum the content actually hashes to.
        actual: u64,
    },
    /// Too short for the frame, or the payload failed to decode (or left
    /// trailing bytes) despite a clean checksum.
    Malformed {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic"),
            Self::UnsupportedVersion { found, supported } => {
                write!(f, "format v{found}, this build reads v{supported}")
            }
            Self::ChecksumMismatch { expected, actual } => write!(
                f,
                "corrupt: checksum mismatch (recorded {expected:#018x}, computed {actual:#018x})"
            ),
            Self::Malformed { detail } => write!(f, "malformed: {detail}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl Envelope {
    /// Frames the payload `encode` writes: magic, version, payload,
    /// checksum. Pure — the same payload seals to the same bytes.
    pub fn seal(&self, encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(&self.magic);
        w.push_u32(self.version);
        encode(&mut w);
        let checksum = fnv1a64(w.as_slice());
        w.push_u64(checksum);
        w.into_bytes()
    }

    /// Validates the frame around `bytes` and decodes its payload with
    /// `decode`, which reads straight from `bytes` (no copy). The decoder
    /// must consume the whole payload; leftovers are
    /// [`EnvelopeError::Malformed`].
    pub fn unseal<'a, T>(
        &self,
        bytes: &'a [u8],
        decode: impl FnOnce(&mut ByteReader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, EnvelopeError> {
        if !bytes.starts_with(&self.magic) {
            return Err(EnvelopeError::BadMagic);
        }
        if bytes.len() < ENVELOPE_OVERHEAD {
            return Err(EnvelopeError::Malformed {
                detail: format!(
                    "{} bytes is shorter than the {ENVELOPE_OVERHEAD}-byte envelope",
                    bytes.len()
                ),
            });
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        // Offsets in decode errors stay absolute file offsets.
        let mut r = ByteReader {
            buf: content,
            pos: self.magic.len(),
        };
        let found = r.read_u32().map_err(malformed)?;
        if found != self.version {
            return Err(EnvelopeError::UnsupportedVersion {
                found,
                supported: self.version,
            });
        }
        let expected = ByteReader::new(trailer).read_u64().map_err(malformed)?;
        let actual = fnv1a64(content);
        if expected != actual {
            return Err(EnvelopeError::ChecksumMismatch { expected, actual });
        }
        let value = decode(&mut r).map_err(malformed)?;
        match r.remaining() {
            0 => Ok(value),
            n => Err(EnvelopeError::Malformed {
                detail: format!("{n} trailing bytes after payload"),
            }),
        }
    }
}

fn malformed(e: CodecError) -> EnvelopeError {
    EnvelopeError::Malformed {
        detail: e.to_string(),
    }
}

/// Atomically replaces `path` with `bytes`: write a temporary sibling in
/// the same directory, fsync it, then rename over the target (and fsync
/// the directory, best-effort). A crash at any point leaves either the
/// previous file intact or the new file complete — never a torn write.
///
/// This is the registered helper for the `atomic-persist` lint: all
/// checkpoint-path writes in `fleet`/`trace` library code must flow
/// through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("atomic write target has no file name: {}", path.display()),
        )
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is not available on every
    // platform/filesystem, so failure here downgrades to best-effort: the
    // data file is already durable and the rename is atomic either way.
    if let Some(d) = dir {
        if let Ok(dirfile) = std::fs::File::open(d) {
            let _ = dirfile.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hasher_folds_one_mix_round_per_word() {
        let mut h = KeyHasher::new();
        h.write_u64(0x0123_4567_89AB_CDEF);
        h.write_u64(7);
        assert_eq!(h.finish(), mix64(mix64(0x0123_4567_89AB_CDEF) ^ 7));
        // Pinned: every store key depends on this exact function.
        assert_eq!(h.finish(), 0x3A37_FDE2_7709_5A21);
    }

    #[test]
    fn streaming_hasher_field_helpers_are_little_endian() {
        let mut a = KeyHasher::new();
        a.write_f64_bits((-0.0f64).to_bits());
        let mut b = KeyHasher::new();
        b.write_u64((-0.0f64).to_bits());
        assert_eq!(a.finish(), b.finish());
        // Signed zeros are distinct key material.
        let mut pos = KeyHasher::new();
        pos.write_f64_bits(0.0f64.to_bits());
        assert_ne!(a.finish(), pos.finish());
        // Byte strings are a length word, then zero-padded LE words.
        let mut bytes = KeyHasher::new();
        bytes.write_bytes(b"solarml-node/v2");
        let mut words = KeyHasher::new();
        words.write_u64(15);
        words.write_u64(u64::from_le_bytes(*b"solarml-"));
        words.write_u64(u64::from_le_bytes(*b"node/v2\0"));
        assert_eq!(bytes.finish(), words.finish());
    }

    #[test]
    fn key_hasher_byte_strings_do_not_alias() {
        let hash = |parts: &[&[u8]]| {
            let mut h = KeyHasher::new();
            parts.iter().for_each(|p| h.write_bytes(p));
            h.finish()
        };
        assert_ne!(hash(&[b"a", b"b"]), hash(&[b"ab"]));
        assert_ne!(hash(&[b"a"]), hash(&[b"a\0"]));
        assert_ne!(hash(&[b""]), hash(&[]));
        assert_ne!(hash(&[b"12345678"]), hash(&[b"1234567", b"8"]));
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let mut w = ByteWriter::new();
        w.push_u8(0xAB);
        w.push_u32(0xDEAD_BEEF);
        w.push_u64(u64::MAX - 7);
        w.push_i128(-(1i128 << 100));
        w.push_f64_bits((-0.0f64).to_bits());
        w.push_f64_bits(f64::NAN.to_bits());
        w.push_str("fleet/ckpt");
        w.push_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.read_i128().unwrap(), -(1i128 << 100));
        let neg_zero = f64::from_bits(r.read_f64_bits().unwrap());
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert!(f64::from_bits(r.read_f64_bits().unwrap()).is_nan());
        assert_eq!(r.read_str().unwrap(), "fleet/ckpt");
        assert_eq!(r.read_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.push_u64(42);
        w.push_str("hello");
        w.push_i128(-1);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = r
                .read_u64()
                .and_then(|_| r.read_str().map(|_| ()))
                .and_then(|_| r.read_i128().map(|_| ()));
            assert!(outcome.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.push_u64(u64::MAX); // claims ~1.8e19 bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.read_bytes(),
            Err(CodecError::BadLength { declared, .. }) if declared == u64::MAX
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.push_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_str(), Err(CodecError::BadUtf8 { offset: 8 }));
    }

    #[test]
    fn four_lane_fnv_equals_one_lane_fnv() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..20 {
            // Equal lanes, then lanes of four different lengths.
            for spread in [0, 1, 5] {
                let lanes: [&[u8]; 4] =
                    std::array::from_fn(|i| &bytes[i * 9..i * 9 + len + i * spread]);
                assert_eq!(
                    fnv1a64_x4(lanes),
                    lanes.map(fnv1a64),
                    "len {len}, spread {spread}"
                );
            }
        }
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let payload: Vec<u8> = (0..64u8).collect();
        let clean = fnv1a64(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mangled = payload.clone();
                mangled[byte] ^= 1 << bit;
                assert_ne!(fnv1a64(&mangled), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    const TEST_ENVELOPE: Envelope = Envelope {
        magic: *b"SLTESTEN",
        version: 3,
    };

    fn sealed() -> Vec<u8> {
        TEST_ENVELOPE.seal(|w| {
            w.push_u64(7);
            w.push_str("payload");
        })
    }

    fn unseal(bytes: &[u8]) -> Result<(u64, &str), EnvelopeError> {
        TEST_ENVELOPE.unseal(bytes, |r| Ok((r.read_u64()?, r.read_str()?)))
    }

    #[test]
    fn envelope_round_trips_and_frames_as_documented() {
        let bytes = sealed();
        assert_eq!(&bytes[..8], b"SLTESTEN");
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        let n = bytes.len();
        assert_eq!(&bytes[n - 8..], &fnv1a64(&bytes[..n - 8]).to_le_bytes());
        assert_eq!(unseal(&bytes), Ok((7, "payload")));
        // An empty payload is exactly the 20-byte frame.
        let stamp = TEST_ENVELOPE.seal(|_| {});
        assert_eq!(stamp.len(), ENVELOPE_OVERHEAD);
        assert_eq!(TEST_ENVELOPE.unseal(&stamp, |_| Ok(())), Ok(()));
    }

    #[test]
    fn envelope_validates_in_trust_order() {
        let bytes = sealed();
        // Foreign bytes — including too-short ones — are bad magic.
        for foreign in [&b""[..], &b"SLTEST"[..], &[0u8; 64][..]] {
            assert_eq!(unseal(foreign), Err(EnvelopeError::BadMagic));
        }
        // A magic-bearing prefix too short for the frame is malformed.
        for cut in 8..ENVELOPE_OVERHEAD {
            assert!(matches!(
                unseal(&bytes[..cut]),
                Err(EnvelopeError::Malformed { .. })
            ));
        }
        // Version is checked before the checksum.
        let mut bumped = bytes.clone();
        bumped[8] = 9;
        assert_eq!(
            unseal(&bumped),
            Err(EnvelopeError::UnsupportedVersion {
                found: 9,
                supported: 3
            })
        );
        let mut flipped = bytes.clone();
        flipped[14] ^= 0x10;
        assert!(matches!(
            unseal(&flipped),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        // A clean checksum over a payload the decoder does not fully
        // consume is malformed.
        let padded = TEST_ENVELOPE.seal(|w| {
            w.push_u64(7);
            w.push_str("payload");
            w.push_u8(0);
        });
        match unseal(&padded) {
            Err(EnvelopeError::Malformed { detail }) => assert!(detail.contains("1 trailing")),
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("solarml-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.bin");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
