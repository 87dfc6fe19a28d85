//! Hash-verified checkpoint/restore: the binary format, the [`Persist`]
//! trait programs opt into, and the container framing shared by every
//! snapshot ([`Runtime::save_snapshot`] / [`Runtime::restore_snapshot`]).
//!
//! # Why snapshots exist
//!
//! Every experiment in this repository was capped by from-scratch
//! stabilization: a 10k-host Avatar(Chord) takes hours to converge, so
//! storm, serving, and daemon studies never saw 100k+ hosts. A snapshot
//! serializes a *full* runtime — topology (slots, free list, edges),
//! membership, per-node program state, RNG streams, dirty set, pending
//! inbox messages, timers, metrics, and attached traffic — so a converged
//! state is built once and restored everywhere, and the restored runtime
//! continues **byte-identically** (same metrics
//! JSON as the uninterrupted run, under any equivalence-claiming
//! scheduler).
//!
//! # Format
//!
//! A snapshot is a single length-prefixed, hash-verified container:
//!
//! ```text
//! magic    8 bytes   b"SSIMSNAP"
//! version  u32 LE    FORMAT_VERSION
//! length   u64 LE    payload byte count
//! payload  ..        version-specific body (see Runtime::save_snapshot)
//! hash     u64 LE    XXH64 (seed 0) over the payload bytes: seal_hash
//! ```
//!
//! The container header stays fixed-width little-endian, but payload
//! integers (`u32`, `u64`, `usize`, sequence counts) are LEB128 varints:
//! the overwhelming majority of snapshot values — node identifiers, round
//! numbers, sequence lengths, slot indices — are small, so a 1M-host
//! snapshot shrinks by roughly 40% against the old fixed-width layout
//! (measured by E14b's `bytes/host`). Signed integers are zigzag-folded
//! first; `f64` bit patterns and RNG words are full-entropy and stay fixed
//! 8-byte ([`Writer::raw64`]). Hash maps and sets are written in sorted key
//! order so identical states produce identical bytes. Loading verifies
//! magic, version, length, and hash **before** any payload byte is
//! interpreted: a truncated file, a flipped byte, or a version mismatch is
//! a loud [`SnapshotError`], never silently-loaded garbage.
//!
//! The container layout is written in one place: a [`Writer`] reserves the
//! header before its first payload byte, and [`Writer::seal`] fills in the
//! length, hashes the payload where it lies and appends the hash, so a
//! runtime's payload is never copied into a second buffer. [`seal`] frames
//! a finished payload through the same writer.
//!
//! # Cost
//!
//! Saving is one encode pass and one hash pass; restoring is one hash pass
//! and one decode pass, each owner validating what it decoded. The
//! primitives are `#[inline]`, so a protocol crate's `Persist` impls
//! compile to straight-line code without link-time optimization: a varint
//! below 128 is one byte written or read, and a longer one is built, or
//! (up to eight bytes) decoded from one little-endian word, without a
//! branch on its length. The hash pass is XXH64 ([`seal_hash`]): four
//! independent lanes take 32 bytes a step, ~0.17 ns a byte, where the
//! FNV-1a pass it replaced in format 5 waited on one multiply per byte
//! (~1.4 ns). On a stabilized 32k-host Avatar(Chord) (2-vCPU x86-64 VM)
//! the hash is ~4 ms of a ~90 ms save; encoding and decoding are the
//! rest, the beacon views about half of each.
//!
//! # The `Persist` contract
//!
//! [`Persist::save`] must capture *everything the program's `step` can
//! observe or mutate* — protocol state, statistics counters, cached
//! neighbor views, frozen/dormant flags — because the restored program must
//! behave identically on every future round. State that is a pure function
//! of construction parameters (a `Cbt(N)` tree shape, an epoch schedule)
//! may be re-derived in [`Persist::load`] instead of serialized. The
//! runtime itself captures each node's RNG position, so programs never
//! serialize randomness.
//!
//! A layout that is "these fields, in this order" is *declared*, not
//! written twice: [`persist_struct!`] lists a struct's fields (one generic
//! parameter with bounds may be declared), [`persist_enum!`] gives each
//! variant an explicit `u8` tag and lists its payload, and both generate
//! `save` and `load` from that one list, so the halves cannot drift. Write
//! `Persist` by hand only when `load` must do more than decode: rebuild
//! derived state (the protocol core's tree, schedule and detector memo) or
//! reject a well-formed but impossible value (a zero TTL, a Chord size
//! that is not a power of two, unsorted [`crate::CompactMap`] keys).
//!
//! [`Runtime`]: crate::Runtime
//! [`Runtime::save_snapshot`]: crate::Runtime::save_snapshot
//! [`Runtime::restore_snapshot`]: crate::Runtime::restore_snapshot

use std::fmt;
use std::path::Path;

/// Magic prefix of every snapshot container.
pub const MAGIC: [u8; 8] = *b"SSIMSNAP";

/// Current container/payload format version. Bumped on any layout change;
/// older versions are rejected (no migration machinery — snapshots are
/// caches, not archives). Version 3 switched payload integers to LEB128
/// varints (the state-compaction pass); version 4 dropped two network-model
/// fields and the wire's pacing section; version 5 sealed with XXH64
/// instead of FNV-1a and coded each beacon-view entry against the one
/// before it; version 6 saves the attached workload whole (a tagged
/// generator with its rate and key space) instead of a name and opaque
/// state bytes.
pub const FORMAT_VERSION: u32 = 6;

/// Why a snapshot failed to load (or a file failed to be written). Every
/// variant is loud and specific: a snapshot either restores exactly or
/// fails with the reason — corrupted data never loads partially.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The container was written by an unsupported format version.
    Version {
        /// Version found in the container header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The data ends before the structure it promises (truncated file, or a
    /// length field pointing past the end).
    Truncated,
    /// The payload hash does not match the recorded one: the bytes were
    /// corrupted (or tampered with) after the snapshot was written.
    HashMismatch {
        /// Hash recorded in the container.
        expected: u64,
        /// Hash of the payload actually present.
        actual: u64,
    },
    /// The payload decoded but violates a structural invariant (impossible
    /// enum tag, inconsistent lengths, topology invariants failing, …).
    Corrupt(String),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes,
    /// Underlying file I/O failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::Version { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::HashMismatch { expected, actual } => write!(
                f,
                "snapshot content hash mismatch (recorded {expected:#018x}, computed {actual:#018x}): \
                 the file is corrupted"
            ),
            Self::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
            Self::TrailingBytes => write!(f, "snapshot has trailing bytes after the payload"),
            Self::Io(why) => write!(f, "snapshot I/O error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64 over a byte slice. Hand-rolled (no external hash crates in the
/// offline workspace); collision resistance is not a goal. Simulated
/// numbers are derived from it (scenario seeds, the adversary mix, metric
/// digests), so its bytes never change; the container seal uses the faster
/// [`seal_hash`].
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold the next 8-byte word into an accumulator.
#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// Fold a finished lane into the combined hash.
#[inline(always)]
fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8"))
}

/// XXH64 with seed 0 over a byte slice — the container's seal hash
/// ([`Writer::seal`], [`unseal`]). Four independent lanes take a 32-byte
/// stripe per step, so the pass runs at memory speed instead of waiting on
/// one multiply per byte as [`content_hash`] does; the tail is folded in
/// 8-, 4- and 1-byte steps and the result avalanched, exactly as the
/// XXH64 specification reads (little-endian words). Like FNV-1a it detects
/// corruption and is not a MAC.
pub fn seal_hash(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for s in &mut stripes {
            for (lane, word) in v.iter_mut().zip(s.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh_merge)
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, le64(tail)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4"));
        h = (h ^ u64::from(word).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// Bytes of the container before the payload: magic, version, length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// The longest LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
const MAX_VARINT: usize = 10;

/// Append-only byte sink the [`Persist`] implementations write into.
/// Unsigned integers are LEB128 varints (signed ones zigzag-folded first);
/// sequences are length-prefixed; full-entropy 64-bit words (`f64` bit
/// patterns, RNG state) use the fixed 8-byte [`Writer::raw64`].
///
/// A writer frames its payload from the first byte: the container header
/// is reserved up front, so [`Writer::seal`] fills in the length, hashes
/// the payload where it lies and appends the hash — the payload is never
/// copied into a second buffer. [`Writer::into_bytes`] hands back the bare
/// payload instead.
#[derive(Debug)]
pub struct Writer {
    /// The container header (filled in by [`Writer::seal`]), then the
    /// payload.
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        Self { buf }
    }
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// True iff no payload byte has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the writer, yielding the raw payload bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..HEADER_LEN);
        self.buf
    }

    /// Consume the writer, yielding the sealed container (see the module
    /// docs for the layout): the payload length goes into the reserved
    /// header and the [`seal_hash`] of the payload after it.
    pub fn seal(mut self) -> Vec<u8> {
        let len = self.len() as u64;
        self.buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let hash = seal_hash(&self.buf[HEADER_LEN..]);
        self.buf.extend_from_slice(&hash.to_le_bytes());
        self.buf
    }

    /// Write one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (`0`/`1`).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32` as a LEB128 varint (1 byte for values < 128).
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Write a `u64` as a LEB128 varint: 7 value bits per byte, low bits
    /// first, high bit of each byte marking continuation. Small values —
    /// the overwhelming majority of snapshot integers — cost one byte.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
        } else {
            self.u64_multi(v);
        }
    }

    /// A varint of `n ≥ 2` bytes, without a branch on its length: the
    /// 7-bit groups of the low 56 bits are spread one per byte in three
    /// pairwise steps (the inverse of [`Reader::u64`]'s packing), every
    /// byte but the last gets its continuation bit, and all ten candidate
    /// bytes are appended at once before the ones past `n` are cut off.
    #[inline]
    fn u64_multi(&mut self, v: u64) {
        let n = (70 - v.leading_zeros() as usize) / 7;
        let x = v & 0x00FF_FFFF_FFFF_FFFF;
        let x = (x & 0x0FFF_FFFF) | ((x & 0x00FF_FFFF_F000_0000) << 4);
        let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x0FFF_C000_0FFF_C000) << 2);
        let x = (x & 0x007F_007F_007F_007F) | ((x & 0x3F80_3F80_3F80_3F80) << 1);
        let more = 0x8080_8080_8080_8080 & (u64::MAX >> (64 - 8 * (n - 1).min(8)));
        let mut out = [0u8; MAX_VARINT];
        out[..8].copy_from_slice(&(x | more).to_le_bytes());
        out[8] = ((v >> 56) as u8 & 0x7F) | (((n > 9) as u8) << 7);
        out[9] = (v >> 63) as u8;
        self.buf.extend_from_slice(&out);
        self.buf.truncate(self.buf.len() - (MAX_VARINT - n));
    }

    /// Write an `i64`, zigzag-folded (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`)
    /// so small-magnitude values of either sign stay short varints.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Write a full-entropy 64-bit word fixed-width little-endian. Varints
    /// cost 10 bytes on uniformly random values; RNG state and hash words
    /// go through here instead.
    #[inline]
    pub fn raw64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round-trip; fixed
    /// 8 bytes — float bit patterns are not varint-friendly).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.raw64(v.to_bits());
    }

    /// Write a `usize` as a `u64` varint.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a sequence length prefix (a `u64` varint).
    #[inline]
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.seq(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor over snapshot payload bytes; every getter fails loudly on
/// truncation instead of reading garbage.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over raw payload bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(SnapshotError::Truncated),
        }
    }

    /// Read a `bool`; any byte other than `0`/`1` is corruption.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    /// Read a `u32` varint; values past `u32::MAX` are corruption.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("u32 overflow: {v}")))
    }

    /// Read a LEB128 `u64` varint. An unterminated varint is truncation; a
    /// varint overflowing 64 bits is corruption.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.u64_multi(),
        }
    }

    /// A varint of more than one byte. With eight bytes left, a varint
    /// that ends within them is decoded from one little-endian word, the
    /// bytes checked against the buffer's end once and no branch taken on
    /// the varint's length: the first byte with a clear high bit ends it,
    /// the bytes past it are masked off, and the 7-bit groups are packed
    /// together pairwise in three steps. Longer varints, and varints in the
    /// last eight bytes, go through [`Self::u64_bytewise`].
    #[inline]
    fn u64_multi(&mut self) -> Result<u64, SnapshotError> {
        let Some(word) = self.buf.get(self.pos..self.pos + 8) else {
            return self.u64_bytewise();
        };
        let word = u64::from_le_bytes(word.try_into().expect("8"));
        // The high bit of every byte that could end the varint; the lowest
        // one is its last byte.
        let ends = !word & 0x8080_8080_8080_8080;
        if ends == 0 {
            return self.u64_bytewise();
        }
        let x = word & (ends ^ (ends - 1)) & 0x7F7F_7F7F_7F7F_7F7F;
        let x = (x & 0x007F_007F_007F_007F) | ((x >> 1) & 0x3F80_3F80_3F80_3F80);
        let x = (x & 0x0000_3FFF_0000_3FFF) | ((x >> 2) & 0x0FFF_C000_0FFF_C000);
        self.pos += (ends.trailing_zeros() as usize + 1) / 8;
        Ok((x & 0x0FFF_FFFF) | ((x >> 4) & 0x00FF_FFFF_F000_0000))
    }

    /// The byte-at-a-time varint reader: the definition
    /// [`Self::u64_multi`] must agree with, and its path for long varints
    /// and near the end of the buffer.
    fn u64_bytewise(&mut self) -> Result<u64, SnapshotError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = (b & 0x7F) as u64;
            if shift == 63 && bits > 1 {
                return Err(SnapshotError::Corrupt("u64 varint overflow".into()));
            }
            v |= bits << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(SnapshotError::Corrupt("u64 varint too long".into()))
    }

    /// Read a zigzag-folded `i64` varint.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a fixed-width little-endian 64-bit word ([`Writer::raw64`]).
    #[inline]
    pub fn raw64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `f64` from its fixed-width bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.raw64()?))
    }

    /// Read a `usize` (stored as `u64`); rejects values that cannot index
    /// this platform's memory.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read a sequence length prefix, sanity-bounded against the remaining
    /// bytes (each element needs ≥ 1 byte) so a corrupted length cannot
    /// trigger an enormous allocation.
    #[inline]
    pub fn seq(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.seq()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }
}

/// Opt-in state serialization for node programs (and their component
/// types). `save` and `load` must round-trip exactly: the loaded value must
/// be indistinguishable from the saved one to `step` — including
/// statistics, caches, and dormant/frozen protocol state. See the module
/// docs for the full contract.
pub trait Persist: Sized {
    /// Serialize this value into `w`.
    fn save(&self, w: &mut Writer);

    /// Deserialize a value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

/// A primitive persists through the `Writer`/`Reader` method of its name.
macro_rules! persist_primitive {
    ($($ty:ident),+) => {$(
        impl Persist for $ty {
            #[inline]
            fn save(&self, w: &mut Writer) {
                w.$ty(*self);
            }
            #[inline]
            fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                r.$ty()
            }
        }
    )+};
}
persist_primitive!(u8, u32, u64, i64, f64, bool, usize);

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        w.str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.str()
    }
}

/// Implements [`Persist`] for a struct as its listed fields, in the listed
/// order: the layout is written once, so `save` and `load` cannot drift
/// apart. One generic parameter may be declared with its bounds.
///
/// ```
/// use ssim::snapshot::{persist_struct, Persist};
/// struct Pair<T> { left: T, right: u32 }
/// persist_struct!(Pair<T: Persist> { left, right });
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($name:ident $(<$g:ident: $b0:ident $(+ $bs:ident)*>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$g: $b0 $(+ $bs)*>)? $crate::snapshot::Persist for $name$(<$g>)? {
            #[inline]
            fn save(&self, w: &mut $crate::snapshot::Writer) {
                $($crate::snapshot::Persist::save(&self.$field, w);)+
            }
            #[inline]
            fn load(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self {
                    $($field: $crate::snapshot::Persist::load(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Persist`] for an enum as a `u8` tag, then the variant's
/// payload: a unit variant has none, a one-field tuple variant (its field
/// named only for the declaration) has its field, a struct variant has its
/// listed fields in the listed order. An unknown tag loads as
/// [`SnapshotError::Corrupt`]`("<Type> tag t")`.
///
/// ```
/// use ssim::snapshot::persist_enum;
/// enum Shape { Dot, Circle(u32), Rect { w: u32, h: u32 } }
/// persist_enum!(Shape { 0 => Dot, 1 => Circle(r), 2 => Rect { w, h } });
/// ```
#[macro_export]
macro_rules! persist_enum {
    (@load $r:ident $one:ident) => {
        $crate::snapshot::Persist::load($r)?
    };
    ($name:ident {
        $($tag:literal => $variant:ident $(($one:ident))? $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        impl $crate::snapshot::Persist for $name {
            fn save(&self, w: &mut $crate::snapshot::Writer) {
                match self {
                    $(Self::$variant $(($one))? $({ $($field),+ })? => {
                        w.u8($tag);
                        $($crate::snapshot::Persist::save($one, w);)?
                        $($($crate::snapshot::Persist::save($field, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $(($crate::persist_enum!(@load r $one)))?
                        $({ $($field: $crate::snapshot::Persist::load(r)?),+ })?,)+
                    t => {
                        return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                            concat!(stringify!($name), " tag {}"),
                            t
                        )))
                    }
                })
            }
        }
    };
}

pub use crate::{persist_enum, persist_struct};

/// An RNG persists as its raw xoshiro state: the restored generator
/// continues the same stream from the same position.
impl Persist for rand::rngs::SmallRng {
    #[inline]
    fn save(&self, w: &mut Writer) {
        for s in self.state() {
            w.raw64(s);
        }
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self::from_state([
            r.raw64()?,
            r.raw64()?,
            r.raw64()?,
            r.raw64()?,
        ]))
    }
}

impl Persist for () {
    fn save(&self, _w: &mut Writer) {}
    fn load(_r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl<T: Persist> Persist for Option<T> {
    #[inline]
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Persist> Persist for Box<T> {
    #[inline]
    fn save(&self, w: &mut Writer) {
        (**self).save(w);
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        T::load(r).map(Box::new)
    }
}

impl<T: Persist> Persist for Vec<T> {
    #[inline]
    fn save(&self, w: &mut Writer) {
        w.seq(self.len());
        for v in self {
            v.save(w);
        }
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    #[inline]
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    #[inline]
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Frame a payload into the versioned, hash-verified container (see the
/// module docs for the layout): the same framing [`Writer::seal`] does in
/// place, applied to a payload already written elsewhere.
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.reserve_exact(payload.len() + 8);
    w.buf.extend_from_slice(&payload);
    w.seal()
}

/// Verify a container (magic, version, length, content hash) and return
/// the payload slice. Nothing in the payload is interpreted before every
/// check passes.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    let (version, len) = bytes[MAGIC.len()..HEADER_LEN].split_at(4);
    let version = u32::from_le_bytes(version.try_into().expect("4"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes(len.try_into().expect("8"));
    let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
    let body = &bytes[HEADER_LEN..];
    let framed = len.checked_add(8).ok_or(SnapshotError::Truncated)?;
    if body.len() < framed {
        return Err(SnapshotError::Truncated);
    }
    if body.len() > framed {
        return Err(SnapshotError::TrailingBytes);
    }
    let payload = &body[..len];
    let expected = u64::from_le_bytes(body[len..].try_into().expect("8"));
    let actual = seal_hash(payload);
    if actual != expected {
        return Err(SnapshotError::HashMismatch { expected, actual });
    }
    Ok(payload)
}

/// Write a sealed snapshot to `path` atomically: the bytes land in a
/// sibling temporary file first and are renamed into place, so a reader
/// never observes a half-written snapshot (concurrent writers race benignly
/// — last rename wins, and every intermediate file is a complete snapshot).
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        42u8.save(&mut w);
        7u32.save(&mut w);
        u64::MAX.save(&mut w);
        (-3i64).save(&mut w);
        1.5f64.save(&mut w);
        true.save(&mut w);
        "héllo".to_string().save(&mut w);
        Some(9u32).save(&mut w);
        Option::<u32>::None.save(&mut w);
        vec![1u64, 2, 3].save(&mut w);
        (1u32, (2u64, false)).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::load(&mut r).unwrap(), 42);
        assert_eq!(u32::load(&mut r).unwrap(), 7);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::load(&mut r).unwrap(), -3);
        assert_eq!(f64::load(&mut r).unwrap(), 1.5);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(<(u32, (u64, bool))>::load(&mut r).unwrap(), (1, (2, false)));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_loud() {
        let mut w = Writer::new();
        vec![1u64; 4].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapshotError::Truncated)
        ));
        // A length prefix larger than the remaining bytes is also loud
        // (and does not allocate).
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let huge = w.into_bytes();
        assert!(matches!(
            Vec::<u8>::load(&mut Reader::new(&huge)),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn varint_edges_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = Writer::new();
        for &v in &values {
            w.u64(v);
        }
        w.raw64(0xDEAD_BEEF_0123_4567);
        w.i64(i64::MIN);
        w.i64(-1);
        w.i64(i64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.u64().unwrap(), v);
        }
        assert_eq!(r.raw64().unwrap(), 0xDEAD_BEEF_0123_4567);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.i64().unwrap(), -1);
        assert_eq!(r.i64().unwrap(), i64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn varint_sizes_are_compact() {
        let len = |f: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            f(&mut w);
            w.len()
        };
        assert_eq!(len(&|w| w.u64(0)), 1);
        assert_eq!(len(&|w| w.u64(127)), 1);
        assert_eq!(len(&|w| w.u64(128)), 2);
        assert_eq!(len(&|w| w.u32(1_000_000)), 3, "1M-host node ids: 3 bytes");
        assert_eq!(len(&|w| w.u64(u64::MAX)), 10);
        assert_eq!(len(&|w| w.seq(5)), 1, "short sequences cost one byte");
        assert_eq!(len(&|w| w.raw64(u64::MAX)), 8, "raw words stay fixed");
    }

    #[test]
    fn malformed_varints_are_loud() {
        // Unterminated varint (all continuation bits) → truncation.
        let mut r = Reader::new(&[0x80, 0x80]);
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated)));
        // 10-byte varint overflowing 64 bits → corruption.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(matches!(r.u64(), Err(SnapshotError::Corrupt(_))));
        // A u32 read of a value past u32::MAX → corruption.
        let mut w = Writer::new();
        w.u64(u32::MAX as u64 + 1);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).u32(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// The byte-at-a-time encoder the branch-free [`Writer::u64`]
    /// replaced: the reference it must match byte for byte.
    fn varint_reference(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        while v >= 0x80 {
            out.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        out
    }

    #[test]
    fn fast_codec_matches_the_bytewise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(24);
        for len in 1..=MAX_VARINT {
            let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let hi = 1u64.checked_shl(7 * len as u32).map_or(u64::MAX, |b| b - 1);
            let mut values = vec![lo, hi, lo + (hi - lo) / 3];
            values.extend((0..64).map(|_| rng.gen_range(lo..=hi)));
            for v in values {
                let bytes = varint_reference(v);
                assert_eq!(bytes.len(), len, "{v:#x}");
                let mut w = Writer::new();
                w.u64(v);
                assert_eq!(w.into_bytes(), bytes, "{v:#x} encodes as the reference");
                // With room behind it a varint of up to eight bytes takes
                // the word path; at the very end of the buffer, and past
                // eight bytes, the bytewise one.
                for pad in [MAX_VARINT, 0] {
                    let mut buf = bytes.clone();
                    buf.resize(len + pad, 0);
                    let mut r = Reader::new(&buf);
                    assert_eq!(r.u64().unwrap(), v, "{v:#x} behind {pad} bytes");
                    assert_eq!(r.pos, len);
                }
            }
        }
        // Arbitrary bytes, long and short, mostly continuation bytes: the
        // fast reader and the bytewise one agree on the value and the
        // position after it, or on the error (after which a reader is
        // abandoned), wherever the varint ends relative to the buffer's end.
        for _ in 0..20_000 {
            let n = rng.gen_range(0..=2 * MAX_VARINT);
            let bytes: Vec<u8> = (0..n)
                .map(|_| rng.gen::<u32>() as u8 | if rng.gen_bool(0.8) { 0x80 } else { 0 })
                .collect();
            let (mut fast, mut slow) = (Reader::new(&bytes), Reader::new(&bytes));
            let (a, b) = (fast.u64(), slow.u64_bytewise());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{bytes:02x?}");
            if a.is_ok() {
                assert_eq!(fast.pos, slow.pos, "{bytes:02x?}");
            }
        }
        // The malformed cases, on both paths: an unterminated varint at the
        // end is truncation; ten bytes overflowing 64 bits, and a u32 read
        // past u32::MAX, are corruption.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let big = varint_reference(u32::MAX as u64 + 1);
        for pad in [0, MAX_VARINT] {
            let padded = |b: &[u8]| [b, &vec![0; pad][..]].concat();
            let unterminated = [vec![7; pad], vec![0x80, 0x80]].concat();
            let mut r = Reader::new(&unterminated);
            r.pos = pad;
            assert!(matches!(r.u64(), Err(SnapshotError::Truncated)));
            let too_long = padded(&[0x80; MAX_VARINT]);
            assert!(matches!(
                Reader::new(&too_long).u64(),
                Err(SnapshotError::Corrupt(_))
            ));
            let bytes = padded(&overflow);
            assert!(matches!(
                Reader::new(&bytes).u64(),
                Err(SnapshotError::Corrupt(_))
            ));
            let bytes = padded(&big);
            assert!(matches!(
                Reader::new(&bytes).u32(),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    /// Sealing frames in place; sealing a finished payload shares the one
    /// container layout, byte for byte.
    #[test]
    fn seal_equals_in_place_framing() {
        let mut w = Writer::new();
        for v in [0u64, 1 << 20, u64::MAX] {
            w.u64(v);
        }
        w.str("payload");
        let payload = {
            let mut w2 = Writer::new();
            for v in [0u64, 1 << 20, u64::MAX] {
                w2.u64(v);
            }
            w2.str("payload");
            w2.into_bytes()
        };
        assert_eq!(w.len(), payload.len());
        let sealed = w.seal();
        assert_eq!(sealed, seal(payload.clone()));
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
        assert_eq!(Writer::new().seal(), seal(Vec::new()));
    }

    #[test]
    fn seal_unseal_roundtrip_and_rejections() {
        let sealed = seal(b"payload bytes".to_vec());
        assert_eq!(unseal(&sealed).unwrap(), b"payload bytes");

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(unseal(&bad), Err(SnapshotError::BadMagic)));

        // Version mismatch: a future version, and the previous one.
        for found in [99, FORMAT_VERSION - 1] {
            let mut bad = sealed.clone();
            bad[8..12].copy_from_slice(&found.to_le_bytes());
            assert!(matches!(
                unseal(&bad),
                Err(SnapshotError::Version { found: f, .. }) if f == found
            ));
        }

        // Truncation.
        assert!(matches!(
            unseal(&sealed[..sealed.len() - 3]),
            Err(SnapshotError::Truncated)
        ));

        // Flipped payload byte → hash mismatch.
        let mut bad = sealed.clone();
        bad[25] ^= 0x01;
        assert!(matches!(
            unseal(&bad),
            Err(SnapshotError::HashMismatch { .. })
        ));

        // Trailing junk.
        let mut bad = sealed.clone();
        bad.push(0);
        assert!(matches!(unseal(&bad), Err(SnapshotError::TrailingBytes)));
    }

    #[test]
    fn hash_is_stable() {
        // Pin the FNV-1a constants: a silent change would orphan every
        // existing snapshot while still "verifying".
        assert_eq!(content_hash(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    /// The seal hash is XXH64 as published: the reference vectors, and
    /// every path through it (no stripe, one, several; the 8-, 4- and
    /// 1-byte tails) on the bytes `(31·i + 7) mod 256`.
    #[test]
    fn seal_hash_matches_the_xxh64_vectors() {
        assert_eq!(seal_hash(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(seal_hash(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(seal_hash(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            seal_hash(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        let bytes: Vec<u8> = (0..200u32).map(|i| (31 * i + 7) as u8).collect();
        for (len, want) in [
            (0, 0xef46db3751d8e999),
            (1, 0xa96c7f0ce858bbb7),
            (3, 0x56e6957632a487f9),
            (4, 0xc60d15b1e3ff8f04),
            (7, 0xafbefc3d6c6f9a8e),
            (8, 0x3da5c7aa269683e0),
            (15, 0xae2a37eb9357caa7),
            (31, 0x4a74f3a1a39ad4a1),
            (32, 0x8d57d6a4671cc43d),
            (33, 0x62c9fd21ed857664),
            (63, 0x5c320a0d2707057f),
            (64, 0x7bbabbc45729d17e),
            (100, 0xefa0ad2d3e70c151),
            (200, 0x95d9a0c977b4b6fb),
        ] {
            assert_eq!(seal_hash(&bytes[..len]), want, "length {len}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ssim-snap-test-{}", std::process::id()));
        let path = dir.join("t.snap");
        let sealed = seal(vec![1, 2, 3]);
        write_file(&path, &sealed).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
