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
//! JSON as the uninterrupted run, at any thread count, under any
//! equivalence-claiming scheduler).
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
//! hash     u64 LE    FNV-1a 64 over the payload bytes
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
/// fields and the wire's pacing section.
pub const FORMAT_VERSION: u32 = 4;

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

/// FNV-1a 64 over a byte slice — the snapshot content hash. Hand-rolled (no
/// external hash crates in the offline workspace); collision resistance is
/// not a goal, corruption *detection* is.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append-only byte sink the [`Persist`] implementations write into.
/// Unsigned integers are LEB128 varints (signed ones zigzag-folded first);
/// sequences are length-prefixed; full-entropy 64-bit words (`f64` bit
/// patterns, RNG state) use the fixed 8-byte [`Writer::raw64`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (`0`/`1`).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32` as a LEB128 varint (1 byte for values < 128).
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Write a `u64` as a LEB128 varint: 7 value bits per byte, low bits
    /// first, high bit of each byte marking continuation. Small values —
    /// the overwhelming majority of snapshot integers — cost one byte.
    pub fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write an `i64`, zigzag-folded (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`)
    /// so small-magnitude values of either sign stay short varints.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Write a full-entropy 64-bit word fixed-width little-endian. Varints
    /// cost 10 bytes on uniformly random values; RNG state and hash words
    /// go through here instead.
    pub fn raw64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round-trip; fixed
    /// 8 bytes — float bit patterns are not varint-friendly).
    pub fn f64(&mut self, v: f64) {
        self.raw64(v.to_bits());
    }

    /// Write a `usize` as a `u64` varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a sequence length prefix (a `u64` varint).
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool`; any byte other than `0`/`1` is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    /// Read a `u32` varint; values past `u32::MAX` are corruption.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("u32 overflow: {v}")))
    }

    /// Read a LEB128 `u64` varint. An unterminated varint is truncation; a
    /// varint overflowing 64 bits is corruption.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
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
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a fixed-width little-endian 64-bit word ([`Writer::raw64`]).
    pub fn raw64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `f64` from its fixed-width bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.raw64()?))
    }

    /// Read a `usize` (stored as `u64`); rejects values that cannot index
    /// this platform's memory.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read a sequence length prefix, sanity-bounded against the remaining
    /// bytes (each element needs ≥ 1 byte) so a corrupted length cannot
    /// trigger an enormous allocation.
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
            fn save(&self, w: &mut Writer) {
                w.$ty(*self);
            }
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
            fn save(&self, w: &mut $crate::snapshot::Writer) {
                $($crate::snapshot::Persist::save(&self.$field, w);)+
            }
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
    fn save(&self, w: &mut Writer) {
        for s in self.state() {
            w.raw64(s);
        }
    }
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
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Persist> Persist for Box<T> {
    fn save(&self, w: &mut Writer) {
        (**self).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        T::load(r).map(Box::new)
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.seq(self.len());
        for v in self {
            v.save(w);
        }
    }
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
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Frame a payload into the versioned, hash-verified container (see the
/// module docs for the layout).
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let hash = content_hash(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&hash.to_le_bytes());
    out
}

/// Verify a container (magic, version, length, content hash) and return
/// the payload slice. Nothing in the payload is interpreted before every
/// check passes.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let rest = &bytes[MAGIC.len()..];
    if rest.len() < 12 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(rest[..4].try_into().expect("4"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes(rest[4..12].try_into().expect("8"));
    let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
    let body = &rest[12..];
    if body.len() < len + 8 {
        return Err(SnapshotError::Truncated);
    }
    if body.len() > len + 8 {
        return Err(SnapshotError::TrailingBytes);
    }
    let payload = &body[..len];
    let expected = u64::from_le_bytes(body[len..].try_into().expect("8"));
    let actual = content_hash(payload);
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
