//! The versioned binary snapshot container (`.snap` files).
//!
//! A snapshot persists a fully prepared auxiliary corpus — posts,
//! per-post features, and the derived attack structures — so a serving
//! process reloads in milliseconds instead of re-extracting stylometric
//! features from every post. The container is hand-rolled (the build
//! environment has no crates.io access, hence no serde): little-endian
//! throughout, sectioned, and checksummed.
//!
//! ## File layout (byte-by-byte)
//!
//! One container version, [`VERSION`] 4, with a 16-byte header:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  b"DEHSNAP\n"
//!      8     2  format version, u16 LE (must be 4)
//!     10     2  section alignment, u16 LE (must be 8)
//!     12     4  section count, u32 LE
//!     16     …  sections, back to back
//! ```
//!
//! Every section carries the header's alignment guarantee: every
//! payload starts at a file offset that is a multiple of 8, so
//! 8-byte-aligned offsets *inside* a payload are 8-byte-aligned in the
//! file (and — because loaders back snapshots with page-aligned mappings
//! or `dehealth-mapped`'s `AlignedBytes`-style buffers — in memory,
//! which is what lets `u64`/`f64` arenas cast in place instead of being
//! copied out element by element):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!     +0     4  section tag (4 ASCII bytes, e.g. b"FORM")
//!     +4     4  padding (must be 0)
//!     +8     8  payload length `n`, u64 LE
//!    +16     n  payload                       (+16 ≡ 0 mod 8 in the file)
//!  +16+n     p  zero padding, p = (8 − n mod 8) mod 8
//! +16+n+p    8  XXH64 (seed 0) checksum of the payload, u64 LE
//! ```
//!
//! Versions 1 (unaligned sections), 2 (the same layout with FNV-1a
//! checksums) and 3 (quantized sections) are retired: their headers fail
//! with [`SnapshotError::UnsupportedVersion`].
//!
//! Payloads are themselves little-endian primitive streams written by
//! [`SectionBuf`] and read back by [`SectionReader`]: `u8`, `u32`, `u64`,
//! `f64` (IEEE-754 bit pattern, exact round-trip), length-prefixed
//! byte strings (`u32` length + bytes), and 8-byte-aligned scalar arrays ([`SectionBuf::align8`] /
//! [`SectionReader::align8`], zero padding validated on read). Higher
//! layers define the payload schema per tag — this crate ships the
//! [`Forum`] codec ([`encode_forum`] / [`decode_forum`]); `dehealth-core`
//! adds codecs for the derived structures (feature vectors, the attribute
//! index, the refined-DA arenas), and `dehealth-service` assembles them
//! into whole corpus snapshots. ARCHITECTURE.md documents the full
//! section set.
//!
//! ## Robustness contract
//!
//! Decoding never panics on malformed input: truncation, a bad magic,
//! an unsupported version, a checksum mismatch, nonzero padding, a
//! misaligned arena, or an inconsistent payload all surface as a typed
//! [`SnapshotError`] (`tests/snapshot_roundtrip.rs` pins this).
//! Round-trips are bit-exact: floats are stored as raw IEEE-754 bits, so
//! re-encoding a decoded snapshot reproduces the original bytes.
//!
//! Checksum verification can be skipped per parse
//! ([`ParseOptions::trusting`]) — the zero-copy load path does this so
//! reload cost is not dominated by a checksum sweep over arenas it never
//! copies; every structural invariant is still re-validated by the
//! decoders themselves.

use std::fmt;
use std::path::Path;

use crate::dataset::{Forum, Post};

mod xxh64;

pub use xxh64::xxh64;
use xxh64::Xxh64;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DEHSNAP\n";

/// The container format version: sections padded to 8 bytes so scalar
/// arenas can be cast in place (zero-copy loading), each checksummed with
/// [`xxh64`]. Any other version in a header is rejected with
/// [`SnapshotError::UnsupportedVersion`].
pub const VERSION: u16 = 4;

/// The alignment guarantee: every section payload starts at a file
/// offset that is a multiple of this.
pub const ALIGN: usize = 8;

/// A four-byte section identifier (ASCII by convention, e.g. `b"FORM"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionTag(pub [u8; 4]);

impl fmt::Display for SectionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        Ok(())
    }
}

/// Decode failure. Every malformed input maps to one of these variants —
/// snapshot loading never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header's version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The byte stream ended before the declared structure did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// The corrupted section.
        tag: SectionTag,
    },
    /// A required section is absent.
    MissingSection(SectionTag),
    /// A payload decoded but violates a schema invariant.
    Malformed {
        /// Which invariant failed.
        context: &'static str,
    },
    /// An arena that the format guarantees to be 8-byte aligned is not
    /// aligned in memory — the zero-copy cast was refused rather than
    /// performed unaligned.
    Misaligned {
        /// Which arena failed the alignment check.
        context: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in section {tag}")
            }
            SnapshotError::MissingSection(tag) => write!(f, "missing section {tag}"),
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            SnapshotError::Misaligned { context } => {
                write!(f, "misaligned snapshot arena: {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash: the digest of forum encodings (`repro scale`, the
/// generator-determinism test, the benchmark's input digest) and the
/// checksum of the service's retired `attack` frame codec, which the
/// benchmark still decodes. Snapshot sections are checksummed
/// with [`xxh64`] instead.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The destination of one section's payload, abstracted over *where* the
/// bytes go: an in-memory [`SectionBuf`] (the materializing path) or a
/// file-backed [`SectionStream`] (the streaming path, which never holds
/// the payload in memory). Section codecs written against this trait —
/// [`encode_forum`] and the `encode` methods in `dehealth-core` — emit
/// the identical byte sequence through either implementation, which is
/// what makes `save_streaming` bit-identical to `save`
/// (pinned by `streamed_snapshot_is_bit_identical`).
///
/// Only [`Self::put_raw`] and [`Self::len`] are required; every higher
/// primitive is a provided method defined in terms of them, so the two
/// sinks cannot drift apart encoding-wise.
pub trait SectionWrite {
    /// Append raw bytes to the payload.
    fn put_raw(&mut self, bytes: &[u8]);

    /// Payload length so far — the alignment cursor for [`Self::align8`].
    fn len(&self) -> usize;

    /// `true` if nothing has been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Append a `u32`, little-endian.
    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    ///
    /// # Panics
    /// Panics if `v` exceeds `u64::MAX` (impossible on supported targets).
    fn put_len(&mut self, v: usize) {
        self.put_u64(u64::try_from(v).expect("length overflows u64"));
    }

    /// Append an `f64` as its raw IEEE-754 bit pattern (exact round-trip,
    /// including `-0.0` and NaN payloads).
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string (`u32` length + bytes).
    ///
    /// # Panics
    /// Panics if `s` is longer than `u32::MAX` bytes.
    fn put_bytes(&mut self, s: &[u8]) {
        self.put_u32(u32::try_from(s.len()).expect("byte string longer than u32::MAX"));
        self.put_raw(s);
    }

    /// Pad with zero bytes until the payload offset is a multiple of
    /// [`ALIGN`] — the idiom before emitting a scalar arena.
    fn align8(&mut self) {
        while !self.len().is_multiple_of(ALIGN) {
            self.put_u8(0);
        }
    }

    /// Append a `u32` arena: [`Self::align8`], then each value
    /// little-endian, back to back.
    fn put_u32_arena(&mut self, values: &[u32]) {
        self.align8();
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Append a `u64` arena: [`Self::align8`], then each value
    /// little-endian, back to back.
    fn put_u64_arena(&mut self, values: &[u64]) {
        self.align8();
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Append an `f64` arena: [`Self::align8`], then each value as its
    /// raw IEEE-754 bit pattern, back to back.
    fn put_f64_arena(&mut self, values: &[f64]) {
        self.align8();
        for &v in values {
            self.put_f64(v);
        }
    }
}

impl SectionWrite for SectionBuf {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// A growable little-endian payload buffer for one section.
#[derive(Debug, Default)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// Empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    ///
    /// # Panics
    /// Panics if `v` exceeds `u64::MAX` (impossible on supported targets).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(u64::try_from(v).expect("length overflows u64"));
    }

    /// Append an `f64` as its raw IEEE-754 bit pattern (exact round-trip,
    /// including `-0.0` and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string (`u32` length + bytes).
    ///
    /// # Panics
    /// Panics if `s` is longer than `u32::MAX` bytes.
    pub fn put_bytes(&mut self, s: &[u8]) {
        self.put_u32(u32::try_from(s.len()).expect("byte string longer than u32::MAX"));
        self.bytes.extend_from_slice(s);
    }

    /// Pad with zero bytes until the payload offset is a multiple of
    /// [`ALIGN`] — the idiom before emitting a scalar arena, mirrored
    /// by [`SectionReader::align8`] on the way back in. Because
    /// payloads start 8-aligned in the file, this makes the arena's file
    /// offset (and hence, under an aligned backing, its address) 8-byte
    /// aligned.
    pub fn align8(&mut self) {
        while !self.bytes.len().is_multiple_of(ALIGN) {
            self.bytes.push(0);
        }
    }

    /// Append a `u32` arena: [`Self::align8`], then each value
    /// little-endian, back to back.
    pub fn put_u32_arena(&mut self, values: &[u32]) {
        self.align8();
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Append a `u64` arena: [`Self::align8`], then each value
    /// little-endian, back to back.
    pub fn put_u64_arena(&mut self, values: &[u64]) {
        self.align8();
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Append an `f64` arena: [`Self::align8`], then each value as its
    /// raw IEEE-754 bit pattern, back to back.
    pub fn put_f64_arena(&mut self, values: &[f64]) {
        self.align8();
        for &v in values {
            self.put_f64(v);
        }
    }

    /// Payload length so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Take the encoded payload out of the buffer — for embedding the
    /// codec's byte layout somewhere other than a snapshot container
    /// (the service's retired `attack` frame codec reuses
    /// [`encode_forum`] this way, with its own framing and checksum
    /// around it).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Serializes one snapshot: header plus a sequence of checksummed
/// sections.
///
/// ```
/// use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new();
/// let s = w.section(SectionTag(*b"DEMO"));
/// s.put_u32(7);
/// let bytes = w.finish();
/// let r = SnapshotReader::parse(&bytes).unwrap();
/// let mut s = r.section(SectionTag(*b"DEMO")).unwrap();
/// assert_eq!(s.take_u32().unwrap(), 7);
/// ```
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(SectionTag, SectionBuf)>,
}

impl SnapshotWriter {
    /// Writer with no sections yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start (or continue) the section `tag`, returning its payload
    /// buffer. Sections are written to the file in first-`section`-call
    /// order.
    pub fn section(&mut self, tag: SectionTag) -> &mut SectionBuf {
        if let Some(i) = self.sections.iter().position(|(t, _)| *t == tag) {
            return &mut self.sections[i].1;
        }
        self.sections.push((tag, SectionBuf::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Assemble the final byte stream (header, then each section with its
    /// length prefix, alignment padding, and trailing checksum).
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let payload: usize = self.sections.iter().map(|(_, b)| b.bytes.len() + 24 + ALIGN).sum();
        let mut out = Vec::with_capacity(16 + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(ALIGN as u16).to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(self.sections.len()).expect("too many sections").to_le_bytes(),
        );
        for (tag, buf) in &self.sections {
            out.extend_from_slice(&tag.0);
            out.extend_from_slice(&[0u8; 4]); // header padding
            out.extend_from_slice(&(buf.bytes.len() as u64).to_le_bytes());
            debug_assert!(out.len() % ALIGN == 0, "payload misaligned");
            out.extend_from_slice(&buf.bytes);
            while out.len() % ALIGN != 0 {
                out.push(0); // payload padding
            }
            out.extend_from_slice(&xxh64(&buf.bytes).to_le_bytes());
        }
        out
    }

    /// [`Self::finish`] and write the bytes to `path` atomically (temp
    /// sibling + `rename`), so a reader — or a live mapping — of an
    /// existing file at `path` never observes a truncated or partially
    /// written snapshot.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(self, path: &Path) -> Result<(), SnapshotError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.finish())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }
}

/// Streams a snapshot straight to a file, one section at a time,
/// without ever materializing a section payload in memory.
///
/// [`SnapshotWriter`] buffers every payload and assembles the final byte
/// stream in one allocation — fine at toy scale, but at 100k auxiliary
/// users the forum + feature sections alone are hundreds of megabytes,
/// and the materializing path briefly holds *two* copies (the buffers and
/// the assembled stream) on top of the corpus itself. This writer instead
/// appends each section's bytes to the file as the codec produces them,
/// computing the XXH64 checksum incrementally and seeking back to patch
/// the section's length field once the payload size is known (and the
/// header's section count at [`Self::finish`]).
///
/// The output is bit-identical to [`SnapshotWriter::finish`] for the same
/// sections in the same order — both sinks share the [`SectionWrite`]
/// encoding primitives. Like [`SnapshotWriter::write_to`], the bytes land
/// in a temporary sibling first and are `rename`d over the target on
/// [`Self::finish`], so a reader or live mapping of an existing snapshot
/// never observes a partial write; an abandoned (dropped) streamer
/// removes its temporary file.
#[derive(Debug)]
pub struct SnapshotStreamer {
    out: std::io::BufWriter<std::fs::File>,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
    /// Total bytes written so far (tracked, not queried — seeking a
    /// `BufWriter` flushes it, so the hot path never asks the file).
    offset: u64,
    n_sections: u32,
    committed: bool,
}

impl SnapshotStreamer {
    /// Open the temporary sibling of `path` and write the container
    /// header (with a zero section count, patched by [`Self::finish`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> Result<Self, SnapshotError> {
        use std::io::Write;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let file = std::fs::File::create(&tmp)?;
        let mut out = std::io::BufWriter::new(file);
        let header = || -> std::io::Result<()> {
            out.write_all(&MAGIC)?;
            out.write_all(&VERSION.to_le_bytes())?;
            out.write_all(&(ALIGN as u16).to_le_bytes())?;
            out.write_all(&0u32.to_le_bytes()) // section count placeholder
        }();
        if let Err(e) = header {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(Self { out, tmp, path: path.to_path_buf(), offset: 16, n_sections: 0, committed: false })
    }

    /// Write one section: the 16-byte section header, then whatever
    /// payload `fill` emits into the provided [`SectionStream`], then the
    /// alignment padding and checksum. Unlike [`SnapshotWriter::section`],
    /// sections are final once written — a tag cannot be continued later.
    ///
    /// # Errors
    /// Propagates filesystem errors (including any deferred from inside
    /// `fill` — see [`SectionStream`]).
    pub fn section<F>(&mut self, tag: SectionTag, fill: F) -> Result<(), SnapshotError>
    where
        F: FnOnce(&mut SectionStream<'_>),
    {
        use std::io::{Seek, SeekFrom, Write};
        debug_assert!(self.offset.is_multiple_of(ALIGN as u64), "section header misaligned");
        let len_at = self.offset + 8;
        self.out.write_all(&tag.0)?;
        self.out.write_all(&[0u8; 4])?; // header padding
        self.out.write_all(&0u64.to_le_bytes())?; // length placeholder
        let mut stream =
            SectionStream { out: &mut self.out, len: 0, hash: Xxh64::new(), err: None };
        fill(&mut stream);
        let (len, hash, err) = (stream.len, stream.hash.finish(), stream.err.take());
        if let Some(e) = err {
            return Err(e.into());
        }
        let pad = len.wrapping_neg() % ALIGN;
        self.out.write_all(&[0u8; ALIGN][..pad])?;
        self.out.write_all(&hash.to_le_bytes())?;
        let end = len_at + 8 + (len + pad) as u64 + 8;
        self.out.seek(SeekFrom::Start(len_at))?;
        self.out.write_all(&(len as u64).to_le_bytes())?;
        self.out.seek(SeekFrom::Start(end))?;
        self.offset = end;
        self.n_sections += 1;
        Ok(())
    }

    /// Patch the header's section count, flush, and atomically `rename`
    /// the temporary file over the target path.
    ///
    /// # Errors
    /// Propagates filesystem errors (the temporary file is removed on
    /// failure).
    pub fn finish(mut self) -> Result<(), SnapshotError> {
        use std::io::{Seek, SeekFrom, Write};
        let commit = |s: &mut Self| -> std::io::Result<()> {
            s.out.seek(SeekFrom::Start(12))?;
            s.out.write_all(&s.n_sections.to_le_bytes())?;
            s.out.flush()
        };
        commit(&mut self)?; // on Err: Drop removes the temp file
        std::fs::rename(&self.tmp, &self.path)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for SnapshotStreamer {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// The [`SectionWrite`] sink handed to [`SnapshotStreamer::section`]'s
/// closure: appends straight to the snapshot file while folding every
/// byte into the running XXH64 checksum (whose 32-byte stripe buffer
/// carries partial stripes between writes).
///
/// [`SectionWrite`] methods are infallible by design (codecs stay free of
/// error plumbing), so an I/O failure mid-payload is *deferred*: the
/// first error is stored, subsequent writes become no-ops, and
/// [`SnapshotStreamer::section`] surfaces the error after the closure
/// returns.
#[derive(Debug)]
pub struct SectionStream<'a> {
    out: &'a mut std::io::BufWriter<std::fs::File>,
    len: usize,
    hash: Xxh64,
    err: Option<std::io::Error>,
}

impl SectionWrite for SectionStream<'_> {
    fn put_raw(&mut self, bytes: &[u8]) {
        use std::io::Write;
        if self.err.is_some() {
            return;
        }
        self.hash.update(bytes);
        match self.out.write_all(bytes) {
            Ok(()) => self.len += bytes.len(),
            Err(e) => self.err = Some(e),
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Parse-time knobs for [`SnapshotReader::parse_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOptions {
    /// Verify every section's XXH64 checksum (the default). The
    /// zero-copy load path turns this off: a checksum sweep over arenas it
    /// never copies would re-linearize a load whose whole point is to
    /// not touch them, and every structural invariant is still
    /// re-validated by the section decoders.
    pub verify_checksums: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self { verify_checksums: true }
    }
}

impl ParseOptions {
    /// Options that skip checksum verification (structure is still fully
    /// validated).
    #[must_use]
    pub fn trusting() -> Self {
        Self { verify_checksums: false }
    }
}

/// A parsed snapshot: header validated, every section located, padding
/// validated, and (by default) checksum-verified up front.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<(SectionTag, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Validate the header and index every section of `bytes`, verifying
    /// all checksums.
    ///
    /// # Errors
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`], [`SnapshotError::Malformed`] (bad
    /// padding) or [`SnapshotError::ChecksumMismatch`] on malformed
    /// input; never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        Self::parse_with(bytes, &ParseOptions::default())
    }

    /// [`Self::parse`] with explicit [`ParseOptions`].
    ///
    /// # Errors
    /// Like [`Self::parse`] (checksum mismatches only surface when
    /// `options.verify_checksums` is set).
    pub fn parse_with(bytes: &'a [u8], options: &ParseOptions) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            // A short file cannot contain the magic either way.
            return Err(if bytes.len() < MAGIC.len() && MAGIC.starts_with(bytes) {
                SnapshotError::Truncated { context: "header magic" }
            } else {
                SnapshotError::BadMagic
            });
        }
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if u16::from_le_bytes([bytes[10], bytes[11]]) != ALIGN as u16 {
            return Err(SnapshotError::Malformed { context: "unsupported section alignment" });
        }
        let n_sections = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let mut sections = Vec::with_capacity(n_sections.min(64));
        let mut at = 16usize;
        for _ in 0..n_sections {
            if bytes.len() < at + 16 {
                return Err(SnapshotError::Truncated { context: "section header" });
            }
            let tag = SectionTag([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
            if bytes[at + 4..at + 8] != [0u8; 4] {
                return Err(SnapshotError::Malformed { context: "nonzero section header padding" });
            }
            let len_bytes: [u8; 8] =
                bytes[at + 8..at + 16].try_into().expect("slice is 8 bytes long");
            let len = u64::from_le_bytes(len_bytes);
            let Ok(len) = usize::try_from(len) else {
                return Err(SnapshotError::Truncated { context: "section payload" });
            };
            at += 16;
            // Checked arithmetic throughout: a corrupt length near
            // usize::MAX must fail the bounds test, not wrap it into a
            // panic.
            let payload_end = at
                .checked_add(len)
                .ok_or(SnapshotError::Truncated { context: "section payload" })?;
            let pad = len.wrapping_neg() % ALIGN;
            let padded_end = payload_end
                .checked_add(pad)
                .ok_or(SnapshotError::Truncated { context: "section payload" })?;
            let end = padded_end
                .checked_add(8)
                .ok_or(SnapshotError::Truncated { context: "section payload" })?;
            if bytes.len() < end {
                return Err(SnapshotError::Truncated { context: "section payload" });
            }
            debug_assert!(at.is_multiple_of(ALIGN), "payload misaligned");
            let payload = &bytes[at..payload_end];
            if bytes[payload_end..padded_end].iter().any(|&b| b != 0) {
                return Err(SnapshotError::Malformed { context: "nonzero section padding" });
            }
            if options.verify_checksums {
                let check_bytes: [u8; 8] =
                    bytes[padded_end..end].try_into().expect("slice is 8 bytes long");
                if xxh64(payload) != u64::from_le_bytes(check_bytes) {
                    return Err(SnapshotError::ChecksumMismatch { tag });
                }
            }
            sections.push((tag, payload));
            at = end;
        }
        Ok(Self { sections })
    }

    /// Tags present, in file order.
    #[must_use]
    pub fn tags(&self) -> Vec<SectionTag> {
        self.sections.iter().map(|&(t, _)| t).collect()
    }

    /// Open the payload of section `tag` for reading.
    ///
    /// # Errors
    /// [`SnapshotError::MissingSection`] if the section is absent.
    pub fn section(&self, tag: SectionTag) -> Result<SectionReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, payload)| SectionReader { bytes: payload, at: 0, tag })
            .ok_or(SnapshotError::MissingSection(tag))
    }
}

/// Cursor over one section's payload, mirroring [`SectionBuf`]'s
/// primitives. Every `take_*` checks bounds and returns
/// [`SnapshotError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    at: usize,
    tag: SectionTag,
}

impl<'a> SectionReader<'a> {
    /// Open a cursor over a raw payload that did **not** come out of a
    /// snapshot container — the inverse of [`SectionBuf::into_bytes`].
    /// The caller owns integrity (the container's per-section checksum
    /// does not apply); `tag` only labels error messages.
    #[must_use]
    pub fn standalone(bytes: &'a [u8], tag: SectionTag) -> Self {
        Self { bytes, at: 0, tag }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.at < n {
            return Err(SnapshotError::Truncated { context });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read `n` raw bytes — the inverse of [`SectionWrite::put_raw`], for
    /// decoders that parse a run of fixed-size records in one bounds
    /// check.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] when fewer than `n` bytes remain.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n, "raw bytes")
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let b: [u8; 4] = self.take(4, "u32")?.try_into().expect("slice is 4 bytes long");
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let b: [u8; 8] = self.take(8, "u64")?.try_into().expect("slice is 8 bytes long");
        Ok(u64::from_le_bytes(b))
    }

    /// Read a length written by [`SectionBuf::put_len`], bounded by
    /// `limit` (a consistency cap derived from the remaining payload, so
    /// a corrupted length cannot trigger an absurd allocation).
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload;
    /// [`SnapshotError::Malformed`] when the length exceeds `limit`.
    pub fn take_len(&mut self, limit: usize) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        match usize::try_from(v) {
            Ok(v) if v <= limit => Ok(v),
            _ => Err(SnapshotError::Malformed { context: "implausible length" }),
        }
    }

    /// Read an `f64` stored as its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed byte string.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_u32()? as usize;
        self.take(n, "byte string")
    }

    /// Skip the zero padding [`SectionBuf::align8`] wrote, validating it.
    /// Afterwards the cursor's payload offset is a multiple of [`ALIGN`]
    /// — and, under an 8-byte-aligned backing, so is
    /// the absolute address of whatever follows.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] at end of payload;
    /// [`SnapshotError::Malformed`] when a padding byte is nonzero (a
    /// corrupt or misframed arena).
    pub fn align8(&mut self) -> Result<(), SnapshotError> {
        let pad = self.at.wrapping_neg() % ALIGN;
        if pad != 0 {
            let bytes = self.take(pad, "alignment padding")?;
            if bytes.iter().any(|&b| b != 0) {
                return Err(SnapshotError::Malformed { context: "nonzero alignment padding" });
            }
        }
        Ok(())
    }

    /// [`Self::align8`], then take a raw `n`-byte arena. The returned
    /// slice starts at an [`ALIGN`]-multiple payload offset; whether that
    /// makes its *address* castable depends on the backing's base
    /// alignment, which the caller's cast re-checks.
    ///
    /// # Errors
    /// Like [`Self::align8`], plus [`SnapshotError::Truncated`] when
    /// fewer than `n` bytes remain.
    pub fn take_arena(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.align8()?;
        self.take(n, "aligned arena")
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Assert the payload was consumed exactly.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] when trailing bytes remain — a schema
    /// mismatch even if everything read so far decoded cleanly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed { context: "trailing bytes in section" })
        }
    }

    /// The section this cursor reads.
    #[must_use]
    pub fn tag(&self) -> SectionTag {
        self.tag
    }
}

/// Encode a [`Forum`] into `buf`: user/thread counts, then each post as
/// `(author u32, thread u32, text bytes)`.
///
/// Only the attack-relevant state is persisted — posts and their
/// author/thread structure. The generation-time metadata (`thread_board`,
/// `thread_topic`) is simulator provenance and is dropped, exactly as
/// [`Forum::from_posts`] drops it for split-built forums.
///
/// # Panics
/// Panics if the forum has more than `u32::MAX` users, threads or posts
/// (far beyond any supported corpus).
pub fn encode_forum<W: SectionWrite>(forum: &Forum, buf: &mut W) {
    buf.put_u32(u32::try_from(forum.n_users).expect("user count overflows u32"));
    buf.put_u32(u32::try_from(forum.n_threads).expect("thread count overflows u32"));
    buf.put_u32(u32::try_from(forum.posts.len()).expect("post count overflows u32"));
    for post in &forum.posts {
        buf.put_u32(u32::try_from(post.author).expect("author id overflows u32"));
        buf.put_u32(u32::try_from(post.thread).expect("thread id overflows u32"));
        buf.put_bytes(post.text.as_bytes());
    }
}

/// Decode a [`Forum`] written by [`encode_forum`], rebuilding the
/// per-user post index via [`Forum::from_posts`].
///
/// Decoding and every later use of the forum allocate per declared user
/// and thread, so both counts are bounded by the bytes left in the
/// section: a 12-byte payload cannot ask for `u32::MAX` users.
///
/// # Errors
/// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`] on
/// malformed payloads (a user or thread count above the section's
/// remaining bytes, out-of-range author/thread ids, invalid UTF-8).
pub fn decode_forum(r: &mut SectionReader<'_>) -> Result<Forum, SnapshotError> {
    let carrier = r.remaining();
    let n_users = r.take_u32()? as usize;
    let n_threads = r.take_u32()? as usize;
    if n_users > carrier || n_threads > carrier {
        return Err(SnapshotError::Malformed { context: "implausible user or thread count" });
    }
    let n_posts = r.take_u32()? as usize;
    if n_posts > r.remaining() / 12 {
        // Each post needs ≥ 12 bytes (two ids + text length prefix).
        return Err(SnapshotError::Malformed { context: "implausible post count" });
    }
    let mut posts = Vec::with_capacity(n_posts);
    for _ in 0..n_posts {
        let author = r.take_u32()? as usize;
        let thread = r.take_u32()? as usize;
        if author >= n_users || thread >= n_threads {
            return Err(SnapshotError::Malformed { context: "post references out of range" });
        }
        let text = std::str::from_utf8(r.take_bytes()?)
            .map_err(|_| SnapshotError::Malformed { context: "post text is not UTF-8" })?
            .to_string();
        posts.push(Post { author, thread, text });
    }
    Ok(Forum::from_posts(n_users, n_threads, posts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ForumConfig;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapshotWriter::new();
        let s = w.section(SectionTag(*b"TEST"));
        s.put_u8(7);
        s.put_u32(123_456);
        s.put_u64(u64::MAX - 3);
        s.put_f64(-0.0);
        s.put_f64(std::f64::consts::PI);
        s.put_bytes(b"hello \xf0\x9f\x8c\x8d");
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(SectionTag(*b"TEST")).unwrap();
        assert_eq!(s.take_u8().unwrap(), 7);
        assert_eq!(s.take_u32().unwrap(), 123_456);
        assert_eq!(s.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(s.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.take_f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(s.take_bytes().unwrap(), b"hello \xf0\x9f\x8c\x8d");
        s.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_u8(1);
        let mut bytes = w.finish();
        bytes[0] = b'X';
        assert!(matches!(SnapshotReader::parse(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_detected() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_u8(1);
        let mut bytes = w.finish();
        assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), VERSION);
        for version in [1u16, 2, 3, 99] {
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                SnapshotReader::parse(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let mut w = SnapshotWriter::new();
        let s = w.section(SectionTag(*b"AAAA"));
        s.put_u64(42);
        s.put_bytes(b"payload");
        let bytes = w.finish();
        for n in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..n]);
            assert!(
                matches!(
                    err,
                    Err(SnapshotError::Truncated { .. })
                        | Err(SnapshotError::BadMagic)
                        | Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "prefix of {n} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn near_max_section_length_is_truncation_not_panic() {
        // A crafted section length close to u64::MAX must fail the bounds
        // check via checked arithmetic instead of wrapping into a
        // slice-index panic (release) or overflow panic (debug). The
        // section length lives at file offset 24..32 (after the 16-byte
        // file header, 4-byte tag and 4-byte header padding).
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_bytes(b"payload");
        let mut bytes = w.finish();
        for evil in [u64::MAX, u64::MAX - 16, u64::MAX - 28, u64::MAX - 32] {
            bytes[24..32].copy_from_slice(&evil.to_le_bytes());
            assert!(matches!(
                SnapshotReader::parse(&bytes),
                Err(SnapshotError::Truncated { context: "section payload" })
            ));
        }
    }

    #[test]
    fn checksum_mismatch_detected() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_bytes(b"some payload");
        let mut bytes = w.finish();
        // Flip one payload byte (past the 16-byte header + 16-byte
        // section header).
        bytes[34] ^= 0xff;
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::ChecksumMismatch { tag }) => assert_eq!(tag.0, *b"AAAA"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // The trusting parse (zero-copy path) skips the checksum sweep;
        // structural validation still happens in the decoders.
        let r = SnapshotReader::parse_with(&bytes, &ParseOptions::trusting()).unwrap();
        assert!(r.section(SectionTag(*b"AAAA")).is_ok());
    }

    #[test]
    fn sections_are_eight_byte_aligned_in_the_file() {
        // Sweep deliberately awkward payload lengths; every payload must
        // start at a file offset that is a multiple of 8, with validated
        // zero padding in between.
        let mut w = SnapshotWriter::new();
        for (i, len) in [1usize, 7, 8, 13, 24].iter().enumerate() {
            let tag = SectionTag([b'S', b'0' + i as u8, b' ', b' ']);
            for b in 0..*len {
                w.section(tag).put_u8(b as u8);
            }
        }
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        for (i, len) in [1usize, 7, 8, 13, 24].iter().enumerate() {
            let tag = SectionTag([b'S', b'0' + i as u8, b' ', b' ']);
            let mut s = r.section(tag).unwrap();
            assert_eq!(s.remaining(), *len);
            // Payload offset within the file is 8-aligned (pure pointer
            // arithmetic against the parse input).
            let payload = s.take(*len, "payload").unwrap();
            let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
            assert_eq!(offset % ALIGN, 0, "section {i} payload at offset {offset}");
        }
    }

    #[test]
    fn nonzero_section_padding_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_u8(1); // 1-byte payload, 7 pad bytes
        let mut bytes = w.finish();
        bytes[33] = 0xee; // first padding byte (payload is at 32..33)
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(SnapshotError::Malformed { context: "nonzero section padding" })
        ));
        // Nonzero *header* padding is equally rejected.
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_u8(1);
        let mut bytes = w.finish();
        bytes[21] = 0x01; // section header padding at 20..24
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(SnapshotError::Malformed { context: "nonzero section header padding" })
        ));
    }

    #[test]
    fn arena_helpers_roundtrip_with_validated_padding() {
        let mut w = SnapshotWriter::new();
        let s = w.section(SectionTag(*b"ARNA"));
        s.put_u8(1); // misalign the cursor on purpose
        s.put_u32_arena(&[1, 2, 3]);
        s.put_u8(9); // misalign again
        s.put_u64_arena(&[u64::MAX, 0]);
        s.put_f64_arena(&[-0.0, std::f64::consts::E]);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(SectionTag(*b"ARNA")).unwrap();
        assert_eq!(s.take_u8().unwrap(), 1);
        let arena = s.take_arena(12).unwrap();
        assert_eq!(arena, [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>());
        assert_eq!(s.take_u8().unwrap(), 9);
        s.align8().unwrap();
        assert_eq!(s.take_u64().unwrap(), u64::MAX);
        assert_eq!(s.take_u64().unwrap(), 0);
        assert_eq!(s.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.take_f64().unwrap(), std::f64::consts::E);
        s.expect_end().unwrap();
    }

    #[test]
    fn nonzero_alignment_padding_inside_a_payload_is_rejected() {
        let mut w = SnapshotWriter::new();
        let s = w.section(SectionTag(*b"ARNA"));
        s.put_u8(1);
        s.put_u64_arena(&[42]);
        let mut bytes = w.finish();
        // Payload layout: byte, 7 pad bytes, u64. Corrupt a pad byte and
        // fix the checksum so the padding check itself must fire.
        bytes[32 + 3] = 0x77;
        let payload_len = 16usize;
        let sum = xxh64(&bytes[32..32 + payload_len]);
        let at = 32 + payload_len; // already 8-aligned: no section padding
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(SectionTag(*b"ARNA")).unwrap();
        assert_eq!(s.take_u8().unwrap(), 1);
        assert!(matches!(
            s.align8(),
            Err(SnapshotError::Malformed { context: "nonzero alignment padding" })
        ));
    }

    #[test]
    fn missing_section_detected() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"AAAA")).put_u8(1);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(
            r.section(SectionTag(*b"BBBB")),
            Err(SnapshotError::MissingSection(t)) if t.0 == *b"BBBB"
        ));
    }

    #[test]
    fn sections_keep_file_order_and_identity() {
        let mut w = SnapshotWriter::new();
        w.section(SectionTag(*b"ONE ")).put_u8(1);
        w.section(SectionTag(*b"TWO ")).put_u8(2);
        w.section(SectionTag(*b"ONE ")).put_u8(3); // continue first section
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.tags(), vec![SectionTag(*b"ONE "), SectionTag(*b"TWO ")]);
        let mut one = r.section(SectionTag(*b"ONE ")).unwrap();
        assert_eq!(one.tag(), SectionTag(*b"ONE "));
        assert_eq!((one.take_u8().unwrap(), one.take_u8().unwrap()), (1, 3));
    }

    #[test]
    fn forum_roundtrip_is_bit_exact() {
        let forum = Forum::generate(&ForumConfig::tiny(), 11);
        let mut w = SnapshotWriter::new();
        encode_forum(&forum, w.section(SectionTag(*b"FORM")));
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(SectionTag(*b"FORM")).unwrap();
        let back = decode_forum(&mut s).unwrap();
        s.expect_end().unwrap();
        assert_eq!(back.n_users, forum.n_users);
        assert_eq!(back.n_threads, forum.n_threads);
        assert_eq!(back.posts.len(), forum.posts.len());
        for (a, b) in back.posts.iter().zip(&forum.posts) {
            assert_eq!((a.author, a.thread, &a.text), (b.author, b.thread, &b.text));
        }
        // Re-encoding the decoded forum reproduces the same bytes.
        let mut w2 = SnapshotWriter::new();
        encode_forum(&back, w2.section(SectionTag(*b"FORM")));
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn streamed_snapshot_is_bit_identical() {
        // Awkward payload lengths on purpose: the streamer's padding,
        // incremental checksum and seek-back length patch must all agree
        // with the materializing writer byte for byte.
        let payloads: &[(SectionTag, usize)] = &[
            (SectionTag(*b"ONE "), 1),
            (SectionTag(*b"TWO "), 13),
            (SectionTag(*b"THRE"), 0),
            (SectionTag(*b"FOUR"), 24),
        ];
        let fill = |w: &mut dyn FnMut(&[u8]), len: usize| {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            w(&bytes);
        };
        let mut reference = SnapshotWriter::new();
        for &(tag, len) in payloads {
            let s = reference.section(tag);
            fill(&mut |b| SectionWrite::put_raw(s, b), len);
            s.put_u32_arena(&[7, 8, 9]);
            s.put_bytes(b"tail");
        }
        let reference = reference.finish();

        let path = std::env::temp_dir().join("dehealth-streamer-parity-test.snap");
        let mut streamer = SnapshotStreamer::create(&path).unwrap();
        for &(tag, len) in payloads {
            streamer
                .section(tag, |s| {
                    fill(&mut |b| s.put_raw(b), len);
                    s.put_u32_arena(&[7, 8, 9]);
                    s.put_bytes(b"tail");
                })
                .unwrap();
        }
        streamer.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(streamed, reference);
        // And the streamed file parses with full checksum verification.
        let r = SnapshotReader::parse(&streamed).unwrap();
        assert_eq!(r.tags().len(), payloads.len());
    }

    #[test]
    fn abandoned_streamer_removes_its_temp_file() {
        let path = std::env::temp_dir().join("dehealth-streamer-abandon-test.snap");
        let tmp = {
            let mut streamer = SnapshotStreamer::create(&path).unwrap();
            streamer.section(SectionTag(*b"AAAA"), |s| s.put_u8(1)).unwrap();
            std::path::PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()))
            // streamer dropped here without finish()
        };
        assert!(!tmp.exists(), "temp file left behind");
        assert!(!path.exists(), "target written without finish");
    }

    #[test]
    fn forum_decode_rejects_out_of_range_references() {
        let forum =
            Forum::from_posts(2, 1, vec![Post { author: 1, thread: 0, text: "hi there".into() }]);
        let mut w = SnapshotWriter::new();
        encode_forum(&forum, w.section(SectionTag(*b"FORM")));
        let mut bytes = w.finish();
        // Patch the stored user count down to 1 so the author id 1 is out
        // of range (n_users is the first u32 of the payload at offset 32).
        bytes[32..36].copy_from_slice(&1u32.to_le_bytes());
        // Fix the checksum so the schema check, not the checksum, fires.
        let payload_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let sum = xxh64(&bytes[32..32 + payload_len]);
        let at = 32 + payload_len + payload_len.wrapping_neg() % ALIGN;
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(SectionTag(*b"FORM")).unwrap();
        assert!(matches!(
            decode_forum(&mut s),
            Err(SnapshotError::Malformed { context: "post references out of range" })
        ));
    }
}
