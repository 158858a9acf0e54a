#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! # dehealth-mapped
//!
//! Read-only file mapping plus alignment-checked little-endian slice
//! casts — the foundation of the workspace's zero-copy snapshot loading.
//!
//! The rest of the workspace denies `unsafe_code` outright; this shim is
//! the one crate allowed to contain it, and it confines every unsafe
//! operation behind three small safe APIs:
//!
//! - [`MappedFile`] — a read-only file mapping created with raw
//!   `mmap`/`munmap` calls (no crates.io dependency), exposed as
//!   `Deref<Target = [u8]>`.
//! - [`AlignedBytes`] — an owned byte buffer whose base address is always
//!   8-byte aligned (it is backed by a `Vec<u64>`), so format-level
//!   alignment guarantees translate into *address*-level alignment for
//!   in-memory snapshots too.
//! - [`LePod`] + [`ByteSource`] — sealed POD slice casts
//!   (`&[u8] → &[T]` for `T ∈ {u8, u32, u64, f64}`) that check pointer
//!   alignment and length, and refuse entirely on big-endian targets
//!   (where the on-disk little-endian layout does not match memory and
//!   callers must fall back to copying decoders).
//!
//! ## The standard mmap caveat
//!
//! A [`MappedFile`] reflects whatever the underlying file holds *now*: if
//! another process truncates the file while it is mapped, reads past the
//! new end can fault. The snapshot tooling treats snapshot files as
//! immutable once written — writers publish atomically (temp sibling
//! file + `rename`), so overwriting a path never truncates the inode an
//! existing mapping borrows — which is the same contract every
//! mmap-based store carries.

use std::fmt;
use std::io;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::Arc;

/// Shared ownership of a loaded byte buffer — what zero-copy views clone
/// to keep their backing alive (the "owner" half of the owner-plus-view
/// split; the views hold `(SharedBytes, Range<usize>)` pairs instead of
/// self-referential slices).
pub type SharedBytes = Arc<ByteSource>;

/// An owned byte buffer with a guaranteed 8-byte-aligned base address.
///
/// Backed by a `Vec<u64>`, so casts of 8-byte-aligned *offsets* into the
/// buffer to `&[u64]`/`&[f64]` always succeed — which a plain `Vec<u8>`
/// (alignment 1) cannot promise.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copy `bytes` into a fresh 8-byte-aligned buffer.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self::from_slice(&bytes)
    }

    /// Copy `bytes` into a fresh 8-byte-aligned buffer.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut out = Self::zeroed(bytes.len());
        out.as_mut_bytes()[..bytes.len()].copy_from_slice(bytes);
        out
    }

    fn zeroed(len: usize) -> Self {
        Self { words: vec![0u64; len.div_ceil(8)], len }
    }

    fn as_mut_bytes(&mut self) -> &mut [u8] {
        // SAFETY: the Vec<u64> owns `len.div_ceil(8) * 8 >= len`
        // initialized bytes; u8 has alignment 1, and the mutable borrow of
        // `self` makes the reborrow exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

impl Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: the Vec<u64> owns at least `len` initialized bytes and
        // u8 has alignment 1; the lifetime is tied to `&self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

impl AsRef<[u8]> for AlignedBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBytes").field("len", &self.len).finish()
    }
}

mod sys {
    //! The two raw syscall bindings this crate exists to confine. Declared
    //! directly against the platform libc (which every Rust binary already
    //! links) — the workspace has no crates.io access, hence no `libc`
    //! crate.
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `MAP_FAILED` is `(void *) -1`.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only memory-mapped file (see the [module docs](self)).
///
/// The bytes live in the page cache, shared with every other process
/// mapping the same file. The base address is page aligned (8-byte
/// aligned for an empty file), so the snapshot format's 8-byte offset
/// guarantees hold as address guarantees.
///
/// ```no_run
/// use dehealth_mapped::MappedFile;
/// let mapping = MappedFile::open(std::path::Path::new("corpus.snap")).unwrap();
/// assert_eq!(&mapping[..8], b"DEHSNAP\n");
/// ```
pub struct MappedFile {
    inner: MappedInner,
}

enum MappedInner {
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    /// A zero-length file, which `mmap` refuses to map.
    Empty(AlignedBytes),
}

// SAFETY: a mapping is immutable shared memory for its whole lifetime
// (PROT_READ, and this crate never exposes a mutable view); sending or
// sharing the handle across threads cannot introduce data races. The
// empty variant is an ordinary owned buffer.
unsafe impl Send for MappedFile {}
// SAFETY: see the Send impl — all access is read-only.
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Map `path` read-only.
    ///
    /// # Errors
    /// Propagates filesystem/`mmap` errors.
    pub fn open(path: &Path) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd as _;
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::other("file too large for this address space"))?;
        if len == 0 {
            // mmap rejects zero-length mappings; an empty buffer is
            // semantically identical.
            return Ok(Self { inner: MappedInner::Empty(AlignedBytes::from_slice(&[])) });
        }
        // SAFETY: a fresh anonymous-address read-only private mapping of
        // an open fd; length is the current file size. The fd may be
        // closed afterwards — the mapping keeps the pages alive.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { inner: MappedInner::Mapped { ptr: ptr.cast_const().cast(), len } })
    }

    /// `true` when the bytes are a real `mmap` mapping (sharing the page
    /// cache), `false` for an empty file.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, MappedInner::Mapped { .. })
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        if let MappedInner::Mapped { ptr, len } = &self.inner {
            // SAFETY: `ptr/len` came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                let _ = sys::munmap((*ptr).cast_mut().cast(), *len);
            }
        }
    }
}

impl Deref for MappedFile {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            MappedInner::Mapped { ptr, len } => {
                // SAFETY: the mapping covers `len` readable bytes for the
                // lifetime of `self` (unmapped only in Drop).
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            MappedInner::Empty(bytes) => bytes,
        }
    }
}

impl AsRef<[u8]> for MappedFile {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// One loaded snapshot's backing bytes: a real mapping or an owned
/// aligned buffer, behind one type so views need not care.
#[derive(Debug)]
pub enum ByteSource {
    /// A [`MappedFile`].
    Mapped(MappedFile),
    /// An owned 8-byte-aligned buffer.
    Owned(AlignedBytes),
}

impl ByteSource {
    /// Map `path` and wrap it for sharing.
    ///
    /// # Errors
    /// Propagates filesystem/`mmap` errors.
    pub fn map(path: &Path) -> io::Result<SharedBytes> {
        Ok(Arc::new(Self::Mapped(MappedFile::open(path)?)))
    }

    /// Wrap an in-memory byte buffer (copied into aligned storage).
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> SharedBytes {
        Arc::new(Self::Owned(AlignedBytes::from_vec(bytes)))
    }

    /// The loaded bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        match self {
            ByteSource::Mapped(m) => m,
            ByteSource::Owned(b) => b,
        }
    }

    /// `true` when the bytes come from a real `mmap` mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match self {
            ByteSource::Mapped(m) => m.is_mapped(),
            ByteSource::Owned(_) => false,
        }
    }
}

impl AsRef<[u8]> for ByteSource {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Plain-old-data scalars stored little-endian on disk, castable straight
/// out of a byte buffer. Sealed: exactly `u8`, `u32`, `u64` and `f64` —
/// every bit pattern of each is a valid value, which is what makes the
/// cast sound.
pub trait LePod: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Reinterpret `bytes` as a slice of `Self` without copying.
    ///
    /// Returns `None` when the pointer is not aligned for `Self`, when
    /// the length is not a multiple of `size_of::<Self>()`, or on
    /// big-endian targets (where the little-endian disk layout does not
    /// match memory) — callers fall back to a copying decode.
    fn cast_slice(bytes: &[u8]) -> Option<&[Self]>;
}

fn cast_pod<T: sealed::Sealed + Copy>(bytes: &[u8]) -> Option<&[T]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    let size = std::mem::size_of::<T>();
    if bytes.len() % size != 0 || (bytes.as_ptr() as usize) % std::mem::align_of::<T>() != 0 {
        return None;
    }
    // SAFETY: alignment and length are checked above; `T` is one of the
    // sealed POD scalars (no invalid bit patterns, no padding); on
    // little-endian targets the disk byte order equals the memory byte
    // order; the returned slice inherits `bytes`' lifetime and
    // immutability.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

impl LePod for u8 {
    fn cast_slice(bytes: &[u8]) -> Option<&[Self]> {
        Some(bytes)
    }
}
impl LePod for u32 {
    fn cast_slice(bytes: &[u8]) -> Option<&[Self]> {
        cast_pod(bytes)
    }
}
impl LePod for u64 {
    fn cast_slice(bytes: &[u8]) -> Option<&[Self]> {
        cast_pod(bytes)
    }
}
impl LePod for f64 {
    fn cast_slice(bytes: &[u8]) -> Option<&[Self]> {
        cast_pod(bytes)
    }
}

/// The byte range `child` occupies within `parent`, or `None` when
/// `child` is not a subslice of `parent`. Pure pointer arithmetic — this
/// is how decoders turn a borrowed section subslice into a stable
/// `(SharedBytes, Range)` pair that outlives the borrow.
#[must_use]
pub fn subrange(parent: &[u8], child: &[u8]) -> Option<Range<usize>> {
    let parent_start = parent.as_ptr() as usize;
    let child_start = child.as_ptr() as usize;
    let start = child_start.checked_sub(parent_start)?;
    let end = start.checked_add(child.len())?;
    (end <= parent.len()).then_some(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let aligned = AlignedBytes::from_vec(data.clone());
            assert_eq!(&*aligned, &data[..]);
            assert_eq!(aligned.as_ptr() as usize % 8, 0, "base must be 8-aligned");
        }
    }

    #[test]
    fn mapped_file_matches_read() {
        let path = std::env::temp_dir().join("dehealth-mapped-test.bin");
        let data: Vec<u8> = (0..10_000u32).flat_map(u32::to_le_bytes).collect();
        std::fs::write(&path, &data).unwrap();
        let mapping = MappedFile::open(&path).unwrap();
        assert_eq!(&*mapping, &data[..]);
        assert!(mapping.is_mapped());
        drop(mapping);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let path = std::env::temp_dir().join("dehealth-mapped-empty.bin");
        std::fs::write(&path, b"").unwrap();
        let mapping = MappedFile::open(&path).unwrap();
        assert!(mapping.is_empty());
        drop(mapping);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn casts_check_alignment_and_length() {
        let aligned = AlignedBytes::from_vec((0..64u8).collect());
        let bytes: &[u8] = &aligned;
        assert_eq!(u64::cast_slice(&bytes[..32]).map(<[u64]>::len), Some(4));
        assert_eq!(u32::cast_slice(&bytes[..32]).map(<[u32]>::len), Some(8));
        assert_eq!(f64::cast_slice(&bytes[..16]).map(<[f64]>::len), Some(2));
        // Misaligned base.
        assert!(u64::cast_slice(&bytes[4..36]).is_none());
        assert!(u32::cast_slice(&bytes[1..33]).is_none());
        // Length not a multiple of the element size.
        assert!(u64::cast_slice(&bytes[..12]).is_none());
        // u8 always casts.
        assert!(u8::cast_slice(&bytes[3..7]).is_some());
    }

    #[test]
    fn cast_values_are_little_endian() {
        let aligned = AlignedBytes::from_vec(0x0102_0304_0506_0708u64.to_le_bytes().to_vec());
        let words = u64::cast_slice(&aligned).unwrap();
        assert_eq!(words, &[0x0102_0304_0506_0708]);
        let halves = u32::cast_slice(&aligned).unwrap();
        assert_eq!(halves, &[0x0506_0708, 0x0102_0304]);
    }

    #[test]
    fn subrange_finds_children_and_rejects_strangers() {
        let buf = AlignedBytes::from_vec(vec![0u8; 100]);
        let parent: &[u8] = &buf;
        assert_eq!(subrange(parent, &parent[10..30]), Some(10..30));
        assert_eq!(subrange(parent, &parent[..0]), Some(0..0));
        assert_eq!(subrange(parent, &parent[100..]), Some(100..100));
        let other = [0u8; 16];
        assert_eq!(subrange(parent, &other), None);
    }

    #[test]
    fn byte_source_variants_agree() {
        let path = std::env::temp_dir().join("dehealth-mapped-source.bin");
        let data: Vec<u8> = (0..999).map(|i| (i % 256) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let mapped = ByteSource::map(&path).unwrap();
        let owned = ByteSource::from_vec(data.clone());
        assert_eq!(mapped.bytes(), &data[..]);
        assert_eq!(owned.bytes(), &data[..]);
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }
}
