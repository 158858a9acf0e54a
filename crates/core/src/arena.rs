//! Storage-generic typed arenas: one view type over two backings.
//!
//! The hot read-only structures of a prepared corpus — the
//! [`AttributeIndex`](crate::index::AttributeIndex) posting/user tables
//! and the [`RefinedContext`](crate::refined::RefinedContext) feature
//! arenas — hold their scalar data in [`ArenaView`]s. A view is either
//!
//! - **owned**: a plain `Vec<T>` (freshly built structures, owned
//!   snapshot decodes, and any structure about to be mutated), or
//! - **mapped**: a `(SharedBytes, Range)` pair borrowing a little-endian
//!   byte region of a loaded snapshot — typically an `mmap`ed file —
//!   reinterpreted in place through [`dehealth_mapped`]'s
//!   alignment-checked casts.
//!
//! This is the *owner-plus-view split* that makes zero-copy loading
//! expressible in safe Rust: instead of a self-referential struct
//! holding both a mapping and slices into it, each view holds a cheap
//! [`Arc`](std::sync::Arc) clone of the backing plus a byte range, and
//! resolves the typed slice on access. The mapping stays alive exactly
//! as long as any view over it, and dropping the last view unmaps the
//! file — which is what makes corpus eviction nearly free.
//!
//! Mutation goes through [`ArenaView::to_mut`], which promotes a mapped
//! view to an owned `Vec` by copying once — copy-on-write at the arena
//! level. Code that only reads never pays more than an enum dispatch
//! per *slice resolution* (callers hoist [`ArenaView::as_slice`] out of
//! hot loops).

use std::fmt;
use std::ops::{Deref, Range};

use dehealth_mapped::{subrange, LePod, SharedBytes};

/// Why a byte region could not be viewed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaCastError {
    /// The region's address is not aligned for the element type (or its
    /// length is not a whole number of elements). With the v2 snapshot
    /// format's alignment guarantees this indicates a corrupt or
    /// mis-framed file — loaders surface it as a typed snapshot error.
    Unaligned,
    /// This target cannot reinterpret little-endian bytes in place at
    /// all (big-endian). Loaders fall back to the copying decode.
    Unsupported,
    /// The region is not inside the provided backing buffer (an internal
    /// framing bug, never expected from file contents).
    OutOfBounds,
}

#[derive(Clone)]
enum Inner<T: LePod> {
    Owned(Vec<T>),
    Mapped { bytes: SharedBytes, range: Range<usize> },
}

/// A typed scalar arena over owned or borrowed little-endian storage
/// (see the [module docs](self)).
///
/// ```
/// use dehealth_core::arena::ArenaView;
/// use dehealth_mapped::ByteSource;
///
/// // One backing, two views — no copies.
/// let backing = ByteSource::from_vec(
///     [1u64, 2, 3, 4].iter().flat_map(|v| v.to_le_bytes()).collect(),
/// );
/// let all = backing.bytes().to_vec();
/// let view = ArenaView::<u64>::try_mapped(&backing, &backing.bytes()[8..24]).unwrap();
/// assert_eq!(&*view, &[2, 3]);
/// assert!(view.is_borrowed());
/// assert_eq!(all.len(), 32);
///
/// // Mutation promotes to owned storage (copy-on-write).
/// let mut view = view;
/// view.to_mut().push(9);
/// assert_eq!(&*view, &[2, 3, 9]);
/// assert!(!view.is_borrowed());
/// ```
#[derive(Clone)]
pub struct ArenaView<T: LePod> {
    inner: Inner<T>,
}

impl<T: LePod> Default for ArenaView<T> {
    fn default() -> Self {
        Self { inner: Inner::Owned(Vec::new()) }
    }
}

impl<T: LePod + fmt::Debug> fmt::Debug for ArenaView<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_borrowed() { "mapped" } else { "owned" };
        f.debug_struct("ArenaView").field("len", &self.len()).field("backing", &kind).finish()
    }
}

impl<T: LePod> From<Vec<T>> for ArenaView<T> {
    fn from(values: Vec<T>) -> Self {
        Self { inner: Inner::Owned(values) }
    }
}

impl<T: LePod> ArenaView<T> {
    /// An owned view over `values`.
    #[must_use]
    pub fn from_vec(values: Vec<T>) -> Self {
        values.into()
    }

    /// A borrowed view over `region`, which must be a subslice of
    /// `backing`'s bytes, aligned for `T` and a whole number of
    /// elements.
    ///
    /// # Errors
    /// [`ArenaCastError`] when the region cannot be viewed in place —
    /// callers either fall back to a copying decode (`Unsupported`) or
    /// surface a typed snapshot error (`Unaligned` under the v2 format's
    /// alignment guarantee).
    pub fn try_mapped(backing: &SharedBytes, region: &[u8]) -> Result<Self, ArenaCastError> {
        let range = subrange(backing.bytes(), region).ok_or(ArenaCastError::OutOfBounds)?;
        if T::cast_slice(region).is_none() {
            return Err(if cfg!(target_endian = "big") {
                ArenaCastError::Unsupported
            } else {
                ArenaCastError::Unaligned
            });
        }
        Ok(Self { inner: Inner::Mapped { bytes: backing.clone(), range } })
    }

    /// The typed slice. Owned storage returns the `Vec`'s slice;
    /// mapped storage re-resolves the (construction-validated) cast over
    /// the backing bytes. Hoist this out of hot loops.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(v) => v,
            Inner::Mapped { bytes, range } => T::cast_slice(&bytes.bytes()[range.clone()])
                .expect("arena cast validated at construction"),
        }
    }

    /// Mutable access, promoting a mapped view to owned storage by
    /// copying its elements once (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Inner::Mapped { .. } = &self.inner {
            self.inner = Inner::Owned(self.as_slice().to_vec());
        }
        match &mut self.inner {
            Inner::Owned(v) => v,
            Inner::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// `true` when the elements live in a loaded snapshot's bytes rather
    /// than in an owned `Vec`.
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// The arena's size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }

    /// Bytes this view keeps resident on the heap: [`Self::byte_len`]
    /// for owned storage, 0 for mapped storage (the backing pages belong
    /// to the file mapping and are reclaimable/shareable).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        if self.is_borrowed() {
            0
        } else {
            self.byte_len()
        }
    }
}

impl<T: LePod> Deref for ArenaView<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

/// Decode a little-endian byte region into owned values — the copying
/// counterpart of [`ArenaView::try_mapped`], used for owned load mode
/// and as the big-endian fallback.
pub trait DecodeLe: LePod {
    /// Decode `bytes` (length must be a whole number of elements).
    #[must_use]
    fn decode_le(bytes: &[u8]) -> Vec<Self>;
}

impl DecodeLe for u8 {
    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        bytes.to_vec()
    }
}

impl DecodeLe for u32 {
    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        debug_assert_eq!(bytes.len() % 4, 0);
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect()
    }
}

impl DecodeLe for u64 {
    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        debug_assert_eq!(bytes.len() % 8, 0);
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
    }
}

impl DecodeLe for f64 {
    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        debug_assert_eq!(bytes.len() % 8, 0);
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect()
    }
}

impl<T: DecodeLe> ArenaView<T> {
    /// View `region` in place over `backing` when possible, otherwise
    /// decode it into owned storage. `backing = None` always decodes
    /// (the owned load path): one bulk copy of the region cast in place
    /// where it is aligned, element by element otherwise.
    ///
    /// # Errors
    /// [`ArenaCastError::Unaligned`] when a backing was supplied but the
    /// region violates the alignment the caller's format guarantees —
    /// corrupt framing, surfaced as a typed error rather than silently
    /// absorbed by a copy. (`Unsupported` targets fall back to the
    /// copying decode instead; they can never cast.)
    pub fn from_region(
        backing: Option<&SharedBytes>,
        region: &[u8],
    ) -> Result<Self, ArenaCastError> {
        match backing {
            Some(bytes) => match Self::try_mapped(bytes, region) {
                Ok(view) => Ok(view),
                Err(ArenaCastError::Unsupported) => Ok(Self::from_vec(T::decode_le(region))),
                Err(e) => Err(e),
            },
            None => Ok(Self::from_vec(match T::cast_slice(region) {
                Some(values) => values.to_vec(),
                None => T::decode_le(region),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_mapped::ByteSource;

    fn backing_of(words: &[u64]) -> SharedBytes {
        ByteSource::from_vec(words.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    #[test]
    fn owned_and_mapped_views_agree() {
        let backing = backing_of(&[10, 20, 30]);
        let mapped = ArenaView::<u64>::try_mapped(&backing, backing.bytes()).unwrap();
        let owned = ArenaView::from_vec(vec![10u64, 20, 30]);
        assert_eq!(&*mapped, &*owned);
        assert!(mapped.is_borrowed() && !owned.is_borrowed());
        assert_eq!(mapped.byte_len(), 24);
        assert_eq!(mapped.resident_bytes(), 0);
        assert_eq!(owned.resident_bytes(), 24);
    }

    #[test]
    fn misaligned_region_is_refused() {
        let backing = backing_of(&[1, 2, 3]);
        let region = &backing.bytes()[4..20];
        assert_eq!(
            ArenaView::<u64>::try_mapped(&backing, region).unwrap_err(),
            ArenaCastError::Unaligned
        );
        // …and from_region propagates it rather than silently copying.
        assert!(ArenaView::<u64>::from_region(Some(&backing), region).is_err());
        // Without a backing the same bytes decode owned.
        let view = ArenaView::<u64>::from_region(None, region).unwrap();
        assert_eq!(view.len(), 2);
        assert!(!view.is_borrowed());
    }

    #[test]
    fn owned_copies_agree_aligned_or_not() {
        let backing = backing_of(&[1, 2, 3, 4]);
        let bytes = backing.bytes();
        // Aligned: a bulk copy of the cast slice.
        let aligned = ArenaView::<u64>::from_region(None, &bytes[8..24]).unwrap();
        assert_eq!(&*aligned, &[2, 3]);
        assert_eq!(&*aligned, u64::decode_le(&bytes[8..24]).as_slice());
        // Misaligned: the element-by-element decode.
        let region = &bytes[4..20];
        assert!(u64::cast_slice(region).is_none());
        let unaligned = ArenaView::<u64>::from_region(None, region).unwrap();
        assert_eq!(&*unaligned, u64::decode_le(region).as_slice());
        assert!(!aligned.is_borrowed() && !unaligned.is_borrowed());
    }

    #[test]
    fn foreign_region_is_out_of_bounds() {
        let backing = backing_of(&[1, 2]);
        let other = [0u8; 8];
        assert_eq!(
            ArenaView::<u64>::try_mapped(&backing, &other).unwrap_err(),
            ArenaCastError::OutOfBounds
        );
    }

    #[test]
    fn to_mut_promotes_and_detaches_from_backing() {
        let backing = backing_of(&[7, 8]);
        let mut view = ArenaView::<u64>::try_mapped(&backing, backing.bytes()).unwrap();
        view.to_mut().push(9);
        assert_eq!(&*view, &[7, 8, 9]);
        assert!(!view.is_borrowed());
        // The original backing is untouched.
        assert_eq!(backing.bytes().len(), 16);
    }

    #[test]
    fn decode_le_matches_casts() {
        let backing = backing_of(&[0x0102_0304_0506_0708, f64::to_bits(-2.5)]);
        let bytes = backing.bytes();
        assert_eq!(u64::decode_le(&bytes[..8]), vec![0x0102_0304_0506_0708]);
        assert_eq!(u32::decode_le(&bytes[..8]), vec![0x0506_0708, 0x0102_0304]);
        assert_eq!(f64::decode_le(&bytes[8..]), vec![-2.5]);
        assert_eq!(u8::decode_le(&bytes[..2]), vec![0x08, 0x07]);
    }

    #[test]
    fn dropping_views_releases_the_backing() {
        let backing = backing_of(&[1, 2, 3, 4]);
        let weak = std::sync::Arc::downgrade(&backing);
        let a = ArenaView::<u32>::try_mapped(&backing, &backing.bytes()[..8]).unwrap();
        let b = a.clone();
        drop(backing);
        assert!(weak.upgrade().is_some(), "views keep the backing alive");
        drop(a);
        drop(b);
        assert!(weak.upgrade().is_none(), "last view frees the backing");
    }
}
