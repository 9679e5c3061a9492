//! Shared typed storage over byte buffers — the substrate of zero-copy
//! artifact loading.
//!
//! A compiled-model artifact is one shared, immutable byte buffer (an
//! `Arc<[u8]>`); every packed payload inside it (keys, scales, sign planes,
//! dense weights) is a *view* into that buffer, not a fresh allocation. Two
//! types carry that through the workspace's data structures:
//!
//! * [`PodView<T>`] — an immutable `&[T]` reinterpretation of a byte range
//!   of that buffer. Construction validates the range, alignment,
//!   element-size divisibility and byte order at runtime, so the cast is
//!   sound; the view keeps the buffer alive.
//! * [`PodStore<T>`] — what container types actually hold: either an owned
//!   `Vec<T>` (the historical representation, used by every constructor
//!   that computes its data) or a shared [`PodView<T>`] (the deserialized
//!   representation). Mutation copies-on-write, so read-only consumers —
//!   all the kernels — never pay a copy.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Element types that may be reinterpreted from little-endian bytes.
///
/// # Safety
/// Implementors must be plain-old-data: any bit pattern of `size_of::<T>()`
/// bytes is a valid value (true for the integer and IEEE float primitives
/// this is implemented for).
pub unsafe trait Pod: Copy + PartialEq + 'static {}

// SAFETY: every 1-byte pattern is a `u8`.
unsafe impl Pod for u8 {}
// SAFETY: every 1-byte pattern is an `i8`.
unsafe impl Pod for i8 {}
// SAFETY: every 2-byte pattern is a `u16`.
unsafe impl Pod for u16 {}
// SAFETY: every 4-byte pattern is a `u32`.
unsafe impl Pod for u32 {}
// SAFETY: every 8-byte pattern is a `u64`.
unsafe impl Pod for u64 {}
// SAFETY: every 4-byte pattern is an `f32` (NaN payloads included).
unsafe impl Pod for f32 {}

/// Why a byte range could not be viewed as `&[T]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PodCastError {
    /// The byte range does not lie inside the buffer.
    OutOfBounds,
    /// The buffer's base pointer is not aligned for `T`.
    Misaligned,
    /// The buffer length is not a multiple of `size_of::<T>()`.
    BadLength,
    /// The host is big-endian; stored payloads are little-endian.
    BigEndianHost,
}

impl fmt::Display for PodCastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PodCastError::OutOfBounds => write!(f, "byte range outside the buffer"),
            PodCastError::Misaligned => write!(f, "buffer misaligned for element type"),
            PodCastError::BadLength => write!(f, "buffer length not a multiple of element size"),
            PodCastError::BigEndianHost => {
                write!(f, "little-endian payload cannot be viewed on a big-endian host")
            }
        }
    }
}

impl std::error::Error for PodCastError {}

/// An immutable `&[T]` view over a byte range of a shared buffer (which it
/// keeps alive).
pub struct PodView<T> {
    owner: Arc<[u8]>,
    ptr: *const T,
    len: usize,
}

// SAFETY: the view is immutable and the owner is an `Arc`-shared buffer;
// `&[T]` of a `Pod` type may move to another thread with its owner.
unsafe impl<T: Pod> Send for PodView<T> {}
// SAFETY: as for `Send`: shared access only reads the immutable `&[T]`.
unsafe impl<T: Pod> Sync for PodView<T> {}

impl<T: Pod> PodView<T> {
    /// Views bytes `range` of `owner` as `&[T]`.
    ///
    /// Fails (rather than copying or panicking) when the range leaves the
    /// buffer, its start is misaligned for `T`, its length is ragged, or
    /// the host is big-endian.
    /// There is no silent copy fallback: callers propagate the error (an
    /// artifact that cannot be viewed zero-copy fails to load), keeping
    /// "loading never copies payloads" an invariant rather than a fast
    /// path.
    pub fn new(owner: Arc<[u8]>, range: Range<usize>) -> Result<Self, PodCastError> {
        if cfg!(target_endian = "big") && std::mem::size_of::<T>() > 1 {
            return Err(PodCastError::BigEndianHost);
        }
        let bytes = owner.get(range).ok_or(PodCastError::OutOfBounds)?;
        let size = std::mem::size_of::<T>();
        if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(PodCastError::Misaligned);
        }
        if size == 0 || !bytes.len().is_multiple_of(size) {
            return Err(PodCastError::BadLength);
        }
        let ptr = bytes.as_ptr() as *const T;
        let len = bytes.len() / size;
        Ok(Self { owner, ptr, len })
    }

    /// The viewed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `new` checked the range, alignment and length; `owner`
        // pins the allocation for the lifetime of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for PodView<T> {
    fn clone(&self) -> Self {
        Self { owner: self.owner.clone(), ptr: self.ptr, len: self.len }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for PodView<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PodView").field("len", &self.len).finish()
    }
}

impl<T: Pod> Deref for PodView<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

/// Owned-or-shared element storage with copy-on-write mutation.
#[derive(Clone, Debug)]
pub enum PodStore<T: Pod> {
    /// A plain owned buffer.
    Owned(Vec<T>),
    /// A zero-copy view into a shared byte buffer (a loaded artifact).
    Shared(PodView<T>),
}

impl<T: Pod + fmt::Debug> PodStore<T> {
    /// The elements, whichever representation backs them.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            PodStore::Owned(v) => v,
            PodStore::Shared(view) => view.as_slice(),
        }
    }

    /// Mutable access; a shared store is first materialised into an owned
    /// copy (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if let PodStore::Shared(view) = self {
            *self = PodStore::Owned(view.as_slice().to_vec());
        }
        match self {
            PodStore::Owned(v) => v,
            PodStore::Shared(_) => unreachable!("just materialised"),
        }
    }

    /// Consumes the store into an owned `Vec` (copies only if shared).
    pub fn into_vec(self) -> Vec<T> {
        match self {
            PodStore::Owned(v) => v,
            PodStore::Shared(view) => view.as_slice().to_vec(),
        }
    }

    /// True when backed by a shared byte buffer (no owned allocation).
    pub fn is_shared(&self) -> bool {
        matches!(self, PodStore::Shared(_))
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<T: Pod> From<Vec<T>> for PodStore<T> {
    fn from(v: Vec<T>) -> Self {
        PodStore::Owned(v)
    }
}

impl<T: Pod> From<PodView<T>> for PodStore<T> {
    fn from(v: PodView<T>) -> Self {
        PodStore::Shared(v)
    }
}

impl<T: Pod + fmt::Debug> Deref for PodStore<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + fmt::Debug> PartialEq for PodStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq + fmt::Debug> Eq for PodStore<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes_u16(vals: &[u16]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn view_reinterprets_without_copying() {
        let vals = [1u16, 2, 0xBEEF, 65535];
        let owner: Arc<[u8]> = le_bytes_u16(&vals).into();
        let base = owner.as_ptr() as usize;
        let view = PodView::<u16>::new(owner, 0..8).unwrap();
        assert_eq!(view.as_slice(), &vals);
        assert_eq!(view.as_slice().as_ptr() as usize, base, "no copy");
    }

    #[test]
    fn ragged_length_rejected() {
        let owner: Arc<[u8]> = vec![0u8; 7].into();
        assert_eq!(PodView::<u16>::new(owner, 0..7).unwrap_err(), PodCastError::BadLength);
    }

    #[test]
    fn misaligned_offset_rejected_or_viewed_consistently() {
        // An odd offset into an even-aligned allocation must fail for u16.
        let owner: Arc<[u8]> = vec![0u8; 64].into();
        let base = owner.as_ptr() as usize;
        if base.is_multiple_of(2) {
            assert_eq!(PodView::<u16>::new(owner, 1..9).unwrap_err(), PodCastError::Misaligned);
        }
    }

    #[test]
    fn range_outside_the_buffer_rejected() {
        let owner: Arc<[u8]> = vec![0u8; 8].into();
        for range in [4..10, 0..9, 9..9] {
            let err = PodView::<u8>::new(owner.clone(), range.clone()).unwrap_err();
            assert_eq!(err, PodCastError::OutOfBounds, "{range:?}");
        }
        let tail = PodView::<u16>::new(owner, 4..8).unwrap();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn store_copy_on_write_preserves_reads() {
        let owner: Arc<[u8]> = le_bytes_u16(&[10, 20, 30]).into();
        let mut store: PodStore<u16> = PodView::new(owner, 0..6).unwrap().into();
        assert!(store.is_shared());
        assert_eq!(&store[..], &[10, 20, 30]);
        store.as_mut_slice()[1] = 99;
        assert!(!store.is_shared(), "mutation materialises an owned copy");
        assert_eq!(&store[..], &[10, 99, 30]);
    }

    #[test]
    fn stores_compare_by_contents_across_representations() {
        let owned: PodStore<u16> = vec![7u16, 8].into();
        let shared: PodStore<u16> =
            PodView::new(le_bytes_u16(&[7, 8]).into(), 0..4).unwrap().into();
        assert_eq!(owned, shared);
    }
}
