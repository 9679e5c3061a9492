//! Shared typed storage over byte buffers — the substrate of zero-copy
//! artifact loading.
//!
//! A compiled-model artifact is one owned byte buffer ([`bytes::Bytes`]);
//! every packed payload inside it (keys, scales, sign planes, dense
//! weights) is a *view* into that buffer, not a fresh allocation. Two types
//! carry that through the workspace's data structures:
//!
//! * [`PodView<T>`] — an immutable `&[T]` reinterpretation of a `Bytes`
//!   range. Construction validates alignment, element-size divisibility and
//!   byte order at runtime, so the cast is sound; the view keeps the owner
//!   alive.
//! * [`PodStore<T>`] — what container types actually hold: either an owned
//!   `Vec<T>` (the historical representation, used by every constructor
//!   that computes its data) or a shared [`PodView<T>`] (the deserialized
//!   representation). Mutation copies-on-write, so read-only consumers —
//!   all the kernels — never pay a copy.

#![deny(clippy::undocumented_unsafe_blocks)]

use bytes::Bytes;
use std::fmt;
use std::ops::Deref;

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
            PodCastError::Misaligned => write!(f, "buffer misaligned for element type"),
            PodCastError::BadLength => write!(f, "buffer length not a multiple of element size"),
            PodCastError::BigEndianHost => {
                write!(f, "little-endian payload cannot be viewed on a big-endian host")
            }
        }
    }
}

impl std::error::Error for PodCastError {}

/// An immutable `&[T]` view over a [`Bytes`] buffer (which it keeps alive).
pub struct PodView<T> {
    owner: Bytes,
    ptr: *const T,
    len: usize,
}

// SAFETY: the view is immutable and the owner is an `Arc`-backed buffer;
// `&[T]` of a `Pod` type may move to another thread with its owner.
unsafe impl<T: Pod> Send for PodView<T> {}
// SAFETY: as for `Send`: shared access only reads the immutable `&[T]`.
unsafe impl<T: Pod> Sync for PodView<T> {}

impl<T: Pod> PodView<T> {
    /// Views the unconsumed bytes of `owner` as `&[T]`.
    ///
    /// Fails (rather than copying or panicking) when the base pointer is
    /// misaligned for `T`, the length is ragged, or the host is big-endian.
    /// There is no silent copy fallback: callers propagate the error (an
    /// artifact that cannot be viewed zero-copy fails to load), keeping
    /// "loading never copies payloads" an invariant rather than a fast
    /// path.
    pub fn new(owner: Bytes) -> Result<Self, PodCastError> {
        if cfg!(target_endian = "big") && std::mem::size_of::<T>() > 1 {
            return Err(PodCastError::BigEndianHost);
        }
        let bytes: &[u8] = owner.as_ref();
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
        // SAFETY: `new` checked alignment and length; `owner` pins the
        // allocation for the lifetime of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The byte buffer backing this view.
    pub fn owner(&self) -> &Bytes {
        &self.owner
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
        let owner = Bytes::from(le_bytes_u16(&vals));
        let base = owner.as_ref().as_ptr() as usize;
        let view = PodView::<u16>::new(owner).unwrap();
        assert_eq!(view.as_slice(), &vals);
        assert_eq!(view.as_slice().as_ptr() as usize, base, "no copy");
    }

    #[test]
    fn ragged_length_rejected() {
        let owner = Bytes::from(vec![0u8; 7]);
        assert_eq!(PodView::<u16>::new(owner).unwrap_err(), PodCastError::BadLength);
    }

    #[test]
    fn misaligned_offset_rejected_or_viewed_consistently() {
        // An odd offset into an even-aligned allocation must fail for u16.
        let owner = Bytes::from(vec![0u8; 64]);
        let base = owner.as_ref().as_ptr() as usize;
        let odd = owner.slice(1..9);
        if base.is_multiple_of(2) {
            assert_eq!(PodView::<u16>::new(odd).unwrap_err(), PodCastError::Misaligned);
        }
    }

    #[test]
    fn store_copy_on_write_preserves_reads() {
        let owner = Bytes::from(le_bytes_u16(&[10, 20, 30]));
        let mut store: PodStore<u16> = PodView::new(owner).unwrap().into();
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
            PodView::new(Bytes::from(le_bytes_u16(&[7, 8]))).unwrap().into();
        assert_eq!(owned, shared);
    }
}
