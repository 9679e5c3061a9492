//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply cloneable, advanceable view over an immutable
//! byte buffer; [`BytesMut`] is an append-only builder that freezes into
//! [`Bytes`]. The [`Buf`]/[`BufMut`] traits carry the little-endian
//! accessors the workspace serializers use. Semantics match the real crate
//! for this surface, including panics on under-full reads.

use std::ops::Deref;
use std::sync::Arc;

/// Read access to a cursor over bytes.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consumes `n` bytes.
    ///
    /// # Panics
    /// Panics if `n > self.remaining()`.
    fn advance(&mut self, n: usize);

    /// Copies `dst.len()` bytes out, consuming them.
    ///
    /// # Panics
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one `u8`.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads one `i8`.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends one `i8`.
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

/// An immutable, cheaply cloneable byte buffer with a read cursor.
///
/// Views created by [`Bytes::slice`] and `clone` share one reference-counted
/// allocation — no payload bytes are copied, matching the real crate. This
/// is what makes zero-copy artifact loading possible: a loaded file is one
/// `Bytes`, and every section is a `slice` into it.
#[derive(Clone, Debug)]
pub struct Bytes {
    data: Arc<[u8]>,
    pos: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Self { data: Arc::from(&[][..]), pos: 0, end: 0 }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the unconsumed bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunk().to_vec()
    }

    /// A view of sub-range `range` of the unconsumed bytes. Shares the
    /// backing allocation — the returned view's pointer lies inside this
    /// buffer's memory.
    ///
    /// # Panics
    /// Panics when the range exceeds [`Bytes::len`].
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            pos: self.pos + range.start,
            end: self.pos + range.end,
        }
    }

    /// Length of the unconsumed bytes.
    pub fn len(&self) -> usize {
        self.remaining()
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: v.into(), pos: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        let end = v.len();
        Self { data: v.into(), pos: 0, end }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.chunk() == other.chunk()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past end of buffer");
        self.pos += n;
    }
}

/// A growable byte builder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { data: Vec::with_capacity(cap) }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// As in the real crate: a plain `Vec<u8>` is an append-only sink too.
impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut b = BytesMut::with_capacity(32);
        b.put_slice(b"HDR!");
        b.put_u8(7);
        b.put_i8(-3);
        b.put_u16_le(0xBEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        b.put_f32_le(-1.5);
        let mut r = b.freeze();
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        assert_eq!(&magic, b"HDR!");
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i8(), -3);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f32_le(), -1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn clone_does_not_share_cursor() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        a.advance(2);
        assert_eq!(a.remaining(), 1);
        assert_eq!(b.remaining(), 3);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u64_le();
    }

    #[test]
    fn slice_shares_storage_without_copying() {
        let b = Bytes::from(vec![0u8; 256]);
        let s = b.slice(64..192);
        assert_eq!(s.len(), 128);
        let base = b.as_ref().as_ptr() as usize;
        let sub = s.as_ref().as_ptr() as usize;
        assert_eq!(sub, base + 64, "slice must point into the parent allocation");
        let nested = s.slice(8..16);
        assert_eq!(nested.as_ref().as_ptr() as usize, base + 72);
        assert_eq!(nested.len(), 8);
    }

    #[test]
    fn slice_bounds_are_respected_after_advance() {
        let mut b = Bytes::from((0u8..32).collect::<Vec<_>>());
        b.advance(4);
        let s = b.slice(2..6);
        assert_eq!(s.as_ref(), &[6, 7, 8, 9]);
        assert_eq!(s.remaining(), 4);
    }

    #[test]
    fn nan_bits_preserved() {
        let bits = 0x7FC0_1234u32;
        let mut w = BytesMut::new();
        w.put_f32_le(f32::from_bits(bits));
        let mut r = w.freeze();
        assert_eq!(r.get_f32_le().to_bits(), bits);
    }
}
