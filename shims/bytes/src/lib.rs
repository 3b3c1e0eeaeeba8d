//! Vec-backed shim for the `bytes` crate: `Bytes`, `BytesMut` and the
//! `Buf`/`BufMut` cursor traits, covering the little-endian accessors the
//! graph snapshot format uses. No reference counting — `Bytes` owns its
//! buffer and tracks a read cursor.

#![forbid(unsafe_code)]

use std::ops::Deref;

/// Read-side cursor trait (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

/// Write-side trait (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Immutable byte buffer with a read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }

    /// The unread portion as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// Copies the unread portion into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
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
    fn roundtrip_all_accessors() {
        let mut w = BytesMut::with_capacity(32);
        w.put_slice(b"HDR!");
        w.put_u8(7);
        w.put_u32_le(0xDEADBEEF);
        w.put_u64_le(0x0123456789ABCDEF);
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 17);
        let mut hdr = [0u8; 4];
        r.copy_to_slice(&mut hdr);
        assert_eq!(&hdr, b"HDR!");
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le(), 0x0123456789ABCDEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from_static(b"ab");
        b.get_u32_le();
    }
}
