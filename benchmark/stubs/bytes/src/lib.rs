//! Offline stand-in for `bytes`, patched in by `benchmark/Cargo.toml`.
//!
//! Covers what `mbw_wire::proto` uses outside its tests: a cheaply
//! cloneable [`Bytes`] (shared `Arc` storage or a `'static` slice, so
//! `from_static` and `clone` allocate nothing, as in the real crate), a
//! growable [`BytesMut`], and the big-endian cursor methods of [`Buf`]
//! and [`BufMut`].

use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, reference-counted byte slice with a read cursor.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wrap a static slice without allocating.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(s) => s,
            Storage::Shared(v) => v,
        };
        &all[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            storage: Storage::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A growable byte buffer.
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Turn the written bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Read cursor over a byte buffer (big-endian integers).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skip `cnt` bytes.
    ///
    /// # Panics
    /// If `cnt > self.remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Read one byte.
    ///
    /// # Panics
    /// If the buffer is empty.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read a big-endian `u64`.
    ///
    /// # Panics
    /// If fewer than eight bytes remain.
    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past the end");
        self.start += cnt;
    }
}

/// Write cursor over a growable buffer (big-endian integers).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}
