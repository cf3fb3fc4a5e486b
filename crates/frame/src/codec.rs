//! Big-endian, length-prefixed encode/decode primitives.
//!
//! Every serializable piece of pipeline state (figure accumulators,
//! trial pools, shard assignments) implements [`Codec`] over these
//! primitives. The rules:
//!
//! - integers and floats are fixed-width big-endian (`f64` via
//!   `to_be_bytes`, so NaN payloads and signed zeros round-trip
//!   bit-exactly — snapshot/restore must be byte-transparent);
//! - sequences carry a u32 element count, rejected up front when it
//!   exceeds the bytes remaining (fuzzed lengths cannot drive huge
//!   allocations);
//! - there is no codec for hash maps or sets: keyed state travels as a
//!   dense table or as ascending `(key, value)` pairs its owner writes,
//!   so encoded bytes are a pure function of *content* and
//!   hash-iteration order can never leak into a snapshot;
//! - malformed input returns a typed [`CodecError`], never panics.
//!
//! # Decoding from a reader
//!
//! A [`Dec`] reads either a slice it borrows whole or a reader of known
//! length through a fixed window of [`WINDOW`] bytes, so a reducer can
//! fold a part file of any size while holding 64 KiB of it. It is one
//! type with one hot path: a take checks the bytes left in the window,
//! as the slice cursor always did, and only where that check fails does
//! a reader-backed cursor refill (a slice-backed one reports the end of
//! its input, as before). A take borrows the cursor, so the bytes it
//! lends last until the next take, and a decoder cannot look back: it
//! checks what it needs as the bytes pass. The window is sized for the
//! largest take a valid part asks for, a `BinnedCdf` bin run of 17 KB;
//! a larger take grows the window to exactly that take, and never past
//! the input left, which the length prefix checks have already bounded,
//! so a corrupt length costs at most the input's size, as a whole
//! buffer would have.
//!
//! Errors do not depend on the mode: [`Dec::remaining`] counts the bytes
//! still in the reader as well as the window, so `Eof { wanted, have }`,
//! the sequence-length checks and `Trailing` read the same either way.
//! What the reader itself does wrong (an I/O error, an early end) ends
//! the input for the decoder; the reader's owner reports it, and ranks
//! it above any decode error (see [`crate::snapshot`]). A caller that
//! reads many inputs in turn lends each cursor the same window
//! ([`Dec::from_reader_in`]), so it allocates one window, not one per
//! input.

use std::io::Read;

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value did.
    Eof {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes it had.
        have: usize,
    },
    /// A tag/discriminant byte had no meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u64,
    },
    /// A length field was impossible (overruns the input, or violates a
    /// fixed-size invariant of the decoded type).
    BadLen {
        /// What was being decoded.
        what: &'static str,
        /// The offending length.
        len: u64,
    },
    /// Bytes remained after the value was fully decoded.
    Trailing {
        /// Leftover byte count.
        bytes: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof { wanted, have } => {
                write!(f, "input ended: wanted {wanted} bytes, had {have}")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadLen { what, len } => write!(f, "bad {what} length {len}"),
            CodecError::Trailing { bytes } => write!(f, "{bytes} trailing bytes after value"),
            CodecError::BadUtf8 => f.write_str("invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Growable encode buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// `usize` as a big-endian u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Big-endian f64 (bit-exact, NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Bool as one 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// u32 length + UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }
}

/// Bytes a [`Dec`] reading from a [`Read`] holds at once: the window
/// it refills. A refill reads up to this much, so a decoder's takes
/// cost one `read` per window, not one per value. It must hold the
/// largest take a reducer makes of a valid part, a whole `BinnedCdf`
/// bin run (2 176 words, 17 KB); 64 KiB is that with room to spare,
/// and a sixteenth of the 1.05 MB body a reader of a whole part holds.
pub const WINDOW: usize = 64 << 10;

/// Decode cursor over a window of bytes.
///
/// Over a slice ([`Dec::new`]) the window is the whole input and never
/// refills. Over a reader of known length ([`Dec::from_reader`]) it is
/// a buffer of [`WINDOW`] bytes, refilled from the reader only where a
/// take finds too few bytes left in it; a take larger than the window
/// grows it to exactly that take. Either way [`Dec::remaining`] counts
/// every byte of the input not yet taken, so the checks made against it
/// and the errors they return are the same, byte for byte, in both
/// modes.
pub struct Dec<'a> {
    input: Input<'a>,
    /// The next byte to take, in the window.
    at: usize,
    /// Where the window's bytes end.
    end: usize,
}

/// Where a [`Dec`]'s window lives.
enum Input<'a> {
    /// The whole input, borrowed.
    Slice(&'a [u8]),
    /// A buffer refilled from `reader`, which has `left` bytes of the
    /// input still to give.
    Reader {
        window: Vec<u8>,
        reader: &'a mut dyn Read,
        left: usize,
    },
}

impl std::fmt::Debug for Dec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dec")
            .field("buffered", &(self.end - self.at))
            .field("remaining", &self.remaining())
            .finish()
    }
}

impl<'a> Dec<'a> {
    /// Cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            input: Input::Slice(bytes),
            at: 0,
            end: bytes.len(),
        }
    }

    /// Cursor at the start of the next `len` bytes of `reader`, through a
    /// window of at most [`WINDOW`] bytes, allocated at the first take
    /// (and then no larger than the input). The reader is read only as far
    /// as those `len` bytes, and a read interrupted is tried again; one
    /// that fails otherwise, or ends before them, ends the input there
    /// (the decoder sees [`CodecError::Eof`], and the reader's owner
    /// learns why from the reader).
    pub fn from_reader(reader: &'a mut dyn Read, len: usize) -> Self {
        Self::from_reader_in(reader, len, Vec::new())
    }

    /// [`Dec::from_reader`] through a window the caller lends: `window`
    /// is used as it is and grown only where a take needs more of it
    /// (what it holds is overwritten), and [`Dec::into_window`] hands it
    /// back. A caller reading many inputs in turn lends each the same
    /// buffer, so it allocates one window for all of them, not one each.
    pub fn from_reader_in(reader: &'a mut dyn Read, len: usize, window: Vec<u8>) -> Self {
        Self {
            input: Input::Reader {
                window,
                reader,
                left: len,
            },
            at: 0,
            end: 0,
        }
    }

    /// The window a reader-backed cursor read through, for the next
    /// [`Dec::from_reader_in`]; a slice-backed cursor has none to give.
    pub fn into_window(self) -> Vec<u8> {
        match self.input {
            Input::Slice(_) => Vec::new(),
            Input::Reader { window, .. } => window,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        let unread = match &self.input {
            Input::Slice(_) => 0,
            Input::Reader { left, .. } => *left,
        };
        self.end - self.at + unread
    }

    /// Whether every byte was consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Assert full consumption (decoders call this last so trailing
    /// garbage is an error, not silently ignored).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                bytes: self.remaining(),
            })
        }
    }

    /// Take `n` raw bytes, lent until the cursor moves again.
    pub fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.end - self.at < n {
            self.refill(n)?;
        }
        let window = match &self.input {
            Input::Slice(bytes) => *bytes,
            Input::Reader { window, .. } => window,
        };
        let out = &window[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Make the window hold at least `n` bytes from the cursor on, or
    /// say the input ends first.
    #[cold]
    fn refill(&mut self, n: usize) -> Result<(), CodecError> {
        let have = self.remaining();
        let Input::Reader {
            window,
            reader,
            left,
        } = &mut self.input
        else {
            return Err(CodecError::Eof { wanted: n, have });
        };
        if have < n {
            return Err(CodecError::Eof { wanted: n, have });
        }
        window.copy_within(self.at..self.end, 0);
        self.end -= self.at;
        self.at = 0;
        let size = n.max(have.min(WINDOW));
        if window.len() < size {
            window.reserve_exact(size - window.len());
            window.resize(size, 0);
        }
        let fill = window.len().min(self.end + *left);
        while self.end < n {
            match reader.read(&mut window[self.end..fill]) {
                Ok(0) => *left = 0,
                Ok(got) => {
                    let got = got.min(fill - self.end);
                    self.end += got;
                    *left -= got;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => *left = 0,
            }
            return Err(CodecError::Eof {
                wanted: n,
                have: self.end,
            });
        }
        Ok(())
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        bytes.try_into().map_err(|_| CodecError::Eof {
            wanted: N,
            have: bytes.len(),
        })
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Big-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Big-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Big-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// u64 narrowed to `usize`.
    pub fn usize_(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLen {
            what: "usize",
            len: v,
        })
    }

    /// Big-endian f64 (bit-exact).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_be_bytes(self.array()?))
    }

    /// One 0/1 byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }

    /// u32 length + UTF-8 bytes.
    pub fn str_(&mut self) -> Result<String, CodecError> {
        let len = self.seq_len("string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// A u32 element count, rejected when it exceeds the remaining
    /// bytes (every element costs at least one byte, so a count larger
    /// than the input is malformed — and must not size an allocation).
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::BadLen {
                what,
                len: len as u64,
            });
        }
        Ok(len)
    }
}

/// A value with a byte encoding.
pub trait Codec: Sized {
    /// Append this value's encoding.
    fn encode(&self, enc: &mut Enc);

    /// Decode one value at the cursor.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// Encode to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decode a whole buffer, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

macro_rules! primitive_codec {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Codec for $ty {
            fn encode(&self, enc: &mut Enc) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
                dec.$get()
            }
        }
    };
}

primitive_codec!(u8, put_u8, u8);
primitive_codec!(u16, put_u16, u16);
primitive_codec!(u32, put_u32, u32);
primitive_codec!(u64, put_u64, u64);
primitive_codec!(usize, put_usize, usize_);
primitive_codec!(f64, put_f64, f64);
primitive_codec!(bool, put_bool, bool);

impl Codec for String {
    fn encode(&self, enc: &mut Enc) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.str_()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u32(self.len() as u32);
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let len = dec.seq_len("sequence")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, enc: &mut Enc) {
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(dec)?);
        }
        out.try_into().map_err(|_| CodecError::BadLen {
            what: "fixed array",
            len: N as u64,
        })
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(String::from("mobile access bandwidth"));
    }

    #[test]
    fn nan_payloads_roundtrip_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let bytes = weird.to_bytes();
        let back = f64::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1.5f64, -2.5, 3.25]);
        roundtrip([vec![1u64], vec![], vec![2, 3]]);
        roundtrip((7u32, String::from("x"), vec![false, true]));
    }

    #[test]
    fn truncated_input_is_a_typed_eof() {
        let bytes = 0xDEAD_BEEF_u64.to_bytes();
        assert!(matches!(
            u64::from_bytes(&bytes[..5]),
            Err(CodecError::Eof { wanted: 8, have: 5 })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut enc = Enc::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Vec::<f64>::from_bytes(&bytes),
            Err(CodecError::BadLen { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u8::from_bytes(&bytes),
            Err(CodecError::Trailing { bytes: 1 })
        ));
    }

    #[test]
    fn bad_bool_tag_is_typed() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(CodecError::BadTag { what: "bool", .. })
        ));
    }

    #[test]
    fn errors_render() {
        let e = CodecError::BadTag {
            what: "bool",
            tag: 9,
        };
        assert!(e.to_string().contains("bool"));
    }
}
