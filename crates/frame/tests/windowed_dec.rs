//! A [`Dec`] over a reader decodes exactly what a [`Dec`] over the same
//! bytes as one slice decodes: every primitive's value, every error
//! (`Eof { wanted, have }` included), `remaining` after each step and
//! `finish` at the end — whether the reader hands over a byte at a time
//! or many, is interrupted between reads, or is asked for a take larger
//! than the window. And it reads no byte past the input's length.

use mbw_frame::{CodecError, Dec, WINDOW};
use proptest::prelude::*;
use std::io::{ErrorKind, Read};

/// One decoder call.
#[derive(Debug, Clone, Copy)]
enum Op {
    U8,
    U16,
    U32,
    U64,
    Usize,
    F64,
    Bool,
    Str,
    SeqLen,
    Take(usize),
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::U8),
        Just(Op::U16),
        Just(Op::U32),
        Just(Op::U64),
        Just(Op::Usize),
        Just(Op::F64),
        Just(Op::Bool),
        Just(Op::Str),
        Just(Op::SeqLen),
        (0usize..24).prop_map(Op::Take),
        (0usize..700).prop_map(Op::Take),
        (WINDOW - 8..2 * WINDOW).prop_map(Op::Take),
    ]
}

/// What one call returned, comparable across the two modes.
fn step(dec: &mut Dec<'_>, op: Op) -> Result<String, CodecError> {
    Ok(match op {
        Op::U8 => dec.u8()?.to_string(),
        Op::U16 => dec.u16()?.to_string(),
        Op::U32 => dec.u32()?.to_string(),
        Op::U64 => dec.u64()?.to_string(),
        Op::Usize => dec.usize_()?.to_string(),
        Op::F64 => format!("{:#x}", dec.f64()?.to_bits()),
        Op::Bool => dec.bool()?.to_string(),
        Op::Str => dec.str_()?,
        Op::SeqLen => dec.seq_len("sequence")?.to_string(),
        Op::Take(n) => {
            let bytes = dec.take(n)?;
            format!(
                "{} bytes, fnv {:#x}",
                bytes.len(),
                mbw_frame::fnv1a64(bytes)
            )
        }
    })
}

/// Every step's result and the bytes left after it, then `finish`.
fn transcript(mut dec: Dec<'_>, ops: &[Op]) -> Vec<String> {
    let mut out: Vec<String> = ops
        .iter()
        .map(|&op| format!("{:?} left {}", step(&mut dec, op), dec.remaining()))
        .collect();
    out.push(format!("finish {:?}", dec.finish()));
    out
}

/// A reader that hands over 1..=`most` bytes a read (sizes drawn from
/// `seed`) and fails every third read with `Interrupted`.
struct Dribble<'b> {
    bytes: &'b [u8],
    at: usize,
    most: usize,
    seed: u64,
    reads: u64,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        if self.reads.is_multiple_of(3) {
            return Err(ErrorKind::Interrupted.into());
        }
        self.seed = self
            .seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let size = 1 + (self.seed >> 33) as usize % self.most;
        let n = size.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// `len` bytes from `seed`: mostly small values, so that lengths,
/// counts and bools decode as often as they fail.
fn input(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                0
            } else {
                (x >> 56) as u8 % 4
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn a_reader_decodes_as_the_slice_does(
        seed in any::<u64>(),
        len in prop_oneof![0usize..64, 0usize..1_000, WINDOW - 64..3 * WINDOW],
        ops in proptest::collection::vec(any_op(), 0..48),
        most in prop_oneof![1usize..4, 1usize..100, 1usize..200_000],
        read_seed in any::<u64>(),
    ) {
        // Bytes past the input sit in the reader and must stay there.
        let bytes = input(seed, len + 16);
        let sliced = transcript(Dec::new(&bytes[..len]), &ops);
        let mut reader = Dribble { bytes: &bytes, at: 0, most, seed: read_seed, reads: 0 };
        let streamed = transcript(Dec::from_reader(&mut reader, len), &ops);
        prop_assert_eq!(&sliced, &streamed);
        prop_assert!(reader.at <= len, "read {} bytes of a {}-byte input", reader.at, len);
    }

    #[test]
    fn a_lent_window_decodes_as_a_fresh_one(
        seed in any::<u64>(),
        len in prop_oneof![0usize..64, 0usize..1_000, WINDOW - 64..3 * WINDOW],
        ops in proptest::collection::vec(any_op(), 0..48),
        most in prop_oneof![1usize..4, 1usize..100, 1usize..200_000],
        lent in prop_oneof![0usize..1, 1usize..100, WINDOW..2 * WINDOW],
    ) {
        // A lent window holds what its last reader left in it.
        let bytes = input(seed, len + 16);
        let sliced = transcript(Dec::new(&bytes[..len]), &ops);
        let mut reader = Dribble { bytes: &bytes, at: 0, most, seed, reads: 0 };
        let window = vec![0xEE; lent];
        let streamed = transcript(Dec::from_reader_in(&mut reader, len, window), &ops);
        prop_assert_eq!(sliced, streamed);
    }
}

/// A cursor hands back the window it was lent, grown only where a take
/// needed more of it.
#[test]
fn a_lent_window_comes_back() {
    let bytes = input(7, 3 * WINDOW);
    let mut reader: &[u8] = &bytes;
    let mut dec = Dec::from_reader_in(&mut reader, bytes.len(), Vec::with_capacity(WINDOW));
    while !dec.is_done() {
        dec.u64().unwrap();
    }
    let window = dec.into_window();
    assert_eq!(window.len(), WINDOW);
    assert_eq!(window.capacity(), WINDOW);
    assert!(Dec::new(&bytes).into_window().is_empty());
}

/// A reader that fails, or ends early, ends the input where it stopped:
/// the decoder sees `Eof`, never a panic or a value.
#[test]
fn a_failing_reader_ends_the_input() {
    struct Broken(usize);
    impl Read for Broken {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0 == 0 {
                return Err(ErrorKind::Other.into());
            }
            let n = self.0.min(buf.len());
            buf[..n].fill(7);
            self.0 -= n;
            Ok(n)
        }
    }
    let mut reader = Broken(5);
    let mut dec = Dec::from_reader(&mut reader, 64);
    assert_eq!(dec.u32().unwrap(), 0x0707_0707);
    assert_eq!(dec.u32(), Err(CodecError::Eof { wanted: 4, have: 1 }));
    assert_eq!(dec.remaining(), 1);
    assert_eq!(dec.u8().unwrap(), 7);
    assert!(dec.finish().is_ok());

    let mut short: &[u8] = &[1, 2, 3];
    let mut dec = Dec::from_reader(&mut short, 10);
    assert_eq!(dec.u64(), Err(CodecError::Eof { wanted: 8, have: 3 }));
}
