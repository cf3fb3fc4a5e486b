//! Shared on-disk framing and codec for serializable pipeline state.
//!
//! Three layers, each usable on its own:
//!
//! - [`crc`]: the CRC-32 (IEEE 802.3) digest both the results log and
//!   the snapshot format checksum their frames with.
//! - [`framing`]: the `magic | len | crc32 | payload` record framing
//!   that `mbw-wire`'s crash-safe results log introduced, extracted so
//!   the snapshot format reuses the exact same bytes-on-disk discipline
//!   (including longest-valid-prefix recovery of torn tails).
//! - [`codec`]: big-endian, length-prefixed encode/decode primitives
//!   with typed errors — the building blocks every figure accumulator's
//!   snapshot codec is written in. Malformed input returns
//!   [`codec::CodecError`], never panics.
//! - [`snapshot`]: the versioned two-frame snapshot container (header
//!   frame + body frame) carrying seed / profile / plan-hash
//!   provenance, with atomic writes so a killed writer leaves either
//!   nothing or a fully valid snapshot, read whole or with its body
//!   streamed to a decoder through one fixed window.
//!
//! This crate deliberately has **no dependencies**: it sits below
//! `mbw-wire`, `mbw-dataset`, `mbw-analysis`, `mbw-core`, and
//! `mbw-bench` in the workspace graph.
//!
//! Outside tests the crate denies `unwrap`, `expect` and `panic!`: it
//! decodes bytes read back from disk, and a malformed snapshot must come
//! back as a typed error.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
pub mod crc;
pub mod framing;
pub mod snapshot;

pub use codec::{Codec, CodecError, Dec, Enc, WINDOW};
pub use crc::Crc32;
pub use framing::{FrameScan, Frames, Framing, TornReason, LOG_MAGIC, SNAP_MAGIC};
pub use snapshot::{
    decode_snapshot, read_snapshot, read_snapshot_with, write_snapshot, SnapshotDecodeError,
    SnapshotError, SnapshotHeader, SNAPSHOT_VERSION,
};

/// FNV-1a 64-bit hash — the plan-hash function snapshot provenance
/// uses. Stable across platforms and releases (the constants are part
/// of the on-disk format).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write(bytes);
    hash.finish()
}

/// [`fnv1a64`] over bytes that arrive in pieces: FNV-1a is bytewise, so
/// the hash of the pieces written in order is the hash of their
/// concatenation, and nothing need be copied into one buffer first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of no bytes.
    pub const fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Fold in the next piece.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything written.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn pieces_hash_as_their_concatenation() {
        for split in 0..=6 {
            let (a, b) = b"foobar".split_at(split);
            let mut hash = Fnv1a64::default();
            hash.write(a);
            hash.write(b);
            assert_eq!(hash.finish(), 0x85944171F73967E8, "split at {split}");
        }
    }
}
