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
//!   nothing or a fully valid snapshot.
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

pub use codec::{Codec, CodecError, Dec, Enc};
pub use crc::Crc32;
pub use framing::{FrameScan, Frames, Framing, TornReason, LOG_MAGIC, SNAP_MAGIC};
pub use snapshot::{
    decode_snapshot, read_snapshot, read_snapshot_into, write_snapshot, SnapshotDecodeError,
    SnapshotError, SnapshotHeader, SNAPSHOT_VERSION,
};

/// FNV-1a 64-bit hash — the plan-hash function snapshot provenance
/// uses. Stable across platforms and releases (the constants are part
/// of the on-disk format).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
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
}
