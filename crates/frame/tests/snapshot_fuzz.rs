//! Property tests for the snapshot decoder: hostile bytes must come
//! back as typed errors — truncation, bit flips, wrong versions — and
//! a torn final frame must truncate-recover exactly like the results
//! log's `LogRecovery` does: longest valid prefix kept, tail reported.

use mbw_frame::{
    decode_snapshot, read_snapshot, write_snapshot, Codec, Dec, Framing, SnapshotDecodeError,
    SnapshotError, SnapshotHeader, TornReason, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

fn any_header() -> impl Strategy<Value = SnapshotHeader> {
    (
        "[a-z.\\-]{0,24}",
        any::<u64>(),
        "[a-z\\-]{0,16}",
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(kind, seed, profile, plan_hash, shard_index, shard_count)| SnapshotHeader {
                kind,
                seed,
                profile,
                plan_hash,
                shard_index,
                shard_count,
            },
        )
}

proptest! {
    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_snapshot(&bytes);
    }

    /// Arbitrary garbage never panics the generic codec layer either.
    #[test]
    fn arbitrary_bytes_never_panic_codecs(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SnapshotHeader::from_bytes(&bytes);
        let _ = Vec::<f64>::from_bytes(&bytes);
        let _ = <Vec<(u32, Vec<f64>)>>::from_bytes(&bytes);
        let mut dec = Dec::new(&bytes);
        let _ = dec.str_();
    }

    /// A valid snapshot roundtrips exactly.
    #[test]
    fn valid_snapshots_roundtrip(
        header in any_header(),
        body in proptest::collection::vec(any::<u8>(), 0..768),
    ) {
        let bytes = mbw_frame::snapshot::encode_snapshot(&header, &body);
        let (h, b) = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(h, header);
        prop_assert_eq!(b, body);
    }

    /// Every proper prefix of a valid snapshot is a typed error — a
    /// torn tail or a missing body, never a panic, never a bogus value.
    #[test]
    fn truncation_yields_typed_errors(
        header in any_header(),
        body in proptest::collection::vec(any::<u8>(), 1..512),
        frac in 0.0f64..1.0,
    ) {
        let bytes = mbw_frame::snapshot::encode_snapshot(&header, &body);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        let err = decode_snapshot(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(
            err,
            SnapshotDecodeError::Torn(_) | SnapshotDecodeError::MissingBody
        ));
    }

    /// Any single bit flip is caught: the checksum rejects payload and
    /// length damage, the magic check rejects magic damage. (A flip can
    /// land in the CRC field itself — still a checksum mismatch.)
    #[test]
    fn single_bit_flip_is_caught(
        header in any_header(),
        body in proptest::collection::vec(any::<u8>(), 1..256),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = mbw_frame::snapshot::encode_snapshot(&header, &body);
        let at = pos.index(bytes.len());
        bytes[at] ^= 1 << bit;
        match decode_snapshot(&bytes) {
            Err(_) => {}
            Ok((h, b)) => {
                // A flip in a length field can only shift frame
                // boundaries, which the CRC then rejects — decoding to
                // the *same* value would mean the flip did nothing.
                prop_assert!(h != header || b != body, "bit flip decoded to original value");
                prop_assert!(false, "bit flip at byte {} decoded successfully", at);
            }
        }
    }

    /// Through the file system: `read_snapshot` hands back what
    /// `write_snapshot` was given — bodies shorter than, equal to and
    /// just past the checksum's eight-byte stride included — and the
    /// same file with any one bit flipped is a typed decode error,
    /// never `Ok`.
    #[test]
    fn files_roundtrip_and_any_bit_flip_is_typed(
        header in any_header(),
        body in prop_oneof![
            Just(0usize), Just(1usize), Just(7usize), Just(8usize), Just(9usize), 0usize..768,
        ]
        .prop_flat_map(|len| proptest::collection::vec(any::<u8>(), len)),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let path = std::env::temp_dir()
            .join(format!("mbw-snapshot-fuzz-{}.snap", std::process::id()));
        write_snapshot(&path, &header, &body).unwrap();
        let read = read_snapshot(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos.index(bytes.len());
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let flipped = read_snapshot(&path);
        std::fs::remove_file(&path).unwrap();
        let (h, b) = read.unwrap();
        prop_assert_eq!(h, header);
        prop_assert_eq!(b, body);
        prop_assert!(
            matches!(flipped, Err(SnapshotError::Decode { .. })),
            "bit {} of byte {} flipped and the file read as {:?}", bit, at, flipped
        );
    }

    /// Unknown versions are a typed `WrongVersion`, carrying the
    /// version found.
    #[test]
    fn wrong_version_is_typed(
        header in any_header(),
        version in any::<u16>().prop_filter("not current", |v| *v != SNAPSHOT_VERSION),
    ) {
        let mut head = mbw_frame::Enc::new();
        head.put_u16(version);
        header.encode(&mut head);
        let mut bytes = Framing::SNAPSHOT.frame(&head.into_bytes());
        Framing::SNAPSHOT.append_frame(&mut bytes, b"body");
        prop_assert_eq!(
            decode_snapshot(&bytes).unwrap_err(),
            SnapshotDecodeError::WrongVersion { found: version }
        );
    }

    /// A stream of whole frames plus a torn final record recovers the
    /// longest valid prefix — the same truncate-to-recover contract
    /// `LogRecovery` gives the results log.
    #[test]
    fn torn_final_record_truncate_recovers(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..8,
        ),
        keep_frac in 0.0f64..1.0,
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            Framing::SNAPSHOT.append_frame(&mut bytes, p);
            boundaries.push(bytes.len());
        }
        let last_start = boundaries[boundaries.len() - 2];
        let tail_len = bytes.len() - last_start;
        let keep = last_start + ((tail_len as f64) * keep_frac) as usize;
        prop_assume!(keep < bytes.len());
        let scan = Framing::SNAPSHOT.scan(&bytes[..keep], None);
        prop_assert_eq!(scan.payloads.len(), payloads.len() - 1);
        prop_assert_eq!(scan.valid_bytes as usize, last_start);
        prop_assert_eq!(scan.truncated_bytes as usize, keep - last_start);
        if keep > last_start {
            prop_assert_eq!(scan.torn, Some(TornReason::ShortFrame));
        }
        for (got, want) in scan.payloads.iter().zip(&payloads) {
            prop_assert_eq!(*got, &want[..]);
        }
    }
}
