//! The versioned snapshot container: two wide frames, header then body.
//!
//! A snapshot file is exactly
//!
//! ```text
//! frame( version u16 | SnapshotHeader )  frame( body bytes )
//! ```
//!
//! using the wide [`Framing::SNAPSHOT`] ("MBWS", u32 length) framing.
//! The header carries *provenance* — what kind of partial state this
//! is, which seed and profile produced it, the hash of the campaign
//! plan it belongs to, and which shard of how many — so a reducer can
//! reject a mismatched partial at merge time with a typed error instead
//! of silently folding it into corrupt figures.
//!
//! Writes are atomic: bytes go to a same-directory temp file, are
//! fsynced, and are renamed over the target. A writer killed at any
//! instant leaves either no snapshot or a fully valid one — the same
//! guarantee the crash-safe results log gives per record, here given
//! per file.

use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{Codec, CodecError, Dec, Enc};
use crate::framing::{Framing, TornReason};

/// Current snapshot format version; bumped on any layout change.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Provenance carried by every snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// What the body holds, e.g. `"mbw.figures-partial"`.
    pub kind: String,
    /// The seed the producing run was keyed by.
    pub seed: u64,
    /// The ecosystem profile the run used.
    pub profile: String,
    /// FNV-1a hash of the encoded campaign plan parameters.
    pub plan_hash: u64,
    /// This shard's index within the plan.
    pub shard_index: u32,
    /// Total shards in the plan.
    pub shard_count: u32,
}

impl Codec for SnapshotHeader {
    fn encode(&self, enc: &mut Enc) {
        enc.put_str(&self.kind);
        enc.put_u64(self.seed);
        enc.put_str(&self.profile);
        enc.put_u64(self.plan_hash);
        enc.put_u32(self.shard_index);
        enc.put_u32(self.shard_count);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotHeader {
            kind: dec.str_()?,
            seed: dec.u64()?,
            profile: dec.str_()?,
            plan_hash: dec.u64()?,
            shard_index: dec.u32()?,
            shard_count: dec.u32()?,
        })
    }
}

/// Why snapshot bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The byte stream tore mid-frame (truncated or corrupted).
    Torn(TornReason),
    /// A header frame with no body frame after it.
    MissingBody,
    /// More than the two expected frames.
    TrailingFrames,
    /// A version this build does not read.
    WrongVersion {
        /// The version the file declared.
        found: u16,
    },
    /// The header payload itself was malformed.
    Header(CodecError),
}

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDecodeError::Torn(reason) => write!(f, "torn snapshot: {reason}"),
            SnapshotDecodeError::MissingBody => f.write_str("snapshot has no body frame"),
            SnapshotDecodeError::TrailingFrames => {
                f.write_str("snapshot has frames after the body")
            }
            SnapshotDecodeError::WrongVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} is not the supported version {SNAPSHOT_VERSION}"
                )
            }
            SnapshotDecodeError::Header(e) => write!(f, "snapshot header: {e}"),
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// A snapshot file operation that failed, naming the path.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file I/O failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file's bytes were not a valid snapshot.
    Decode {
        /// The file involved.
        path: PathBuf,
        /// What was wrong with the bytes.
        error: SnapshotDecodeError,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot file {}: {source}", path.display())
            }
            SnapshotError::Decode { path, error } => {
                write!(f, "snapshot file {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Decode { error, .. } => Some(error),
        }
    }
}

/// Encode a snapshot (header frame + body frame) to bytes.
pub fn encode_snapshot(header: &SnapshotHeader, body: &[u8]) -> Vec<u8> {
    let mut head = Enc::new();
    head.put_u16(SNAPSHOT_VERSION);
    header.encode(&mut head);
    let head = head.into_bytes();
    let mut out = Vec::with_capacity(2 * Framing::SNAPSHOT.header_len() + head.len() + body.len());
    Framing::SNAPSHOT.append_frame(&mut out, &head);
    Framing::SNAPSHOT.append_frame(&mut out, body);
    out
}

/// Validate snapshot bytes and say where the body payload lies.
///
/// Strict: the input must be exactly two clean frames of the current
/// version. Anything else — torn tail, missing body, extra frames,
/// unknown version, malformed header — is a typed error, never a panic.
fn locate(bytes: &[u8]) -> Result<(SnapshotHeader, Range<usize>), SnapshotDecodeError> {
    if bytes.is_empty() {
        return Err(SnapshotDecodeError::Torn(TornReason::ShortFrame));
    }
    let mut frames = Framing::SNAPSHOT.frames(bytes, None);
    let head = frames.next();
    let body = frames.next();
    let body_end = frames.valid_bytes() as usize;
    // Frames past the body are still checked: a tear anywhere in the
    // file outranks a count of its frames.
    let extra = frames.by_ref().count();
    if let Some(reason) = frames.torn() {
        return Err(SnapshotDecodeError::Torn(reason));
    }
    let (Some(head), Some(body)) = (head, body) else {
        return Err(SnapshotDecodeError::MissingBody);
    };
    if extra > 0 {
        return Err(SnapshotDecodeError::TrailingFrames);
    }
    let mut dec = Dec::new(head);
    let version = dec.u16().map_err(SnapshotDecodeError::Header)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotDecodeError::WrongVersion { found: version });
    }
    let header = SnapshotHeader::decode(&mut dec).map_err(SnapshotDecodeError::Header)?;
    dec.finish().map_err(SnapshotDecodeError::Header)?;
    Ok((header, body_end - body.len()..body_end))
}

/// Decode snapshot bytes into their header and a copy of the body
/// payload, after the checks of [`read_snapshot`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, Vec<u8>), SnapshotDecodeError> {
    let (header, body) = locate(bytes)?;
    Ok((header, bytes[body].to_vec()))
}

/// Atomically write a snapshot to `path`.
///
/// Bytes land in a same-directory temp file which is fsynced and then
/// renamed over `path`, so a crash at any point leaves either the old
/// state or the complete new snapshot — never a torn file under the
/// final name.
pub fn write_snapshot(
    path: &Path,
    header: &SnapshotHeader,
    body: &[u8],
) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(header, body);
    let io_err = |source: std::io::Error, p: &Path| SnapshotError::Io {
        path: p.to_path_buf(),
        source,
    };
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io_err(std::io::Error::other("path has no file name"), path))?;
    let tmp_name = format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(e, &tmp))?;
        file.write_all(&bytes).map_err(|e| io_err(e, &tmp))?;
        file.sync_all().map_err(|e| io_err(e, &tmp))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(e, path))?;
        // Durability of the rename itself: fsync the directory when we
        // can open it (best-effort on platforms that refuse).
        if let Some(d) = dir {
            if let Ok(dirf) = std::fs::File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Read and decode a snapshot file.
///
/// Strict: the file must be exactly two clean frames of the current
/// version; anything else is a typed error naming the path. The
/// returned body is the buffer the file was read into, cut down to the
/// body payload — one allocation of the file's size and one checksum
/// pass over it, no second copy.
pub fn read_snapshot(path: &Path) -> Result<(SnapshotHeader, Vec<u8>), SnapshotError> {
    let mut bytes = std::fs::read(path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let (header, body) = locate(&bytes).map_err(|error| SnapshotError::Decode {
        path: path.to_path_buf(),
        error,
    })?;
    bytes.truncate(body.end);
    bytes.drain(..body.start);
    Ok((header, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            kind: "mbw.figures-partial".into(),
            seed: 0xDA7A,
            profile: "paper-china".into(),
            plan_hash: 0x1234_5678_9ABC_DEF0,
            shard_index: 2,
            shard_count: 4,
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let body = vec![7u8; 513];
        let bytes = encode_snapshot(&header(), &body);
        let (h, b) = decode_snapshot(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(b, body);
    }

    /// The container's bytes on disk are frozen: parts written before
    /// the table-driven CRC and the in-place read must reduce after
    /// them, and the reverse. The hex is `encode_snapshot` of this
    /// header and body at 97f617d (the bitwise CRC).
    #[test]
    fn snapshot_bytes_are_frozen() {
        const FROZEN_HEX: &str = "\
            4d42575300000040a240c55a0001000000136d62772e666967757265732d7061\
            727469616c000000000000da7a0000000b70617065722d6368696e6112345678\
            9abcdef000000002000000044d42575300000029b5469e180b30557a9fc4e90e\
            33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186abd0f51a3f6489ae\
            d3";
        let frozen: Vec<u8> = (0..FROZEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&FROZEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let body: Vec<u8> = (0..41u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        assert_eq!(
            encode_snapshot(&header(), &body),
            frozen,
            "snapshot bytes changed on disk"
        );
        let (h, b) = decode_snapshot(&frozen).unwrap();
        assert_eq!(h, header());
        assert_eq!(b, body);
    }

    #[test]
    fn truncation_is_torn() {
        let bytes = encode_snapshot(&header(), b"body");
        for cut in [1, 5, bytes.len() - 1] {
            let err = decode_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotDecodeError::Torn(_)),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn empty_input_is_torn() {
        assert!(matches!(
            decode_snapshot(&[]),
            Err(SnapshotDecodeError::Torn(TornReason::ShortFrame))
        ));
    }

    #[test]
    fn missing_body_frame_is_typed() {
        let mut head = Enc::new();
        head.put_u16(SNAPSHOT_VERSION);
        header().encode(&mut head);
        let bytes = Framing::SNAPSHOT.frame(&head.into_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotDecodeError::MissingBody)
        ));
    }

    #[test]
    fn trailing_frames_are_typed() {
        let mut bytes = encode_snapshot(&header(), b"body");
        Framing::SNAPSHOT.append_frame(&mut bytes, b"extra");
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotDecodeError::TrailingFrames)
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut head = Enc::new();
        head.put_u16(SNAPSHOT_VERSION + 9);
        header().encode(&mut head);
        let mut bytes = Framing::SNAPSHOT.frame(&head.into_bytes());
        Framing::SNAPSHOT.append_frame(&mut bytes, b"body");
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotDecodeError::WrongVersion { found }) if found == SNAPSHOT_VERSION + 9
        ));
    }

    #[test]
    fn write_then_read_roundtrips_and_cleans_temp() {
        let dir = std::env::temp_dir().join(format!("mbw-frame-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.snap");
        write_snapshot(&path, &header(), b"the body").unwrap();
        let (h, b) = read_snapshot(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(b, b"the body");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1, "temp file left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_errors_name_the_path() {
        let missing = Path::new("/definitely/not/here.snap");
        let err = read_snapshot(missing).unwrap_err();
        assert!(err.to_string().contains("not/here.snap"));
    }
}
