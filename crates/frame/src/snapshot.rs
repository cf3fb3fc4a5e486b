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
//!
//! There are two readers of one format. [`read_snapshot`] reads the
//! file whole and hands back the body's bytes. [`read_snapshot_with`]
//! hands a decoder the body as it streams off the file through the
//! checksum, in a window of [`WINDOW`](crate::WINDOW) bytes (64 KiB:
//! room for the largest take a reducer's decoders make of a valid part,
//! a 17 KB `BinnedCdf` bin run, and a sixteenth of a 1.05 MB body), so
//! a reducer folds a part of any size while holding 64 KiB of it.
//!
//! Both rank a file's faults the same way, so a file fails the same way
//! on either path. An I/O error, a tear (a short frame, a bad magic or a
//! checksum) anywhere in the file, a missing body or a frame after the
//! body outranks a bad version or a malformed header, which outranks
//! anything a decoder finds in the body. A streaming reader learns of a
//! tear only once the body has passed, so [`read_snapshot_with`] runs
//! the decoder first and then reads and checks the rest of the file
//! before it lets the decoder's result, or error, out.

use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{Codec, CodecError, Dec, Enc};
use crate::crc::Crc32;
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
/// pass over it, no second copy. [`read_snapshot_with`] decodes a body
/// without holding it.
pub fn read_snapshot(path: &Path) -> Result<(SnapshotHeader, Vec<u8>), SnapshotError> {
    use std::io::Read as _;
    let io_err = |source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    let mut buf = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
    file.read_to_end(&mut buf).map_err(io_err)?;
    let (header, body) = locate(&buf).map_err(|error| SnapshotError::Decode {
        path: path.to_path_buf(),
        error,
    })?;
    buf.truncate(body.end);
    buf.drain(..body.start);
    Ok((header, buf))
}

/// Read a snapshot file and decode its body with `decode`, which reads
/// the body payload through a [`Dec`] of one [`WINDOW`](crate::WINDOW),
/// not from a copy of it: what the file costs to read is that window,
/// however large its body. The window is `window`, lent to every frame's
/// [`Dec`] in turn ([`Dec::from_reader_in`]) and left in it for the next
/// file, so a reader of many files allocates one window for all of them.
///
/// The checks and their precedence are [`read_snapshot`]'s, so the same
/// file fails the same way on either path. The header frame is checked
/// and decoded first; `decode` runs only on a header that decoded, with
/// the body streaming through the checksum as it reads. Whatever
/// `decode` returns, the rest of the file is then read and checked: the
/// rest of the body, its checksum, and that no frame follows it. An I/O
/// error, a tear or a checksum anywhere, a missing body or a trailing
/// frame outranks a header error, and a header error outranks whatever
/// `decode` returned, so on a file that is not a clean snapshot the
/// error is the snapshot's and `decode`'s result is dropped. (Anything
/// `decode` did to its captures before it failed is not undone.)
pub fn read_snapshot_with<T, E: From<SnapshotError>>(
    path: &Path,
    window: &mut Vec<u8>,
    decode: impl FnOnce(SnapshotHeader, &mut Dec<'_>) -> Result<T, E>,
) -> Result<T, E> {
    let fail = |error| {
        E::from(match error {
            Fail::Io(source) => SnapshotError::Io {
                path: path.to_path_buf(),
                source,
            },
            Fail::Decode(error) => SnapshotError::Decode {
                path: path.to_path_buf(),
                error,
            },
        })
    };
    let mut file = SnapshotFile::open(path).map_err(fail)?;
    let Some(head_len) = file.next_frame().map_err(fail)? else {
        return Err(fail(Fail::Decode(SnapshotDecodeError::Torn(
            TornReason::ShortFrame,
        ))));
    };
    let header = file
        .payload(head_len, window, decode_header)
        .map_err(fail)?;
    let Some(body_len) = file.next_frame().map_err(fail)? else {
        return Err(fail(Fail::Decode(SnapshotDecodeError::MissingBody)));
    };
    let decoded = file
        .payload(body_len, window, |dec| header.map(|h| decode(h, dec)))
        .map_err(fail)?;
    let mut trailing = false;
    while let Some(len) = file.next_frame().map_err(fail)? {
        file.payload(len, window, |_| ()).map_err(fail)?;
        trailing = true;
    }
    if trailing {
        return Err(fail(Fail::Decode(SnapshotDecodeError::TrailingFrames)));
    }
    decoded.map_err(|error| fail(Fail::Decode(error)))?
}

/// The version and header of a header frame's payload.
fn decode_header(dec: &mut Dec<'_>) -> Result<SnapshotHeader, SnapshotDecodeError> {
    let version = dec.u16().map_err(SnapshotDecodeError::Header)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotDecodeError::WrongVersion { found: version });
    }
    let header = SnapshotHeader::decode(dec).map_err(SnapshotDecodeError::Header)?;
    if dec.is_done() {
        Ok(header)
    } else {
        Err(SnapshotDecodeError::Header(CodecError::Trailing {
            bytes: dec.remaining(),
        }))
    }
}

/// Why reading a snapshot file stopped.
enum Fail {
    Io(std::io::Error),
    Decode(SnapshotDecodeError),
}

impl From<TornReason> for Fail {
    fn from(reason: TornReason) -> Self {
        Fail::Decode(SnapshotDecodeError::Torn(reason))
    }
}

/// A snapshot file read front to back, frame by frame, with the checks
/// of [`Framing::frames`]: a frame's length is checked against the bytes
/// the file has left before any of its payload is read.
struct SnapshotFile {
    file: std::fs::File,
    /// Bytes of the file not yet read.
    left: u64,
    /// The checksum of the frame being read, so far.
    crc: Crc32,
    /// The checksum the frame being read declares.
    expected: u32,
    /// Bytes of the frame's payload not yet read.
    payload_left: usize,
    /// Why the payload being read stopped early, when it did.
    error: Option<std::io::Error>,
}

impl SnapshotFile {
    fn open(path: &Path) -> Result<Self, Fail> {
        let file = std::fs::File::open(path).map_err(Fail::Io)?;
        let left = file.metadata().map_err(Fail::Io)?.len();
        Ok(Self {
            file,
            left,
            crc: Crc32::new(),
            expected: 0,
            payload_left: 0,
            error: None,
        })
    }

    /// Check the next frame's header and return its payload length, or
    /// `None` at a clean end of the file.
    fn next_frame(&mut self) -> Result<Option<usize>, Fail> {
        use std::io::Read as _;
        if self.left == 0 {
            return Ok(None);
        }
        const HEAD: usize = Framing::SNAPSHOT.header_len();
        if self.left < HEAD as u64 {
            return Err(TornReason::ShortFrame.into());
        }
        let mut head = [0u8; HEAD];
        self.file.read_exact(&mut head).map_err(Fail::Io)?;
        self.left -= HEAD as u64;
        let [m0, m1, m2, m3, l0, l1, l2, l3, c0, c1, c2, c3] = head;
        if u32::from_be_bytes([m0, m1, m2, m3]) != Framing::SNAPSHOT.magic {
            return Err(TornReason::BadMagic.into());
        }
        let len = u32::from_be_bytes([l0, l1, l2, l3]);
        if u64::from(len) > self.left {
            return Err(TornReason::ShortFrame.into());
        }
        self.crc = Crc32::new();
        self.crc.update(&[l0, l1, l2, l3]);
        self.expected = u32::from_be_bytes([c0, c1, c2, c3]);
        self.payload_left = len as usize;
        Ok(Some(len as usize))
    }

    /// Read the `len`-byte payload of the frame [`Self::next_frame`]
    /// just checked through `decode`, on a [`Dec`] lent `window`, then
    /// the rest of it, and check its checksum.
    fn payload<T>(
        &mut self,
        len: usize,
        window: &mut Vec<u8>,
        decode: impl FnOnce(&mut Dec<'_>) -> T,
    ) -> Result<T, Fail> {
        let mut dec = Dec::from_reader_in(self, len, std::mem::take(window));
        let out = decode(&mut dec);
        *window = dec.into_window();
        let mut rest = [0u8; 4096];
        while self.payload_left > 0 && self.error.is_none() {
            let n = self.payload_left.min(rest.len());
            if let Ok(0) | Err(_) = std::io::Read::read(self, &mut rest[..n]) {
                break;
            }
        }
        if let Some(error) = self.error.take() {
            return Err(Fail::Io(error));
        }
        if self.payload_left > 0 {
            return Err(Fail::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        if self.crc.finish() != self.expected {
            return Err(TornReason::BadChecksum.into());
        }
        Ok(out)
    }
}

/// The payload of the frame being read, through its checksum. A read
/// error other than an interruption is kept for [`SnapshotFile::payload`]
/// to report, and ends the payload.
impl std::io::Read for SnapshotFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = buf.len().min(self.payload_left);
        if want == 0 || self.error.is_some() {
            return Ok(0);
        }
        loop {
            match self.file.read(&mut buf[..want]) {
                Ok(n) => {
                    let n = n.min(want);
                    self.crc.update(&buf[..n]);
                    self.payload_left -= n;
                    self.left = self.left.saturating_sub(n as u64);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.error = Some(e);
                    return Ok(0);
                }
            }
        }
    }
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

    /// `read_snapshot_with` reads every file as `read_snapshot` does: the
    /// same header and body from a clean one, the same error from any
    /// mutant, whatever the decoder did with the body (read it all, part
    /// of it, none, or failed), with a body three windows long.
    #[test]
    fn streamed_reads_match_whole_reads() {
        let dir = std::env::temp_dir().join(format!("mbw-frame-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.snap");
        let body: Vec<u8> = (0..3 * crate::WINDOW + 5)
            .map(|i| (i % 251) as u8)
            .collect();
        let bytes = encode_snapshot(&header(), &body);
        let frame = Framing::SNAPSHOT.header_len();
        let head_end = bytes.len() - frame - body.len();
        let mut mutants = vec![bytes.clone(), Vec::new()];
        for at in (0..head_end + frame).chain([head_end + frame + 7, bytes.len() - 1]) {
            let mut b = bytes.clone();
            b[at] ^= 0x10;
            mutants.push(b);
        }
        for cut in [
            1,
            frame,
            head_end - 1,
            head_end,
            head_end + 3,
            bytes.len() - 1,
        ] {
            mutants.push(bytes[..cut].to_vec());
        }
        let mut extra = bytes.clone();
        Framing::SNAPSHOT.append_frame(&mut extra, b"extra");
        mutants.push(extra.clone());
        extra.push(0);
        mutants.push(extra);

        // One window lent to every read, as a reducer lends it.
        let mut window = Vec::new();
        for (i, mutant) in mutants.iter().enumerate() {
            std::fs::write(&path, mutant).unwrap();
            let whole = read_snapshot(&path).map_err(|e| e.to_string());
            for take in [usize::MAX, 100, 0] {
                let streamed = read_snapshot_with(&path, &mut window, |h, dec| {
                    let n = take.min(dec.remaining());
                    let got = dec.take(n).map(<[u8]>::to_vec);
                    got.map(|b| (h, b)).map_err(|e| SnapshotError::Decode {
                        path: path.clone(),
                        error: SnapshotDecodeError::Header(e),
                    })
                })
                .map_err(|e| e.to_string());
                match (&whole, streamed) {
                    (Ok(want), Ok(got)) if take == usize::MAX => assert_eq!(&got, want, "{i}"),
                    (Ok(want), Ok((h, b))) => {
                        assert_eq!(h, want.0, "{i}");
                        assert_eq!(&want.1[..b.len()], &b[..], "{i}");
                    }
                    (Err(want), Err(got)) => assert_eq!(&got, want, "mutant {i}, take {take}"),
                    (want, got) => panic!("mutant {i}, take {take}: {got:?}, whole {want:?}"),
                }
            }
            let failed = read_snapshot_with(&path, &mut window, |_, _| {
                Err::<(), _>(SnapshotError::Io {
                    path: path.clone(),
                    source: std::io::Error::other("decoder failed"),
                })
            })
            .unwrap_err()
            .to_string();
            match &whole {
                Ok(_) => assert!(failed.ends_with("decoder failed"), "{i}: {failed}"),
                Err(want) => assert_eq!(&failed, want, "mutant {i}, failing decoder"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_errors_name_the_path() {
        let missing = Path::new("/definitely/not/here.snap");
        let err = read_snapshot(missing).unwrap_err();
        assert!(err.to_string().contains("not/here.snap"));
    }
}
