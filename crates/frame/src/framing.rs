//! The `magic | len | crc32 | payload` record framing.
//!
//! Extracted from `mbw-wire::resultslog` so the snapshot format reuses
//! the exact bytes-on-disk discipline the crash-safe results log
//! established:
//!
//! ```text
//! | magic u32 | len u16 or u32 | crc32 u32 | payload |
//! ```
//!
//! All integers are big-endian; the CRC (IEEE 802.3, see
//! [`crate::Crc32`]) covers the length field plus the payload, so a
//! frame whose length bytes were damaged can never validate. The
//! results log uses the narrow (u16-length) [`Framing::RESULTS_LOG`]
//! variant — byte-identical to the pre-extraction format — while
//! snapshots use the wide (u32-length) [`Framing::SNAPSHOT`] variant,
//! whose single frame can hold a whole partial-state body.
//!
//! [`Framing::frames`] walks the longest valid prefix of frames and
//! reports why it stopped, which is what both `LogRecovery` and the
//! snapshot reader build their truncate-to-recover behaviour on;
//! [`Framing::scan`] is the same walk collected into a [`FrameScan`].

use crate::crc::Crc32;

/// Results-log frame magic: "MBWL" big-endian.
pub const LOG_MAGIC: u32 = 0x4D42_574C;

/// Snapshot frame magic: "MBWS" big-endian.
pub const SNAP_MAGIC: u32 = 0x4D42_5753;

/// One framing convention: a magic plus a length-field width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// The u32 every frame must start with.
    pub magic: u32,
    /// `true` for a u32 length field, `false` for the original u16.
    pub wide: bool,
}

impl Framing {
    /// The results log's original narrow framing ("MBWL", u16 length).
    pub const RESULTS_LOG: Framing = Framing {
        magic: LOG_MAGIC,
        wide: false,
    };

    /// The snapshot container's wide framing ("MBWS", u32 length).
    pub const SNAPSHOT: Framing = Framing {
        magic: SNAP_MAGIC,
        wide: true,
    };

    /// Bytes before the payload: magic + length + crc32.
    pub const fn header_len(self) -> usize {
        4 + if self.wide { 4 } else { 2 } + 4
    }

    /// The largest payload one frame can carry.
    pub const fn max_payload(self) -> usize {
        if self.wide {
            u32::MAX as usize
        } else {
            u16::MAX as usize
        }
    }

    fn len_bytes(self, len: usize) -> ([u8; 4], usize) {
        if self.wide {
            ((len as u32).to_be_bytes(), 4)
        } else {
            let two = (len as u16).to_be_bytes();
            ([two[0], two[1], 0, 0], 2)
        }
    }

    /// Append one framed payload to `out`.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`Self::max_payload`] — an
    /// encode-side bug, not a recoverable input condition.
    pub fn append_frame(self, out: &mut Vec<u8>, payload: &[u8]) {
        assert!(
            payload.len() <= self.max_payload(),
            "payload of {} bytes exceeds the frame length field",
            payload.len()
        );
        out.extend_from_slice(&self.magic.to_be_bytes());
        let (len_buf, len_width) = self.len_bytes(payload.len());
        out.extend_from_slice(&len_buf[..len_width]);
        let mut crc = Crc32::new();
        crc.update(&len_buf[..len_width]);
        crc.update(payload);
        out.extend_from_slice(&crc.finish().to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// One framed payload as a fresh buffer.
    pub fn frame(self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + payload.len());
        self.append_frame(&mut out, payload);
        out
    }

    /// Walk the frames of `bytes` from the start, validating each as it
    /// is reached.
    ///
    /// `expected_len` pins every frame to one payload length (the
    /// results log's fixed-width records); `None` accepts any declared
    /// length that fits in the remaining bytes.
    pub fn frames(self, bytes: &[u8], expected_len: Option<usize>) -> Frames<'_> {
        Frames {
            framing: self,
            bytes,
            expected_len,
            at: 0,
            torn: None,
        }
    }

    /// Scan `bytes` for the longest valid prefix of frames, collected.
    /// See [`Self::frames`] for `expected_len`.
    pub fn scan<'a>(self, bytes: &'a [u8], expected_len: Option<usize>) -> FrameScan<'a> {
        let mut frames = self.frames(bytes, expected_len);
        let payloads = frames.by_ref().collect();
        FrameScan {
            payloads,
            valid_bytes: frames.valid_bytes(),
            truncated_bytes: bytes.len() as u64 - frames.valid_bytes(),
            torn: frames.torn(),
        }
    }
}

/// The payloads of the longest valid prefix of frames, in file order.
///
/// Yields one payload per frame that passes the magic, length and
/// checksum checks and ends at the first that does not (or at a clean
/// end of input); after that [`Frames::torn`] says why it stopped and
/// [`Frames::valid_bytes`] where.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    framing: Framing,
    bytes: &'a [u8],
    expected_len: Option<usize>,
    at: usize,
    torn: Option<TornReason>,
}

impl Frames<'_> {
    /// Bytes covered by the frames yielded so far.
    pub fn valid_bytes(&self) -> u64 {
        self.at as u64
    }

    /// Why the walk stopped, when it stopped before a clean end of
    /// input.
    pub fn torn(&self) -> Option<TornReason> {
        self.torn
    }

    /// Validate the frame `rest` starts with and return its length,
    /// header included.
    fn check(&self, rest: &[u8]) -> Result<usize, TornReason> {
        let header = self.framing.header_len();
        if rest.len() < header {
            return Err(TornReason::ShortFrame);
        }
        let be32 =
            |at: usize| u32::from_be_bytes([rest[at], rest[at + 1], rest[at + 2], rest[at + 3]]);
        if be32(0) != self.framing.magic {
            return Err(TornReason::BadMagic);
        }
        let crc_at = header - 4;
        let len = if self.framing.wide {
            be32(4) as usize
        } else {
            usize::from(u16::from_be_bytes([rest[4], rest[5]]))
        };
        if self.expected_len.is_some_and(|expected| len != expected) {
            return Err(TornReason::BadLength);
        }
        if rest.len() - header < len {
            return Err(TornReason::ShortFrame);
        }
        let mut crc = Crc32::new();
        crc.update(&rest[4..crc_at]);
        crc.update(&rest[header..header + len]);
        if crc.finish() != be32(crc_at) {
            return Err(TornReason::BadChecksum);
        }
        Ok(header + len)
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.torn.is_some() || self.at == self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.at..];
        match self.check(rest) {
            Ok(frame_len) => {
                self.at += frame_len;
                Some(&rest[self.framing.header_len()..frame_len])
            }
            Err(reason) => {
                self.torn = Some(reason);
                None
            }
        }
    }
}

/// Why a frame scan stopped before end-of-file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer bytes than a frame header (torn mid-header) or than the
    /// declared payload (torn mid-payload).
    ShortFrame,
    /// Frame does not start with the expected magic.
    BadMagic,
    /// Declared payload length is not the expected fixed width.
    BadLength,
    /// Checksum mismatch (torn or corrupted payload).
    BadChecksum,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TornReason::ShortFrame => "short frame",
            TornReason::BadMagic => "bad magic",
            TornReason::BadLength => "bad length",
            TornReason::BadChecksum => "bad checksum",
        })
    }
}

/// What [`Framing::scan`] found: the valid prefix and the torn tail.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan<'a> {
    /// Payloads of the valid prefix, in file order.
    pub payloads: Vec<&'a [u8]>,
    /// Bytes covered by the valid prefix.
    pub valid_bytes: u64,
    /// Bytes after the valid prefix (the torn tail).
    pub truncated_bytes: u64,
    /// Why the scan stopped, when it stopped before a clean EOF.
    pub torn: Option<TornReason>,
}

impl FrameScan<'_> {
    /// True when the input was already a clean sequence of frames.
    pub fn clean(&self) -> bool {
        self.torn.is_none() && self.truncated_bytes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_frame_layout_is_the_results_log_layout() {
        let frame = Framing::RESULTS_LOG.frame(b"hello");
        assert_eq!(&frame[0..4], &LOG_MAGIC.to_be_bytes());
        assert_eq!(&frame[4..6], &5u16.to_be_bytes());
        let mut crc = Crc32::new();
        crc.update(&5u16.to_be_bytes());
        crc.update(b"hello");
        assert_eq!(&frame[6..10], &crc.finish().to_be_bytes());
        assert_eq!(&frame[10..], b"hello");
    }

    #[test]
    fn scan_roundtrips_mixed_lengths() {
        let mut bytes = Vec::new();
        Framing::SNAPSHOT.append_frame(&mut bytes, b"");
        Framing::SNAPSHOT.append_frame(&mut bytes, b"one");
        Framing::SNAPSHOT.append_frame(&mut bytes, &[7u8; 1000]);
        let scan = Framing::SNAPSHOT.scan(&bytes, None);
        assert!(scan.clean());
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!(scan.payloads[1], b"one");
        assert_eq!(scan.payloads[2].len(), 1000);
    }

    #[test]
    fn torn_tail_recovers_to_longest_valid_prefix() {
        let mut bytes = Vec::new();
        for i in 0..4u8 {
            Framing::SNAPSHOT.append_frame(&mut bytes, &[i; 20]);
        }
        let whole = bytes.len();
        bytes.truncate(whole - 7);
        let scan = Framing::SNAPSHOT.scan(&bytes, None);
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!(scan.torn, Some(TornReason::ShortFrame));
        assert_eq!(scan.valid_bytes as usize, whole / 4 * 3);
    }

    #[test]
    fn bit_flip_is_caught() {
        let mut bytes = Framing::SNAPSHOT.frame(&[42u8; 64]);
        bytes[Framing::SNAPSHOT.header_len() + 10] ^= 0x01;
        let scan = Framing::SNAPSHOT.scan(&bytes, None);
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.torn, Some(TornReason::BadChecksum));
    }

    #[test]
    fn expected_len_pins_the_payload_width() {
        let bytes = Framing::RESULTS_LOG.frame(b"four");
        let scan = Framing::RESULTS_LOG.scan(&bytes, Some(5));
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.torn, Some(TornReason::BadLength));
        let scan = Framing::RESULTS_LOG.scan(&bytes, Some(4));
        assert!(scan.clean());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let bytes = Framing::SNAPSHOT.frame(b"payload");
        let scan = Framing::RESULTS_LOG.scan(&bytes, None);
        assert_eq!(scan.torn, Some(TornReason::BadMagic));
        assert_eq!(scan.valid_bytes, 0);
    }
}
