//! Crash-safe append-only results log.
//!
//! A long-running BTS must not lose completed measurements to a power
//! cut or a `kill -9`: the paper's longitudinal analysis depends on
//! every finished test being on disk. This module writes one framed,
//! checksummed record per finished session:
//!
//! ```text
//! | magic u32 (0x4D42574C "MBWL") | len u16 | crc32 u32 | payload |
//! ```
//!
//! The payload is fixed-width big-endian and mirrors the columnar
//! `TrialOutcome` row the analysis pipeline already consumes (tenant,
//! session, start time, duration, ping RTT, bytes delivered, estimate,
//! ground truth, completion flag). The CRC (IEEE 802.3, computed over
//! `len` + payload) makes torn and bit-flipped frames detectable.
//!
//! Recovery on open scans from the start; the first frame that fails
//! magic/length/checksum validation marks the torn tail, which is
//! truncated away so the file is again a clean prefix of valid frames.
//! Everything before the tear replays byte-identically — re-encoding
//! the recovered records reproduces the retained bytes exactly, which
//! is what the kill−9 integration test asserts.
//!
//! The framing itself (magic/len/crc layout, CRC-32, torn-prefix scan)
//! now lives in `mbw-frame` as [`Framing::RESULTS_LOG`], shared with
//! the snapshot format; this module keeps the fixed-width payload
//! codec and the file lifecycle, and its on-disk bytes are frozen by
//! `log_bytes_are_frozen` below — extraction changed no byte.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mbw_frame::Framing;
pub use mbw_frame::{Crc32, TornReason, LOG_MAGIC};

/// Fixed payload width: 3×u64 + 5×f64 + 1 flag byte.
pub const RECORD_PAYLOAD_LEN: usize = 65;

/// Full frame width on disk.
pub const RECORD_FRAME_LEN: usize = 4 + 2 + 4 + RECORD_PAYLOAD_LEN;

/// One finished session, as persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultRecord {
    /// Tenant that ran the test (0 when admission is open).
    pub tenant: u64,
    /// Wire session identifier.
    pub session: u64,
    /// Session start, milliseconds since the server's epoch.
    pub started_ms: u64,
    /// Test duration, seconds.
    pub duration_s: f64,
    /// Measured ping RTT, seconds (0 when unknown).
    pub ping_s: f64,
    /// Payload bytes delivered to the client.
    pub data_bytes: f64,
    /// The bandwidth estimate, Mbps.
    pub estimate_mbps: f64,
    /// Ground-truth capacity when known (simulation), else 0.
    pub truth_mbps: f64,
    /// Whether the test ran to convergence.
    pub complete: bool,
}

impl ResultRecord {
    /// Serialise the fixed-width payload.
    pub fn encode_payload(&self) -> [u8; RECORD_PAYLOAD_LEN] {
        let mut out = [0u8; RECORD_PAYLOAD_LEN];
        let mut at = 0usize;
        for v in [self.tenant, self.session, self.started_ms] {
            out[at..at + 8].copy_from_slice(&v.to_be_bytes());
            at += 8;
        }
        for v in [
            self.duration_s,
            self.ping_s,
            self.data_bytes,
            self.estimate_mbps,
            self.truth_mbps,
        ] {
            out[at..at + 8].copy_from_slice(&v.to_be_bytes());
            at += 8;
        }
        out[at] = u8::from(self.complete);
        out
    }

    /// Parse a fixed-width payload (`None` on wrong length or a flag
    /// byte that is neither 0 nor 1).
    pub fn decode_payload(payload: &[u8]) -> Option<ResultRecord> {
        if payload.len() != RECORD_PAYLOAD_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_be_bytes(payload[i..i + 8].try_into().unwrap());
        let f64_at = |i: usize| f64::from_be_bytes(payload[i..i + 8].try_into().unwrap());
        let complete = match payload[64] {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(ResultRecord {
            tenant: u64_at(0),
            session: u64_at(8),
            started_ms: u64_at(16),
            duration_s: f64_at(24),
            ping_s: f64_at(32),
            data_bytes: f64_at(40),
            estimate_mbps: f64_at(48),
            truth_mbps: f64_at(56),
            complete,
        })
    }

    /// Serialise the full frame (magic, length, checksum, payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        Framing::RESULTS_LOG.frame(&self.encode_payload())
    }
}

/// The deterministic record for index `i`, shared by the `logwriter`
/// helper binary and the kill−9 integration test so the test can
/// verify the recovered prefix record-for-record.
#[doc(hidden)]
pub fn sample_record(i: u64) -> ResultRecord {
    ResultRecord {
        tenant: i % 7,
        session: i,
        started_ms: i.wrapping_mul(13),
        duration_s: 0.5 + (i as f64) * 1e-3,
        ping_s: 0.02 + ((i % 40) as f64) * 1e-3,
        data_bytes: 1.0e6 + i as f64,
        estimate_mbps: 50.0 + ((i % 100) as f64),
        truth_mbps: 52.5,
        complete: i % 5 != 0,
    }
}

/// What [`ResultsLog::open`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecovery {
    /// Records recovered from the valid prefix, in append order.
    pub records: Vec<ResultRecord>,
    /// Bytes retained (the valid prefix length).
    pub valid_bytes: u64,
    /// Bytes truncated away as the torn tail.
    pub truncated_bytes: u64,
    /// Why the scan stopped, when it stopped before a clean EOF.
    pub torn: Option<TornReason>,
}

impl LogRecovery {
    /// True when the file was already a clean sequence of valid frames.
    pub fn clean(&self) -> bool {
        self.torn.is_none() && self.truncated_bytes == 0
    }
}

/// The append-only log writer.
#[derive(Debug)]
pub struct ResultsLog {
    file: File,
    path: PathBuf,
    appended: u64,
    /// The frame being appended; reused so an append allocates nothing.
    frame: Vec<u8>,
}

impl ResultsLog {
    /// Open (creating if absent) the log at `path`, recover the valid
    /// prefix, and truncate any torn tail so subsequent appends extend
    /// a clean file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(ResultsLog, LogRecovery)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let recovery = scan(&bytes);
        if recovery.truncated_bytes > 0 {
            file.set_len(recovery.valid_bytes)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(recovery.valid_bytes))?;
        Ok((
            ResultsLog {
                file,
                path,
                appended: 0,
                frame: Vec::with_capacity(RECORD_FRAME_LEN),
            },
            recovery,
        ))
    }

    /// Append one record and hand it to the OS: the whole frame goes
    /// out in one `write_all` on the unbuffered file, so a crash leaves
    /// at most one torn frame at the tail.
    pub fn append(&mut self, record: &ResultRecord) -> io::Result<()> {
        self.frame.clear();
        Framing::RESULTS_LOG.append_frame(&mut self.frame, &record.encode_payload());
        self.file.write_all(&self.frame)?;
        self.appended += 1;
        Ok(())
    }

    /// Force appended frames to stable storage (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Records appended through this handle (not counting recovered
    /// history).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-read every valid record currently on disk (recovered history
    /// plus this handle's appends). Purely diagnostic; does not move
    /// the append cursor.
    pub fn read_all(path: impl AsRef<Path>) -> io::Result<LogRecovery> {
        let bytes = std::fs::read(path)?;
        Ok(scan(&bytes))
    }
}

/// Scan `bytes` for the longest valid prefix of frames.
///
/// Frame validation (magic/length/checksum, longest-valid-prefix)
/// delegates to the shared [`Framing::RESULTS_LOG`] frame walk; records
/// are decoded straight off it. A frame whose checksum passes but whose
/// payload is not a valid record (impossible flag byte) marks the torn
/// tail with [`TornReason::BadLength`], exactly as the pre-extraction
/// scanner did.
fn scan(bytes: &[u8]) -> LogRecovery {
    let mut frames = Framing::RESULTS_LOG.frames(bytes, Some(RECORD_PAYLOAD_LEN));
    let mut records = Vec::with_capacity(bytes.len() / RECORD_FRAME_LEN);
    let mut bad_record = None;
    for payload in frames.by_ref() {
        let Some(record) = ResultRecord::decode_payload(payload) else {
            bad_record = Some(TornReason::BadLength);
            break;
        };
        records.push(record);
    }
    // Every frame walked is RECORD_FRAME_LEN wide, so the records kept
    // say where the valid prefix ends.
    let valid_bytes = (records.len() * RECORD_FRAME_LEN) as u64;
    LogRecovery {
        records,
        valid_bytes,
        truncated_bytes: bytes.len() as u64 - valid_bytes,
        torn: bad_record.or(frames.torn()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(session: u64) -> ResultRecord {
        ResultRecord {
            tenant: 3,
            session,
            started_ms: 1_000 + session,
            duration_s: 4.2,
            ping_s: 0.032,
            data_bytes: 1.8e7,
            estimate_mbps: 87.5,
            truth_mbps: 92.0,
            complete: session % 2 == 0,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbw-resultslog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The on-disk byte layout is frozen: extracting the framing into
    /// `mbw-frame` must not change a single byte of an existing log.
    /// The expected hex was captured from the pre-extraction encoder
    /// for `sample_record(0..3)`.
    #[test]
    fn log_bytes_are_frozen() {
        const FROZEN_HEX: &str = "\
            4d42574c0041dc2bd55d00000000000000000000000000000000000000000000\
            00003fe00000000000003f947ae147ae147b412e848000000000404900000000\
            0000404a400000000000004d42574c00418f5a2cae0000000000000001000000\
            0000000001000000000000000d3fe0083126e978d53f95810624dd2f1b412e84\
            82000000004049800000000000404a400000000000014d42574c004122d7c21c\
            00000000000000020000000000000002000000000000001a3fe010624dd2f1aa\
            3f96872b020c49ba412e848400000000404a000000000000404a400000000000\
            01";
        let frozen: Vec<u8> = (0..FROZEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&FROZEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let encoded: Vec<u8> = (0..3)
            .flat_map(|i| sample_record(i).encode_frame())
            .collect();
        assert_eq!(encoded, frozen, "results log bytes changed on disk");
        // And the frozen bytes still decode to the same records.
        let recovery = scan(&frozen);
        assert!(recovery.clean());
        assert_eq!(recovery.records.len(), 3);
        for (i, r) in recovery.records.iter().enumerate() {
            assert_eq!(*r, sample_record(i as u64));
        }
    }

    #[test]
    fn payload_roundtrips_byte_identically() {
        let r = record(7);
        let payload = r.encode_payload();
        let back = ResultRecord::decode_payload(&payload).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode_payload(), payload);
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = tmp("replay");
        {
            let (mut log, recovery) = ResultsLog::open(&path).unwrap();
            assert!(recovery.clean());
            assert!(recovery.records.is_empty());
            for s in 0..5 {
                log.append(&record(s)).unwrap();
            }
            log.sync().unwrap();
        }
        let (_log, recovery) = ResultsLog::open(&path).unwrap();
        assert!(recovery.clean());
        assert_eq!(recovery.records.len(), 5);
        for (i, r) in recovery.records.iter().enumerate() {
            assert_eq!(*r, record(i as u64));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_recovers_to_longest_valid_prefix() {
        let path = tmp("torn");
        {
            let (mut log, _) = ResultsLog::open(&path).unwrap();
            for s in 0..4 {
                log.append(&record(s)).unwrap();
            }
        }
        // Tear the last frame: chop 20 bytes off the file.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 20]).unwrap();
        let (mut log, recovery) = ResultsLog::open(&path).unwrap();
        assert_eq!(recovery.records.len(), 3);
        assert_eq!(recovery.torn, Some(TornReason::ShortFrame));
        assert_eq!(recovery.valid_bytes, (3 * RECORD_FRAME_LEN) as u64);
        assert_eq!(recovery.truncated_bytes, (RECORD_FRAME_LEN - 20) as u64);
        // The torn tail is gone from disk and appends extend cleanly.
        log.append(&record(99)).unwrap();
        let after = ResultsLog::read_all(&path).unwrap();
        assert!(after.clean());
        assert_eq!(after.records.len(), 4);
        assert_eq!(after.records[3], record(99));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let path = tmp("flip");
        {
            let (mut log, _) = ResultsLog::open(&path).unwrap();
            for s in 0..3 {
                log.append(&record(s)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second frame.
        bytes[RECORD_FRAME_LEN + 30] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let (_log, recovery) = ResultsLog::open(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.torn, Some(TornReason::BadChecksum));
        assert_eq!(
            recovery.truncated_bytes,
            (2 * RECORD_FRAME_LEN) as u64,
            "everything from the corrupt frame on is dropped"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn impossible_flag_byte_marks_the_torn_tail() {
        let mut bytes = sample_record(0).encode_frame();
        let mut payload = sample_record(1).encode_payload();
        payload[RECORD_PAYLOAD_LEN - 1] = 2;
        Framing::RESULTS_LOG.append_frame(&mut bytes, &payload);
        bytes.extend(sample_record(2).encode_frame());
        let recovery = scan(&bytes);
        assert_eq!(recovery.records, vec![sample_record(0)]);
        assert_eq!(recovery.torn, Some(TornReason::BadLength));
        assert_eq!(recovery.valid_bytes, RECORD_FRAME_LEN as u64);
        assert_eq!(recovery.truncated_bytes, (2 * RECORD_FRAME_LEN) as u64);
    }

    #[test]
    fn zero_length_and_garbage_files_recover() {
        let path = tmp("zero");
        std::fs::write(&path, b"").unwrap();
        let (_log, recovery) = ResultsLog::open(&path).unwrap();
        assert!(recovery.clean());
        assert!(recovery.records.is_empty());
        drop(_log);
        std::fs::write(&path, b"not a log at all, definitely prose").unwrap();
        let (_log, recovery) = ResultsLog::open(&path).unwrap();
        assert!(recovery.records.is_empty());
        assert_eq!(recovery.torn, Some(TornReason::BadMagic));
        assert_eq!(recovery.valid_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovered_prefix_reencodes_byte_identically() {
        let path = tmp("ident");
        {
            let (mut log, _) = ResultsLog::open(&path).unwrap();
            for s in 0..6 {
                log.append(&record(s)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7); // torn mid-frame
        std::fs::write(&path, &bytes).unwrap();
        let (_log, recovery) = ResultsLog::open(&path).unwrap();
        let reencoded: Vec<u8> = recovery
            .records
            .iter()
            .flat_map(|r| r.encode_frame())
            .collect();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(
            reencoded, on_disk,
            "recovered records replay byte-identically"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
