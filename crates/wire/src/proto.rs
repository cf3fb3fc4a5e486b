//! The Swiftest wire format.
//!
//! One datagram = one message. Layout: a magic byte (`0xB7`), a type
//! tag, then fixed-width big-endian fields; `Data` carries an opaque
//! payload that pads the packet to the probing packet size. The format
//! is deliberately trivial — the protocol's value is in *when* packets
//! are sent, not what they say.
//!
//! `decode` is the server's first contact with untrusted bytes, so
//! outside tests this module denies `unwrap`, `expect` and `panic!`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

/// Protocol magic byte.
pub const MAGIC: u8 = 0xB7;

/// Payload bytes carried by each [`Message::Data`] packet; with headers
/// this keeps datagrams comfortably under a 1500-byte MTU.
pub const DATA_PAYLOAD: usize = 1200;

/// Why the server turned a session away at admission.
///
/// Carried in [`Message::Reject`] as one byte; the variants mirror the
/// labels the service publishes under
/// `swiftest_service_rejected_total{reason=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The (tenant, token) pair is unknown — or the session skipped the
    /// handshake entirely on a server that requires one.
    BadToken,
    /// The session table or the admission queue is full.
    Capacity,
    /// The tenant's token bucket is empty: too many session starts per
    /// second.
    RateLimited,
    /// The server is shedding load to protect in-flight tests.
    Overloaded,
    /// The server is draining for shutdown and takes no new work.
    Draining,
}

impl RejectReason {
    /// Wire byte for this reason.
    pub fn as_u8(self) -> u8 {
        match self {
            RejectReason::BadToken => 1,
            RejectReason::Capacity => 2,
            RejectReason::RateLimited => 3,
            RejectReason::Overloaded => 4,
            RejectReason::Draining => 5,
        }
    }

    /// Parse the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(RejectReason::BadToken),
            2 => Some(RejectReason::Capacity),
            3 => Some(RejectReason::RateLimited),
            4 => Some(RejectReason::Overloaded),
            5 => Some(RejectReason::Draining),
            _ => None,
        }
    }

    /// Index into the telemetry label set
    /// (`mbw_telemetry::service::REJECT_REASON_LABELS`).
    pub fn label_index(self) -> usize {
        self.as_u8() as usize - 1
    }

    /// Whether a client may sensibly retry the same server after
    /// backing off (rate limiting and shedding are transient; a bad
    /// token is not).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            RejectReason::RateLimited | RejectReason::Overloaded | RejectReason::Capacity
        )
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::BadToken => "bad token",
            RejectReason::Capacity => "at capacity",
            RejectReason::RateLimited => "rate limited",
            RejectReason::Overloaded => "overloaded",
            RejectReason::Draining => "draining",
        })
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Latency probe (client → server).
    Ping {
        /// Echo token.
        nonce: u64,
    },
    /// Latency reply (server → client).
    Pong {
        /// The probe's token.
        nonce: u64,
    },
    /// Start probing, or change the probing rate mid-session
    /// (client → server).
    RateRequest {
        /// Client-chosen session identifier.
        session: u64,
        /// Requested downlink pacing rate, bits/second.
        rate_bps: u64,
    },
    /// One paced payload packet (server → client).
    Data {
        /// Session the packet belongs to.
        session: u64,
        /// Monotonic sequence number within the session.
        seq: u64,
        /// Padding payload.
        payload: Vec<u8>,
    },
    /// Periodic client feedback: how much arrived (client → server).
    Feedback {
        /// Session.
        session: u64,
        /// Total bytes received so far.
        received_bytes: u64,
    },
    /// End the session (client → server).
    Stop {
        /// Session.
        session: u64,
    },
    /// Admission handshake: request a session ticket before probing
    /// (client → server). Servers without admission control ignore it;
    /// servers with it answer [`Message::Admit`] or [`Message::Reject`].
    Hello {
        /// Tenant identifier (who is asking).
        tenant: u64,
        /// Tenant's shared-secret token.
        token: u64,
        /// Client-chosen session identifier the ticket is for.
        session: u64,
        /// Trace context: the client's trace identifier, or `0` for
        /// "not tracing". Encoded as an optional trailing field so
        /// pre-trace decoders (which read only the first 24 body
        /// bytes) interoperate unchanged.
        trace: u64,
    },
    /// Admission granted: the session may send its `RateRequest`
    /// (server → client).
    Admit {
        /// The admitted session.
        session: u64,
    },
    /// Admission denied, with a typed reason (server → client).
    Reject {
        /// The rejected session.
        session: u64,
        /// Why the server turned it away.
        reason: RejectReason,
    },
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Datagram shorter than its declared layout.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A `Reject` carried an unknown reason byte.
    BadReason(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated datagram"),
            ProtoError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::BadReason(b) => write!(f, "unknown reject reason {b}"),
        }
    }
}

impl std::error::Error for ProtoError {}

const TAG_PING: u8 = 1;
const TAG_PONG: u8 = 2;
const TAG_RATE: u8 = 3;
const TAG_DATA: u8 = 4;
const TAG_FEEDBACK: u8 = 5;
const TAG_STOP: u8 = 6;
const TAG_HELLO: u8 = 7;
const TAG_ADMIT: u8 = 8;
const TAG_REJECT: u8 = 9;

impl Message {
    /// Serialise into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(DATA_PAYLOAD + 32);
        buf.push(MAGIC);
        let mut put = |tag: u8, fields: &[u64]| {
            buf.push(tag);
            for f in fields {
                buf.extend_from_slice(&f.to_be_bytes());
            }
        };
        match self {
            Message::Ping { nonce } => put(TAG_PING, &[*nonce]),
            Message::Pong { nonce } => put(TAG_PONG, &[*nonce]),
            Message::RateRequest { session, rate_bps } => put(TAG_RATE, &[*session, *rate_bps]),
            Message::Data {
                session,
                seq,
                payload,
            } => {
                put(TAG_DATA, &[*session, *seq]);
                buf.extend_from_slice(payload);
            }
            Message::Feedback {
                session,
                received_bytes,
            } => put(TAG_FEEDBACK, &[*session, *received_bytes]),
            Message::Stop { session } => put(TAG_STOP, &[*session]),
            // Optional trailing trace context: omitted when zero so a
            // non-tracing client's HELLO is byte-identical to the
            // pre-trace wire format.
            Message::Hello {
                tenant,
                token,
                session,
                trace: 0,
            } => put(TAG_HELLO, &[*tenant, *token, *session]),
            Message::Hello {
                tenant,
                token,
                session,
                trace,
            } => put(TAG_HELLO, &[*tenant, *token, *session, *trace]),
            Message::Admit { session } => put(TAG_ADMIT, &[*session]),
            Message::Reject { session, reason } => {
                put(TAG_REJECT, &[*session]);
                buf.push(reason.as_u8());
            }
        }
        buf
    }

    /// Parse one datagram: any byte slice, `&[u8]` or an owned buffer.
    /// Every malformed input comes back as a [`ProtoError`].
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<Message, ProtoError> {
        let mut buf = buf.as_ref();
        let [magic, tag] = take::<2>(&mut buf)?;
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let mut u64_ = || take::<8>(&mut buf).map(u64::from_be_bytes);
        Ok(match tag {
            TAG_PING => Message::Ping { nonce: u64_()? },
            TAG_PONG => Message::Pong { nonce: u64_()? },
            TAG_RATE => Message::RateRequest {
                session: u64_()?,
                rate_bps: u64_()?,
            },
            TAG_DATA => Message::Data {
                session: u64_()?,
                seq: u64_()?,
                payload: buf.to_vec(),
            },
            TAG_FEEDBACK => Message::Feedback {
                session: u64_()?,
                received_bytes: u64_()?,
            },
            TAG_STOP => Message::Stop { session: u64_()? },
            TAG_HELLO => Message::Hello {
                tenant: u64_()?,
                token: u64_()?,
                session: u64_()?,
                // Optional trailing trace context; absent (or short) on
                // datagrams from pre-trace encoders, which is fine — it
                // defaults to "not tracing".
                trace: u64_().unwrap_or(0),
            },
            TAG_ADMIT => Message::Admit { session: u64_()? },
            TAG_REJECT => {
                let session = u64_()?;
                let [byte] = take::<1>(&mut buf)?;
                let reason = RejectReason::from_u8(byte).ok_or(ProtoError::BadReason(byte))?;
                Message::Reject { session, reason }
            }
            other => return Err(ProtoError::BadTag(other)),
        })
    }

    /// The `(session, seq)` of a data datagram, read from its header
    /// without copying the payload; `None` for any other datagram.
    pub fn data_header(buf: &[u8]) -> Option<(u64, u64)> {
        let mut buf = buf;
        let [MAGIC, TAG_DATA] = take::<2>(&mut buf).ok()? else {
            return None;
        };
        let session = u64::from_be_bytes(take::<8>(&mut buf).ok()?);
        Some((session, u64::from_be_bytes(take::<8>(&mut buf).ok()?)))
    }

    /// A standard-size data packet.
    pub fn data_packet(session: u64, seq: u64) -> Message {
        Message::Data {
            session,
            seq,
            payload: vec![0u8; DATA_PAYLOAD],
        }
    }
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], ProtoError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(ProtoError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_variant() {
        let msgs = vec![
            Message::Ping { nonce: 42 },
            Message::Pong { nonce: u64::MAX },
            Message::RateRequest {
                session: 7,
                rate_bps: 300_000_000,
            },
            Message::data_packet(7, 12345),
            Message::Feedback {
                session: 7,
                received_bytes: 1 << 30,
            },
            Message::Stop { session: 7 },
            Message::Hello {
                tenant: 3,
                token: 0xDEAD_BEEF_CAFE_F00D,
                session: 7,
                trace: 0,
            },
            Message::Hello {
                tenant: 3,
                token: 0xDEAD_BEEF_CAFE_F00D,
                session: 7,
                trace: 0x5EED_5EED_5EED_5EED,
            },
            Message::Admit { session: 7 },
            Message::Reject {
                session: 7,
                reason: RejectReason::RateLimited,
            },
        ];
        for msg in msgs {
            let decoded = Message::decode(msg.encode()).expect("roundtrip");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn a_data_header_reads_as_decode_does() {
        let wire = Message::data_packet(7, 12345).encode();
        assert_eq!(Message::data_header(&wire), Some((7, 12345)));
        // The header alone is enough; one byte less is not.
        assert_eq!(Message::data_header(&wire[..18]), Some((7, 12345)));
        assert_eq!(Message::data_header(&wire[..17]), None);
        for other in [
            Message::Ping { nonce: 1 },
            Message::Feedback {
                session: 7,
                received_bytes: 12345,
            },
        ] {
            assert_eq!(Message::data_header(&other.encode()), None);
        }
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(Message::data_header(&bad_magic), None);
    }

    #[test]
    fn data_packet_fits_in_an_mtu() {
        let wire = Message::data_packet(1, 1).encode();
        assert!(wire.len() <= 1500 - 28, "len {}", wire.len());
        assert!(wire.len() >= DATA_PAYLOAD);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = vec![0x00, TAG_PING];
        raw.extend_from_slice(&1u64.to_be_bytes());
        assert_eq!(Message::decode(&raw), Err(ProtoError::BadMagic(0)));
    }

    #[test]
    fn rejects_unknown_tag() {
        assert_eq!(Message::decode([MAGIC, 99]), Err(ProtoError::BadTag(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = Message::RateRequest {
            session: 1,
            rate_bps: 2,
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "decode succeeded at cut {cut}"
            );
        }
    }

    #[test]
    fn reject_reasons_roundtrip_and_unknown_bytes_fail() {
        for reason in [
            RejectReason::BadToken,
            RejectReason::Capacity,
            RejectReason::RateLimited,
            RejectReason::Overloaded,
            RejectReason::Draining,
        ] {
            assert_eq!(RejectReason::from_u8(reason.as_u8()), Some(reason));
            let msg = Message::Reject { session: 9, reason };
            assert_eq!(Message::decode(msg.encode()), Ok(msg));
        }
        let mut raw = vec![MAGIC, TAG_REJECT];
        raw.extend_from_slice(&9u64.to_be_bytes());
        raw.push(0); // reserved, never a valid reason
        assert_eq!(Message::decode(&raw), Err(ProtoError::BadReason(0)));
    }

    #[test]
    fn hello_trace_context_is_backward_compatible() {
        // Not tracing: the encoding is the pre-trace 24-byte body.
        let plain = Message::Hello {
            tenant: 1,
            token: 2,
            session: 3,
            trace: 0,
        };
        assert_eq!(plain.encode().len(), 2 + 24);

        // Tracing: eight extra trailing bytes that roundtrip.
        let traced = Message::Hello {
            tenant: 1,
            token: 2,
            session: 3,
            trace: 0xABCD,
        };
        let wire = traced.encode();
        assert_eq!(wire.len(), 2 + 32);
        assert_eq!(Message::decode(&wire), Ok(traced));

        // A pre-trace decoder reads only the first 24 body bytes; a
        // pre-trace *encoder* emits exactly those. Simulate its
        // datagram by truncating ours: the trace defaults to zero.
        let legacy = &wire[..2 + 24];
        assert_eq!(Message::decode(legacy), Ok(plain));
    }

    #[test]
    fn data_payload_survives() {
        let payload = vec![0xAB; 300];
        let msg = Message::Data {
            session: 1,
            seq: 2,
            payload: payload.clone(),
        };
        match Message::decode(msg.encode()).unwrap() {
            Message::Data { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod proptests {
    //! Decode-robustness properties: `decode` is the server's first
    //! contact with untrusted bytes, so it must never panic — only
    //! return `Ok` or a typed `ProtoError` — for *any* input.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary datagrams (including empty and oversized) never
        /// panic the decoder.
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let _ = Message::decode(&raw);
        }

        /// Arbitrary bytes behind a valid header never panic either —
        /// this forces the fuzzer past the magic/tag checks into the
        /// per-variant field parsing.
        #[test]
        fn decode_never_panics_past_a_valid_header(
            tag in 0u8..=12,
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut raw = Vec::with_capacity(2 + body.len());
            raw.push(MAGIC);
            raw.push(tag);
            raw.extend_from_slice(&body);
            let _ = Message::decode(&raw);
        }

        /// Every truncation of every variant's valid encoding fails
        /// cleanly with `Truncated` (or a header error), never a panic
        /// and never a bogus `Ok`.
        #[test]
        fn truncations_of_valid_encodings_fail_cleanly(
            which in 0usize..9,
            session in any::<u64>(),
            value in any::<u64>(),
        ) {
            let msg = match which {
                0 => Message::Ping { nonce: value },
                1 => Message::Pong { nonce: value },
                2 => Message::RateRequest { session, rate_bps: value },
                3 => Message::Data {
                    session,
                    seq: value,
                    payload: vec![0u8; 32],
                },
                4 => Message::Feedback { session, received_bytes: value },
                5 => Message::Stop { session },
                6 => Message::Hello {
                    tenant: value,
                    token: value.rotate_left(17),
                    session,
                    trace: 0,
                },
                7 => Message::Admit { session },
                _ => Message::Reject {
                    session,
                    reason: RejectReason::from_u8(1 + (value % 5) as u8).unwrap(),
                },
            };
            let wire = msg.encode();
            // `Data` accepts any payload length (it is opaque padding),
            // so truncations inside the payload still decode; cut before
            // the payload starts for it, everywhere for the rest.
            let cut_end = if matches!(msg, Message::Data { .. }) { 18 } else { wire.len() };
            for cut in 0..cut_end {
                prop_assert!(
                    Message::decode(&wire[..cut]).is_err(),
                    "variant {which} decoded at cut {cut}"
                );
            }
        }

        /// Encode→decode is the identity for fuzzed field values.
        #[test]
        fn roundtrip_holds_for_fuzzed_fields(session in any::<u64>(), value in any::<u64>()) {
            for msg in [
                Message::Ping { nonce: value },
                Message::RateRequest { session, rate_bps: value },
                Message::Feedback { session, received_bytes: value },
                Message::Stop { session },
                Message::Hello { tenant: session, token: value, session, trace: value },
                Message::Admit { session },
                Message::Reject {
                    session,
                    reason: RejectReason::from_u8(1 + (value % 5) as u8).unwrap(),
                },
            ] {
                prop_assert_eq!(Message::decode(msg.encode()), Ok(msg));
            }
        }
    }
}
