//! The Swiftest wire client: a socket driver of `mbw-core`'s
//! [`SwiftestSession`], the same decision core the simulator drives.
//!
//! The session decides (§5.1): the first rate, each escalation, the
//! stop, the estimate and the status. This module keeps the I/O: PING
//! the candidate servers from one socket and rank them, the HELLO/ADMIT
//! handshake, rate requests and feedback, a window every 50 ms (fed to
//! the session from the first data datagram on), and failover (§5.3).
//! The PING phase retries with jittered backoff and returns a typed
//! error when the whole fleet is dead; a server that goes quiet for
//! `stall_timeout` fails the test over to the next-best one, keeping its
//! partial estimate (flagged Degraded) only if no later server completes
//! a test.

use crate::error::{RetryPolicy, TestPhase, WireError};
use crate::proto::Message;
use crate::server::{is_timeout, Ticker, UdpTestServer};
use mbw_core::decision::ProbeLog;
use mbw_core::estimator::{BandwidthEstimator, ConvergenceEstimator};
use mbw_core::outcome::{DegradeReason, TestStatus};
use mbw_core::probe::SwiftestConfig;
use mbw_core::session::{Next, SwiftestSession};
use mbw_core::SAMPLE_INTERVAL_MS;
use mbw_stats::Gmm;
use mbw_telemetry::trace::ArgValue;
use mbw_telemetry::{ProbeTimeline, TimelineEvent, Tracer};
use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinguishes concurrent sessions from one process; the admission
/// controller keys pending tickets by session id alone.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

fn fresh_session_id() -> u64 {
    (u64::from(std::process::id()) << 32) | NEXT_SESSION.fetch_add(1, Ordering::Relaxed)
}

/// The holes in one session's data sequence: the datagrams the server
/// sent that never arrived, by their `seq` (the server numbers each
/// session's datagrams 0, 1, 2, ...). A late datagram fills its hole, a
/// duplicate counts once, and a hole still open `REORDER` datagrams
/// later is closed for good, so the state stays bounded.
#[derive(Debug, Default)]
struct SeqHoles {
    /// One past the highest seq seen.
    next: u64,
    /// Holes that a reordered datagram may still fill.
    open: BTreeSet<u64>,
    /// Holes closed for good.
    closed: u64,
}

impl SeqHoles {
    const REORDER: u64 = 1024;

    fn arrived(&mut self, seq: u64) {
        if seq < self.next {
            self.open.remove(&seq);
            return;
        }
        let fillable = seq.saturating_sub(Self::REORDER).max(self.next);
        self.closed += fillable - self.next;
        self.open.extend(fillable..seq);
        self.next = seq.saturating_add(1);
        while self
            .open
            .first()
            .is_some_and(|&s| s.saturating_add(Self::REORDER) < self.next)
        {
            self.open.pop_first();
            self.closed += 1;
        }
    }

    /// Datagrams that never arrived.
    fn lost(&self) -> u64 {
        self.closed + self.open.len() as u64
    }
}

/// The next datagram on a connected socket, if one arrives before
/// `deadline`.
fn recv_before(socket: &UdpSocket, deadline: Instant, buf: &mut [u8]) -> Option<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return None;
    }
    socket.set_read_timeout(Some(left)).ok()?;
    socket.recv(buf).ok()
}

/// Servers that answered a PING round, with their round-trip times.
type Ranking = Vec<(SocketAddr, Duration)>;

/// Credentials for the HELLO/ADMIT admission handshake (by default
/// anonymous: tenant and token 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionAuth {
    /// Tenant identifier.
    pub tenant: u64,
    /// The tenant's shared-secret token.
    pub token: u64,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct WireTestConfig {
    /// The probing rules: the time cap, the saturation margin, the growth
    /// past the largest mode. The wire default escalates at 90% of the
    /// rate, not 96%: real windows fall a few percent short of it.
    pub swiftest: SwiftestConfig,
    /// PING timeout per server.
    pub ping_timeout: Duration,
    /// Convergence tolerance over the last ten samples. The simulator
    /// uses the paper's 3%; on real sockets, packetisation quantises a
    /// 50 ms window to whole packets (±1 packet ≈ 4% at 5 Mbps), so the
    /// wire default is 5%.
    pub convergence_tolerance: f64,
    /// Backoff schedule for dead PING rounds.
    pub retry: RetryPolicy,
    /// How long the probe phase tolerates total silence before declaring
    /// the server stalled. Shorter than ten sample windows, so a silent
    /// stream can never satisfy the convergence rule first.
    pub stall_timeout: Duration,
    /// Credentials for the HELLO/ADMIT handshake. `None` skips the
    /// handshake entirely (the pre-service flow).
    pub auth: Option<SessionAuth>,
    /// Per-attempt wait for the server's ADMIT/REJECT answer.
    pub handshake_timeout: Duration,
    /// Span tracer for the test. Disabled by default; when enabled, the
    /// client records admission/probe spans and propagates its trace id
    /// inside HELLO so the server's spans join the same trace.
    pub tracer: Tracer,
}

impl Default for WireTestConfig {
    fn default() -> Self {
        Self {
            swiftest: SwiftestConfig {
                saturation_margin: 0.90,
                ..SwiftestConfig::default()
            },
            ping_timeout: Duration::from_millis(500),
            convergence_tolerance: 0.05,
            retry: RetryPolicy::default(),
            stall_timeout: Duration::from_millis(400),
            auth: None,
            handshake_timeout: Duration::from_millis(500),
            tracer: Tracer::disabled(),
        }
    }
}

/// Result of one wire test.
#[derive(Debug, Clone)]
pub struct WireTestReport {
    /// Final bandwidth estimate, Mbps.
    pub estimate_mbps: f64,
    /// Probing time (excluding server selection).
    pub duration: Duration,
    /// Server-selection (PING) time.
    pub ping_time: Duration,
    /// Bytes received.
    pub data_bytes: u64,
    /// Data datagrams the server sent that never arrived, counted from
    /// the gaps in their sequence numbers: what the link or this host
    /// dropped, up to the last datagram received. Also the timeline's
    /// `lost_datagrams` annotation.
    pub lost_datagrams: u64,
    /// The server that served the test.
    pub server: SocketAddr,
    /// How the test completed (converged / partial / nothing usable).
    pub status: TestStatus,
    /// How many ranked servers were abandoned before this one answered.
    pub failovers: u32,
    /// Per-event record of the test: phase starts, each window's bytes
    /// and sample, rate escalations, stalls, retries, failovers,
    /// convergence. The
    /// epoch (`at_ns` = 0) is the successful probe's start; selection
    /// events (retries, failovers) that happened before it are recorded
    /// at 0, and the PING overhead is in the `ping_ms` metadata key.
    pub timeline: ProbeTimeline,
}

/// The Swiftest client.
pub struct SwiftestClient {
    model: Gmm,
    config: WireTestConfig,
}

impl SwiftestClient {
    /// Client probing from the given technology model.
    pub fn new(model: Gmm, config: WireTestConfig) -> Self {
        Self { model, config }
    }

    /// One PING round over every candidate, sent from one socket;
    /// returns the servers that answered within `ping_timeout`,
    /// unsorted.
    fn ping_round(&self, candidates: &[SocketAddr]) -> Ranking {
        const NONCE_BASE: u64 = 0x5EED_0000;
        let Ok(socket) = UdpSocket::bind("127.0.0.1:0") else {
            return Vec::new();
        };
        // When each candidate's PING left, until its PONG is in.
        let mut pending: Vec<Option<Instant>> = candidates
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let sent = Instant::now();
                let ping = Message::Ping {
                    nonce: NONCE_BASE + i as u64,
                };
                socket.send_to(&ping.encode(), addr).ok().map(|_| sent)
            })
            .collect();
        let deadline = Instant::now() + self.config.ping_timeout;
        let mut live = Vec::new();
        let mut buf = [0u8; 64];
        while pending.iter().any(Option::is_some) {
            let Some(len) = recv_before(&socket, deadline, &mut buf) else {
                break;
            };
            if let Ok(Message::Pong { nonce }) = Message::decode(&buf[..len]) {
                let i = usize::try_from(nonce.wrapping_sub(NONCE_BASE)).unwrap_or(usize::MAX);
                if let Some(sent) = pending.get_mut(i).and_then(Option::take) {
                    live.push((candidates[i], sent.elapsed()));
                }
            }
        }
        live
    }

    /// PING every candidate concurrently, retrying dead rounds per the
    /// configured [`RetryPolicy`]; return the responders sorted fastest
    /// first, the total selection time and the PING rounds it took (1 =
    /// no retries, so callers can record the retries on a timeline). A
    /// fleet where *nobody* answers any round yields
    /// [`WireError::NoServerReachable`].
    pub fn rank_servers(
        &self,
        candidates: &[SocketAddr],
    ) -> Result<(Ranking, Duration, u32), WireError> {
        let started = Instant::now();
        let mut spans = self.config.tracer.local();
        let rank_span = spans.begin();
        let rounds = self.config.retry.attempts.max(1);
        // Decorrelated jitter, not the fixed exponential ladder: a
        // blackout cuts off whole fleets at once, and identical delays
        // would bring every client back in the same synchronized wave.
        let mut backoff = self.config.retry.backoff(fresh_session_id());
        let (mut live, mut round) = (Vec::new(), 0);
        while live.is_empty() && round < rounds {
            if round > 0 {
                std::thread::sleep(backoff.next_delay());
            }
            live = self.ping_round(candidates);
            round += 1;
        }
        live.sort_by_key(|&(_, rtt)| rtt);
        spans.end_with(
            rank_span,
            0,
            "client.rank",
            "wire",
            vec![
                ("candidates", ArgValue::U64(candidates.len() as u64)),
                ("alive", ArgValue::U64(live.len() as u64)),
                ("rounds", ArgValue::U64(u64::from(round))),
            ],
        );
        if live.is_empty() {
            return Err(WireError::NoServerReachable {
                attempted: candidates.len(),
                rounds,
            });
        }
        Ok((live, started.elapsed(), round))
    }

    /// The HELLO/ADMIT handshake in up to `attempts` tries, with
    /// decorrelated jitter between them: `Ok` on ADMIT, `Rejected` on
    /// REJECT, `Deadline(Admission)` on silence. Without credentials one
    /// anonymous try carries the trace id and its outcome is ignored; the
    /// reply is still consumed, so it cannot pollute the probe's bytes.
    fn hello(
        &self,
        socket: &UdpSocket,
        server: SocketAddr,
        auth: SessionAuth,
        session: u64,
        attempts: u32,
    ) -> Result<(), WireError> {
        let mut backoff = self.config.retry.backoff(session ^ auth.tenant);
        let hello = Message::Hello {
            tenant: auth.tenant,
            token: auth.token,
            session,
            trace: self.config.tracer.trace_id(),
        }
        .encode();
        for attempt in 1..=attempts {
            socket.send(&hello)?;
            let wait = Instant::now() + self.config.handshake_timeout;
            let mut buf = [0u8; 64];
            while let Some(len) = recv_before(socket, wait, &mut buf) {
                match Message::decode(&buf[..len]) {
                    Ok(Message::Admit { session: s }) if s == session => return Ok(()),
                    Ok(Message::Reject { session: s, reason }) if s == session => {
                        return Err(WireError::Rejected { server, reason });
                    }
                    // Anything else (stray data, old pongs) is not ours.
                    _ => {}
                }
            }
            if attempt < attempts {
                std::thread::sleep(backoff.next_delay());
            }
        }
        Err(WireError::Deadline {
            phase: TestPhase::Admission,
            after: self.config.handshake_timeout,
        })
    }

    /// Run one full test against the chosen server.
    pub fn run_test(&self, server: SocketAddr) -> Result<WireTestReport, WireError> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(server)?;
        let session = fresh_session_id();
        let mut spans = self.config.tracer.local();
        let test_span = spans.begin();
        let hello_span = spans.begin();
        let admitted = match self.config.auth {
            Some(auth) => {
                let attempts = self.config.retry.attempts.max(1);
                let admitted = self.hello(&socket, server, auth, session, attempts);
                let ok = ("ok", ArgValue::U64(admitted.is_ok() as u64));
                let args = vec![("session", ArgValue::U64(session)), ok];
                spans.end_with(hello_span, test_span.id, "client.admit", "wire", args);
                admitted
            }
            None if self.config.tracer.enabled() => {
                let _ = self.hello(&socket, server, SessionAuth::default(), session, 1);
                spans.end(hello_span, test_span.id, "client.hello", "wire");
                Ok(())
            }
            None => Ok(()),
        };
        let report = admitted.and_then(|()| {
            let probe_span = spans.begin();
            let report = self.probe(&socket, server, session)?;
            let samples = report.timeline.trajectory().len() as u64;
            spans.end_with(
                probe_span,
                test_span.id,
                "client.probe",
                "wire",
                vec![
                    ("session", ArgValue::U64(session)),
                    ("bytes", ArgValue::U64(report.data_bytes)),
                    ("samples", ArgValue::U64(samples)),
                    ("estimate_mbps", ArgValue::F64(report.estimate_mbps)),
                ],
            );
            Ok(report)
        });
        spans.end_with(
            test_span,
            0,
            "client.run_test",
            "wire",
            vec![
                ("session", ArgValue::U64(session)),
                ("server", ArgValue::Text(server.to_string())),
            ],
        );
        report
    }

    /// The probe phase on an admitted `session`: a socket driver of one
    /// [`SwiftestSession`]. It reads datagrams, closes a window every
    /// 50 ms from the first one on, sends feedback and the rates the
    /// session asks for, and watches for a stalled server.
    fn probe(
        &self,
        socket: &UdpSocket,
        server: SocketAddr,
        session: u64,
    ) -> Result<WireTestReport, WireError> {
        let mut estimator = ConvergenceEstimator::new(10, self.config.convergence_tolerance, 0);
        let mut timeline = ProbeTimeline::new();
        timeline.annotate("server", &server.to_string());
        if let Some(auth) = self.config.auth {
            timeline.annotate("tenant", &auth.tenant.to_string());
        }
        timeline.start(0, "swiftest-wire", estimator.name());
        let started = Instant::now();
        let rules = &self.config.swiftest;
        let (mut probe, mut rate_mbps) =
            SwiftestSession::new(&self.model, &mut estimator, rules, 0, &mut timeline);
        let request = |rate_mbps: f64| {
            let rate_bps = (rate_mbps * 1e6) as u64;
            socket.send(&Message::RateRequest { session, rate_bps }.encode())
        };
        request(rate_mbps)?;

        // Windows are ticked from the rate request on, and the first one
        // fed to the session is the one the first data datagram arrives
        // in; until then only the stall watchdog runs. A ticker started
        // at that datagram would put each window boundary on one of the
        // server's send bursts, where the slightest delay moves a whole
        // burst into the next window.
        let mut tick = Ticker::new(Duration::from_millis(SAMPLE_INTERVAL_MS));
        let (mut total_bytes, mut window_bytes) = (0u64, 0u64);
        let mut holes = SeqHoles::default();
        let mut last_rx = started;
        let mut buf = vec![0u8; 2048];
        // Each turn either waits for a datagram until the next window is
        // due or closes the due window.
        let stalled = loop {
            let wait = tick.until_due();
            if !wait.is_zero() {
                socket.set_read_timeout(Some(wait))?;
                match socket.recv(&mut buf) {
                    Ok(len) => {
                        // Only this session's data counts; its header
                        // says which datagram it is.
                        let header = Message::data_header(&buf[..len]);
                        let Some((_, seq)) = header.filter(|&(s, _)| s == session) else {
                            continue;
                        };
                        holes.arrived(seq);
                        total_bytes += len as u64;
                        window_bytes += len as u64;
                        last_rx = Instant::now();
                    }
                    Err(e) if is_timeout(&e) => {}
                    // A transient error (an ICMP refusal on the connected
                    // socket) is bounded by the stall watchdog; yield so
                    // an erroring socket cannot spin the loop hot.
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
                continue;
            }
            tick.advance();
            if total_bytes == 0 {
                if last_rx.elapsed() >= self.config.stall_timeout {
                    // The server never sent a byte.
                    let idle = last_rx.elapsed();
                    return Err(WireError::ServerStalled { server, idle });
                }
                continue;
            }
            let now_ns = started.elapsed().as_nanos() as u64;
            let next = probe.on_window(now_ns, std::mem::take(&mut window_bytes) as f64);
            // Stall watchdog: total silence for longer than the threshold
            // means the server is gone, not slow.
            if last_rx.elapsed() >= self.config.stall_timeout {
                break Some(DegradeReason::Stall);
            }
            // Feedback keeps the server informed (and exercises the
            // protocol's reverse path); its loss is harmless.
            let feedback = Message::Feedback {
                session,
                received_bytes: total_bytes,
            };
            let _ = socket.send(&feedback.encode());
            let Next::Probe { rate_mbps: next } = next else {
                break None;
            };
            if next != rate_mbps {
                rate_mbps = next;
                let _ = request(rate_mbps);
            }
        };
        let _ = socket.send(&Message::Stop { session }.encode());
        let duration = started.elapsed();
        let (estimate_mbps, status) = probe.finish(duration, stalled);
        timeline.annotate("lost_datagrams", &holes.lost().to_string());
        Ok(WireTestReport {
            estimate_mbps,
            duration,
            ping_time: Duration::ZERO,
            data_bytes: total_bytes,
            lost_datagrams: holes.lost(),
            server,
            status,
            failovers: 0,
            timeline,
        })
    }

    /// Run the test against servers in the given preference order,
    /// failing over to the next one when a server stalls or errors.
    /// A server that went quiet after data had arrived died mid-test:
    /// its partial estimate is returned only if every later server
    /// fails too. Exposed so chaos tests can script the order
    /// deterministically; [`measure`](Self::measure) ranks by PING
    /// first.
    pub fn measure_ranked(
        &self,
        ranked: &[SocketAddr],
        ping_time: Duration,
    ) -> Result<WireTestReport, WireError> {
        let mut last_err = None;
        let mut chosen = None;
        for (failovers, &server) in (0u32..).zip(ranked) {
            match self.run_test(server) {
                Ok(report) => {
                    let stalled = report.status == TestStatus::Degraded(DegradeReason::Stall);
                    if chosen.is_none() || !stalled {
                        chosen = Some((report, failovers));
                    }
                    if !stalled {
                        break;
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if let Some((mut report, failovers)) = chosen {
            report.ping_time = ping_time;
            report.failovers = failovers;
            if failovers > 0 && report.status.is_complete() {
                report.status = TestStatus::Degraded(DegradeReason::ServerSwitch);
            }
            let timeline = &mut report.timeline;
            timeline.annotate("ping_ms", &ping_time.as_millis().to_string());
            for attempt in 1..=failovers {
                // Abandoned servers pre-date the successful probe's
                // epoch; record them at its origin.
                timeline.record(0, TimelineEvent::Failover { attempt });
            }
            return Ok(report);
        }
        // More than one server tried: summarise; one: keep the specific
        // error (e.g. ServerStalled) so the caller sees the real cause.
        Err(match last_err {
            Some(e) if ranked.len() == 1 => e,
            _ => WireError::AllServersFailed {
                attempted: ranked.len(),
            },
        })
    }

    /// Select a server among `candidates` and run the test — the whole
    /// user-visible flow, with failover to the next-best server if the
    /// chosen one dies mid-test.
    pub fn measure(&self, candidates: &[SocketAddr]) -> Result<WireTestReport, WireError> {
        let (ranked, ping_time, rounds) = self.rank_servers(candidates)?;
        let order: Vec<SocketAddr> = ranked.iter().map(|&(addr, _)| addr).collect();
        let mut report = self.measure_ranked(&order, ping_time)?;
        for round in 2..=rounds {
            // Dead PING rounds also pre-date the probe epoch.
            report.timeline.record(0, TimelineEvent::Retry { round });
        }
        Ok(report)
    }
}

/// Spin up `n` local test servers sharing an emulated capacity — the
/// one-process test bed used by the examples and integration tests.
pub fn spawn_local_fleet(
    n: usize,
    emulated_capacity_bps: Option<u64>,
) -> std::io::Result<(Vec<UdpTestServer>, Vec<SocketAddr>)> {
    let config = crate::server::ServerConfig {
        emulated_capacity_bps,
        ..Default::default()
    };
    let servers = (0..n)
        .map(|_| UdpTestServer::start(config.clone()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let addrs = servers.iter().map(UdpTestServer::local_addr).collect();
    Ok((servers, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rate_model() -> Gmm {
        // Modes kept low so loopback pacing is reliable in CI: the modal
        // ladder is 10 → 30 → 60 Mbps.
        Gmm::from_triples(&[(0.5, 10.0, 2.0), (0.3, 30.0, 5.0), (0.2, 60.0, 8.0)]).unwrap()
    }

    #[test]
    fn selects_the_only_live_server() {
        let (servers, addrs) = spawn_local_fleet(3, None).unwrap();
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let (ranked, total, _) = client.rank_servers(&addrs).unwrap();
        let (chosen, rtt) = ranked[0];
        assert!(addrs.contains(&chosen));
        assert!(rtt < Duration::from_millis(100));
        assert!(total < Duration::from_secs(1));
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn no_server_is_an_error() {
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = client.rank_servers(&[dead]).unwrap_err();
        assert!(matches!(err, WireError::NoServerReachable { .. }));
    }

    #[test]
    fn an_all_dead_fleet_errors_promptly() {
        // Three dead candidates, two ping rounds with backoff: the typed
        // error must arrive well inside (rounds × ping_timeout + backoff),
        // not hang until some outer deadline.
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let fleet: Vec<SocketAddr> = vec![
            "127.0.0.1:1".parse().unwrap(),
            "127.0.0.1:2".parse().unwrap(),
            "127.0.0.1:3".parse().unwrap(),
        ];
        let t0 = Instant::now();
        let err = client.measure(&fleet).unwrap_err();
        let elapsed = t0.elapsed();
        match err {
            WireError::NoServerReachable { attempted, rounds } => {
                assert_eq!(attempted, 3);
                assert_eq!(rounds, 2);
            }
            other => panic!("expected NoServerReachable, got {other}"),
        }
        assert!(elapsed < Duration::from_secs(3), "took {elapsed:?}");
    }

    #[test]
    fn a_partially_dead_fleet_still_selects_the_live_server() {
        let (servers, mut addrs) = spawn_local_fleet(1, None).unwrap();
        let live = addrs[0];
        addrs.insert(0, "127.0.0.1:1".parse().unwrap());
        addrs.push("127.0.0.1:2".parse().unwrap());
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let (ranked, _total, _rounds) = client.rank_servers(&addrs).unwrap();
        assert_eq!(ranked[0].0, live);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn a_stalled_server_yields_a_typed_error() {
        // The stall server answers the PING, then never paces a byte: the
        // client must bail with ServerStalled soon after stall_timeout,
        // not wait out max_duration.
        let stall = crate::faulty::StallServer::start().unwrap();
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let t0 = Instant::now();
        let err = client.measure(&[stall.local_addr()]).unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            matches!(err, WireError::ServerStalled { .. }),
            "expected ServerStalled, got {err}"
        );
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
        stall.shutdown();
    }

    #[test]
    fn fails_over_to_the_next_best_server() {
        let _net = crate::net_test_lock();
        let stall = crate::faulty::StallServer::start().unwrap();
        let (servers, addrs) = spawn_local_fleet(1, Some(10_000_000)).unwrap();
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        // Scripted preference order: the stalling server first, the live
        // one second — measure_ranked must abandon the first and succeed.
        let order = vec![stall.local_addr(), addrs[0]];
        let report = client.measure_ranked(&order, Duration::ZERO).unwrap();
        assert_eq!(report.failovers, 1);
        assert_eq!(report.server, addrs[0]);
        assert!(
            report.timeline.entries().iter().any(|e| matches!(
                e.event,
                mbw_telemetry::TimelineEvent::Failover { attempt: 1 }
            )),
            "failover missing from timeline"
        );
        assert!(report.status.is_degraded(), "status {:?}", report.status);
        assert!(
            (report.estimate_mbps - 10.0).abs() < 4.0,
            "estimate {:.1}",
            report.estimate_mbps
        );
        stall.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn measures_an_emulated_20mbps_link() {
        let _net = crate::net_test_lock();
        let cap = 20_000_000u64;
        let (servers, addrs) = spawn_local_fleet(2, Some(cap)).unwrap();
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        let report = client.measure(&addrs).unwrap();
        // The ladder escalates 10 → 30; 30 exceeds the 20 Mbps cap, so
        // the stream saturates there and the estimate lands near 20.
        assert!(
            (report.estimate_mbps - 20.0).abs() < 6.0,
            "estimate {:.1} Mbps",
            report.estimate_mbps
        );
        assert!(report.duration < Duration::from_secs(5));
        assert!(report.data_bytes > 100_000);
        // The timeline tells the same story as the report.
        assert!(!report.timeline.trajectory().is_empty());
        assert!(report.timeline.meta().contains_key("ping_ms"));
        let summary = report.timeline.summary().expect("finished timeline");
        assert!((summary.estimate_mbps - report.estimate_mbps).abs() < 1e-9);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn authenticated_client_handshakes_and_measures() {
        use crate::admission::{AdmissionConfig, TenantConfig};
        let _net = crate::net_test_lock();
        let server = UdpTestServer::start(crate::server::ServerConfig {
            emulated_capacity_bps: Some(10_000_000),
            admission: Some(
                AdmissionConfig::open(8).with_tenants(vec![TenantConfig::new(7, 0x5EC12E7)]),
            ),
            ..Default::default()
        })
        .unwrap();
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                auth: Some(SessionAuth {
                    tenant: 7,
                    token: 0x5EC12E7,
                }),
                ..WireTestConfig::default()
            },
        );
        let report = client.measure(&[server.local_addr()]).unwrap();
        assert!(
            (report.estimate_mbps - 10.0).abs() < 4.0,
            "estimate {:.1}",
            report.estimate_mbps
        );
        let metrics = server.service_metrics();
        assert_eq!(metrics.admitted_total(), 1);
        server.shutdown();
    }

    #[test]
    fn wrong_token_is_a_typed_rejection() {
        use crate::admission::{AdmissionConfig, TenantConfig};
        let server = UdpTestServer::start(crate::server::ServerConfig {
            admission: Some(
                AdmissionConfig::open(8).with_tenants(vec![TenantConfig::new(7, 0x5EC12E7)]),
            ),
            ..Default::default()
        })
        .unwrap();
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                auth: Some(SessionAuth {
                    tenant: 7,
                    token: 0xBAD,
                }),
                ..WireTestConfig::default()
            },
        );
        let err = client.run_test(server.local_addr()).unwrap_err();
        match err {
            WireError::Rejected { reason, .. } => {
                assert_eq!(reason, crate::proto::RejectReason::BadToken)
            }
            other => panic!("expected Rejected, got {other}"),
        }
        server.shutdown();
    }

    #[test]
    fn auth_client_still_works_against_a_plain_server() {
        // Lab servers run without an admission controller; they answer
        // HELLO with ADMIT so authenticated clients interoperate.
        let _net = crate::net_test_lock();
        let (servers, addrs) = spawn_local_fleet(1, Some(10_000_000)).unwrap();
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                auth: Some(SessionAuth {
                    tenant: 1,
                    token: 0,
                }),
                ..WireTestConfig::default()
            },
        );
        let report = client.measure(&addrs).unwrap();
        assert!(report.estimate_mbps > 5.0, "{:.1}", report.estimate_mbps);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn loopback_trace_joins_client_and_server_spans() {
        use std::sync::Arc;
        let _net = crate::net_test_lock();
        let clock = Arc::new(mbw_telemetry::WallClock::new());
        let client_tracer = Tracer::new(clock.clone(), 0xC11E);
        let server_tracer = Tracer::new(clock, 0x5E17);
        let server = UdpTestServer::start(crate::server::ServerConfig {
            emulated_capacity_bps: Some(10_000_000),
            tracer: server_tracer.clone(),
            ..Default::default()
        })
        .unwrap();
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                tracer: client_tracer.clone(),
                ..WireTestConfig::default()
            },
        );
        let report = client.measure(&[server.local_addr()]).unwrap();
        assert!(report.estimate_mbps > 3.0, "{:.1}", report.estimate_mbps);
        // Let the server process the Stop, then flush its serve loop by
        // shutting down (aborting the loop drops its recording handle).
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();

        let client_spans = client_tracer.spans();
        for name in [
            "client.rank",
            "client.hello",
            "client.probe",
            "client.run_test",
        ] {
            assert!(
                client_spans.iter().any(|s| s.name == name),
                "missing client span {name}: {client_spans:?}"
            );
        }
        assert!(client_spans.iter().all(|s| s.trace == 0xC11E));
        // The server recorded its spans under the *client's* trace id.
        let server_spans = server_tracer.spans();
        let joined: Vec<_> = server_spans.iter().filter(|s| s.trace == 0xC11E).collect();
        for name in ["server.hello", "server.session"] {
            assert!(
                joined.iter().any(|s| s.name == name),
                "missing joined span {name}: {server_spans:?}"
            );
        }
        // The probe nests under the whole test.
        let test_span = client_spans
            .iter()
            .find(|s| s.name == "client.run_test")
            .unwrap();
        let probe = client_spans
            .iter()
            .find(|s| s.name == "client.probe")
            .unwrap();
        assert_eq!(probe.parent, test_span.id);
        assert!(probe.dur_ns <= test_span.dur_ns);
    }

    #[test]
    fn traced_hello_interops_with_a_pre_trace_server() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let _net = crate::net_test_lock();
        // Emulate a *pre-trace* server: its HELLO decoder reads exactly
        // the original 24 body bytes and ignores anything after them,
        // which is how the old `Message::decode` behaved. A tracing
        // client's 8 extra trailing bytes must be ignored gracefully —
        // interop must not fail.
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(2)))
            .unwrap();
        let addr = sock.local_addr().unwrap();
        let hello_len = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&hello_len);
        let stop = Arc::new(AtomicBool::new(false));
        let legacy_stop = Arc::clone(&stop);
        let legacy = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let mut active: Option<(SocketAddr, u64)> = None;
            // Paces one data packet per 2 ms read timeout while a
            // session is active.
            while !legacy_stop.load(Ordering::Relaxed) {
                let Ok((len, peer)) = sock.recv_from(&mut buf) else {
                    if let Some((peer, session)) = active {
                        let _ = sock.send_to(&Message::data_packet(session, 0).encode(), peer);
                    }
                    continue;
                };
                if len < 2 || buf[0] != crate::proto::MAGIC {
                    continue;
                }
                match buf[1] {
                    // HELLO: parse tenant/token/session from the first
                    // 24 body bytes only; trailing bytes (the trace id)
                    // are invisible to this server.
                    7 if len >= 26 => {
                        seen.store(len as u64, Ordering::Relaxed);
                        let session = u64::from_be_bytes(buf[18..26].try_into().unwrap());
                        let mut admit = vec![crate::proto::MAGIC, 8];
                        admit.extend_from_slice(&session.to_be_bytes());
                        let _ = sock.send_to(&admit, peer);
                    }
                    // RateRequest starts the paced stream.
                    3 if len >= 18 => {
                        let session = u64::from_be_bytes(buf[2..10].try_into().unwrap());
                        active = Some((peer, session));
                    }
                    // Stop ends it.
                    6 => active = None,
                    _ => {}
                }
            }
        });
        let tracer = Tracer::new(Arc::new(mbw_telemetry::WallClock::new()), 0xABCD);
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                auth: Some(SessionAuth {
                    tenant: 1,
                    token: 2,
                }),
                tracer,
                convergence_tolerance: 0.2,
                ..WireTestConfig::default()
            },
        );
        let report = client.run_test(addr).expect("interop must not fail");
        assert!(report.estimate_mbps > 1.0, "{:.1}", report.estimate_mbps);
        // The HELLO on the wire carried the trace field (2 header + 24
        // body + 8 trace bytes) and the legacy parser ignored it.
        assert_eq!(hello_len.load(Ordering::Relaxed), 34);
        stop.store(true, Ordering::Relaxed);
        legacy.join().unwrap();
    }

    #[test]
    fn sequence_holes_count_what_never_arrived() {
        let lost = |seqs: &[u64]| {
            let mut holes = SeqHoles::default();
            seqs.iter().for_each(|&seq| holes.arrived(seq));
            holes.lost()
        };
        assert_eq!(lost(&[]), 0);
        assert_eq!(lost(&[0, 1, 2, 3]), 0);
        // The first datagram is seq 0, so a missing head is a hole.
        assert_eq!(lost(&[2, 3]), 2);
        // Gaps: 2 and 4..=6 never arrive.
        assert_eq!(lost(&[0, 1, 3, 7]), 4);
        // A reordered arrival fills its hole.
        assert_eq!(lost(&[0, 2, 1, 5, 3, 4]), 0);
        // A duplicate is not counted twice, nor does it fill anything.
        assert_eq!(lost(&[0, 0, 2, 2, 0]), 1);
        assert_eq!(lost(&[0, 3, 1, 1, 3]), 1);
        // A hole older than the reorder window is closed for good: its
        // late datagram no longer counts.
        let late = SeqHoles::REORDER + 5;
        assert_eq!(lost(&[0, 2, late]), late - 2);
        assert_eq!(lost(&[0, 2, late, 1]), late - 2);
        // A hostile seq near the top of the range neither overflows nor
        // holds more than the window.
        let mut holes = SeqHoles::default();
        holes.arrived(u64::MAX - 1);
        holes.arrived(u64::MAX);
        assert_eq!(holes.lost(), u64::MAX - 1);
        assert!(holes.open.len() as u64 <= SeqHoles::REORDER);
    }

    #[test]
    fn host_drops_are_counted_from_the_data_sequence() {
        use crate::faulty::{FaultyLink, FaultyLinkConfig};
        let _net = crate::net_test_lock();
        let (servers, addrs) = spawn_local_fleet(1, Some(10_000_000)).unwrap();
        let client = SwiftestClient::new(low_rate_model(), WireTestConfig::default());
        // Through a relay that impairs nothing, nothing is missing.
        let clean = FaultyLink::start(addrs[0], FaultyLinkConfig::default()).unwrap();
        let report = client.run_test(clean.local_addr()).unwrap();
        assert_eq!(report.lost_datagrams, 0);
        assert_eq!(report.timeline.meta()["lost_datagrams"], "0");
        clean.shutdown();
        // A relay that only drops: every counted hole is a datagram it
        // dropped (it also drops some of the client's own datagrams,
        // and the ones after the last arrival are never seen missing).
        // Seed 3 lets the opening rate request through.
        let drops = FaultyLinkConfig {
            drop_prob: 0.05,
            seed: 3,
            ..FaultyLinkConfig::default()
        };
        let lossy = FaultyLink::start(addrs[0], drops).unwrap();
        let report = client.run_test(lossy.local_addr()).unwrap();
        let dropped = lossy.stats().dropped;
        assert!(
            report.lost_datagrams > 0 && report.lost_datagrams <= dropped,
            "{} holes, {dropped} dropped",
            report.lost_datagrams
        );
        let annotated = &report.timeline.meta()["lost_datagrams"];
        assert_eq!(*annotated, report.lost_datagrams.to_string());
        lossy.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    /// The probing rates a timeline records, in order.
    fn rates(timeline: &ProbeTimeline) -> Vec<f64> {
        let rate = |e: &mbw_telemetry::TimelineEntry| match e.event {
            TimelineEvent::RateChange { mbps } => Some(mbps),
            _ => None,
        };
        timeline.entries().iter().filter_map(rate).collect()
    }

    #[test]
    fn a_fresh_session_replays_a_loopback_run() {
        let _net = crate::net_test_lock();
        let (servers, addrs) = spawn_local_fleet(1, Some(20_000_000)).unwrap();
        let config = WireTestConfig::default();
        let client = SwiftestClient::new(low_rate_model(), config.clone());
        let report = client.run_test(addrs[0]).unwrap();
        for s in servers {
            s.shutdown();
        }
        // Feed the run's windows, as its timeline recorded them, to a
        // fresh session: each window ends 50 ms after its chunk.
        let model = low_rate_model();
        let mut estimator = ConvergenceEstimator::new(10, config.convergence_tolerance, 0);
        let mut replayed = ProbeTimeline::new();
        let (mut session, _) =
            SwiftestSession::new(&model, &mut estimator, &config.swiftest, 0, &mut replayed);
        let windows: Vec<(u64, u64)> = (report.timeline.entries().iter())
            .filter_map(|e| match e.event {
                TimelineEvent::Chunk { bytes } => Some((e.at_ns, bytes)),
                _ => None,
            })
            .collect();
        assert!(windows.len() >= 10, "{} windows", windows.len());
        for (i, &(start, bytes)) in windows.iter().enumerate() {
            let stopped = session.on_window(start + 50_000_000, bytes as f64) == Next::Stop;
            assert_eq!(stopped, i + 1 == windows.len(), "window {i}");
        }
        let (estimate_mbps, status) = session.finish(report.duration, None);
        // 10 Mbps, then 30: the 20 Mbps link kept up with the first mode.
        assert_eq!(rates(&report.timeline)[..2], [10.0, 30.0]);
        assert_eq!(rates(&replayed), rates(&report.timeline));
        assert_eq!(estimate_mbps.to_bits(), report.estimate_mbps.to_bits());
        assert_eq!(status, report.status);
    }

    /// The virtual-time twin of the loopback test below: 5 Mbps windows
    /// of whole 1 218-byte datagrams, 26 ± 2 of them per window, under
    /// the same model and tolerance, over 200 seeded jitter sequences.
    /// The first mode (10 Mbps) is never reached, so the rate never
    /// moves, and every sequence converges before the 4.5 s cap (90
    /// windows): half within 20 windows, nine in ten within 50. The
    /// tail is long, though: 4 of the 200 take more than 80 windows, the
    /// loopback test's 4 s, with no scheduler delay at all.
    #[test]
    fn a_session_converges_on_jittered_windows_below_the_first_mode() {
        let packet = Message::data_packet(0, 0).encode().len() as f64;
        let config = WireTestConfig {
            convergence_tolerance: 0.13,
            ..WireTestConfig::default()
        };
        let model = low_rate_model();
        let mut taken = Vec::new();
        for seed in 0..200 {
            let mut rng = mbw_stats::SeededRng::new(seed);
            let mut estimator = ConvergenceEstimator::new(10, config.convergence_tolerance, 0);
            let mut timeline = ProbeTimeline::new();
            let (mut session, first) =
                SwiftestSession::new(&model, &mut estimator, &config.swiftest, 0, &mut timeline);
            assert_eq!(first, 10.0);
            let mut windows = 0u64;
            loop {
                windows += 1;
                let packets = 24 + rng.index(5);
                match session.on_window(50_000_000 * windows, packets as f64 * packet) {
                    Next::Probe { rate_mbps } => assert_eq!(rate_mbps, 10.0, "seed {seed}"),
                    Next::Stop => break,
                }
            }
            let (estimate, status) = session.finish(Duration::ZERO, None);
            assert!(status.is_complete(), "seed {seed}: {status}");
            assert!((estimate - 5.0).abs() < 0.5, "seed {seed}: {estimate}");
            assert_eq!(rates(&timeline), [10.0], "seed {seed}");
            taken.push(windows);
        }
        taken.sort_unstable();
        assert!(taken[100] <= 20, "median {} windows", taken[100]);
        assert!(taken[180] <= 50, "90th percentile {} windows", taken[180]);
        assert!(taken[199] < 90, "slowest {} windows", taken[199]);
    }

    #[test]
    fn converges_quickly_when_first_mode_saturates() {
        let _net = crate::net_test_lock();
        // Cap below the dominant mode: no escalation needed at all. At
        // 5 Mbps a 50 ms window holds ~26 packets, so scheduler jitter
        // on a small CI box moves samples by ±2 packets (~8%); the
        // tolerance is widened accordingly — the point under test is
        // the *no-escalation* fast path, not the tolerance value.
        let (servers, addrs) = spawn_local_fleet(1, Some(5_000_000)).unwrap();
        let client = SwiftestClient::new(
            low_rate_model(),
            WireTestConfig {
                convergence_tolerance: 0.13,
                ..WireTestConfig::default()
            },
        );
        let report = client.measure(&addrs).unwrap();
        assert!(
            (report.estimate_mbps - 5.0).abs() < 2.0,
            "estimate {:.1}",
            report.estimate_mbps
        );
        // Generous bound: the test binary runs many loopback tests in
        // parallel, which can stretch tick scheduling.
        assert!(
            report.duration < Duration::from_millis(4_000),
            "duration {:?}",
            report.duration
        );
        for s in servers {
            s.shutdown();
        }
    }
}
