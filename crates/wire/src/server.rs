//! The UDP test server.
//!
//! One socket carries every session, and the server runs a fixed set of
//! threads whatever the number of sessions: a receive thread and a
//! pacer thread (plus the optional `/metrics` exporter). The receive
//! thread answers pings inline, starts a session on
//! [`Message::RateRequest`], changes its rate on later requests
//! (Swiftest's modal escalation), and ends it on [`Message::Stop`]. The
//! pacer thread walks every session once per 5 ms tick and ends the
//! ones past their lifetime or idle timeout. Both threads share one
//! session table behind a mutex.
//!
//! Pacing runs on that 5 ms tick: each tick releases the bytes a token
//! bucket refilled since the last one, in `DATA_PAYLOAD`-sized packets.
//! An optional `emulated_capacity_bps` cap models the client's access
//! link, which localhost does not otherwise provide — it is the wire
//! analogue of `mbw-netsim`'s bottleneck.
//!
//! The receive loop is hardened against a hostile or flaky network:
//! malformed, truncated, and oversized datagrams are counted and
//! dropped (never panic the loop), transient `recv_from` errors are
//! tolerated with a bounded retry, the session table is capped, and a
//! client that vanishes mid-session is reaped after `idle_timeout`
//! rather than being paced at until `session_timeout`. Every dropped or
//! reaped event is visible in [`ServerStats`]. The receive thread reads
//! bytes from anyone, so outside tests this module denies `unwrap`,
//! `expect` and `panic!`.
//!
//! All counters live in an `mbw-telemetry` [`Registry`]: both threads
//! and the optional HTTP `/metrics` listener (enable with
//! [`ServerConfig::metrics_addr`]) share one source of truth, and
//! [`UdpTestServer::stats`] is just a snapshot of it.
//!
//! Running *as a service* (long-lived, multi-tenant) adds three
//! optional layers, all off by default so a bare lab server behaves
//! exactly as before:
//!
//! - [`ServerConfig::admission`] turns on the HELLO/ADMIT/REJECT
//!   handshake: sessions must present a ticket before `RateRequest`
//!   starts pacing, and the [`AdmissionController`] applies token
//!   auth, per-tenant rate limits, a bounded pending queue, and
//!   hysteresis load shedding (see `crate::admission`).
//! - [`ServerConfig::results_log`] persists every finished session to
//!   a crash-safe append-only log (see `crate::resultslog`); recovery
//!   state from startup is exposed via [`UdpTestServer::log_recovery`].
//! - [`UdpTestServer::drain`] performs a graceful shutdown: new
//!   sessions are rejected `Draining` while in-flight tests run to
//!   completion, bounded by a deadline.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::proto::{Message, RejectReason};
use crate::resultslog::{LogRecovery, ResultRecord, ResultsLog};
use mbw_telemetry::trace::{ArgValue, SpanRecord};
use mbw_telemetry::{Counter, Gauge, Histogram, MetricsServer, Registry, ServiceMetrics, Tracer};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on concurrently active sessions: beyond this, new
/// RateRequests are refused (and counted).
const MAX_SESSIONS: usize = 256;

/// Consecutive `recv_from` failures after which the serve loop declares
/// the socket dead and exits instead of spinning.
const MAX_CONSECUTIVE_RECV_ERRORS: u32 = 16;

/// Cap on remembered HELLO trace hints awaiting their `RateRequest`.
/// A hint is eight bytes of attacker-controllable state, so the map is
/// bounded like the session table; overflow drops the hint, never the
/// session.
const MAX_TRACE_HINTS: usize = 1024;

/// The pacing tick.
const TICK: Duration = Duration::from_millis(5);

/// The receive thread's read timeout: how often an idle server looks at
/// its stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Lock a mutex, taking the data over from a thread that panicked while
/// holding it, so a panic (a bug) in one server thread cannot also stop
/// the other or panic `Drop`. The session table stays consistent: each
/// of its updates is one map operation.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a socket error is a read timeout expiring (`WouldBlock` on
/// unix, `TimedOut` on windows), not a failure.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A named thread that runs until its handle is dropped: the drop sets
/// the stop flag the thread polls, then joins the thread.
pub(crate) struct Worker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    pub(crate) fn spawn(
        name: &str,
        body: impl FnOnce(Arc<AtomicBool>) + Send + 'static,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(flag))?;
        Ok(Worker {
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A clock that ticks every `period` from its start. A tick that comes
/// late is not made up: missed ticks are skipped, not bunched.
pub(crate) struct Ticker {
    period: Duration,
    next: Instant,
}

impl Ticker {
    pub(crate) fn new(period: Duration) -> Self {
        Ticker {
            period,
            next: Instant::now() + period,
        }
    }

    /// Time left until the next tick; zero once it is due.
    pub(crate) fn until_due(&self) -> Duration {
        self.next.saturating_duration_since(Instant::now())
    }

    /// Take the due tick.
    pub(crate) fn advance(&mut self) {
        let now = Instant::now();
        while self.next <= now {
            self.next += self.period;
        }
    }

    /// Sleep until the next tick, then take it.
    pub(crate) fn wait(&mut self) {
        std::thread::sleep(self.until_due());
        self.advance();
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port in tests).
    pub bind: SocketAddr,
    /// Hard cap applied on top of every requested rate, emulating the
    /// client's access-link capacity. `None` = uncapped.
    pub emulated_capacity_bps: Option<u64>,
    /// Hard ceiling on any single session's lifetime.
    pub session_timeout: Duration,
    /// A session whose client has sent nothing (no feedback, no rate
    /// request) for this long is presumed gone and reaped.
    pub idle_timeout: Duration,
    /// When set, serve this server's registry at `http://<addr>/metrics`
    /// in Prometheus text exposition format (port 0 for ephemeral).
    pub metrics_addr: Option<SocketAddr>,
    /// When set, require the HELLO/ADMIT handshake and enforce this
    /// admission policy. `None` (the default) admits every
    /// `RateRequest` directly, as a lab server always did.
    pub admission: Option<AdmissionConfig>,
    /// When set, append every finished session to the crash-safe
    /// results log at this path (created if absent; recovered and
    /// tail-truncated if torn).
    pub results_log: Option<PathBuf>,
    /// How long [`UdpTestServer::drain`] waits for in-flight sessions
    /// before giving up and closing the stragglers.
    pub drain_deadline: Duration,
    /// Span tracer for service-side spans (admission decisions, session
    /// lifetimes, results-log appends). Disabled by default. Spans for
    /// a session whose HELLO carried a trace id are recorded under the
    /// *client's* id, so both exports join into one trace.
    pub tracer: Tracer,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            emulated_capacity_bps: None,
            session_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(2),
            metrics_addr: None,
            admission: None,
            results_log: None,
            drain_deadline: Duration::from_secs(5),
            tracer: Tracer::disabled(),
        }
    }
}

/// Registry-backed metric handles shared by the receive and pacer
/// threads. Increments are lock-free; the `/metrics` listener and
/// [`UdpTestServer::stats`] read the same cells.
struct ServerMetrics {
    registry: Registry,
    pings: Counter,
    malformed: Counter,
    oversized: Counter,
    recv_errors: Counter,
    sessions_started: Counter,
    sessions_reaped: Counter,
    sessions_refused: Counter,
    sessions_active: Gauge,
    rx_datagrams: Counter,
    rx_bytes: Counter,
    tx_datagrams: Counter,
    tx_bytes: Counter,
    session_bytes: Histogram,
    session_seconds: Histogram,
}

impl ServerMetrics {
    fn new(registry: Registry) -> Self {
        Self {
            pings: registry.counter("swiftest_server_pings_total", "well-formed PINGs answered"),
            malformed: registry.counter(
                "swiftest_server_malformed_total",
                "datagrams that failed to decode (bad magic / tag / truncated)",
            ),
            oversized: registry.counter(
                "swiftest_server_oversized_total",
                "datagrams at or beyond the receive buffer, dropped unread",
            ),
            recv_errors: registry.counter(
                "swiftest_server_recv_errors_total",
                "tolerated recv_from errors",
            ),
            sessions_started: registry.counter(
                "swiftest_server_sessions_started_total",
                "pacing sessions spawned",
            ),
            sessions_reaped: registry.counter(
                "swiftest_server_sessions_reaped_total",
                "sessions reaped because their client went silent",
            ),
            sessions_refused: registry.counter(
                "swiftest_server_sessions_refused_total",
                "sessions refused because the table was full",
            ),
            sessions_active: registry.gauge(
                "swiftest_server_sessions_active",
                "currently paced sessions",
            ),
            rx_datagrams: registry
                .counter("swiftest_server_rx_datagrams_total", "datagrams received"),
            rx_bytes: registry.counter("swiftest_server_rx_bytes_total", "bytes received"),
            tx_datagrams: registry.counter(
                "swiftest_server_tx_datagrams_total",
                "paced data packets sent",
            ),
            tx_bytes: registry.counter("swiftest_server_tx_bytes_total", "paced data bytes sent"),
            session_bytes: registry.histogram(
                "swiftest_server_session_bytes",
                "bytes paced to one session over its lifetime",
                Histogram::bytes_default(),
            ),
            session_seconds: registry.histogram(
                "swiftest_server_session_seconds",
                "session lifetime from spawn to close",
                Histogram::seconds_default(),
            ),
            registry,
        }
    }

    /// Close the books on one session: histograms plus the active gauge.
    fn observe_session_end(&self, sent_bytes: u64, lifetime: Duration, active_now: usize) {
        self.session_bytes.observe(sent_bytes as f64);
        self.session_seconds.observe(lifetime.as_secs_f64());
        self.sessions_active.set(active_now as f64);
    }
}

/// Counters the server keeps instead of panicking or logging: every
/// hostile or broken input lands in one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Well-formed PINGs answered.
    pub pings: u64,
    /// Datagrams that failed to decode (bad magic / tag / truncated).
    pub malformed: u64,
    /// Datagrams at or beyond the receive buffer size, dropped unread.
    pub oversized: u64,
    /// `recv_from` errors tolerated.
    pub recv_errors: u64,
    /// Sessions spawned.
    pub sessions_started: u64,
    /// Sessions reaped because their client went silent.
    pub sessions_reaped: u64,
    /// Sessions refused because the table was full.
    pub sessions_refused: u64,
    /// Datagrams received (all kinds, before decoding).
    pub rx_datagrams: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Paced data packets sent.
    pub tx_datagrams: u64,
    /// Paced data bytes sent.
    pub tx_bytes: u64,
}

struct Session {
    rate_bps: u64,
    last_seen_ms: u64,
    sent_bytes: u64,
    started_ms: u64,
    tenant: u64,
    /// The client's trace id from its HELLO (0 = untraced session).
    trace: u64,
    /// Session start on the tracer's clock, for the lifetime span.
    started_ns: u64,
    /// The encoded data packet; each send patches its seq (bytes 10..18).
    packet: Vec<u8>,
    seq: u64,
    /// Unspent pacing credit, bytes.
    credit_bytes: f64,
}

type SessionKey = (SocketAddr, u64);

/// Everything the receive thread, the pacer thread and the handle
/// share.
struct Shared {
    socket: UdpSocket,
    emulated_capacity_bps: Option<u64>,
    session_timeout: Duration,
    idle_timeout: Duration,
    draining: AtomicBool,
    metrics: ServerMetrics,
    service: ServiceMetrics,
    admission: Option<Mutex<AdmissionController>>,
    log: Option<Mutex<ResultsLog>>,
    tracer: Tracer,
    sessions: Mutex<HashMap<SessionKey, Session>>,
    epoch: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Take `key` out of `map` and observe its lifetime histograms.
    fn remove(
        &self,
        map: &mut HashMap<SessionKey, Session>,
        key: &SessionKey,
        now_ms: u64,
    ) -> Option<Session> {
        let s = map.remove(key)?;
        self.metrics.observe_session_end(
            s.sent_bytes,
            Duration::from_millis(now_ms.saturating_sub(s.started_ms)),
            map.len(),
        );
        Some(s)
    }

    /// End every session still in the table, as incomplete.
    fn close_all(&self) {
        let now_ms = self.now_ms();
        let closed: Vec<(SessionKey, Session)> = {
            let mut map = lock(&self.sessions);
            let keys: Vec<SessionKey> = map.keys().copied().collect();
            keys.into_iter()
                .filter_map(|key| Some((key, self.remove(&mut map, &key, now_ms)?)))
                .collect()
        };
        for (key, s) in closed {
            self.finish_session(key, &s, now_ms, false);
        }
    }

    /// Close the books on one finished session: release its admission
    /// slot, record its outcome, and append it to the results log.
    /// `complete` = the client ended it deliberately (Stop), as opposed
    /// to being reaped or timed out.
    fn finish_session(&self, key: SessionKey, s: &Session, now_ms: u64, complete: bool) {
        if let Some(admission) = &self.admission {
            lock(admission).release(key.1);
        }
        let duration = Duration::from_millis(now_ms.saturating_sub(s.started_ms));
        let sent = s.sent_bytes;
        self.service
            .observe_session_end(duration, complete, sent > 0);
        // Spans for traced sessions are recorded under the *client's*
        // trace id (carried in its HELLO), joining the two exports.
        let mut spans = self.tracer.local();
        let traced = s.trace != 0 && spans.enabled();
        if let Some(log) = &self.log {
            let secs = duration.as_secs_f64();
            let record = ResultRecord {
                tenant: s.tenant,
                session: key.1,
                started_ms: s.started_ms,
                duration_s: secs,
                ping_s: 0.0,
                data_bytes: sent as f64,
                estimate_mbps: if secs > 0.0 {
                    sent as f64 * 8.0 / secs / 1e6
                } else {
                    0.0
                },
                // The emulated access capacity is the ground truth.
                truth_mbps: self
                    .emulated_capacity_bps
                    .map_or(0.0, |bps| bps as f64 / 1e6),
                complete,
            };
            let append_span = spans.begin();
            let appended = {
                let mut log = lock(log);
                log.append(&record).is_ok() && log.sync().is_ok()
            };
            if appended {
                self.service.observe_log_records(1);
            }
            if traced {
                let dur_ns = spans.now_ns().saturating_sub(append_span.start_ns);
                spans.record(SpanRecord {
                    trace: s.trace,
                    id: append_span.id,
                    parent: 0,
                    name: "server.resultslog.append".into(),
                    cat: "service",
                    start_ns: append_span.start_ns,
                    dur_ns,
                    tid: 0,
                    args: vec![("session", ArgValue::U64(key.1))],
                });
            }
        }
        if traced {
            let end_ns = spans.now_ns();
            spans.record(SpanRecord {
                trace: s.trace,
                id: 0,
                parent: 0,
                name: "server.session".into(),
                cat: "service",
                start_ns: s.started_ns,
                dur_ns: end_ns.saturating_sub(s.started_ns),
                tid: 0,
                args: vec![
                    ("session", ArgValue::U64(key.1)),
                    ("tenant", ArgValue::U64(s.tenant)),
                    ("bytes", ArgValue::U64(sent)),
                    ("complete", ArgValue::U64(u64::from(complete))),
                ],
            });
        }
    }
}

/// A running UDP test server.
pub struct UdpTestServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    log_recovery: Option<LogRecovery>,
    drain_deadline: Duration,
    exporter: Option<MetricsServer>,
    /// The receive and pacer threads.
    threads: Vec<Worker>,
}

impl UdpTestServer {
    /// Bind and start serving. Returns once the socket is live.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(config.bind)?;
        socket.set_read_timeout(Some(POLL))?;
        let local_addr = socket.local_addr()?;
        let metrics = ServerMetrics::new(Registry::new());
        let service = ServiceMetrics::register(&metrics.registry);
        let exporter = match config.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, metrics.registry.clone())?),
            None => None,
        };
        let admission = config
            .admission
            .map(|policy| Mutex::new(AdmissionController::new(policy, service.clone())));
        let (log, log_recovery) = match &config.results_log {
            Some(path) => {
                let (log, recovery) = ResultsLog::open(path)?;
                (Some(Mutex::new(log)), Some(recovery))
            }
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            socket,
            emulated_capacity_bps: config.emulated_capacity_bps,
            session_timeout: config.session_timeout,
            idle_timeout: config.idle_timeout,
            draining: AtomicBool::new(false),
            metrics,
            service,
            admission,
            log,
            tracer: config.tracer,
            sessions: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
        });
        let (recv, pacer) = (Arc::clone(&shared), Arc::clone(&shared));
        let threads = vec![
            Worker::spawn("swiftest-recv", move |stop| serve_loop(&recv, &stop))?,
            Worker::spawn("swiftest-pacer", move |stop| pace_loop(&pacer, &stop))?,
        ];
        Ok(Self {
            local_addr,
            shared,
            log_recovery,
            drain_deadline: config.drain_deadline,
            exporter,
            threads,
        })
    }

    /// The bound address (connect clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Address of the `/metrics` listener, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(MetricsServer::local_addr)
    }

    /// The registry behind every counter this server keeps. Scrape it
    /// over HTTP via [`ServerConfig::metrics_addr`], or render it
    /// directly with [`Registry::render_prometheus`].
    pub fn registry(&self) -> Registry {
        self.shared.metrics.registry.clone()
    }

    /// Snapshot of the hardening counters.
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.metrics;
        ServerStats {
            pings: m.pings.get(),
            malformed: m.malformed.get(),
            oversized: m.oversized.get(),
            recv_errors: m.recv_errors.get(),
            sessions_started: m.sessions_started.get(),
            sessions_reaped: m.sessions_reaped.get(),
            sessions_refused: m.sessions_refused.get(),
            rx_datagrams: m.rx_datagrams.get(),
            rx_bytes: m.rx_bytes.get(),
            tx_datagrams: m.tx_datagrams.get(),
            tx_bytes: m.tx_bytes.get(),
        }
    }

    /// What the results log recovered at startup, when one is
    /// configured: replayed records plus any torn tail that was
    /// truncated away.
    pub fn log_recovery(&self) -> Option<&LogRecovery> {
        self.log_recovery.as_ref()
    }

    /// The service-layer metric handles (admission, shedding,
    /// completion latency) this server reports through.
    pub fn service_metrics(&self) -> ServiceMetrics {
        self.shared.service.clone()
    }

    /// The tracer this server records service spans through (disabled
    /// unless [`ServerConfig::tracer`] was set). Export its spans after
    /// shutdown for the server half of a joined trace.
    pub fn tracer(&self) -> Tracer {
        self.shared.tracer.clone()
    }

    /// Currently paced sessions.
    pub fn active_sessions(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// Stop admitting new sessions (reject `Draining`) while letting
    /// in-flight tests run. Idempotent; [`drain`] calls it first.
    ///
    /// [`drain`]: UdpTestServer::drain
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        if let Some(admission) = &self.shared.admission {
            lock(admission).begin_drain();
        }
    }

    /// Graceful shutdown: reject new work, wait for in-flight sessions
    /// to finish (bounded by [`ServerConfig::drain_deadline`]), then
    /// stop. Returns `true` when every session completed before the
    /// deadline — the zero-accepted-session-loss case; stragglers past
    /// the deadline are closed and logged as incomplete.
    pub fn drain(self) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + self.drain_deadline;
        let clean = loop {
            if lock(&self.shared.sessions).is_empty() {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        self.shutdown();
        clean
    }

    /// Stop the server and all its sessions.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for UdpTestServer {
    /// Stop both threads, then close whatever sessions are left so each
    /// is accounted for (and logged) exactly once.
    fn drop(&mut self) {
        self.threads.clear();
        self.shared.close_all();
        if let Some(exporter) = self.exporter.take() {
            exporter.shutdown();
        }
    }
}

/// The receive thread: decode each datagram and act on it. Exits when
/// the stop flag is set (seen within one read timeout) or the socket
/// does nothing but error.
fn serve_loop(shared: &Shared, stop: &AtomicBool) {
    // With admission enforced, a RateRequest is only honoured when it
    // claims a granted ticket.
    let socket = &shared.socket;
    let mut buf = vec![0u8; 2048];
    let mut consecutive_errors = 0u32;
    // One recording handle for the whole loop, plus the bounded map of
    // trace ids seen in HELLO and waiting for their RateRequest.
    let mut span_local = shared.tracer.local();
    let mut trace_hints: HashMap<SessionKey, u64> = HashMap::new();
    while !stop.load(Ordering::Relaxed) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(x) => {
                consecutive_errors = 0;
                x
            }
            Err(e) if is_timeout(&e) => continue,
            Err(_) => {
                // Transient failure (ICMP-surfaced refusals and the
                // like): count it and keep serving. Only a socket that
                // does nothing but error is declared dead.
                shared.metrics.recv_errors.inc();
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_RECV_ERRORS {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let metrics = &shared.metrics;
        metrics.rx_datagrams.inc();
        metrics.rx_bytes.add(len as u64);
        if len >= buf.len() {
            // A datagram that fills the whole buffer was truncated by
            // the kernel; the largest legal message is far smaller.
            metrics.oversized.inc();
            continue;
        }
        let Ok(msg) = Message::decode(&buf[..len]) else {
            metrics.malformed.inc();
            continue;
        };
        match msg {
            Message::Ping { nonce } => {
                metrics.pings.inc();
                let _ = socket.send_to(&Message::Pong { nonce }.encode(), peer);
            }
            Message::Hello {
                tenant,
                token,
                session,
                trace,
            } => {
                let hello_span = span_local.begin();
                // A server without admission control admits everyone,
                // so auth-configured clients work against lab servers.
                let reply = match &shared.admission {
                    None if shared.draining.load(Ordering::Relaxed) => Message::Reject {
                        session,
                        reason: RejectReason::Draining,
                    },
                    None => Message::Admit { session },
                    Some(admission) => {
                        match lock(admission).request(
                            tenant,
                            token,
                            session,
                            shared.epoch.elapsed(),
                        ) {
                            Admission::Granted => Message::Admit { session },
                            Admission::Rejected(reason) => Message::Reject { session, reason },
                        }
                    }
                };
                let admitted = matches!(reply, Message::Admit { .. });
                if admitted && trace != 0 && trace_hints.len() < MAX_TRACE_HINTS {
                    trace_hints.insert((peer, session), trace);
                }
                if trace != 0 {
                    // Recorded under the *client's* trace id so the
                    // admission decision lands in its trace.
                    let dur_ns = span_local.now_ns().saturating_sub(hello_span.start_ns);
                    span_local.record(SpanRecord {
                        trace,
                        id: hello_span.id,
                        parent: 0,
                        name: "server.hello".into(),
                        cat: "service",
                        start_ns: hello_span.start_ns,
                        dur_ns,
                        tid: 0,
                        args: vec![
                            ("tenant", ArgValue::U64(tenant)),
                            ("session", ArgValue::U64(session)),
                            ("admitted", ArgValue::U64(u64::from(admitted))),
                        ],
                    });
                }
                let _ = socket.send_to(&reply.encode(), peer);
            }
            Message::RateRequest { session, rate_bps } => {
                let trace = trace_hints.remove(&(peer, session)).unwrap_or(0);
                if let Some(reason) = start_or_escalate(shared, peer, session, rate_bps, trace) {
                    let _ = socket.send_to(&Message::Reject { session, reason }.encode(), peer);
                }
            }
            Message::Feedback { session, .. } => {
                // Feedback is informational for rate control, but it is
                // the session's liveness signal: a client that stops
                // sending it is presumed gone.
                if let Some(s) = lock(&shared.sessions).get_mut(&(peer, session)) {
                    s.last_seen_ms = shared.now_ms();
                }
            }
            Message::Stop { session } => {
                let now_ms = shared.now_ms();
                let ended = shared.remove(&mut lock(&shared.sessions), &(peer, session), now_ms);
                if let Some(s) = ended {
                    shared.finish_session((peer, session), &s, now_ms, true);
                }
            }
            // Unexpected on the server side; ignore.
            Message::Pong { .. }
            | Message::Data { .. }
            | Message::Admit { .. }
            | Message::Reject { .. } => {}
        }
    }
    shared.close_all();
}

/// Apply a RateRequest: change a live session's rate (mid-test
/// escalation) or start a new session. Returns the reason to send back
/// when a new session is turned away with a reply (a full table is
/// refused silently).
fn start_or_escalate(
    shared: &Shared,
    peer: SocketAddr,
    session: u64,
    rate_bps: u64,
    trace: u64,
) -> Option<RejectReason> {
    let capped = shared
        .emulated_capacity_bps
        .map_or(rate_bps, |cap| rate_bps.min(cap));
    let now_ms = shared.now_ms();
    let metrics = &shared.metrics;
    let mut map = lock(&shared.sessions);
    if let Some(existing) = map.get_mut(&(peer, session)) {
        // Mid-test escalation: only the pacing rate changes.
        existing.rate_bps = capped;
        existing.last_seen_ms = now_ms;
        return None;
    }
    if shared.draining.load(Ordering::Relaxed) {
        metrics.sessions_refused.inc();
        return Some(RejectReason::Draining);
    }
    if map.len() >= MAX_SESSIONS {
        metrics.sessions_refused.inc();
        return None;
    }
    // Enforced admission: the RateRequest must claim a live ticket;
    // gate-crashers are told why.
    let tenant = match &shared.admission {
        Some(admission) => match lock(admission).claim(session, shared.epoch.elapsed()) {
            Some(tenant) => tenant,
            None => {
                metrics.sessions_refused.inc();
                shared
                    .service
                    .observe_rejected(RejectReason::BadToken.label_index());
                return Some(RejectReason::BadToken);
            }
        },
        None => 0,
    };
    metrics.sessions_started.inc();
    map.insert(
        (peer, session),
        Session {
            rate_bps: capped,
            last_seen_ms: now_ms,
            sent_bytes: 0,
            started_ms: now_ms,
            tenant,
            trace,
            started_ns: shared.tracer.now_ns(),
            packet: Message::data_packet(session, 0).encode(),
            seq: 0,
            credit_bytes: 0.0,
        },
    );
    metrics.sessions_active.set(map.len() as f64);
    None
}

/// The pacer thread: one pass over every session per [`TICK`].
fn pace_loop(shared: &Shared, stop: &AtomicBool) {
    let mut tick = Ticker::new(TICK);
    let mut ended: Vec<SessionKey> = Vec::new();
    let idle_ms = shared.idle_timeout.as_millis() as u64;
    let lifetime_ms = shared.session_timeout.as_millis() as u64;
    while !stop.load(Ordering::Relaxed) {
        tick.wait();
        let now_ms = shared.now_ms();
        let mut map = lock(&shared.sessions);
        for (&key, s) in map.iter_mut() {
            if now_ms.saturating_sub(s.started_ms) > lifetime_ms {
                ended.push(key);
            } else if now_ms.saturating_sub(s.last_seen_ms) > idle_ms {
                // The client vanished mid-session: stop pacing at a ghost.
                shared.metrics.sessions_reaped.inc();
                ended.push(key);
            } else {
                pace(&shared.socket, &shared.metrics, key.0, s);
            }
        }
        // Sessions that end without a Stop (timeout / reap) leave the
        // table here, which keeps it bounded.
        let closed: Vec<(SessionKey, Session)> = ended
            .drain(..)
            .filter_map(|key| Some((key, shared.remove(&mut map, &key, now_ms)?)))
            .collect();
        drop(map);
        for (key, s) in closed {
            shared.finish_session(key, &s, now_ms, false);
        }
    }
}

/// One tick of one session's token bucket: add a tick of credit at the
/// current rate, cap the burst at two ticks' worth (plus a packet), and
/// send whole packets while the credit lasts.
fn pace(socket: &UdpSocket, metrics: &ServerMetrics, peer: SocketAddr, s: &mut Session) {
    let rate = s.rate_bps as f64;
    s.credit_bytes += rate * TICK.as_secs_f64() / 8.0;
    let packet_len = s.packet.len() as f64;
    s.credit_bytes = s
        .credit_bytes
        .min(2.0 * rate * TICK.as_secs_f64() / 8.0 + packet_len);
    while s.credit_bytes >= packet_len {
        s.packet[10..18].copy_from_slice(&s.seq.to_be_bytes());
        s.seq += 1;
        s.credit_bytes -= packet_len;
        if socket.send_to(&s.packet, peer).is_err() {
            break;
        }
        metrics.tx_datagrams.inc();
        metrics.tx_bytes.add(s.packet.len() as u64);
        s.sent_bytes += s.packet.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind_client() -> UdpSocket {
        UdpSocket::bind("127.0.0.1:0").unwrap()
    }

    /// The next datagram within `wait`, or `None` when the socket stays
    /// quiet that long.
    fn recv_within(socket: &UdpSocket, wait: Duration) -> Option<Vec<u8>> {
        socket.set_read_timeout(Some(wait)).unwrap();
        let mut buf = vec![0u8; 2048];
        let (len, _) = socket.recv_from(&mut buf).ok()?;
        buf.truncate(len);
        Some(buf)
    }

    fn recv_msg(socket: &UdpSocket) -> Message {
        let datagram = recv_within(socket, Duration::from_secs(5)).expect("recv");
        Message::decode(datagram).expect("valid message")
    }

    /// Whether the socket stays silent for `quiet` once what is already
    /// in flight has drained (nothing for 50 ms).
    fn goes_quiet(socket: &UdpSocket, quiet: Duration) -> bool {
        while recv_within(socket, Duration::from_millis(50)).is_some() {}
        recv_within(socket, quiet).is_none()
    }

    /// Bytes received over a `window_ms` window, as bits per second.
    fn measure(client: &UdpSocket, window_ms: u64) -> f64 {
        let mut bytes = 0u64;
        let deadline = Instant::now() + Duration::from_millis(window_ms);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match recv_within(client, left) {
                Some(datagram) => bytes += datagram.len() as u64,
                None => break,
            }
        }
        bytes as f64 * 8.0 / (window_ms as f64 / 1e3)
    }

    fn send(client: &UdpSocket, msg: Message, to: SocketAddr) {
        client.send_to(&msg.encode(), to).unwrap();
    }

    #[test]
    fn ping_pong() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(&client, Message::Ping { nonce: 99 }, server.local_addr());
        let reply = recv_msg(&client);
        assert_eq!(reply, Message::Pong { nonce: 99 });
        server.shutdown();
    }

    #[test]
    fn paced_rate_is_close_to_requested() {
        let _net = crate::net_test_lock();
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        let rate = 20_000_000u64; // 20 Mbps
        send(
            &client,
            Message::RateRequest {
                session: 1,
                rate_bps: rate,
            },
            server.local_addr(),
        );
        let achieved = measure(&client, 600);
        send(&client, Message::Stop { session: 1 }, server.local_addr());
        assert!(
            (achieved / rate as f64 - 1.0).abs() < 0.25,
            "achieved {:.1} Mbps",
            achieved / 1e6
        );
        server.shutdown();
    }

    #[test]
    fn emulated_capacity_caps_the_rate() {
        let _net = crate::net_test_lock();
        let server = UdpTestServer::start(ServerConfig {
            emulated_capacity_bps: Some(10_000_000),
            ..Default::default()
        })
        .unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 2,
                rate_bps: 100_000_000,
            },
            server.local_addr(),
        );
        let achieved = measure(&client, 500);
        assert!(achieved < 14e6, "achieved {:.1} Mbps", achieved / 1e6);
        server.shutdown();
    }

    #[test]
    fn stop_ends_the_stream() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 3,
                rate_bps: 5_000_000,
            },
            server.local_addr(),
        );
        // Receive something, then stop.
        let _ = recv_msg(&client);
        send(&client, Message::Stop { session: 3 }, server.local_addr());
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            goes_quiet(&client, Duration::from_millis(200)),
            "stream kept flowing after Stop"
        );
        server.shutdown();
    }

    #[test]
    fn garbage_datagrams_are_ignored() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        // Assorted junk: empty, bad magic, truncated, unknown tag.
        for junk in [
            &[][..],
            &[0x00, 0x01][..],
            &[0xB7][..],
            &[0xB7, 0x99, 1, 2][..],
        ] {
            client.send_to(junk, server.local_addr()).unwrap();
        }
        // The server must still answer a well-formed ping afterwards.
        send(&client, Message::Ping { nonce: 7 }, server.local_addr());
        let reply =
            recv_within(&client, Duration::from_millis(500)).expect("server alive after junk");
        assert_eq!(Message::decode(reply), Ok(Message::Pong { nonce: 7 }));
        let stats = server.stats();
        assert!(stats.malformed >= 4, "malformed {}", stats.malformed);
        assert_eq!(stats.pings, 1);
        server.shutdown();
    }

    #[test]
    fn oversized_datagrams_are_counted_and_dropped() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        // 4 KiB of valid-looking magic: overflows the 2 KiB receive
        // buffer, so the kernel truncates it and the server drops it.
        let huge = vec![0xB7u8; 4096];
        client.send_to(&huge, server.local_addr()).unwrap();
        send(&client, Message::Ping { nonce: 11 }, server.local_addr());
        let reply = recv_within(&client, Duration::from_millis(500))
            .expect("server alive after oversized datagram");
        assert_eq!(Message::decode(reply), Ok(Message::Pong { nonce: 11 }));
        assert_eq!(server.stats().oversized, 1);
        server.shutdown();
    }

    #[test]
    fn a_vanished_client_is_reaped() {
        let server = UdpTestServer::start(ServerConfig {
            idle_timeout: Duration::from_millis(250),
            ..Default::default()
        })
        .unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 12,
                rate_bps: 2_000_000,
            },
            server.local_addr(),
        );
        // Prove the stream started, then "vanish": no feedback, no stop.
        let _ = recv_msg(&client);
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(server.stats().sessions_reaped, 1, "{:?}", server.stats());
        // After reaping, the stream must be quiet (drain in-flight first).
        assert!(
            goes_quiet(&client, Duration::from_millis(300)),
            "reaped session kept pacing"
        );
        server.shutdown();
    }

    #[test]
    fn mid_test_escalation_raises_the_rate() {
        let _net = crate::net_test_lock();
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 9,
                rate_bps: 5_000_000,
            },
            server.local_addr(),
        );
        let low = measure(&client, 400);
        // Escalate the same session to 20 Mbps.
        send(
            &client,
            Message::RateRequest {
                session: 9,
                rate_bps: 20_000_000,
            },
            server.local_addr(),
        );
        std::thread::sleep(Duration::from_millis(50));
        let high = measure(&client, 400);
        send(&client, Message::Stop { session: 9 }, server.local_addr());
        assert!(
            high > low * 2.0,
            "escalation not applied: {:.1} -> {:.1} Mbps",
            low / 1e6,
            high / 1e6
        );
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        use std::io::{Read as _, Write as _};
        let server = UdpTestServer::start(ServerConfig {
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..Default::default()
        })
        .unwrap();
        let metrics_addr = server.metrics_addr().expect("listener configured");
        let client = bind_client();
        send(&client, Message::Ping { nonce: 1 }, server.local_addr());
        let _ = recv_msg(&client);
        // Scrape over plain TCP.
        let mut s = std::net::TcpStream::connect(metrics_addr).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("text/plain; version=0.0.4"), "{body}");
        assert!(body.contains("swiftest_server_pings_total 1"), "{body}");
        assert!(
            body.contains("swiftest_server_rx_datagrams_total 1"),
            "{body}"
        );
        let stats = server.stats();
        assert_eq!(stats.rx_datagrams, 1);
        assert!(stats.rx_bytes > 0);
        server.shutdown();
    }

    #[test]
    fn sessions_land_in_the_lifetime_histograms() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 21,
                rate_bps: 4_000_000,
            },
            server.local_addr(),
        );
        let _ = recv_msg(&client);
        send(&client, Message::Stop { session: 21 }, server.local_addr());
        std::thread::sleep(Duration::from_millis(100));
        let text = server.registry().render_prometheus();
        assert!(
            text.contains("swiftest_server_session_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("swiftest_server_session_bytes_count 1"),
            "{text}"
        );
        let stats = server.stats();
        assert!(stats.tx_datagrams > 0 && stats.tx_bytes > 0, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn admission_handshake_gates_sessions() {
        use crate::admission::{AdmissionConfig, TenantConfig};
        let server = UdpTestServer::start(ServerConfig {
            admission: Some(
                AdmissionConfig::open(8).with_tenants(vec![TenantConfig::new(3, 0xC0FFEE)]),
            ),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let client = bind_client();
        // Wrong token → typed reject.
        let hello = |token, session| Message::Hello {
            tenant: 3,
            token,
            session,
            trace: 0,
        };
        send(&client, hello(0xBAD, 1), addr);
        assert_eq!(
            recv_msg(&client),
            Message::Reject {
                session: 1,
                reason: crate::proto::RejectReason::BadToken
            }
        );
        // Gate-crashing RateRequest without a ticket → refused.
        send(
            &client,
            Message::RateRequest {
                session: 2,
                rate_bps: 1_000_000,
            },
            addr,
        );
        assert_eq!(
            recv_msg(&client),
            Message::Reject {
                session: 2,
                reason: crate::proto::RejectReason::BadToken
            }
        );
        // Proper handshake → admitted, and the session paces.
        send(&client, hello(0xC0FFEE, 5), addr);
        assert_eq!(recv_msg(&client), Message::Admit { session: 5 });
        send(
            &client,
            Message::RateRequest {
                session: 5,
                rate_bps: 4_000_000,
            },
            addr,
        );
        assert!(matches!(
            recv_msg(&client),
            Message::Data { session: 5, .. }
        ));
        send(&client, Message::Stop { session: 5 }, addr);
        std::thread::sleep(Duration::from_millis(100));
        let service = server.service_metrics();
        assert_eq!(service.admitted_total(), 1);
        assert!(
            service.rejected_total() >= 2,
            "{}",
            service.rejected_total()
        );
        server.shutdown();
    }

    #[test]
    fn server_without_admission_still_answers_hello() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(
            &client,
            Message::Hello {
                tenant: 1,
                token: 2,
                session: 3,
                trace: 0,
            },
            server.local_addr(),
        );
        assert_eq!(recv_msg(&client), Message::Admit { session: 3 });
        server.shutdown();
    }

    #[test]
    fn drain_finishes_inflight_and_rejects_new() {
        let _net = crate::net_test_lock();
        let dir = std::env::temp_dir();
        let log_path = dir.join(format!("mbw-server-drain-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&log_path);
        let server = UdpTestServer::start(ServerConfig {
            results_log: Some(log_path.clone()),
            drain_deadline: Duration::from_secs(3),
            ..Default::default()
        })
        .unwrap();
        assert!(server.log_recovery().unwrap().clean());
        let addr = server.local_addr();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 1,
                rate_bps: 2_000_000,
            },
            addr,
        );
        let _ = recv_msg(&client);
        server.begin_drain();
        // New sessions are now refused...
        let late = bind_client();
        send(
            &late,
            Message::RateRequest {
                session: 9,
                rate_bps: 1_000_000,
            },
            addr,
        );
        assert_eq!(
            recv_msg(&late),
            Message::Reject {
                session: 9,
                reason: crate::proto::RejectReason::Draining
            }
        );
        // ...while the in-flight one finishes normally.
        send(&client, Message::Stop { session: 1 }, addr);
        std::thread::sleep(Duration::from_millis(100));
        let clean = server.drain();
        assert!(clean, "in-flight session should finish before deadline");
        let recovery = crate::resultslog::ResultsLog::read_all(&log_path).unwrap();
        assert!(recovery.clean());
        assert_eq!(recovery.records.len(), 1, "exactly one finished session");
        assert_eq!(recovery.records[0].session, 1);
        assert!(recovery.records[0].complete);
        std::fs::remove_file(&log_path).unwrap();
    }

    #[test]
    fn results_log_survives_restart() {
        let _net = crate::net_test_lock();
        let dir = std::env::temp_dir();
        let log_path = dir.join(format!("mbw-server-restart-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&log_path);
        let config = ServerConfig {
            results_log: Some(log_path.clone()),
            ..Default::default()
        };
        for round in 0..2u64 {
            let server = UdpTestServer::start(config.clone()).unwrap();
            let recovered = server.log_recovery().unwrap().records.len();
            assert_eq!(recovered, round as usize, "round {round}");
            let client = bind_client();
            send(
                &client,
                Message::RateRequest {
                    session: round,
                    rate_bps: 2_000_000,
                },
                server.local_addr(),
            );
            let _ = recv_msg(&client);
            send(
                &client,
                Message::Stop { session: round },
                server.local_addr(),
            );
            std::thread::sleep(Duration::from_millis(100));
            server.shutdown();
        }
        let recovery = crate::resultslog::ResultsLog::read_all(&log_path).unwrap();
        assert!(recovery.clean());
        assert_eq!(recovery.records.len(), 2);
        std::fs::remove_file(&log_path).unwrap();
    }

    #[test]
    fn data_packets_carry_increasing_seq() {
        let server = UdpTestServer::start(ServerConfig::default()).unwrap();
        let client = bind_client();
        send(
            &client,
            Message::RateRequest {
                session: 4,
                rate_bps: 8_000_000,
            },
            server.local_addr(),
        );
        let mut last = None;
        for _ in 0..20 {
            if let Message::Data { session, seq, .. } = recv_msg(&client) {
                assert_eq!(session, 4);
                if let Some(prev) = last {
                    assert!(seq > prev, "seq {seq} after {prev}");
                }
                last = Some(seq);
            }
        }
        send(&client, Message::Stop { session: 4 }, server.local_addr());
        server.shutdown();
    }
}
