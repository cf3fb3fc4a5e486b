//! The TCP flooding baseline over real sockets.
//!
//! A BTS-APP-style server that writes a byte stream as fast as the
//! (optionally token-bucket-capped) connection allows, and a client that
//! reads for a fixed window, samples goodput every 50 ms, and drives
//! `mbw-core`'s [`FloodingSession`] with the grouped-trimmed-mean
//! estimator — the same ladder and stop rule as the simulated flooding
//! prober, used to compare TCP flooding and Swiftest UDP on the same
//! emulated link.

use crate::server::{is_timeout, Ticker, Worker};
use mbw_core::decision::ProbeLog;
use mbw_core::estimator::{BandwidthEstimator, GroupedTrimmedMean};
use mbw_core::session::{FloodNext, FloodingSession};
use mbw_core::SAMPLE_INTERVAL_MS;
use mbw_telemetry::ProbeTimeline;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running flood server: an accept thread, and one thread per flow.
pub struct TcpFloodServer {
    local_addr: SocketAddr,
    _accept: Worker,
}

/// Chunk written per send.
const CHUNK: usize = 16 * 1024;

/// The pacing tick of a capped flow, and how often the idle accept
/// thread looks for a connection.
const TICK: Duration = Duration::from_millis(5);

/// How long a flow's write may block before it looks at the stop flag.
const POLL: Duration = Duration::from_millis(20);

impl TcpFloodServer {
    /// Start a flood server; `rate_cap_bps` emulates the access link.
    pub fn start(rate_cap_bps: Option<u64>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let accept = Worker::spawn("flood-accept", move |stop| {
            let mut flows: Vec<JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if is_timeout(&e) => {
                        std::thread::sleep(TICK);
                        continue;
                    }
                    Err(_) => break,
                };
                flows.retain(|flow| !flow.is_finished());
                let flow_stop = Arc::clone(&stop);
                // A flow that cannot get a thread is dropped, as a
                // refused connection would be.
                if let Ok(flow) = std::thread::Builder::new()
                    .name("flood-flow".into())
                    .spawn(move || flood_connection(stream, rate_cap_bps, &flow_stop))
                {
                    flows.push(flow);
                }
            }
            // Each flow sees the stop flag within one tick or write
            // timeout.
            for flow in flows {
                let _ = flow.join();
            }
        })?;
        Ok(Self {
            local_addr,
            _accept: accept,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and flooding.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Write one chunk, retrying while writes time out and `stop` is not
/// set. `false` once the flow should end (peer gone, or stopping). A
/// write that timed out part way leaves part of a chunk sent, which
/// changes nothing a flood measures.
fn write_chunk(stream: &mut TcpStream, chunk: &[u8], stop: &AtomicBool) -> bool {
    loop {
        match stream.write_all(chunk) {
            Ok(()) => return true,
            Err(e) if is_timeout(&e) && !stop.load(Ordering::Relaxed) => {}
            Err(_) => return false,
        }
    }
}

fn flood_connection(mut stream: TcpStream, rate_cap_bps: Option<u64>, stop: &AtomicBool) {
    // Some platforms hand out accepted sockets in the listener's
    // non-blocking mode.
    if stream.set_nonblocking(false).is_err() || stream.set_write_timeout(Some(POLL)).is_err() {
        return;
    }
    let chunk = vec![0u8; CHUNK];
    match rate_cap_bps {
        None => while write_chunk(&mut stream, &chunk, stop) {},
        Some(rate) => {
            // Token-bucket pacing on a 5 ms tick.
            let mut tick = Ticker::new(TICK);
            let mut credit = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                tick.wait();
                credit += rate as f64 * TICK.as_secs_f64() / 8.0;
                credit = credit.min(2.0 * rate as f64 * TICK.as_secs_f64() / 8.0 + CHUNK as f64);
                while credit >= CHUNK as f64 {
                    if !write_chunk(&mut stream, &chunk, stop) {
                        return;
                    }
                    credit -= CHUNK as f64;
                }
            }
        }
    }
}

/// Flood-client configuration.
#[derive(Debug, Clone)]
pub struct FloodClientConfig {
    /// How long to flood. The production BTS-APP floods 10 s with a
    /// 20 × 10 estimator; tests shrink both proportionally.
    pub duration: Duration,
    /// Estimator grouping `(groups, group_size, drop_low, drop_high)`.
    pub grouping: (usize, usize, usize, usize),
}

impl Default for FloodClientConfig {
    fn default() -> Self {
        Self {
            duration: Duration::from_secs(10),
            grouping: (20, 10, 5, 2),
        }
    }
}

impl FloodClientConfig {
    /// A shortened configuration for CI: 2 s, 8 × 5 samples, drop 2 + 1.
    pub fn quick() -> Self {
        Self {
            duration: Duration::from_secs(2),
            grouping: (8, 5, 2, 1),
        }
    }
}

/// Result of one TCP flood test.
#[derive(Debug, Clone)]
pub struct FloodReport {
    /// Trimmed-mean estimate, Mbps.
    pub estimate_mbps: f64,
    /// Wall time spent flooding.
    pub duration: Duration,
    /// Bytes downloaded.
    pub data_bytes: u64,
    /// 50 ms samples, Mbps.
    pub samples: Vec<f64>,
}

/// Run one flood test against `server` over a single connection.
pub fn run_flood_test(
    server: SocketAddr,
    config: &FloodClientConfig,
) -> std::io::Result<FloodReport> {
    run_flood_test_multi(server, config, &[], 1)
}

/// Multi-connection flooding (§2): start one connection, add another
/// every time the aggregate sample crosses the next threshold of
/// `ladder` (25, 35, … Mbps), up to `max_connections`, exactly like
/// BTS-APP/Speedtest saturating a fast link. The ladder and the stop
/// rule are a [`FloodingSession`]'s; this loop only reads, each
/// connection on a thread of its own.
pub fn run_flood_test_multi(
    server: SocketAddr,
    config: &FloodClientConfig,
    ladder: &[f64],
    max_connections: usize,
) -> std::io::Result<FloodReport> {
    let window = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let mut readers: Vec<Worker> = Vec::new();
    let mut connect = || -> std::io::Result<()> {
        let mut stream = TcpStream::connect(server)?;
        stream.set_read_timeout(Some(POLL))?;
        let (window, total) = (Arc::clone(&window), Arc::clone(&total));
        readers.push(Worker::spawn("flood-reader", move |stop| {
            let mut buf = vec![0u8; 64 * 1024];
            while !stop.load(Ordering::Relaxed) {
                match stream.read(&mut buf) {
                    Ok(n) if n > 0 => {
                        window.fetch_add(n as u64, Ordering::Relaxed);
                        total.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) if is_timeout(&e) => {}
                    // End of stream, or the connection failed.
                    _ => return,
                }
            }
        })?);
        Ok(())
    };
    connect()?;

    let (g, gs, dl, dh) = config.grouping;
    let mut estimator = GroupedTrimmedMean::new(g, gs, dl, dh);
    let mut timeline = ProbeTimeline::new();
    timeline.start(0, "flooding-tcp", estimator.name());
    let mut session = FloodingSession::new(&mut estimator, ladder, max_connections, &mut timeline);
    let interval = Duration::from_millis(SAMPLE_INTERVAL_MS);
    let started = Instant::now();
    let mut tick = Ticker::new(interval);
    while started.elapsed() < config.duration {
        tick.wait();
        let bytes = window.swap(0, Ordering::Relaxed);
        let mbps = bytes as f64 * 8.0 / interval.as_secs_f64() / 1e6;
        match session.on_sample(started.elapsed().as_nanos() as u64, mbps) {
            FloodNext::Continue => {}
            // A connection that fails is missing from the aggregate.
            FloodNext::AddFlows(n) => {
                for _ in 0..n {
                    let _ = connect();
                }
            }
            FloodNext::Stop => break,
        }
    }
    // Dropping the readers stops and joins them.
    drop(readers);
    let duration = started.elapsed();
    let (estimate_mbps, _) = session.finish(duration);
    Ok(FloodReport {
        estimate_mbps,
        duration,
        data_bytes: total.load(Ordering::Relaxed),
        samples: timeline.trajectory().iter().map(|&(_, v)| v).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_connection_flood_measures_and_scales() {
        let _net = crate::net_test_lock();
        // Per-connection cap 10 Mbps: a single connection reads ~10, the
        // threshold ladder spawns more until the aggregate passes 25.
        let server = TcpFloodServer::start(Some(10_000_000)).unwrap();
        let report = run_flood_test_multi(
            server.local_addr(),
            &FloodClientConfig {
                duration: std::time::Duration::from_secs(3),
                ..FloodClientConfig::quick()
            },
            &[8.0, 16.0, 24.0],
            4,
        )
        .unwrap();
        // 4 connections × 10 Mbps cap ⇒ aggregate well above a single
        // connection's 10.
        assert!(
            report.estimate_mbps > 16.0,
            "aggregate {:.1} Mbps",
            report.estimate_mbps
        );
        server.shutdown();
    }

    #[test]
    fn flood_measures_a_capped_link() {
        let _net = crate::net_test_lock();
        let cap = 30_000_000u64; // 30 Mbps
        let server = TcpFloodServer::start(Some(cap)).unwrap();
        let report = run_flood_test(server.local_addr(), &FloodClientConfig::quick()).unwrap();
        assert!(
            (report.estimate_mbps - 30.0).abs() < 8.0,
            "estimate {:.1} Mbps",
            report.estimate_mbps
        );
        assert!(report.samples.len() >= 20);
        server.shutdown();
    }

    #[test]
    fn flood_downloads_duration_times_rate() {
        let _net = crate::net_test_lock();
        let cap = 16_000_000u64;
        let server = TcpFloodServer::start(Some(cap)).unwrap();
        let report = run_flood_test(server.local_addr(), &FloodClientConfig::quick()).unwrap();
        // 2 s at 16 Mbps ≈ 4 MB.
        assert!(
            (report.data_bytes as f64 - 4e6).abs() < 2e6,
            "bytes {}",
            report.data_bytes
        );
        server.shutdown();
    }

    #[test]
    fn uncapped_flood_is_fast_on_loopback() {
        let _net = crate::net_test_lock();
        let server = TcpFloodServer::start(None).unwrap();
        let report = run_flood_test(
            server.local_addr(),
            &FloodClientConfig {
                duration: Duration::from_millis(500),
                ..FloodClientConfig::quick()
            },
        )
        .unwrap();
        assert!(
            report.estimate_mbps > 100.0,
            "loopback {:.0}",
            report.estimate_mbps
        );
        server.shutdown();
    }

    #[test]
    fn udp_swiftest_uses_less_data_than_tcp_flooding_on_same_link() {
        let _net = crate::net_test_lock();
        // The headline §5.3 comparison, on real sockets: same 20 Mbps
        // emulated link, Swiftest UDP vs TCP flooding.
        let cap = 20_000_000u64;
        let tcp = TcpFloodServer::start(Some(cap)).unwrap();
        let (udp_servers, udp_addrs) = crate::client::spawn_local_fleet(1, Some(cap)).unwrap();

        // Production-length flooding (10 s): the comparison the paper
        // makes. Swiftest is hard-capped at 4.5 s, so even a
        // non-converging run uses less than half the data.
        let flood = run_flood_test(tcp.local_addr(), &FloodClientConfig::default()).unwrap();
        let model = mbw_stats::Gmm::from_triples(&[(0.6, 10.0, 2.0), (0.4, 30.0, 5.0)]).unwrap();
        let swift =
            crate::client::SwiftestClient::new(model, crate::client::WireTestConfig::default())
                .measure(&udp_addrs)
                .unwrap();

        assert!(
            swift.data_bytes < flood.data_bytes,
            "swiftest {} vs flooding {}",
            swift.data_bytes,
            flood.data_bytes
        );
        // Both land near the link rate.
        assert!(
            (flood.estimate_mbps - 20.0).abs() < 7.0,
            "{}",
            flood.estimate_mbps
        );
        assert!(
            (swift.estimate_mbps - 20.0).abs() < 7.0,
            "{}",
            swift.estimate_mbps
        );

        tcp.shutdown();
        for s in udp_servers {
            s.shutdown();
        }
    }
}
