//! Cross-crate wire integration: the dataset-fitted model driving a
//! *real* UDP test over localhost, and protocol behaviour under load.

use mobile_bandwidth::stats::Gmm;
use mobile_bandwidth::wire::client::spawn_local_fleet;
use mobile_bandwidth::wire::server::{ServerConfig, UdpTestServer};
use mobile_bandwidth::wire::{SwiftestClient, WireTestConfig};
use std::thread;
use std::time::Duration;

/// A modal ladder like a fitted model would produce, scaled down so
/// loopback pacing is robust in CI.
fn ladder() -> Gmm {
    Gmm::from_triples(&[(0.55, 8.0, 1.5), (0.30, 24.0, 4.0), (0.15, 48.0, 6.0)])
        .expect("valid model")
}

#[test]
fn wire_test_measures_emulated_link_within_tolerance() {
    let cap_bps = 16_000_000u64;
    let (servers, addrs) = spawn_local_fleet(3, Some(cap_bps)).expect("fleet");
    let client = SwiftestClient::new(ladder(), WireTestConfig::default());
    let report = client.measure(&addrs).expect("test runs");
    assert!(
        (report.estimate_mbps - 16.0).abs() < 5.0,
        "estimate {:.1} Mbps",
        report.estimate_mbps
    );
    assert!(report.duration < Duration::from_secs(5));
    assert!(!report.timeline.trajectory().is_empty());
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn two_sequential_tests_agree() {
    // The wire analogue of the paper's back-to-back protocol: the same
    // emulated link measured twice should deviate little.
    let cap_bps = 12_000_000u64;
    let (servers, addrs) = spawn_local_fleet(2, Some(cap_bps)).expect("fleet");
    let client = SwiftestClient::new(ladder(), WireTestConfig::default());
    let a = client.measure(&addrs).expect("first test");
    thread::sleep(Duration::from_millis(200));
    let b = client.measure(&addrs).expect("second test");
    let dev = (a.estimate_mbps - b.estimate_mbps).abs() / a.estimate_mbps.max(b.estimate_mbps);
    assert!(
        dev < 0.25,
        "deviation {dev:.2} ({} vs {})",
        a.estimate_mbps,
        b.estimate_mbps
    );
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn metrics_scrape_during_a_live_test_shows_the_session() {
    use std::io::{Read as _, Write as _};
    let server = UdpTestServer::start(ServerConfig {
        emulated_capacity_bps: Some(10_000_000),
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..Default::default()
    })
    .expect("server");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("metrics listener");

    // Run the test in the background and scrape mid-flight.
    let probe = thread::spawn(move || {
        let client = SwiftestClient::new(ladder(), WireTestConfig::default());
        client.measure(&[addr])
    });
    // 300 ms in: convergence needs ten 50 ms samples, so the session is
    // necessarily still live when the scrape lands.
    thread::sleep(Duration::from_millis(300));
    let mut s = std::net::TcpStream::connect(metrics_addr).expect("connect scraper");
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
    let mut body = String::new();
    s.read_to_string(&mut body).expect("read response");
    let report = probe.join().expect("join probe").expect("test runs");
    assert!(report.estimate_mbps > 1.0);

    // Valid Prometheus text exposition, captured while the session was
    // live: content type, HELP/TYPE comments, `name value` samples.
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("text/plain; version=0.0.4"), "{body}");
    let text = body.split("\r\n\r\n").nth(1).expect("response body");
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert_eq!(line.split(' ').count(), 2, "bad exposition line {line:?}");
    }
    let value = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.split(' ').next() == Some(name))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
    };
    assert!(value("swiftest_server_sessions_started_total") >= 1.0);
    assert!(value("swiftest_server_sessions_active") >= 1.0);
    assert!(value("swiftest_server_tx_bytes_total") > 0.0);
    assert!(value("swiftest_server_rx_datagrams_total") > 0.0);
    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_server() {
    let (servers, addrs) = spawn_local_fleet(1, Some(30_000_000)).expect("fleet");
    let addr = addrs[0];
    let mut handles = Vec::new();
    for _ in 0..3 {
        let addrs = vec![addr];
        handles.push(thread::spawn(move || {
            let client = SwiftestClient::new(ladder(), WireTestConfig::default());
            client.measure(&addrs)
        }));
    }
    for h in handles {
        let report = h.join().expect("join").expect("test runs");
        assert!(report.estimate_mbps > 1.0);
    }
    for s in servers {
        s.shutdown();
    }
}
