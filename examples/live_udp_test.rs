//! A *real* Swiftest bandwidth test over localhost UDP sockets.
//!
//! Starts a small fleet of UDP test servers with an emulated
//! access-link capacity, then runs the full client flow — concurrent
//! PING server selection, model-guided rate escalation, 50 ms sampling,
//! convergence — and compares against a TCP flooding baseline on the
//! same emulated link.
//!
//! ```text
//! cargo run --release --example live_udp_test [capacity-mbps]
//! ```

use mobile_bandwidth::stats::Gmm;
use mobile_bandwidth::wire::client::spawn_local_fleet;
use mobile_bandwidth::wire::tcp::{run_flood_test, FloodClientConfig, TcpFloodServer};
use mobile_bandwidth::wire::{SwiftestClient, WireTestConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cap_mbps: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let cap_bps = cap_mbps * 1_000_000;

    println!("emulated access link: {cap_mbps} Mbps\n");

    // Swiftest over UDP.
    let (servers, addrs) = spawn_local_fleet(4, Some(cap_bps))?;
    // A modal ladder bracketing the emulated capacity (in production this
    // model is fitted from recent measurements; see `Gmm::fit_auto`).
    let model = Gmm::from_triples(&[(0.5, 10.0, 2.0), (0.3, 30.0, 5.0), (0.2, 60.0, 8.0)])?;
    let client = SwiftestClient::new(model, WireTestConfig::default());
    let report = client.measure(&addrs)?;
    println!("Swiftest (UDP):");
    println!("  estimate    {:>8.1} Mbps", report.estimate_mbps);
    println!(
        "  test time   {:>8.2} s  (+ {:.2} s PING selection of {} servers)",
        report.duration.as_secs_f64(),
        report.ping_time.as_secs_f64(),
        addrs.len()
    );
    println!("  data usage  {:>8.2} MB", report.data_bytes as f64 / 1e6);
    println!("  samples     {:>8}", report.timeline.trajectory().len());

    // TCP flooding baseline on the same emulated link.
    let tcp = TcpFloodServer::start(Some(cap_bps))?;
    let flood = run_flood_test(
        tcp.local_addr(),
        &FloodClientConfig {
            duration: std::time::Duration::from_secs(5),
            ..FloodClientConfig::quick()
        },
    )?;
    println!("\nTCP flooding baseline (5 s):");
    println!("  estimate    {:>8.1} Mbps", flood.estimate_mbps);
    println!("  data usage  {:>8.2} MB", flood.data_bytes as f64 / 1e6);

    println!(
        "\nSwiftest used {:.1}x less data on the same link.",
        flood.data_bytes as f64 / report.data_bytes.max(1) as f64
    );

    tcp.shutdown();
    for s in servers {
        s.shutdown();
    }
    Ok(())
}
