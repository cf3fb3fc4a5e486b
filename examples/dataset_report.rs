//! Stream the synthetic measurement dataset through the analysis
//! pipeline and print the headline findings of the paper's §3 — the
//! year-over-year decline, the 4G/5G distributions, the refarmed-band
//! story, and the WiFi plan bottleneck.
//!
//! ```text
//! cargo run --release --example dataset_report [records-per-year]
//! ```
//!
//! This is the `figures` binary's measurement path with its seed, so
//! `dataset_report 400000` prints what `results/fig01.txt` etc. hold.

use mobile_bandwidth::analysis::stream_figures_cached;
use mobile_bandwidth::bench::distributed::MEASUREMENT_SEED;
use mobile_bandwidth::dataset::{DatasetConfig, ShardPlan, Year};

fn main() {
    let tests: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    eprintln!("streaming {tests} records per year...");
    let config = |year| DatasetConfig {
        seed: MEASUREMENT_SEED,
        tests,
        year,
        ..Default::default()
    };
    let (figures, _) = stream_figures_cached(
        config(Year::Y2020),
        config(Year::Y2021),
        ShardPlan::default(),
        None,
    );

    for id in [
        "fig01", "fig04", "fig05", "fig08", "fig11", "fig13", "fig15",
    ] {
        println!("{}", figures.render(id).expect("a measurement figure id"));
    }

    let (overall, w6) = figures.slow_plan_shares;
    println!(
        "fixed broadband: {:.0}% of WiFi users on <=200 Mbps plans ({:.0}% of WiFi 6 users)",
        overall * 100.0,
        w6 * 100.0
    );
}
