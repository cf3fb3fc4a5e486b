#![warn(missing_docs)]
//! TCP congestion-control models over simulated paths.
//!
//! §5.1 of the paper measures how long TCP slow start takes on three
//! mainstream congestion-control algorithms (Cubic, Reno, BBR) and finds
//! it eats a large fraction of a flooding-style bandwidth test — the key
//! motivation for Swiftest's UDP design. The kernel implementations and
//! `tcp_probe` are not available here, so this crate models the
//! algorithms' window dynamics directly:
//!
//! - [`reno`] — NewReno: slow start, AIMD congestion avoidance.
//! - [`cubic`] — RFC 8312: cubic window growth, fast convergence, the
//!   TCP-friendly region, and HyStart delay-based slow-start exit.
//! - [`bbr`] — BBR v1: startup/drain/probe-bandwidth state machine over
//!   windowed bottleneck-bandwidth and min-RTT estimates.
//! - [`guided`] — the model-guided controller of Swiftest's TCP variant
//!   (§7): jump-start at the bandwidth model's dominant mode, modal
//!   escalation, multiplicative back-off on loss.
//! - [`multi`] — a round-based (one iteration per RTT) fluid simulation
//!   of one or more flows sharing a [`mbw_netsim::PathModel`], each
//!   under one of these [`Controller`]s: queue build-up, buffer overflow,
//!   random wireless loss, 50 ms throughput sampling exactly like the
//!   BTS client's sampler, and progressive connection addition (how
//!   BTS-APP and Speedtest saturate fast links).
//! - [`packet`] — a per-packet TCP model over the event-driven link, the
//!   oracle the round-based simulation is checked against.
//!
//! The model purposefully works in rounds rather than per-packet events:
//! one bandwidth test is a handful of thousands of rounds instead of
//! millions of packets, which is what lets the benches replay thousands
//! of simulated tests.

pub mod bbr;
pub mod control;
pub mod cubic;
pub mod guided;
pub mod multi;
pub mod packet;
pub mod reno;

pub use bbr::Bbr;
pub use control::{CcAlgorithm, CongestionControl, Controller, RoundInput};
pub use cubic::Cubic;
pub use guided::ModelGuidedCc;
pub use multi::{MultiFlowConfig, MultiFlowSim, ThroughputSample};
pub use packet::{run_packet_tcp, PacketTcpConfig, PacketTcpTrace};
pub use reno::Reno;

/// Maximum segment size used throughout the models (bytes).
pub const MSS: f64 = 1500.0;

/// Initial congestion window in segments (RFC 6928).
pub const INITIAL_WINDOW: f64 = 10.0;
