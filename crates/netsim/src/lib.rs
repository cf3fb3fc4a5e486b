#![warn(missing_docs)]
//! Discrete-event network simulator substrate.
//!
//! The paper's systems run against real 4G/5G/WiFi access links and a pool
//! of wired test servers; neither is available here, so this crate builds
//! the closest synthetic equivalent: an event-driven simulator in the
//! spirit of small, robust stacks — explicit virtual time, no hidden
//! global state, deterministic for a given seed.
//!
//! A bandwidth test only ever observes end-to-end packet behaviour
//! (when bytes arrive, what got lost, how latency moves), so the simulator
//! models exactly those observables:
//!
//! - [`time`] — virtual clock types ([`SimTime`], nanosecond resolution).
//! - [`event`] — a deterministic event queue with FIFO tie-breaking.
//! - [`link`] — a store-and-forward link: serialisation at a configurable
//!   rate, propagation delay, a finite drop-tail queue, and random loss.
//! - [`capacity`] — time-varying capacity processes (constant,
//!   Ornstein–Uhlenbeck fluctuation, on/off traffic shaping, and a radio
//!   ramp), the mechanism behind the paper's network-dynamics findings,
//!   and [`Capacity`], the closed set of them a path holds by value.
//! - [`fault`] — transient fault injection (blackouts, capacity
//!   collapses, burst loss, delay spikes) that links and paths can carry,
//!   for exercising estimators under handover gaps and deep fades.
//! - [`path`] — the end-to-end path model (access bottleneck + base RTT +
//!   loss) consumed by the congestion-control and BTS layers.
//!
//! Links and paths keep cumulative delivered/dropped/faulted accounting
//! ([`LinkStats`], [`PathTotals`]) and can publish snapshots into an
//! `mbw-telemetry` [`mbw_telemetry::Registry`] as labelled gauges, so a
//! simulated topology is observable through the same `/metrics` pipe as
//! the real wire stack.

pub mod capacity;
pub mod event;
pub mod fault;
pub mod link;
pub mod path;
pub mod time;

pub use capacity::{
    Capacity, CapacityProcess, ConstantCapacity, OuCapacity, RampUpCapacity, ShapedCapacity,
};
pub use event::EventQueue;
pub use fault::{FaultKind, FaultPlan, FaultProfile, FaultWindow};
pub use link::{Link, LinkConfig, LinkStats};
pub use path::{PathConfig, PathModel, PathTotals};
pub use time::SimTime;
