#![warn(missing_docs)]
//! Swiftest: ultra-fast, ultra-light bandwidth testing — plus the
//! baselines it is evaluated against.
//!
//! This crate is the paper's primary system contribution (§5). It
//! implements four bandwidth testing services over the simulated network
//! substrate (`mbw-netsim` + `mbw-congestion`):
//!
//! - **BTS-APP** (§2) — the production Speedtest-like service: TCP
//!   flooding for a fixed 10 seconds, progressive connection addition at
//!   bandwidth thresholds, and the 20-group / drop-5-low-2-high trimmed
//!   estimator. Its results serve as the approximate ground truth in the
//!   paper's evaluation.
//! - **FAST** (§5.1) — Netflix's fast.com logic: TCP flooding that stops
//!   once the last samples converge within 3%.
//! - **FastBTS** (§5.1) — crucial-interval-based estimation: the densest
//!   sample interval wins; fast but prone to premature convergence.
//! - **Swiftest** (§5.1–5.3) — the paper's design: a UDP probing protocol
//!   whose *initial* data rate is the most probable mode of the access
//!   technology's multi-modal Gaussian bandwidth model, escalating to the
//!   next most probable larger mode until the link saturates, and
//!   stopping when ten consecutive 50 ms samples agree within 3%.
//!
//! Modules:
//!
//! - [`estimator`] — the four bandwidth-estimation algorithms behind the
//!   services, as pluggable [`estimator::BandwidthEstimator`]s.
//! - [`model`] — the per-technology bandwidth models (multi-modal GMMs)
//!   Swiftest probes from, and the default calibrated instances.
//! - [`outcome`] — the Complete / Degraded / Failed completion taxonomy
//!   every probe result and harness outcome carries.
//! - [`scenario`] — access-link scenario generation: drawing a concrete
//!   simulated path (capacity, RTT, loss, fluctuation class) per test.
//! - [`probe`] — the probers: TCP flooding (with progressive connection
//!   addition) and Swiftest's paced UDP prober.
//! - [`decision`] — the [`decision::ProbeLog`] every prober writes
//!   into: a full `ProbeTimeline` on request, or a fixed-size, heap-free
//!   [`decision::DecisionRecord`] of why a test stopped.
//! - [`server`] — test-server pool, PING-based selection.
//! - [`harness`] — one-call test execution, back-to-back comparisons,
//!   and four-service test groups, producing the duration / data-usage
//!   / accuracy numbers of Figs 20–25.
//! - [`campaign`] — the evaluation campaign pipeline: plan the
//!   deduplicated trial union of Figs 17–26 with structural per-trial
//!   RNG streams, execute it on [`mbw_stats::pool`], and hand
//!   the columnar outcome pool to the figure reducers.

pub mod campaign;
pub mod decision;
pub mod estimator;
pub mod harness;
pub mod model;
pub mod outcome;
pub mod probe;
pub mod scenario;
mod scratch;
pub mod server;
pub mod tcp_variant;

pub use campaign::{
    run_campaign, run_campaign_metered, trial_seed, CampaignMismatch, CampaignPlan, EmptyCampaign,
    EvalCounts, ProfileDim, ScenarioId, TrialKind, TrialOutcome, TrialPool, TrialSpec, TrialView,
    VariantId,
};
pub use decision::{DecisionRecord, ProbeLog, Step, StopRule};
pub use estimator::{
    BandwidthEstimator, ConvergenceEstimator, CrucialIntervalEstimator, EstimatorDecision,
    GroupedTrimmedMean,
};
pub use harness::{BackToBack, TestGroup, TestHarness, TestOutcome};
pub use model::TechClass;
pub use outcome::{DegradeReason, FailReason, TestStatus};
pub use probe::{BtsKind, FloodingConfig, SwiftestConfig};
pub use scenario::{AccessScenario, DrawnPath, FaultInjection, FluctuationClass};
pub use server::{ServerPool, TestServer};
pub use tcp_variant::{run_swiftest_tcp, ModelGuidedCc};

/// Sample interval used by every BTS client in the paper (50 ms).
pub const SAMPLE_INTERVAL_MS: u64 = 50;
