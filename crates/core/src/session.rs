//! The decision cores of a bandwidth test, with no socket and no clock.
//!
//! A session is told what each 50 ms window delivered and answers what
//! to do next: [`SwiftestSession`] runs §5.1's paced probing,
//! [`FloodingSession`] BTS-APP's connection ladder (§2). It owns the
//! estimator, the stop rule and the status, and reports every
//! observation and decision to a [`ProbeLog`]; its driver owns the I/O.
//! The simulator and the wire client drive the same sessions.

use crate::decision::ProbeLog;
use crate::estimator::{BandwidthEstimator, EstimatorDecision};
use crate::outcome::{DegradeReason, FailReason, TestStatus};
use crate::probe::SwiftestConfig;
use crate::SAMPLE_INTERVAL_MS;
use mbw_stats::Gmm;
use std::time::Duration;

/// A window's length.
const WINDOW: Duration = Duration::from_millis(SAMPLE_INTERVAL_MS);

/// What both sessions keep: the estimator, whether it stopped the test,
/// and the log.
struct Verdict<'a, L> {
    estimator: &'a mut dyn BandwidthEstimator,
    estimate: Option<f64>,
    log: &'a mut L,
}

impl<'a, L: ProbeLog> Verdict<'a, L> {
    fn new(estimator: &'a mut dyn BandwidthEstimator, log: &'a mut L) -> Self {
        Self {
            estimator,
            estimate: None,
            log,
        }
    }

    /// Feed the sample of the window ending at `at_ns` to the
    /// estimator; true once it ends the test.
    fn push(&mut self, at_ns: u64, mbps: f64) -> bool {
        if let EstimatorDecision::Done(v) = self.estimator.push(mbps) {
            self.estimate = Some(v);
            self.log.converged(at_ns, v, self.estimator.stop_rule());
        }
        self.estimate.is_some()
    }

    /// The estimate (the estimator's fallback if it never stopped the
    /// test) and the status, by precedence: nothing usable, then
    /// `degrade`, then a cap that fired before the stop rule.
    fn finish(self, duration: Duration, degrade: Option<DegradeReason>) -> (f64, TestStatus) {
        let estimate_mbps = self
            .estimate
            .or_else(|| self.estimator.finalize())
            .unwrap_or(0.0);
        let status = if estimate_mbps <= 0.0 || self.estimator.is_empty() {
            TestStatus::Failed(FailReason::NoData)
        } else if let Some(reason) = degrade {
            TestStatus::Degraded(reason)
        } else if self.estimate.is_none() {
            TestStatus::Degraded(DegradeReason::Convergence)
        } else {
            TestStatus::Complete
        };
        self.log
            .finish(duration.as_nanos() as u64, estimate_mbps, status);
        (estimate_mbps, status)
    }
}

/// What a [`SwiftestSession`] asks of its driver after a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Next {
    /// Keep probing at `rate_mbps` (changed only by an escalation).
    Probe {
        /// The probing rate of the next window, Mbps.
        rate_mbps: f64,
    },
    /// The test is over: call [`SwiftestSession::finish`].
    Stop,
}

/// Swiftest's probing rules (§5.1) over windows its driver measures.
pub struct SwiftestSession<'a, L: ProbeLog> {
    model: &'a Gmm,
    config: SwiftestConfig,
    rate_mbps: f64,
    gap_windows: usize,
    verdict: Verdict<'a, L>,
}

impl<'a, L: ProbeLog> SwiftestSession<'a, L> {
    /// A session whose first window opens at `now_ns`, and its first
    /// probing rate: the model's most probable mode, or 1 Mbps if that
    /// is lower. The deadline is `config.max_duration` after the epoch
    /// (`now_ns` = 0), not after `now_ns`.
    pub fn new(
        model: &'a Gmm,
        estimator: &'a mut dyn BandwidthEstimator,
        config: &SwiftestConfig,
        now_ns: u64,
        log: &'a mut L,
    ) -> (Self, f64) {
        let dominant = model.dominant_component();
        let dominant_mbps = model.components()[dominant].mean;
        let rate_mbps = dominant_mbps.max(1.0);
        // A dominant mode under 1 Mbps is probed at 1 Mbps, which is no
        // component's mode.
        let mode = (rate_mbps == dominant_mbps).then_some(dominant);
        log.rate(now_ns, rate_mbps, mode.and_then(|i| u8::try_from(i).ok()));
        let session = Self {
            model,
            config: *config,
            rate_mbps,
            gap_windows: 0,
            verdict: Verdict::new(estimator, log),
        };
        (session, rate_mbps)
    }

    /// The window ending at `now_ns` delivered `delivered_bytes`. An
    /// empty window is a gap (a blackout, or a server gone quiet): only
    /// counted, as its zero would drag the estimator toward a bandwidth
    /// the link does not have. Any other window feeds the estimator; at
    /// the saturation margin × the rate or above, it escalates the rate
    /// to the most probable larger mode (past the largest: × growth).
    pub fn on_window(&mut self, now_ns: u64, delivered_bytes: f64) -> Next {
        let mbps = delivered_bytes * 8.0 / WINDOW.as_secs_f64() / 1e6;
        let start_ns = now_ns.saturating_sub(WINDOW.as_nanos() as u64);
        self.verdict.log.chunk(start_ns, delivered_bytes);
        self.verdict.log.sample(now_ns, mbps);
        if delivered_bytes <= 0.0 {
            self.gap_windows += 1;
            self.verdict.log.stall(now_ns);
        } else if self.verdict.push(now_ns, mbps) {
            return Next::Stop;
        } else if mbps >= self.rate_mbps * self.config.saturation_margin {
            let growth = self.config.beyond_mode_growth;
            let (rate, mode) = self.model.escalate(self.rate_mbps, growth);
            self.rate_mbps = rate;
            let mode = mode.and_then(|i| u8::try_from(i).ok());
            self.verdict.log.rate(now_ns, rate, mode);
        }
        if now_ns >= self.config.max_duration.as_nanos() as u64 {
            return Next::Stop;
        }
        Next::Probe {
            rate_mbps: self.rate_mbps,
        }
    }

    /// End the test after `duration`, with its estimate and status.
    /// `driver_degrade` is what only the driver can see, such as a
    /// stalled server; it outranks delivery gaps, which outrank a cap
    /// that fired before the stop rule.
    pub fn finish(
        self,
        duration: Duration,
        driver_degrade: Option<DegradeReason>,
    ) -> (f64, TestStatus) {
        let gaps = (self.gap_windows > 0).then_some(DegradeReason::Blackout);
        self.verdict.finish(duration, driver_degrade.or(gaps))
    }
}

/// What a [`FloodingSession`] asks of its driver after a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodNext {
    /// Keep flooding on the open connections.
    Continue,
    /// Open this many more connections, then keep flooding.
    AddFlows(usize),
    /// The test is over: call [`FloodingSession::finish`].
    Stop,
}

/// A flooding test's rules over samples its driver measures: the
/// connection-threshold ladder (§2: "25 Mbps, 35 Mbps, and so on") and
/// the estimator. The driver keeps the duration cap, since the flow
/// simulator ends a test at a round, not at a sample.
pub struct FloodingSession<'a, L: ProbeLog> {
    /// The thresholds not reached yet.
    thresholds: &'a [f64],
    flows: usize,
    max_flows: usize,
    verdict: Verdict<'a, L>,
}

impl<'a, L: ProbeLog> FloodingSession<'a, L> {
    /// A session over one open connection that adds one at each of
    /// `thresholds` (Mbps, ascending) a sample reaches, up to
    /// `max_flows` in all. No thresholds: one connection throughout.
    pub fn new(
        estimator: &'a mut dyn BandwidthEstimator,
        thresholds: &'a [f64],
        max_flows: usize,
        log: &'a mut L,
    ) -> Self {
        Self {
            thresholds,
            flows: 1,
            max_flows,
            verdict: Verdict::new(estimator, log),
        }
    }

    /// One sample of `mbps`, for the window ending at `at_ns`.
    pub fn on_sample(&mut self, at_ns: u64, mbps: f64) -> FloodNext {
        self.verdict.log.sample(at_ns, mbps);
        let open = self.flows;
        let reached = |ladder: &[f64]| ladder.first().is_some_and(|&t| mbps >= t);
        while reached(self.thresholds) {
            self.thresholds = &self.thresholds[1..];
            if self.flows < self.max_flows {
                self.flows += 1;
                self.verdict.log.flows(at_ns, self.flows);
            }
        }
        match self.flows - open {
            _ if self.verdict.push(at_ns, mbps) => FloodNext::Stop,
            0 => FloodNext::Continue,
            added => FloodNext::AddFlows(added),
        }
    }

    /// End the test after `duration`, with its estimate and status.
    pub fn finish(self, duration: Duration) -> (f64, TestStatus) {
        self.verdict.finish(duration, None)
    }
}
