//! Bandwidth probers: TCP flooding and Swiftest's paced UDP probing.
//!
//! A prober owns the traffic pattern; the estimator (see
//! [`crate::estimator`]) owns the stop rule and the final number. The
//! flooding prober reproduces BTS-APP/Speedtest behaviour over the
//! round-based TCP simulation; the Swiftest prober implements §5.1's
//! model-guided UDP pacing over the fluid path.

use crate::decision::ProbeLog;
use crate::estimator::{BandwidthEstimator, EstimatorDecision};
use crate::outcome::{DegradeReason, FailReason, TestStatus};
use crate::scratch::TestScratch;
use crate::SAMPLE_INTERVAL_MS;
use mbw_congestion::{CcAlgorithm, CongestionControl, MultiFlowConfig, MultiFlowSim};
use mbw_netsim::{PathModel, SimTime};
use mbw_stats::Gmm;
use mbw_telemetry::ProbeTimeline;
use std::sync::OnceLock;
use std::time::Duration;

/// Which bandwidth testing service a run emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtsKind {
    /// The production BTS-APP (Speedtest-like, §2).
    BtsApp,
    /// Netflix FAST (§5.1).
    Fast,
    /// FastBTS (§5.1).
    FastBts,
    /// The paper's system (§5).
    Swiftest,
}

impl BtsKind {
    /// All four services.
    pub const ALL: [BtsKind; 4] = [
        BtsKind::BtsApp,
        BtsKind::Fast,
        BtsKind::FastBts,
        BtsKind::Swiftest,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BtsKind::BtsApp => "BTS-APP",
            BtsKind::Fast => "FAST",
            BtsKind::FastBts => "FastBTS",
            BtsKind::Swiftest => "Swiftest",
        }
    }
}

impl std::fmt::Display for BtsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Raw result of one probing run (before server-selection overhead).
#[derive(Debug, Clone)]
pub struct ProbeResult<L = ProbeTimeline> {
    /// Probing wall time.
    pub duration: Duration,
    /// Bytes the client pulled through the access link (its data usage).
    pub data_bytes: f64,
    /// The estimator's final number, Mbps.
    pub estimate_mbps: f64,
    /// How the run completed (converged / partial / nothing usable).
    pub status: TestStatus,
    /// The run's [`ProbeLog`]. By default the full per-event record,
    /// stamped in virtual time: deterministic (byte-identical JSON) for
    /// a fixed seed, and its [`ProbeTimeline::trajectory`] is the 50 ms
    /// samples the client saw. Campaign trials keep a
    /// [`crate::decision::DecisionRecord`] here instead.
    pub timeline: L,
}

/// Configuration of the TCP flooding prober.
#[derive(Debug, Clone)]
pub struct FloodingConfig {
    /// Hard stop (10 s for BTS-APP; FAST/FastBTS rely on their
    /// estimators but carry a safety cap).
    pub max_duration: Duration,
    /// Bandwidth thresholds (Mbps) at which another connection is added
    /// (§2: "25 Mbps, 35 Mbps, and so on, following Speedtest's design").
    pub thresholds: &'static [f64],
    /// Congestion control of the server-side TCP stacks.
    pub cc: CcAlgorithm,
    /// Upper bound on parallel connections.
    pub max_connections: usize,
}

impl FloodingConfig {
    /// BTS-APP's configuration.
    pub fn bts_app() -> Self {
        Self {
            max_duration: Duration::from_secs(10),
            thresholds: speedtest_thresholds(),
            cc: CcAlgorithm::Cubic,
            max_connections: 8,
        }
    }

    /// FAST's configuration (converges via its estimator; 20 s cap).
    pub fn fast() -> Self {
        Self {
            max_duration: Duration::from_secs(20),
            ..Self::bts_app()
        }
    }

    /// FastBTS's configuration (30 s cap, rarely reached).
    pub fn fastbts() -> Self {
        Self {
            max_duration: Duration::from_secs(30),
            ..Self::bts_app()
        }
    }
}

/// Speedtest's connection-addition ladder: 25, 35, then ~1.35× growth
/// up to 1.2 Gbps. Built on first use and shared by every test.
pub fn speedtest_thresholds() -> &'static [f64] {
    static LADDER: OnceLock<Vec<f64>> = OnceLock::new();
    LADDER.get_or_init(|| {
        let mut t = vec![25.0, 35.0];
        while *t.last().expect("non-empty") < 1200.0 {
            let next = t.last().unwrap() * 1.35;
            t.push(next);
        }
        t
    })
}

/// Run a TCP flooding test: flood through `MultiFlowSim`, push each
/// complete 50 ms sample into `estimator`, add connections at the
/// configured thresholds, stop when the estimator converges or the cap
/// fires.
pub fn run_flooding(
    path: PathModel,
    estimator: &mut dyn BandwidthEstimator,
    config: &FloodingConfig,
    seed: u64,
) -> ProbeResult {
    run_flooding_logged(&mut TestScratch::default(), path, estimator, config, seed)
}

/// [`run_flooding`] on `scratch`, recording into any [`ProbeLog`].
pub(crate) fn run_flooding_logged<L: ProbeLog>(
    scratch: &mut TestScratch,
    path: PathModel,
    estimator: &mut dyn BandwidthEstimator,
    config: &FloodingConfig,
    seed: u64,
) -> ProbeResult<L> {
    let mut next_threshold = 0usize;
    drive_tcp_test(
        scratch.sim(path, tcp_config(seed)),
        config.cc.build(),
        "flooding",
        estimator,
        config.max_duration,
        |sim, log: &mut L, at_ns, mbps| {
            // Progressive connection addition (§2).
            while next_threshold < config.thresholds.len()
                && mbps >= config.thresholds[next_threshold]
            {
                next_threshold += 1;
                if sim.flow_count() < config.max_connections {
                    sim.add_flow(config.cc);
                    log.flows(at_ns, sim.flow_count());
                }
            }
        },
    )
}

/// The simulator settings of a TCP-based test seeded with `seed`: the
/// clients' 50 ms samples.
pub(crate) fn tcp_config(seed: u64) -> MultiFlowConfig {
    MultiFlowConfig {
        sample_interval: Duration::from_millis(SAMPLE_INTERVAL_MS),
        seed,
    }
}

/// The one loop behind every TCP-based test: step `first_flow` on `sim`
/// (fresh on the test's path, with no flow yet) round by round, drain
/// the 50 ms samples each round finishes (each is handed out once — see
/// `MultiFlowSim::next_sample`), record them, and stop when `estimator`
/// converges or `max_duration` passes. `after_sample` runs between
/// recording a sample and pushing it into the estimator; the flooding
/// prober adds connections there.
pub(crate) fn drive_tcp_test<L: ProbeLog>(
    sim: &mut MultiFlowSim,
    first_flow: Box<dyn CongestionControl>,
    prober: &'static str,
    estimator: &mut dyn BandwidthEstimator,
    max_duration: Duration,
    mut after_sample: impl FnMut(&mut MultiFlowSim, &mut L, u64, f64),
) -> ProbeResult<L> {
    sim.reserve_horizon(max_duration);
    sim.add_flow_boxed(first_flow);

    let mut log = L::default();
    log.start(0, prober, estimator.name());

    let mut sampled = false;
    let mut final_estimate = None;
    let mut end = max_duration;

    'outer: while sim.now() < max_duration {
        sim.step_round();
        while let Some(s) = sim.next_sample() {
            let mbps = s.bps / 1e6;
            sampled = true;
            let at_ns = s.at.as_nanos() as u64;
            log.sample(at_ns, mbps);
            after_sample(sim, &mut log, at_ns, mbps);
            if let EstimatorDecision::Done(v) = estimator.push(mbps) {
                final_estimate = Some(v);
                end = s.at;
                log.converged(at_ns, v, estimator.stop_rule());
                break 'outer;
            }
        }
    }

    let (_, delivered, _) = sim.totals();
    let estimate = final_estimate
        .or_else(|| estimator.finalize())
        .unwrap_or(0.0);
    let status = if estimate <= 0.0 || !sampled {
        TestStatus::Failed(FailReason::NoData)
    } else if final_estimate.is_some() {
        TestStatus::Complete
    } else {
        // The cap fired before the stop rule; the finalize() fallback is
        // an estimate over whatever was observed.
        TestStatus::Degraded(DegradeReason::Convergence)
    };
    let duration = end.min(sim.now());
    log.finish(duration.as_nanos() as u64, estimate, status);
    ProbeResult {
        duration,
        data_bytes: delivered,
        estimate_mbps: estimate,
        status,
        timeline: log,
    }
}

/// Configuration of Swiftest's UDP prober.
#[derive(Debug, Clone, Copy)]
pub struct SwiftestConfig {
    /// Hard cap (the paper's worst observed test was 4.49 s).
    pub max_duration: Duration,
    /// A sample at or above `saturation_margin × probing rate` means the
    /// link is *not* saturated — escalate.
    pub saturation_margin: f64,
    /// Multiplicative rate growth once above the model's largest mode.
    pub beyond_mode_growth: f64,
}

impl Default for SwiftestConfig {
    fn default() -> Self {
        Self {
            max_duration: Duration::from_millis(4500),
            saturation_margin: 0.96,
            beyond_mode_growth: 1.5,
        }
    }
}

/// Run a Swiftest UDP test (§5.1):
///
/// 1. start pacing at the model's most probable mode;
/// 2. after each 50 ms sample, escalate to the most probable larger mode
///    (or grow multiplicatively past the largest) while unsaturated;
/// 3. stop when the estimator converges (ten samples within 3%).
pub fn run_swiftest(
    path: PathModel,
    model: &Gmm,
    estimator: &mut dyn BandwidthEstimator,
    config: &SwiftestConfig,
    seed: u64,
) -> ProbeResult {
    run_swiftest_logged(path, model, estimator, config, seed)
}

/// A model component index as a [`ProbeLog`] names it.
fn component(i: usize) -> Option<u8> {
    u8::try_from(i).ok()
}

/// [`run_swiftest`], recording into any [`ProbeLog`].
pub(crate) fn run_swiftest_logged<L: ProbeLog>(
    mut path: PathModel,
    model: &Gmm,
    estimator: &mut dyn BandwidthEstimator,
    config: &SwiftestConfig,
    _seed: u64,
) -> ProbeResult<L> {
    let step = Duration::from_millis(SAMPLE_INTERVAL_MS);
    // Initial control handshake: one RTT before data flows.
    let handshake = path.base_rtt();
    let mut t = SimTime::ZERO + handshake;
    let dominant = model.dominant_component();
    let dominant_mbps = model.components()[dominant].mean;
    let mut rate_mbps = dominant_mbps.max(1.0);
    let mut data_bytes = 0.0;
    let mut estimate = None;
    let mut gap_windows = 0usize;
    let deadline = SimTime::ZERO + config.max_duration;

    let mut log = L::default();
    log.start(t.as_nanos(), "swiftest-udp", estimator.name());
    // A dominant mode under 1 Mbps is probed at 1 Mbps, which is no
    // component's mode.
    let initial_mode = (rate_mbps == dominant_mbps).then_some(dominant);
    log.rate(t.as_nanos(), rate_mbps, initial_mode.and_then(component));

    while t < deadline {
        let window_start = t;
        let delivered = path.paced_step(t, step, rate_mbps * 1e6).delivered_bytes;
        t += step;
        // Data usage: bytes that reach the client. Overshoot beyond the
        // bottleneck is dropped upstream of the metered access link, so
        // it does not bill the user (which is how the paper's 32 MB per
        // 5G test comes out of a ~1 s test at ~300 Mbps).
        data_bytes += delivered;
        let mbps = delivered * 8.0 / step.as_secs_f64() / 1e6;
        log.chunk(window_start.as_nanos(), delivered as u64);
        log.sample(t.as_nanos(), mbps);

        if delivered <= 0.0 {
            // Delivery gap (link blackout): feeding the zero into the
            // estimator would converge it toward a bandwidth the link
            // does not have. Count the gap and keep probing so the test
            // resumes when the radio comes back.
            gap_windows += 1;
            log.stall(t.as_nanos());
            continue;
        }

        match estimator.push(mbps) {
            EstimatorDecision::Done(v) => {
                estimate = Some(v);
                log.converged(t.as_nanos(), v, estimator.stop_rule());
                break;
            }
            EstimatorDecision::Continue => {}
        }
        // Saturation check (§5.1): the latest sample *not* falling below
        // the probing rate means there is headroom — tune the rate to
        // the most probable larger modal bandwidth.
        if mbps >= rate_mbps * config.saturation_margin {
            let mode = model.next_larger_component(rate_mbps);
            rate_mbps = match mode {
                Some(i) => model.components()[i].mean,
                None => rate_mbps * config.beyond_mode_growth,
            };
            log.rate(t.as_nanos(), rate_mbps, mode.and_then(component));
        }
    }

    let estimate_mbps = estimate.or_else(|| estimator.finalize()).unwrap_or(0.0);
    let status = if estimate_mbps <= 0.0 {
        TestStatus::Failed(FailReason::NoData)
    } else if gap_windows > 0 {
        TestStatus::Degraded(DegradeReason::Blackout)
    } else if estimate.is_none() {
        TestStatus::Degraded(DegradeReason::Convergence)
    } else {
        TestStatus::Complete
    };
    let duration = t.saturating_since(SimTime::ZERO);
    log.finish(duration.as_nanos() as u64, estimate_mbps, status);
    ProbeResult {
        duration,
        data_bytes,
        estimate_mbps,
        status,
        timeline: log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionRecord, Step};
    use crate::estimator::{ConvergenceEstimator, CrucialIntervalEstimator, GroupedTrimmedMean};
    use crate::model::TechClass;
    use mbw_netsim::PathConfig;

    fn flat_path(mbps: f64, rtt_ms: u64) -> PathModel {
        PathModel::new(PathConfig::constant(
            mbps * 1e6,
            Duration::from_millis(rtt_ms),
        ))
    }

    #[test]
    fn thresholds_start_as_the_paper_says() {
        let t = speedtest_thresholds();
        assert_eq!(t[0], 25.0);
        assert_eq!(t[1], 35.0);
        assert!(t.len() > 8);
        for w in t.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn bts_app_runs_the_full_ten_seconds() {
        let mut est = GroupedTrimmedMean::bts_app();
        let r = run_flooding(
            flat_path(100.0, 25),
            &mut est,
            &FloodingConfig::bts_app(),
            1,
        );
        // 200 samples × 50 ms = 10 s.
        assert!(
            r.duration >= Duration::from_millis(9_900),
            "{:?}",
            r.duration
        );
        assert!(
            (r.estimate_mbps - 100.0).abs() < 8.0,
            "estimate {}",
            r.estimate_mbps
        );
        assert!(r.timeline.trajectory().len() >= 200);
        // Data usage ≈ 10 s at ~100 Mbps ≈ 125 MB (ramp loses a little).
        assert!(
            r.data_bytes > 80e6 && r.data_bytes < 130e6,
            "{}",
            r.data_bytes
        );
    }

    #[test]
    fn fast_converges_before_its_cap_on_a_stable_path() {
        let mut est = ConvergenceEstimator::fast();
        let r = run_flooding(flat_path(100.0, 25), &mut est, &FloodingConfig::fast(), 2);
        assert!(r.duration < Duration::from_secs(20));
        assert!(r.estimate_mbps > 60.0, "estimate {}", r.estimate_mbps);
    }

    #[test]
    fn fastbts_is_quick_but_can_lowball() {
        let mut est = CrucialIntervalEstimator::fastbts();
        let r = run_flooding(
            flat_path(300.0, 30),
            &mut est,
            &FloodingConfig::fastbts(),
            3,
        );
        assert!(r.duration < Duration::from_secs(10), "{:?}", r.duration);
        assert!(r.estimate_mbps > 0.0);
    }

    #[test]
    fn flooding_adds_connections_past_thresholds() {
        // On a fast path the first samples exceed 25/35 Mbps quickly, so
        // multiple connections must have been spawned; their aggregate
        // saturates the link faster than a single Cubic flow would.
        let mut est = GroupedTrimmedMean::bts_app();
        let r = run_flooding(
            flat_path(500.0, 25),
            &mut est,
            &FloodingConfig::bts_app(),
            4,
        );
        assert!(
            (r.estimate_mbps - 500.0).abs() < 50.0,
            "estimate {}",
            r.estimate_mbps
        );
    }

    #[test]
    fn swiftest_converges_fast_on_a_flat_path() {
        let model = TechClass::Nr.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest(
            flat_path(300.0, 20),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            5,
        );
        assert!(
            r.duration < Duration::from_millis(2_000),
            "duration {:?}",
            r.duration
        );
        assert!(
            (r.estimate_mbps - 300.0).abs() < 15.0,
            "estimate {}",
            r.estimate_mbps
        );
        // Data usage around rate × duration: tens of MB at most.
        assert!(r.data_bytes < 100e6, "{}", r.data_bytes);
    }

    #[test]
    fn swiftest_escalates_above_the_largest_mode() {
        let model = Gmm::from_triples(&[(0.7, 50.0, 10.0), (0.3, 100.0, 20.0)]).unwrap();
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest(
            flat_path(400.0, 20),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            6,
        );
        assert!(
            (r.estimate_mbps - 400.0).abs() < 30.0,
            "estimate {}",
            r.estimate_mbps
        );
    }

    #[test]
    fn swiftest_does_not_overshoot_below_the_first_mode() {
        // Link slower than the dominant mode: the first sample already
        // shows saturation; the test settles at the true rate.
        let model = TechClass::Nr.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest(
            flat_path(50.0, 20),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            7,
        );
        assert!(
            (r.estimate_mbps - 50.0).abs() < 5.0,
            "estimate {}",
            r.estimate_mbps
        );
        assert!(r.duration < Duration::from_millis(1_500));
    }

    #[test]
    fn a_record_names_the_component_only_when_the_rate_is_its_mode() {
        let record = |model: &Gmm| {
            let mut est = ConvergenceEstimator::swiftest();
            let config = SwiftestConfig::default();
            run_swiftest_logged::<DecisionRecord>(flat_path(20.0, 20), model, &mut est, &config, 3)
                .timeline
        };
        // Component 1 dominates; the link saturates under 40 Mbps, so the
        // test escalates to component 2 and then past the largest mode.
        let model = Gmm::from_triples(&[(0.2, 8.0, 1.0), (0.5, 4.0, 1.0), (0.3, 12.0, 1.0)])
            .expect("valid");
        let r = record(&model);
        assert_eq!((r.initial_rate_mbps, r.initial_mode), (4.0, Some(1)));
        let modes: Vec<_> = r
            .steps()
            .iter()
            .map(|s| match s {
                Step::Escalate { mbps, mode, .. } => (*mbps, *mode),
                Step::AddFlow { .. } => panic!("a paced test adds no connection"),
            })
            .collect();
        assert_eq!(modes[..2], [(12.0, Some(2)), (18.0, None)]);
        // A dominant mode under 1 Mbps is probed at 1 Mbps, no mode.
        let slow = Gmm::from_triples(&[(0.7, 0.5, 0.1), (0.3, 8.0, 1.0)]).expect("valid");
        let r = record(&slow);
        assert_eq!((r.initial_rate_mbps, r.initial_mode), (1.0, None));
    }

    #[test]
    fn swiftest_uses_an_order_of_magnitude_less_data_than_flooding() {
        let model = TechClass::Nr.default_model();
        let mut se = ConvergenceEstimator::swiftest();
        let swift = run_swiftest(
            flat_path(300.0, 20),
            &model,
            &mut se,
            &SwiftestConfig::default(),
            8,
        );
        let mut be = GroupedTrimmedMean::bts_app();
        let bts = run_flooding(flat_path(300.0, 20), &mut be, &FloodingConfig::bts_app(), 8);
        assert!(
            bts.data_bytes / swift.data_bytes > 5.0,
            "flooding {} vs swiftest {}",
            bts.data_bytes,
            swift.data_bytes
        );
    }

    #[test]
    fn swiftest_survives_a_mid_test_blackout() {
        use mbw_netsim::FaultPlan;
        let model = TechClass::Wifi.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        let path = flat_path(80.0, 20).with_faults(FaultPlan::blackout(
            SimTime::from_millis(200),
            Duration::from_millis(400),
        ));
        let r = run_swiftest(path, &model, &mut est, &SwiftestConfig::default(), 11);
        // Bounded, degraded, and not wildly mis-estimated: the zero
        // windows must not drag the estimate toward zero.
        assert!(
            r.duration <= Duration::from_millis(4_600),
            "{:?}",
            r.duration
        );
        assert!(r.status.is_degraded(), "status {:?}", r.status);
        assert!(
            (r.estimate_mbps - 80.0).abs() < 12.0,
            "estimate {}",
            r.estimate_mbps
        );
    }

    #[test]
    fn swiftest_fails_cleanly_when_the_link_never_comes_up() {
        use mbw_netsim::FaultPlan;
        let model = TechClass::Wifi.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        // Blackout covering the whole test horizon.
        let path = flat_path(80.0, 20)
            .with_faults(FaultPlan::blackout(SimTime::ZERO, Duration::from_secs(10)));
        let r = run_swiftest(path, &model, &mut est, &SwiftestConfig::default(), 12);
        assert!(
            r.duration <= Duration::from_millis(4_600),
            "{:?}",
            r.duration
        );
        assert!(r.status.is_failed(), "status {:?}", r.status);
        assert_eq!(r.estimate_mbps, 0.0);
    }

    #[test]
    fn clean_runs_report_complete() {
        let model = TechClass::Nr.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest(
            flat_path(300.0, 20),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            13,
        );
        assert!(r.status.is_complete(), "status {:?}", r.status);
    }

    #[test]
    fn probe_durations_respect_caps() {
        let model = TechClass::Wifi.default_model();
        // A wildly fluctuating path may never converge; the cap must hold.
        let mut path_cfg = PathConfig::constant(80e6, Duration::from_millis(20));
        path_cfg.capacity =
            Box::new(mbw_netsim::OuCapacity::new(80e6, 0.5, 0.5, 42).with_bounds(0.2, 1.8));
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest(
            PathModel::new(path_cfg),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            9,
        );
        assert!(
            r.duration <= Duration::from_millis(4_600),
            "{:?}",
            r.duration
        );
        assert!(r.estimate_mbps > 0.0, "finalize fallback fires");
    }
}
