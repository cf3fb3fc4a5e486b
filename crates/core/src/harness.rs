//! One-call test execution and back-to-back comparisons.
//!
//! The harness glues scenario → server selection → prober → estimator
//! into the paper's evaluation protocol (§5.3): draw an access link,
//! run one (or two back-to-back) BTS tests on it, and report duration,
//! data usage, and accuracy against BTS-APP's result (the approximate
//! ground truth).
//!
//! [`TestHarness::run`], [`TestHarness::back_to_back`] and
//! [`TestHarness::test_group`] return each test's full
//! [`ProbeTimeline`]; their `_logged` forms record into any other
//! [`ProbeLog`], such as the campaign's fixed-size
//! [`crate::decision::DecisionRecord`].
//!
//! Every test runs on a `TestScratch`, the flow simulator and sample
//! buffers it borrows: the public methods give each call a fresh one,
//! and a campaign worker lends its own to every trial it runs.

use crate::decision::ProbeLog;
use crate::estimator::{ConvergenceEstimator, CrucialIntervalEstimator, GroupedTrimmedMean};
use crate::model::TechClass;
use crate::outcome::TestStatus;
use crate::probe::{self, BtsKind, FloodingConfig, ProbeResult, SwiftestConfig};
use crate::scenario::{AccessScenario, DrawnPath};
use crate::scratch::TestScratch;
use crate::server::ServerPool;
use mbw_stats::{descriptive, SeededRng};
use mbw_telemetry::ProbeTimeline;
use std::sync::Arc;
use std::time::Duration;

/// The outcome of one simulated bandwidth test.
#[derive(Debug, Clone)]
pub struct TestOutcome<L = ProbeTimeline> {
    /// Which service ran.
    pub kind: BtsKind,
    /// Technology class of the access link.
    pub tech: TechClass,
    /// Probing time (excluding server selection).
    pub duration: Duration,
    /// Server-selection (PING) overhead.
    pub ping_overhead: Duration,
    /// Bytes pulled through the access link.
    pub data_bytes: f64,
    /// The reported bandwidth, Mbps.
    pub estimate_mbps: f64,
    /// The drawn link's nominal capacity, Mbps.
    pub truth_mbps: f64,
    /// How the test completed (converged / partial / nothing usable).
    pub status: TestStatus,
    /// The prober's [`ProbeLog`], labelled with the run's kind,
    /// technology, seed and truth: by default the per-event record,
    /// deterministic for a fixed seed.
    pub timeline: L,
}

impl<L> TestOutcome<L> {
    /// Probing plus selection time — the user-visible test duration.
    pub fn total_duration(&self) -> Duration {
        self.duration + self.ping_overhead
    }

    /// Relative deviation from another outcome's estimate (the paper's
    /// §5.3 metric).
    pub fn deviation_from(&self, other: &TestOutcome<L>) -> f64 {
        descriptive::relative_deviation(self.estimate_mbps, other.estimate_mbps)
    }

    /// Accuracy against a reference estimate: `1 − deviation`.
    pub fn accuracy_vs(&self, reference_mbps: f64) -> f64 {
        1.0 - descriptive::relative_deviation(self.estimate_mbps, reference_mbps)
    }
}

/// A back-to-back test pair on the same drawn link (§5.3's evaluation
/// protocol, with a one-second cooldown between runs).
#[derive(Debug, Clone)]
pub struct BackToBack<L = ProbeTimeline> {
    /// First service's outcome.
    pub first: TestOutcome<L>,
    /// Second service's outcome.
    pub second: TestOutcome<L>,
}

impl<L> BackToBack<L> {
    /// Relative deviation between the two results.
    pub fn deviation(&self) -> f64 {
        self.first.deviation_from(&self.second)
    }
}

/// A §5.3 benchmark-study test group: all four services run on the
/// same drawn link, BTS-APP first as the accuracy reference.
#[derive(Debug, Clone)]
pub struct TestGroup<L = ProbeTimeline> {
    /// Outcomes in [`BtsKind::ALL`] order:
    /// `[BTS-APP, FAST, FastBTS, Swiftest]`.
    pub outcomes: [TestOutcome<L>; 4],
}

impl<L> TestGroup<L> {
    /// The BTS-APP reference outcome.
    pub fn reference(&self) -> &TestOutcome<L> {
        &self.outcomes[0]
    }

    /// The three contenders (FAST, FastBTS, Swiftest).
    pub fn contenders(&self) -> &[TestOutcome<L>] {
        &self.outcomes[1..]
    }
}

/// The paper's two server fleets. A campaign builds one pair and shares
/// it among its scenario harnesses.
pub(crate) struct Fleets {
    bts_app: ServerPool,
    swiftest: ServerPool,
}

impl Fleets {
    /// BTS-APP's 352 production servers and Swiftest's 20 budget ones.
    pub(crate) fn paper() -> Arc<Self> {
        Arc::new(Self {
            bts_app: ServerPool::bts_app_production(0xB75),
            swiftest: ServerPool::swiftest_budget(20, 100.0, 0x5F7),
        })
    }
}

/// Test harness for one technology class.
pub struct TestHarness {
    scenario: AccessScenario,
    fleets: Arc<Fleets>,
}

impl TestHarness {
    /// Harness with the default calibrated scenario and the paper's two
    /// server fleets.
    pub fn new(tech: TechClass) -> Self {
        Self::with_scenario(AccessScenario::default_for(tech))
    }

    /// Harness over a custom scenario.
    pub fn with_scenario(scenario: AccessScenario) -> Self {
        Self::with_fleets(scenario, Fleets::paper())
    }

    /// Harness over a custom scenario, testing against `fleets`.
    pub(crate) fn with_fleets(scenario: AccessScenario, fleets: Arc<Fleets>) -> Self {
        Self { scenario, fleets }
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &AccessScenario {
        &self.scenario
    }

    /// Run one test on a freshly drawn link.
    pub fn run(&self, kind: BtsKind, seed: u64) -> TestOutcome {
        self.run_logged(kind, seed)
    }

    /// [`TestHarness::run`], recording into any [`ProbeLog`].
    pub fn run_logged<L: ProbeLog>(&self, kind: BtsKind, seed: u64) -> TestOutcome<L> {
        self.run_in(&mut TestScratch::default(), kind, seed)
    }

    /// [`TestHarness::run_logged`] on `scratch`.
    pub(crate) fn run_in<L: ProbeLog>(
        &self,
        scratch: &mut TestScratch,
        kind: BtsKind,
        seed: u64,
    ) -> TestOutcome<L> {
        let drawn = self.scenario.draw(seed);
        self.run_on_logged(scratch, kind, &drawn, seed ^ 0x51AB)
    }

    /// Run one test on an explicit drawn link.
    pub fn run_on(&self, kind: BtsKind, drawn: &DrawnPath, run_seed: u64) -> TestOutcome {
        self.run_on_logged(&mut TestScratch::default(), kind, drawn, run_seed)
    }

    /// [`TestHarness::run_on`] on `scratch`, recording into any
    /// [`ProbeLog`].
    fn run_on_logged<L: ProbeLog>(
        &self,
        scratch: &mut TestScratch,
        kind: BtsKind,
        drawn: &DrawnPath,
        run_seed: u64,
    ) -> TestOutcome<L> {
        let mut rng = SeededRng::new(run_seed);
        let client_domain = rng.index(crate::server::IXP_DOMAINS) as u8;

        // Server selection: BTS-APP pings 5 of 352; Swiftest pings all
        // of its 10-per-test candidates (§2, §5.3).
        let (pool, k) = match kind {
            BtsKind::Swiftest => (&self.fleets.swiftest, 10),
            _ => (&self.fleets.bts_app, 5),
        };
        let (_idx, _rtt, ping_overhead) = pool.ping_select(client_domain, k, &mut rng);

        let path = drawn.build();
        let result: ProbeResult<L> = match kind {
            BtsKind::BtsApp => scratch.lend(GroupedTrimmedMean::bts_app_on, |scratch, est| {
                let config = FloodingConfig::bts_app();
                probe::run_flooding_logged(scratch, path, est, &config, run_seed)
            }),
            BtsKind::Fast => scratch.lend(ConvergenceEstimator::fast_on, |scratch, est| {
                let config = FloodingConfig::fast();
                probe::run_flooding_logged(scratch, path, est, &config, run_seed)
            }),
            BtsKind::FastBts => {
                scratch.lend(CrucialIntervalEstimator::fastbts_on, |scratch, est| {
                    let config = FloodingConfig::fastbts();
                    probe::run_flooding_logged(scratch, path, est, &config, run_seed)
                })
            }
            BtsKind::Swiftest => scratch.lend(ConvergenceEstimator::swiftest_on, |_, est| {
                let config = SwiftestConfig::default();
                probe::run_swiftest_logged(path, &self.scenario.model, est, &config, run_seed)
            }),
        };

        let mut timeline = result.timeline;
        timeline.label(kind, self.scenario.tech, run_seed, drawn.truth_mbps);

        TestOutcome {
            kind,
            tech: self.scenario.tech,
            duration: result.duration,
            ping_overhead,
            data_bytes: result.data_bytes,
            estimate_mbps: result.estimate_mbps,
            truth_mbps: drawn.truth_mbps,
            status: result.status,
            timeline,
        }
    }

    /// Run a back-to-back pair on the same drawn link, in randomised
    /// order with distinct run seeds (the cooldown means the two runs
    /// see independently evolving — but statistically identical —
    /// capacity noise).
    pub fn back_to_back(&self, a: BtsKind, b: BtsKind, seed: u64) -> BackToBack {
        self.back_to_back_logged(a, b, seed)
    }

    /// [`TestHarness::back_to_back`], recording into any [`ProbeLog`].
    pub fn back_to_back_logged<L: ProbeLog>(
        &self,
        a: BtsKind,
        b: BtsKind,
        seed: u64,
    ) -> BackToBack<L> {
        self.back_to_back_in(&mut TestScratch::default(), a, b, seed)
    }

    /// [`TestHarness::back_to_back_logged`] on `scratch`.
    pub(crate) fn back_to_back_in<L: ProbeLog>(
        &self,
        scratch: &mut TestScratch,
        a: BtsKind,
        b: BtsKind,
        seed: u64,
    ) -> BackToBack<L> {
        let drawn = self.scenario.draw(seed);
        let mut rng = SeededRng::new(seed ^ 0x0DD);
        let flip = rng.chance(0.5);
        let (first_kind, second_kind) = if flip { (b, a) } else { (a, b) };
        // Distinct run seeds: the second run starts after a cooldown, so
        // its noise process is a different draw on the same link.
        let mut first = self.run_on_logged(scratch, first_kind, &drawn, seed ^ 0xF157);
        let mut second = self.run_on_logged(
            scratch,
            second_kind,
            &DrawnPath {
                seed: drawn.seed ^ 0x2ED,
                ..drawn
            },
            seed ^ 0x5EC,
        );
        if first.kind != a {
            std::mem::swap(&mut first, &mut second);
        }
        BackToBack { first, second }
    }

    /// Run the full benchmark-study group (§5.3): BTS-APP as the
    /// reference plus the three contenders, all on one drawn link with
    /// distinct run seeds.
    pub fn test_group(&self, seed: u64) -> TestGroup {
        self.test_group_logged(seed)
    }

    /// [`TestHarness::test_group`], recording into any [`ProbeLog`].
    pub fn test_group_logged<L: ProbeLog>(&self, seed: u64) -> TestGroup<L> {
        self.test_group_in(&mut TestScratch::default(), seed)
    }

    /// [`TestHarness::test_group_logged`] on `scratch`.
    pub(crate) fn test_group_in<L: ProbeLog>(
        &self,
        scratch: &mut TestScratch,
        seed: u64,
    ) -> TestGroup<L> {
        let drawn = self.scenario.draw(seed);
        let reference = self.run_on_logged(scratch, BtsKind::BtsApp, &drawn, seed ^ 0x0EF);
        let mut k = 0u64;
        let [fast, fastbts, swiftest] =
            [BtsKind::Fast, BtsKind::FastBts, BtsKind::Swiftest].map(|kind| {
                let o = self.run_on_logged(scratch, kind, &drawn, seed ^ (0xA11 + k));
                k += 1;
                o
            });
        TestGroup {
            outcomes: [reference, fast, fastbts, swiftest],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swiftest_is_fast_and_light_across_technologies() {
        for tech in TechClass::ALL {
            let h = TestHarness::new(tech);
            let mut durations = Vec::new();
            let mut usage = Vec::new();
            for seed in 0..30 {
                let o = h.run(BtsKind::Swiftest, seed);
                durations.push(o.duration.as_secs_f64());
                usage.push(o.data_bytes);
                assert!(o.total_duration() < Duration::from_secs(5));
            }
            let mean_dur = descriptive::mean(&durations);
            assert!(
                (0.4..=2.0).contains(&mean_dur),
                "{tech}: mean duration {mean_dur}"
            );
            // §5.3: even 5G tests average ~32 MB.
            assert!(
                descriptive::mean(&usage) < 80e6,
                "{tech}: usage {}",
                descriptive::mean(&usage)
            );
        }
    }

    #[test]
    fn bts_app_takes_ten_seconds() {
        let h = TestHarness::new(TechClass::Wifi);
        let o = h.run(BtsKind::BtsApp, 42);
        assert!(o.duration >= Duration::from_millis(9_900));
        assert!(o.estimate_mbps > 0.0);
    }

    #[test]
    fn swiftest_tracks_bts_app_closely_on_average() {
        let h = TestHarness::new(TechClass::Wifi);
        let mut devs = Vec::new();
        for seed in 0..40 {
            let pair = h.back_to_back(BtsKind::Swiftest, BtsKind::BtsApp, seed);
            devs.push(pair.deviation());
        }
        let mean_dev = descriptive::mean(&devs);
        // §5.3: average deviation ≈ 5%; give head-room for small n.
        assert!(mean_dev < 0.12, "mean deviation {mean_dev}");
    }

    #[test]
    fn back_to_back_randomises_order_but_reports_in_argument_order() {
        let h = TestHarness::new(TechClass::Lte);
        for seed in 0..10 {
            let pair = h.back_to_back(BtsKind::Swiftest, BtsKind::BtsApp, seed);
            assert_eq!(pair.first.kind, BtsKind::Swiftest);
            assert_eq!(pair.second.kind, BtsKind::BtsApp);
            assert_eq!(pair.first.truth_mbps, pair.second.truth_mbps);
        }
    }

    #[test]
    fn data_usage_ratio_matches_the_paper_scale() {
        // §5.3 / Fig 21: BTS-APP uses ~8–9× the data of Swiftest.
        let h = TestHarness::new(TechClass::Nr);
        let mut ratio = Vec::new();
        for seed in 0..20 {
            let pair = h.back_to_back(BtsKind::BtsApp, BtsKind::Swiftest, seed);
            if pair.second.data_bytes > 0.0 {
                ratio.push(pair.first.data_bytes / pair.second.data_bytes);
            }
        }
        let mean_ratio = descriptive::mean(&ratio);
        assert!(mean_ratio > 4.0, "ratio {mean_ratio}");
    }

    #[test]
    fn outcome_metrics() {
        let o = TestOutcome {
            kind: BtsKind::Swiftest,
            tech: TechClass::Wifi,
            duration: Duration::from_millis(900),
            ping_overhead: Duration::from_millis(200),
            data_bytes: 1e7,
            estimate_mbps: 95.0,
            truth_mbps: 100.0,
            status: TestStatus::Complete,
            timeline: ProbeTimeline::new(),
        };
        assert_eq!(o.total_duration(), Duration::from_millis(1100));
        assert!((o.accuracy_vs(100.0) - 0.95).abs() < 1e-9);
        assert!(o.status.is_complete());
    }

    #[test]
    fn runs_are_deterministic() {
        let h = TestHarness::new(TechClass::Nr);
        let a = h.run(BtsKind::Swiftest, 7);
        let b = h.run(BtsKind::Swiftest, 7);
        assert_eq!(a.estimate_mbps, b.estimate_mbps);
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn timelines_are_byte_identical_for_a_fixed_seed() {
        let h = TestHarness::new(TechClass::Nr);
        let a = h.run(BtsKind::Swiftest, 7);
        let b = h.run(BtsKind::Swiftest, 7);
        let ja = a.timeline.to_json();
        assert_eq!(ja, b.timeline.to_json());
        // The timeline carries the run's identity and real content.
        assert_eq!(
            a.timeline.meta().get("kind").map(String::as_str),
            Some("Swiftest")
        );
        assert!(!a.timeline.trajectory().is_empty());
        assert!(a.timeline.summary().is_some());
        // A different seed tells a different story.
        let c = h.run(BtsKind::Swiftest, 8);
        assert_ne!(ja, c.timeline.to_json());
    }

    #[test]
    fn flooding_runs_carry_timelines_too() {
        let h = TestHarness::new(TechClass::Wifi);
        let o = h.run(BtsKind::BtsApp, 3);
        assert_eq!(
            o.timeline.meta().get("prober").map(String::as_str),
            Some("flooding")
        );
        // 10 s at 50 ms sampling: the trajectory is the full sample set.
        assert!(o.timeline.trajectory().len() >= 200);
    }
}
