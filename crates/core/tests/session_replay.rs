//! A `SwiftestSession` is a pure function of the windows it is fed.
//!
//! A simulated Swiftest run records every window it hands its session
//! (the `chunk` calls: the window's start and its delivered bytes);
//! fed to a bare `SwiftestSession<DecisionRecord>`, those windows must
//! reproduce the run's `DecisionRecord` bit for bit. Every technology is
//! covered, on clean links and on faulted ones whose blackouts leave
//! empty windows.

use mbw_core::decision::ProbeLog;
use mbw_core::session::{Next, SwiftestSession};
use mbw_core::{
    AccessScenario, BtsKind, ConvergenceEstimator, DecisionRecord, StopRule, SwiftestConfig,
    TechClass, TestHarness, TestStatus,
};
use mbw_stats::Gmm;
use std::time::Duration;

const SEEDS: u64 = 24;

/// One window, in nanoseconds.
const WINDOW_NS: u64 = 50_000_000;

/// A run's decision record, with every window and the duration it was
/// told of.
#[derive(Default)]
struct Tape {
    record: DecisionRecord,
    windows: Vec<(u64, f64)>,
    duration_ns: u64,
}

impl ProbeLog for Tape {
    fn start(&mut self, at_ns: u64, prober: &'static str, estimator: &'static str) {
        self.record.start(at_ns, prober, estimator);
    }

    fn chunk(&mut self, at_ns: u64, bytes: f64) {
        self.windows.push((at_ns, bytes));
        self.record.chunk(at_ns, bytes);
    }

    fn sample(&mut self, at_ns: u64, mbps: f64) {
        self.record.sample(at_ns, mbps);
    }

    fn rate(&mut self, at_ns: u64, mbps: f64, mode: Option<u8>) {
        self.record.rate(at_ns, mbps, mode);
    }

    fn flows(&mut self, at_ns: u64, flows: usize) {
        self.record.flows(at_ns, flows);
    }

    fn stall(&mut self, at_ns: u64) {
        self.record.stall(at_ns);
    }

    fn converged(&mut self, at_ns: u64, estimate_mbps: f64, rule: StopRule) {
        self.record.converged(at_ns, estimate_mbps, rule);
    }

    fn finish(&mut self, duration_ns: u64, estimate_mbps: f64, status: TestStatus) {
        self.duration_ns = duration_ns;
        self.record.finish(duration_ns, estimate_mbps, status);
    }

    fn label(&mut self, kind: BtsKind, tech: TechClass, run_seed: u64, truth_mbps: f64) {
        self.record.label(kind, tech, run_seed, truth_mbps);
    }
}

/// The record a fresh session writes when fed `tape`'s windows: the
/// first opens where the run's session started, and the session must
/// stop on the last one, not before.
fn replay(model: &Gmm, tape: &Tape, case: &str) -> DecisionRecord {
    let mut estimator = ConvergenceEstimator::swiftest();
    let mut record = DecisionRecord::default();
    let config = SwiftestConfig::default();
    let (first, _) = tape.windows[0];
    let (mut session, _) = SwiftestSession::new(model, &mut estimator, &config, first, &mut record);
    for (i, &(start, bytes)) in tape.windows.iter().enumerate() {
        let stopped = session.on_window(start + WINDOW_NS, bytes) == Next::Stop;
        assert_eq!(stopped, i + 1 == tape.windows.len(), "{case}: window {i}");
    }
    session.finish(Duration::from_nanos(tape.duration_ns), None);
    record
}

#[test]
fn recorded_windows_replay_to_the_same_decision_record() {
    let mut stalled_runs = 0;
    for tech in TechClass::ALL {
        for faults in [0.0, 1.0] {
            let scenario = AccessScenario::default_for(tech).with_fault_rate(faults);
            let harness = TestHarness::with_scenario(scenario);
            let model = &harness.scenario().model;
            for seed in 0..SEEDS {
                let case = format!("{tech} faults {faults} seed {seed}");
                let run = harness.run_logged::<Tape>(BtsKind::Swiftest, seed).timeline;
                let replayed = replay(model, &run, &case);
                assert_eq!(replayed, run.record, "{case}");
                assert_eq!(
                    replayed.estimate_mbps.to_bits(),
                    run.record.estimate_mbps.to_bits(),
                    "{case}"
                );
                stalled_runs += usize::from(run.record.stalls > 0);
            }
        }
    }
    // The blackout path is covered: some faulted runs left empty windows.
    assert!(stalled_runs > 0, "no run saw a blackout");
}
