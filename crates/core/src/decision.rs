//! What a probing run leaves behind.
//!
//! A prober reports everything it observes and decides to a
//! [`ProbeLog`]: each 50 ms sample, each probing-rate change, each added
//! connection, each stalled window, the stop rule firing and the
//! outcome. Two logs listen:
//!
//! - [`ProbeTimeline`] keeps all of it as timestamped events with
//!   byte-stable JSON. `TestHarness::run`, `back_to_back` and
//!   `test_group`, the TCP variant, `swiftest --trace-json` and the wire
//!   client return it.
//! - [`DecisionRecord`] keeps why the test ran the way it did and why it
//!   stopped, in a fixed-size `Copy` value that never touches the heap.
//!   Evaluation-campaign trials record this, since their reducers read
//!   only the outcome numbers.

use crate::model::TechClass;
use crate::outcome::TestStatus;
use crate::probe::BtsKind;
use mbw_telemetry::{ProbeTimeline, TimelineEvent};

/// Why a test stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopRule {
    /// The estimator's stability rule fired (FAST, FastBTS, Swiftest).
    Converged,
    /// The estimator collected its fixed number of samples (BTS-APP).
    FixedCount,
    /// The duration cap fired before the estimator's rule.
    Cap,
}

/// Where a prober reports what happened during one test.
///
/// Timestamps are nanoseconds since the test's epoch. Every prober
/// makes the same calls in the same order whichever log it writes to,
/// so both implementations describe the same run.
pub trait ProbeLog: Default {
    /// Probing began: `prober` names the traffic pattern and
    /// `estimator` the algorithm that decides when to stop.
    fn start(&mut self, at_ns: u64, prober: &'static str, estimator: &'static str);
    /// `bytes` of test data arrived in the window starting at `at_ns`.
    fn chunk(&mut self, at_ns: u64, bytes: f64);
    /// One throughput sample, for the window ending at `at_ns`.
    fn sample(&mut self, at_ns: u64, mbps: f64);
    /// The probing rate became `mbps`. `mode` is the index of the model
    /// component whose mode `mbps` is; `None` means it is no
    /// component's: grown past the largest mode, or a dominant mode
    /// under 1 Mbps raised to 1 Mbps. The first call sets the initial
    /// rate.
    fn rate(&mut self, at_ns: u64, mbps: f64, mode: Option<u8>);
    /// A connection was added, so `flows` are now open.
    fn flows(&mut self, at_ns: u64, flows: usize);
    /// The window ending at `at_ns` delivered nothing.
    fn stall(&mut self, at_ns: u64);
    /// The estimator ended the test on `estimate_mbps`, by `rule`.
    fn converged(&mut self, at_ns: u64, estimate_mbps: f64, rule: StopRule);
    /// The test ended after `duration_ns` with this estimate and status.
    fn finish(&mut self, duration_ns: u64, estimate_mbps: f64, status: TestStatus);
    /// Identify the run: the service, the technology, the run seed and
    /// the drawn link's nominal capacity.
    fn label(&mut self, kind: BtsKind, tech: TechClass, run_seed: u64, truth_mbps: f64);
}

impl ProbeLog for ProbeTimeline {
    fn start(&mut self, at_ns: u64, prober: &'static str, estimator: &'static str) {
        self.annotate("prober", prober);
        self.annotate("estimator", estimator);
        self.record_phase(at_ns, "probe");
    }

    fn chunk(&mut self, at_ns: u64, bytes: f64) {
        self.record_chunk(at_ns, bytes as u64);
    }

    fn sample(&mut self, at_ns: u64, mbps: f64) {
        self.record_sample(at_ns, mbps);
    }

    fn rate(&mut self, at_ns: u64, mbps: f64, _mode: Option<u8>) {
        self.record_rate(at_ns, mbps);
    }

    fn flows(&mut self, at_ns: u64, flows: usize) {
        self.record_phase(at_ns, &format!("flows={flows}"));
    }

    fn stall(&mut self, at_ns: u64) {
        self.record(at_ns, TimelineEvent::Stall);
    }

    fn converged(&mut self, at_ns: u64, estimate_mbps: f64, _rule: StopRule) {
        self.record(at_ns, TimelineEvent::Converged { estimate_mbps });
    }

    fn finish(&mut self, duration_ns: u64, estimate_mbps: f64, status: TestStatus) {
        ProbeTimeline::finish(self, duration_ns, estimate_mbps, &status.to_string());
    }

    fn label(&mut self, kind: BtsKind, tech: TechClass, run_seed: u64, truth_mbps: f64) {
        self.annotate("kind", kind.name());
        self.annotate("tech", tech.name());
        self.annotate("run_seed", &run_seed.to_string());
        self.annotate("truth_mbps", &format!("{truth_mbps}"));
    }
}

/// One change a prober made mid-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// The probing rate was raised to `mbps`, taken from model
    /// component `mode` (`None`: grown past the largest mode).
    Escalate {
        /// Samples seen when the rate changed.
        sample: u16,
        /// The new probing rate, Mbps.
        mbps: f32,
        /// The model component the rate came from.
        mode: Option<u8>,
    },
    /// A connection was added, leaving `flows` open.
    AddFlow {
        /// Samples seen when the connection was added.
        sample: u16,
        /// Connections open afterwards.
        flows: u8,
    },
}

/// Steps a [`DecisionRecord`] keeps; later ones are only counted.
pub const MAX_STEPS: usize = 8;

/// Why one test ran the way it did and why it stopped, in a fixed-size
/// `Copy` value with no heap behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// The first probing rate, Mbps; 0 for flooding tests, which do not
    /// pace.
    pub initial_rate_mbps: f64,
    /// The model component whose mode the initial rate is (`None` when
    /// a dominant mode under 1 Mbps was raised to 1 Mbps).
    pub initial_mode: Option<u8>,
    steps: [Step; MAX_STEPS],
    len: u8,
    /// Steps that came after the first [`MAX_STEPS`].
    pub steps_overflowed: u16,
    /// Samples seen when the test stopped: the stopping sample's
    /// 1-based position when the estimator ended the test, the last
    /// sample's when the cap did.
    pub stop_sample: u16,
    /// What stopped the test.
    pub stop_rule: StopRule,
    /// Windows that delivered nothing.
    pub stalls: u16,
    /// The final estimate, Mbps.
    pub estimate_mbps: f64,
    /// How the test completed.
    pub status: TestStatus,
}

const _: () = assert!(std::mem::size_of::<DecisionRecord>() <= 128);

impl Default for DecisionRecord {
    fn default() -> Self {
        Self {
            initial_rate_mbps: 0.0,
            initial_mode: None,
            steps: [Step::AddFlow {
                sample: 0,
                flows: 0,
            }; MAX_STEPS],
            len: 0,
            steps_overflowed: 0,
            stop_sample: 0,
            stop_rule: StopRule::Cap,
            stalls: 0,
            estimate_mbps: 0.0,
            status: TestStatus::Complete,
        }
    }
}

impl DecisionRecord {
    /// The escalations and connection additions kept, in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps[..self.len as usize]
    }

    fn push(&mut self, step: Step) {
        match self.steps.get_mut(self.len as usize) {
            Some(slot) => {
                *slot = step;
                self.len += 1;
            }
            None => self.steps_overflowed = self.steps_overflowed.saturating_add(1),
        }
    }
}

impl ProbeLog for DecisionRecord {
    fn start(&mut self, _at_ns: u64, _prober: &'static str, _estimator: &'static str) {}

    fn chunk(&mut self, _at_ns: u64, _bytes: f64) {}

    fn sample(&mut self, _at_ns: u64, _mbps: f64) {
        self.stop_sample = self.stop_sample.saturating_add(1);
    }

    fn rate(&mut self, _at_ns: u64, mbps: f64, mode: Option<u8>) {
        if self.initial_rate_mbps == 0.0 {
            self.initial_rate_mbps = mbps;
            self.initial_mode = mode;
        } else {
            self.push(Step::Escalate {
                sample: self.stop_sample,
                mbps: mbps as f32,
                mode,
            });
        }
    }

    fn flows(&mut self, _at_ns: u64, flows: usize) {
        self.push(Step::AddFlow {
            sample: self.stop_sample,
            flows: u8::try_from(flows).unwrap_or(u8::MAX),
        });
    }

    fn stall(&mut self, _at_ns: u64) {
        self.stalls = self.stalls.saturating_add(1);
    }

    fn converged(&mut self, _at_ns: u64, _estimate_mbps: f64, rule: StopRule) {
        self.stop_rule = rule;
    }

    fn finish(&mut self, _duration_ns: u64, estimate_mbps: f64, status: TestStatus) {
        self.estimate_mbps = estimate_mbps;
        self.status = status;
    }

    fn label(&mut self, _kind: BtsKind, _tech: TechClass, _run_seed: u64, _truth_mbps: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_past_the_array_are_counted() {
        let mut r = DecisionRecord::default();
        r.rate(0, 50.0, Some(1));
        for n in 0..MAX_STEPS + 3 {
            r.sample(0, 60.0);
            r.flows(0, n + 2);
        }
        assert_eq!(r.initial_rate_mbps, 50.0);
        assert_eq!(r.initial_mode, Some(1));
        assert_eq!(r.steps().len(), MAX_STEPS);
        assert_eq!(r.steps_overflowed, 3);
        assert_eq!(
            r.steps()[0],
            Step::AddFlow {
                sample: 1,
                flows: 2
            }
        );
        assert_eq!(r.stop_sample, MAX_STEPS as u16 + 3);
        // Without a converged call the cap stopped the test.
        assert_eq!(r.stop_rule, StopRule::Cap);
    }
}
