//! BBR v1 congestion control.
//!
//! BBR models the path instead of reacting to loss: it keeps windowed
//! estimates of the bottleneck bandwidth (max delivery rate over ~10
//! rounds) and the minimum RTT, and drives a pacing rate from them.
//! The paper finds BBR's startup noticeably shorter than Cubic's ramp —
//! it doubles the sending rate every round and exits as soon as the
//! delivery rate stops growing, rather than waiting for queue/loss/delay
//! signals.
//!
//! Implemented states: **Startup** (pacing gain 2.77), **Drain** (inverse
//! gain until the estimated queue empties), and **ProbeBW** (the 8-phase
//! gain cycle). ProbeRTT is omitted: a bandwidth test lives ~1–10 s while
//! ProbeRTT triggers every 10 s, so it never fires within a test.

use crate::control::{CongestionControl, RoundInput};
use crate::INITIAL_WINDOW;
use mbw_stats::SeededRng;

/// Startup/Drain pacing gains (2/ln2 and its inverse).
const STARTUP_GAIN: f64 = 2.77;
const DRAIN_GAIN: f64 = 1.0 / STARTUP_GAIN;
/// ProbeBW gain cycle.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bottleneck bandwidth filter window, in rounds.
const BTLBW_WINDOW: usize = 10;
/// Startup exits after this many rounds without ≥25% bandwidth growth.
const FULL_PIPE_ROUNDS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw { phase: usize },
}

/// BBR v1 state.
#[derive(Debug, Clone)]
pub struct Bbr {
    state: State,
    /// The last [`BTLBW_WINDOW`] delivery rates (segments/second), a
    /// ring written at `next`; slots no round has written yet hold 0,
    /// which the max starts from anyway. Boxed, so a flow allocates it
    /// once, at its size, and a `Controller` does not grow with it.
    btlbw_samples: Box<[f64; BTLBW_WINDOW]>,
    /// The ring slot the next rate goes to.
    next: usize,
    /// Minimum observed RTT (seconds).
    min_rtt: f64,
    /// Best bandwidth seen when full-pipe detection last advanced.
    full_bw: f64,
    full_bw_rounds: u32,
    /// Estimated inflight backlog above the BDP (segments), drained in
    /// the Drain state.
    est_queue: f64,
    cwnd: f64,
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl Bbr {
    /// Fresh BBR in Startup.
    pub fn new() -> Self {
        Self {
            state: State::Startup,
            btlbw_samples: Box::new([0.0; BTLBW_WINDOW]),
            next: 0,
            min_rtt: f64::INFINITY,
            full_bw: 0.0,
            full_bw_rounds: 0,
            est_queue: 0.0,
            cwnd: INITIAL_WINDOW,
        }
    }

    /// The windowed-max bottleneck bandwidth estimate (segments/second).
    pub fn btlbw_pps(&self) -> f64 {
        self.btlbw_samples.iter().copied().fold(0.0, f64::max)
    }

    /// Current pacing gain.
    fn gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => DRAIN_GAIN,
            State::ProbeBw { phase } => CYCLE[phase],
        }
    }

    fn push_bw_sample(&mut self, rate: f64) {
        self.btlbw_samples[self.next] = rate;
        self.next = (self.next + 1) % BTLBW_WINDOW;
    }
}

impl CongestionControl for Bbr {
    fn window_pkts(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate_pps(&self) -> Option<f64> {
        let btlbw = self.btlbw_pps();
        if btlbw <= 0.0 {
            // No estimate yet: pace off the initial window and a nominal
            // RTT guess of 100 ms, like a fresh connection would.
            return Some(self.gain() * INITIAL_WINDOW / 0.1);
        }
        Some(self.gain() * btlbw)
    }

    fn on_round(&mut self, input: &RoundInput, _rng: &mut SeededRng) {
        let rtt = input.rtt.as_secs_f64();
        self.min_rtt = self.min_rtt.min(input.min_rtt.as_secs_f64().max(1e-6));
        self.push_bw_sample(input.delivery_rate_pps);
        let btlbw = self.btlbw_pps();
        let bdp = btlbw * self.min_rtt;

        match self.state {
            State::Startup => {
                // Full-pipe detection: bandwidth must keep growing ≥25%.
                if btlbw >= self.full_bw * 1.25 {
                    self.full_bw = btlbw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= FULL_PIPE_ROUNDS {
                        self.state = State::Drain;
                        // Startup overshoots by roughly (gain − 1)·BDP.
                        self.est_queue = (STARTUP_GAIN - 1.0) * bdp;
                    }
                }
                self.cwnd = (2.0 * bdp).max(self.cwnd.min(1e9)).max(INITIAL_WINDOW);
                if self.state == State::Startup {
                    // Window doubles with delivered data, like cwnd_gain 2.
                    self.cwnd = (self.cwnd + input.delivered_pkts).max(INITIAL_WINDOW);
                }
            }
            State::Drain => {
                // Sending below bottleneck rate shrinks the queue by the
                // difference each round.
                let sent = DRAIN_GAIN * btlbw * rtt;
                let serviced = btlbw * rtt;
                self.est_queue = (self.est_queue - (serviced - sent)).max(0.0);
                self.cwnd = (bdp).max(INITIAL_WINDOW);
                if self.est_queue <= 0.0 {
                    self.state = State::ProbeBw { phase: 0 };
                }
            }
            State::ProbeBw { phase } => {
                self.cwnd = (2.0 * bdp).max(INITIAL_WINDOW);
                self.state = State::ProbeBw {
                    phase: (phase + 1) % CYCLE.len(),
                };
            }
        }
    }

    fn in_slow_start(&self) -> bool {
        self.state == State::Startup
    }

    fn name(&self) -> &'static str {
        "BBR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn feed(cc: &mut Bbr, delivery_pps: f64, rtt_ms: u64) {
        let mut rng = SeededRng::new(0);
        let input = RoundInput {
            now: Duration::from_millis(100),
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(40),
            delivered_pkts: delivery_pps * rtt_ms as f64 / 1e3,
            lost_pkts: 0.0,
            delivery_rate_pps: delivery_pps,
        };
        cc.on_round(&input, &mut rng);
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let cc = Bbr::new();
        assert!(cc.in_slow_start());
        let pace = cc.pacing_rate_pps().unwrap();
        assert!(pace > 0.0);
    }

    #[test]
    fn startup_persists_while_bandwidth_grows() {
        let mut cc = Bbr::new();
        let mut rate = 100.0;
        for _ in 0..8 {
            feed(&mut cc, rate, 40);
            rate *= 2.0; // keeps growing ≥ 25%
        }
        assert!(cc.in_slow_start());
    }

    #[test]
    fn plateau_exits_startup_within_three_rounds() {
        let mut cc = Bbr::new();
        for _ in 0..5 {
            feed(&mut cc, 1000.0, 40); // growing phase
        }
        // Plateau: same rate repeatedly.
        for _ in 0..FULL_PIPE_ROUNDS + 1 {
            feed(&mut cc, 1000.0, 40);
        }
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn drain_leads_to_probe_bw() {
        let mut cc = Bbr::new();
        for _ in 0..10 {
            feed(&mut cc, 1000.0, 40);
        }
        assert!(!cc.in_slow_start());
        // Keep feeding; drain must finish and land in ProbeBW.
        for _ in 0..30 {
            feed(&mut cc, 1000.0, 40);
        }
        assert!(matches!(cc.state, State::ProbeBw { .. }));
    }

    #[test]
    fn probe_bw_paces_near_bottleneck_estimate() {
        let mut cc = Bbr::new();
        for _ in 0..50 {
            feed(&mut cc, 1000.0, 40);
        }
        let pace = cc.pacing_rate_pps().unwrap();
        // Cycle gains are 0.75–1.25 around btlbw = 1000.
        assert!((700.0..=1300.0).contains(&pace), "pace {pace}");
    }

    #[test]
    fn btlbw_filter_is_windowed_max() {
        let mut cc = Bbr::new();
        feed(&mut cc, 500.0, 40);
        feed(&mut cc, 900.0, 40);
        feed(&mut cc, 300.0, 40);
        assert_eq!(cc.btlbw_pps(), 900.0);
        // Old max ages out of the 10-sample window.
        for _ in 0..BTLBW_WINDOW {
            feed(&mut cc, 300.0, 40);
        }
        assert_eq!(cc.btlbw_pps(), 300.0);
    }

    #[test]
    fn loss_does_not_collapse_window() {
        let mut cc = Bbr::new();
        for _ in 0..10 {
            feed(&mut cc, 1000.0, 40);
        }
        let before = cc.window_pkts();
        let mut rng = SeededRng::new(0);
        let lossy = RoundInput {
            now: Duration::from_millis(500),
            rtt: Duration::from_millis(40),
            min_rtt: Duration::from_millis(40),
            delivered_pkts: 30.0,
            lost_pkts: 10.0,
            delivery_rate_pps: 1000.0,
        };
        cc.on_round(&lossy, &mut rng);
        assert!(
            cc.window_pkts() > before * 0.5,
            "BBR must not halve on loss"
        );
    }
}
