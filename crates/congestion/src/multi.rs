//! Multiple flows sharing one bottleneck, with on-line flow addition.
//!
//! BTS-APP and Speedtest saturate fast links by "progressively setting up
//! new HTTP connections … if the latest bandwidth sample reaches a
//! predefined threshold" (§2). The BTS layer drives this simulator round
//! by round, draining the 50 ms samples each round finishes with
//! [`MultiFlowSim::next_sample`] and calling [`MultiFlowSim::add_flow`]
//! exactly as the real client adds connections.

use crate::control::{CcAlgorithm, CongestionControl, RoundInput};
use crate::flow::ThroughputSample;
use crate::MSS;
use mbw_netsim::{PathModel, SimTime};
use mbw_stats::SeededRng;
use std::time::Duration;

/// Configuration shared by all flows on the path.
#[derive(Debug, Clone, Copy)]
pub struct MultiFlowConfig {
    /// Throughput sampling interval (50 ms in the paper).
    pub sample_interval: Duration,
    /// Seed for loss draws and controller jitter.
    pub seed: u64,
}

impl Default for MultiFlowConfig {
    fn default() -> Self {
        Self {
            sample_interval: Duration::from_millis(50),
            seed: 0,
        }
    }
}

struct FlowState {
    cc: Box<dyn CongestionControl>,
    started_at: Duration,
    slow_start_exit: Option<Duration>,
    /// Segments offered in the round being stepped (`step_round`'s
    /// scratch, kept here so a round allocates nothing).
    offered: f64,
}

/// Several congestion-controlled flows over one shared [`PathModel`].
pub struct MultiFlowSim {
    path: PathModel,
    config: MultiFlowConfig,
    flows: Vec<FlowState>,
    /// Bottleneck queue occupancy, segments.
    queue_pkts: f64,
    now: Duration,
    rng: SeededRng,
    /// Delivered bytes spread into `sample_interval` bins.
    bins: Vec<f64>,
    /// Index of the sample [`MultiFlowSim::next_sample`] hands out next.
    cursor: usize,
    bytes_sent: f64,
    bytes_delivered: f64,
    loss_rounds: u32,
}

impl MultiFlowSim {
    /// New simulator with no flows yet.
    pub fn new(path: PathModel, config: MultiFlowConfig) -> Self {
        assert!(config.sample_interval > Duration::ZERO);
        Self {
            path,
            config,
            flows: Vec::new(),
            queue_pkts: 0.0,
            now: Duration::ZERO,
            rng: SeededRng::new(config.seed),
            bins: Vec::new(),
            cursor: 0,
            bytes_sent: 0.0,
            bytes_delivered: 0.0,
            loss_rounds: 0,
        }
    }

    /// Current flow time.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Add a flow using the given algorithm.
    pub fn add_flow(&mut self, alg: CcAlgorithm) {
        self.add_flow_boxed(alg.build());
    }

    /// Add a flow with a pre-built controller.
    pub fn add_flow_boxed(&mut self, cc: Box<dyn CongestionControl>) {
        self.flows.push(FlowState {
            cc,
            started_at: self.now,
            slow_start_exit: None,
            offered: 0.0,
        });
    }

    /// When flow `idx` left slow start, if it has.
    pub fn slow_start_exit(&self, idx: usize) -> Option<Duration> {
        self.flows[idx].slow_start_exit
    }

    /// `(bytes_sent, bytes_delivered, loss_rounds)` so far.
    pub fn totals(&self) -> (f64, f64, u32) {
        (self.bytes_sent, self.bytes_delivered, self.loss_rounds)
    }

    /// Advance one round (one shared RTT). Returns the round's duration.
    ///
    /// # Panics
    /// Panics if no flows have been added.
    pub fn step_round(&mut self) -> Duration {
        assert!(!self.flows.is_empty(), "step_round with no flows");
        let cap_bps = self
            .path
            .capacity_bps(SimTime::from_nanos(self.now.as_nanos() as u64));
        let cap_pps = (cap_bps / (8.0 * MSS)).max(1.0);
        let base_rtt = self.path.base_rtt().as_secs_f64();
        let rtt_secs = base_rtt + self.queue_pkts / cap_pps;
        let rtt = Duration::from_secs_f64(rtt_secs);
        let buffer_pkts = self.path.buffer_bytes() / MSS;
        let min_rtt = self.path.base_rtt();
        let loss_prob = self.path.loss_prob();

        // Offered load per flow.
        for f in &mut self.flows {
            let window = f.cc.window_pkts();
            let s = match f.cc.pacing_rate_pps() {
                Some(p) => window.min(p * rtt_secs),
                None => window,
            };
            f.offered = s.max(0.0);
        }
        let total_sent: f64 = self.flows.iter().map(|f| f.offered).sum();

        // Bottleneck service and queue dynamics: the link can deliver at
        // most `serviced` segments this round; anything beyond that sits
        // in the queue, and anything beyond the buffer overflows.
        let serviced = cap_pps * rtt_secs;
        let total_in = self.queue_pkts + total_sent;
        let delivered_total = total_in.min(serviced);
        let remaining = total_in - delivered_total;
        let overflow_total = (remaining - buffer_pkts).max(0.0);
        self.queue_pkts = (remaining - overflow_total).min(buffer_pkts);

        // Per-flow outcome, attributed proportionally to offered load.
        let mut round_delivered = 0.0;
        let mut any_loss = false;
        for f in &mut self.flows {
            let share = if total_sent > 0.0 {
                f.offered / total_sent
            } else {
                0.0
            };
            let overflow = overflow_total * share;
            let after_queue = (delivered_total * share).max(0.0);
            // Wireless loss: at-least-one-loss probability for the round,
            // expected count when it strikes.
            let p_any = 1.0 - (1.0 - loss_prob).powf(after_queue.max(0.0));
            let wireless = if loss_prob > 0.0 && self.rng.chance(p_any) {
                (after_queue * loss_prob).max(1.0)
            } else {
                0.0
            };
            let delivered = (after_queue - wireless).max(0.0);
            let lost = overflow + wireless;
            if lost > 0.0 {
                any_loss = true;
            }
            round_delivered += delivered;

            let input = RoundInput {
                now: self.now + rtt,
                rtt,
                min_rtt,
                delivered_pkts: delivered,
                lost_pkts: lost,
                delivery_rate_pps: delivered / rtt_secs,
            };
            let was_ss = f.cc.in_slow_start();
            f.cc.on_round(&input, &mut self.rng);
            if was_ss && !f.cc.in_slow_start() && f.slow_start_exit.is_none() {
                f.slow_start_exit = Some(self.now + rtt - f.started_at);
            }
        }

        self.bytes_sent += total_sent * MSS;
        self.bytes_delivered += round_delivered * MSS;
        if any_loss {
            self.loss_rounds += 1;
        }
        self.spread_bytes(self.now, rtt, round_delivered * MSS);
        self.now += rtt;
        rtt
    }

    /// Run until `deadline` (flow time).
    pub fn run_until(&mut self, deadline: Duration) {
        while self.now < deadline {
            self.step_round();
        }
    }

    /// Spread `bytes` uniformly over `[start, start + span)` into the
    /// sample bins.
    fn spread_bytes(&mut self, start: Duration, span: Duration, bytes: f64) {
        if span.is_zero() || bytes <= 0.0 {
            return;
        }
        let w = self.config.sample_interval.as_secs_f64();
        let s = start.as_secs_f64();
        let e = s + span.as_secs_f64();
        let rate = bytes / (e - s);
        let first = (s / w).floor() as usize;
        let last = (e / w).ceil() as usize;
        if self.bins.len() < last {
            self.bins.resize(last, 0.0);
        }
        for bin in first..last {
            let lo = (bin as f64 * w).max(s);
            let hi = ((bin + 1) as f64 * w).min(e);
            if hi > lo {
                self.bins[bin] += rate * (hi - lo);
            }
        }
    }

    /// How many samples are finished: bins that end at or before `now`.
    ///
    /// A finished bin is immutable. `spread_bytes` writes bins from
    /// `floor(now / w)` up with `now` taken before the round, and this
    /// counts bins below `floor(now / w)` with `now` taken after it —
    /// the same expression over the same `Duration` — so no later round
    /// reaches back into a finished bin.
    fn finished(&self) -> usize {
        let w = self.config.sample_interval.as_secs_f64();
        let complete = (self.now.as_secs_f64() / w).floor() as usize;
        complete.min(self.bins.len())
    }

    /// Sample `i`: the one definition every view below is written over.
    fn sample(&self, i: usize) -> ThroughputSample {
        let w = self.config.sample_interval.as_secs_f64();
        ThroughputSample {
            at: Duration::from_secs_f64((i + 1) as f64 * w),
            bps: self.bins[i] * 8.0 / w,
        }
    }

    /// The next finished sample not yet handed out, oldest first; `None`
    /// once the caller has caught up with the rounds stepped so far.
    /// Draining this after every [`MultiFlowSim::step_round`] yields each
    /// sample exactly once, in the order and with the bits
    /// [`MultiFlowSim::samples`] would list them.
    pub fn next_sample(&mut self) -> Option<ThroughputSample> {
        if self.cursor < self.finished() {
            let s = self.sample(self.cursor);
            self.cursor += 1;
            Some(s)
        } else {
            None
        }
    }

    /// The whole sample history, rebuilt on every call: the end-of-run
    /// view for [`crate::FlowSim::run`] and tests. A consumer that reads
    /// samples while stepping rounds drains
    /// [`MultiFlowSim::next_sample`] instead. The final, partially
    /// filled bin is excluded — the real client also only reports full
    /// intervals. Independent of the `next_sample` cursor.
    pub fn samples(&self) -> Vec<ThroughputSample> {
        (0..self.finished()).map(|i| self.sample(i)).collect()
    }

    /// The most recent complete sample, if any.
    pub fn latest_sample(&self) -> Option<ThroughputSample> {
        self.finished().checked_sub(1).map(|i| self.sample(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_netsim::PathConfig;

    fn sim(rate_bps: f64, rtt_ms: u64) -> MultiFlowSim {
        let path = PathModel::new(PathConfig::constant(
            rate_bps,
            Duration::from_millis(rtt_ms),
        ));
        MultiFlowSim::new(
            path,
            MultiFlowConfig {
                seed: 9,
                ..Default::default()
            },
        )
    }

    #[test]
    #[should_panic(expected = "step_round with no flows")]
    fn stepping_without_flows_panics() {
        sim(100e6, 40).step_round();
    }

    #[test]
    fn single_flow_saturates() {
        let mut s = sim(100e6, 40);
        s.add_flow(CcAlgorithm::Cubic);
        s.run_until(Duration::from_secs(10));
        let last = s.latest_sample().unwrap();
        assert!(last.bps > 85e6, "{:.1} Mbps", last.bps / 1e6);
    }

    #[test]
    fn two_flows_share_capacity_fairly_enough() {
        let mut s = sim(100e6, 40);
        s.add_flow(CcAlgorithm::Reno);
        s.add_flow(CcAlgorithm::Reno);
        s.run_until(Duration::from_secs(10));
        // Aggregate saturates; neither flow starves (loss split is
        // proportional so windows stay comparable).
        let last = s.latest_sample().unwrap();
        assert!(last.bps > 80e6);
        let w0 = s.flows[0].cc.window_pkts();
        let w1 = s.flows[1].cc.window_pkts();
        let ratio = w0.max(w1) / w0.min(w1).max(1.0);
        assert!(ratio < 4.0, "windows {w0:.1} vs {w1:.1}");
    }

    #[test]
    fn adding_flows_mid_run_raises_aggregate_on_underused_path() {
        // One Reno on a big path ramps slowly; adding three more flows
        // speeds up the aggregate ramp.
        let mid_ramp = |s: &MultiFlowSim| {
            let xs: Vec<f64> = s
                .samples()
                .iter()
                .filter(|x| {
                    x.at >= Duration::from_millis(300) && x.at <= Duration::from_millis(600)
                })
                .map(|x| x.bps)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let mut solo = sim(1e9, 40);
        solo.add_flow(CcAlgorithm::Reno);
        solo.run_until(Duration::from_millis(700));
        let solo_bps = mid_ramp(&solo);

        let mut many = sim(1e9, 40);
        many.add_flow(CcAlgorithm::Reno);
        many.run_until(Duration::from_millis(200));
        for _ in 0..3 {
            many.add_flow(CcAlgorithm::Reno);
        }
        many.run_until(Duration::from_millis(700));
        let many_bps = mid_ramp(&many);
        assert!(
            many_bps > solo_bps,
            "many {:.0} Mbps vs solo {:.0} Mbps",
            many_bps / 1e6,
            solo_bps / 1e6
        );
    }

    #[test]
    fn samples_are_complete_intervals_only() {
        let mut s = sim(100e6, 33);
        s.add_flow(CcAlgorithm::Bbr);
        s.run_until(Duration::from_millis(480));
        let samples = s.samples();
        // 480 ms ⇒ at most 9 complete 50 ms bins (the run may overshoot
        // by one RTT).
        assert!(!samples.is_empty());
        for sm in &samples {
            assert_eq!(sm.at.as_millis() % 50, 0);
        }
    }

    #[test]
    fn flow_count_and_now_track_state() {
        let mut s = sim(50e6, 20);
        assert_eq!(s.flow_count(), 0);
        s.add_flow(CcAlgorithm::Cubic);
        assert_eq!(s.flow_count(), 1);
        assert_eq!(s.now(), Duration::ZERO);
        let rtt = s.step_round();
        assert!(rtt >= Duration::from_millis(20));
        assert_eq!(s.now(), rtt);
    }

    #[test]
    fn totals_accumulate() {
        let mut s = sim(100e6, 40);
        s.add_flow(CcAlgorithm::Cubic);
        s.run_until(Duration::from_secs(3));
        let (sent, delivered, _) = s.totals();
        assert!(sent >= delivered);
        assert!(delivered > 1e6, "delivered {delivered}");
    }
}
