//! Multiple flows sharing one bottleneck, with on-line flow addition.
//!
//! BTS-APP and Speedtest saturate fast links by "progressively setting up
//! new HTTP connections … if the latest bandwidth sample reaches a
//! predefined threshold" (§2). The BTS layer drives this simulator round
//! by round, draining the 50 ms samples each round finishes with
//! [`MultiFlowSim::next_sample`] and calling [`MultiFlowSim::add_flow`]
//! exactly as the real client adds connections.
//!
//! A flow-round (one flow stepped through one round) is the simulator's
//! unit of work, so it is kept cheap, with the same output bit for bit
//! as the plain form of each step: the wireless-loss draw takes its
//! uniform first and computes the at-least-one-loss probability only
//! when the draw falls under a cheap upper bound of it, and the
//! finished samples are counted once per round, not on every
//! [`MultiFlowSim::next_sample`]. The path's base RTT and buffer depth
//! are read once, when the simulator is built. Each flow keeps its
//! [`Controller`] by value in the flow list, so the per-round calls are
//! a `match`, not a virtual call through a box, and a flow added to a
//! simulator that [`MultiFlowSim::reset`] kept the list of allocates
//! nothing.

use crate::control::{CongestionControl, Controller, RoundInput};
use crate::MSS;
use mbw_netsim::{PathModel, SimTime};
use mbw_stats::SeededRng;
use std::time::Duration;

/// One throughput sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// End of the sampling interval, relative to flow start.
    pub at: Duration,
    /// Goodput over the interval, bits/second.
    pub bps: f64,
}

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

/// An upper bound of `1 − q^segments`, the probability that a
/// flow-round carrying `segments` (non-negative) loses at least one of
/// them when each survives with probability `q` (in `[0, 1]`). By
/// Bernoulli's inequality the probability is at most
/// `max(segments, 1) · (1 − q)`. The bound is taken from the same `q`
/// the `powf` raises, so the rounding of `q = 1 − loss` cannot push the
/// probability above it; `1 − q` is then exact for `q ≥ ½` (Sterbenz),
/// and the padding covers the rounding of the `powf`, of `1 − q` for
/// smaller `q` and of the products here.
fn loss_bound(q: f64, segments: f64) -> f64 {
    segments.max(1.0) * (1.0 - q) * (1.0 + 1e-12) + 1e-15
}

/// Whether wireless loss strikes a flow-round that carries `segments`
/// (non-negative) over a path losing each with probability `loss`,
/// given the round's uniform draw `u`: `u < 1 − (1 − loss)^segments`.
/// A draw at or above [`loss_bound`] misses without the `powf`; below
/// it, the probability is computed as written, so the decision is the
/// same as always computing it.
fn wireless_loss_strikes(u: f64, loss: f64, segments: f64) -> bool {
    let q = 1.0 - loss;
    if u >= loss_bound(q, segments) {
        return false;
    }
    u < (1.0 - q.powf(segments)).clamp(0.0, 1.0)
}

struct FlowState {
    cc: Controller,
    started_at: Duration,
    slow_start_exit: Option<Duration>,
    /// Segments offered in the round being stepped (`step_round`'s
    /// scratch, kept here so a round allocates nothing).
    offered: f64,
}

/// Several congestion-controlled flows over one shared [`PathModel`].
pub struct MultiFlowSim {
    path: PathModel,
    /// The path's base RTT in seconds and its buffer in segments, read
    /// once: the simulator never changes the path's base RTT, buffer
    /// depth or nominal capacity.
    base_rtt_s: f64,
    buffer_pkts: f64,
    /// The sample interval in seconds.
    interval_s: f64,
    flows: Vec<FlowState>,
    /// Bottleneck queue occupancy, segments.
    queue_pkts: f64,
    now: Duration,
    rng: SeededRng,
    /// Delivered bytes spread into `sample_interval` bins.
    bins: Vec<f64>,
    /// Index of the sample [`MultiFlowSim::next_sample`] hands out next.
    cursor: usize,
    /// How many samples are finished: bins that end at or before `now`.
    finished: usize,
    /// Whether [`MultiFlowSim::reserve_horizon`] sized the bins.
    reserved: bool,
    bytes_sent: f64,
    bytes_delivered: f64,
    loss_rounds: u32,
}

impl MultiFlowSim {
    /// New simulator with no flows yet.
    pub fn new(path: PathModel, config: MultiFlowConfig) -> Self {
        assert!(config.sample_interval > Duration::ZERO);
        Self {
            base_rtt_s: path.base_rtt().as_secs_f64(),
            buffer_pkts: path.buffer_bytes() / MSS,
            path,
            interval_s: config.sample_interval.as_secs_f64(),
            flows: Vec::new(),
            queue_pkts: 0.0,
            now: Duration::ZERO,
            rng: SeededRng::new(config.seed),
            bins: Vec::new(),
            cursor: 0,
            finished: 0,
            reserved: false,
            bytes_sent: 0.0,
            bytes_delivered: 0.0,
            loss_rounds: 0,
        }
    }

    /// Start over on `path`: the simulator is left exactly as
    /// [`MultiFlowSim::new`] would build it, but keeps the capacity of
    /// its flow list and sample bins, so a run of tests on one simulator
    /// sizes them once, by the largest test.
    pub fn reset(&mut self, path: PathModel, config: MultiFlowConfig) {
        let mut flows = std::mem::take(&mut self.flows);
        let mut bins = std::mem::take(&mut self.bins);
        flows.clear();
        bins.clear();
        *self = Self {
            flows,
            bins,
            ..Self::new(path, config)
        };
    }

    /// Allocate the sample bins once for a run that steps rounds while
    /// flow time is under `horizon`, instead of doubling them as rounds
    /// finish. The round that crosses the horizon ends past it by at
    /// most the longest round the path takes at its nominal capacity: the
    /// base RTT plus a full buffer draining, which the bins cover. A
    /// round stretched further, by a capacity dip or a fault, grows them
    /// once, by exactly what it needs.
    pub fn reserve_horizon(&mut self, horizon: Duration) {
        let cap_pps = (self.path.nominal_bps() / (8.0 * MSS)).max(1.0);
        let drain = self.buffer_pkts / cap_pps;
        let span = horizon.as_secs_f64() + self.base_rtt_s + drain;
        let bins = (span / self.interval_s).ceil() as usize;
        self.bins
            .reserve_exact(bins.saturating_sub(self.bins.len()));
        self.reserved = true;
    }

    /// Current flow time.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Add a flow under `cc`: a [`crate::CcAlgorithm`], for a fresh
    /// controller of that algorithm, or a controller already built (any
    /// that converts into a [`Controller`]). The flow list keeps
    /// controllers by value, so once it has room this allocates nothing.
    pub fn add_flow(&mut self, cc: impl Into<Controller>) {
        self.flows.push(FlowState {
            cc: cc.into(),
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
        let rtt_secs = self.base_rtt_s + self.queue_pkts / cap_pps;
        let rtt = Duration::from_secs_f64(rtt_secs);
        let buffer_pkts = self.buffer_pkts;
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
            // Wireless loss: one uniform draw against the round's
            // at-least-one-loss probability, expected count when it strikes.
            let wireless = if loss_prob > 0.0
                && wireless_loss_strikes(self.rng.uniform(), loss_prob, after_queue)
            {
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
        // A finished bin is immutable. `spread_bytes` writes bins from
        // `floor(now / w)` up with `now` taken before the round, and this
        // counts bins below `floor(now / w)` with `now` taken after it —
        // the same expression over the same `Duration` — so no later
        // round reaches back into a finished bin.
        let complete = (self.now.as_secs_f64() / self.interval_s).floor() as usize;
        self.finished = complete.min(self.bins.len());
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
        let w = self.interval_s;
        let s = start.as_secs_f64();
        let e = s + span.as_secs_f64();
        let rate = bytes / (e - s);
        let first = (s / w).floor() as usize;
        let last = (e / w).ceil() as usize;
        if self.bins.len() < last {
            if self.reserved {
                // Only the round that crosses a reserved horizon ends
                // past it, so this grows the bins at most once.
                self.bins.reserve_exact(last - self.bins.len());
            }
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

    /// Sample `i`: the one definition every view below is written over.
    fn sample(&self, i: usize) -> ThroughputSample {
        let w = self.interval_s;
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
        if self.cursor < self.finished {
            let s = self.sample(self.cursor);
            self.cursor += 1;
            Some(s)
        } else {
            None
        }
    }

    /// The whole sample history, rebuilt on every call: the end-of-run
    /// view for tests. A consumer that reads samples while stepping
    /// rounds drains [`MultiFlowSim::next_sample`] instead. The final,
    /// partially filled bin is excluded — the real client also only
    /// reports full intervals. Independent of the `next_sample` cursor.
    pub fn samples(&self) -> Vec<ThroughputSample> {
        (0..self.finished).map(|i| self.sample(i)).collect()
    }

    /// The most recent complete sample, if any.
    pub fn latest_sample(&self) -> Option<ThroughputSample> {
        self.finished.checked_sub(1).map(|i| self.sample(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::CcAlgorithm;
    use mbw_netsim::{FaultPlan, PathConfig};

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
    fn reserved_bins_cover_a_run_and_grow_once_past_it() {
        let horizon = Duration::from_secs(3);
        let run = |mut s: MultiFlowSim| {
            s.reserve_horizon(horizon);
            let reserved = s.bins.capacity();
            s.add_flow(CcAlgorithm::Cubic);
            while s.now() < horizon {
                s.step_round();
            }
            (reserved, s.bins.len(), s.bins.capacity())
        };
        // At nominal capacity every round, the last one too, ends inside
        // the reservation.
        let (reserved, len, capacity) = run(sim(100e6, 40));
        assert!(len <= reserved, "{len} bins, {reserved} reserved");
        assert_eq!(capacity, reserved);
        // A blackout at the horizon stretches the last round far past
        // it: the bins grow once, to exactly the length it needs.
        let path =
            PathModel::new(PathConfig::constant(100e6, Duration::from_millis(40))).with_faults(
                FaultPlan::blackout(SimTime::from_millis(2_900), Duration::from_secs(1)),
            );
        let (reserved, len, capacity) = run(MultiFlowSim::new(path, MultiFlowConfig::default()));
        assert!(len > reserved, "{len} bins, {reserved} reserved");
        assert_eq!(capacity, len);
    }

    #[test]
    fn a_reset_simulator_runs_as_a_new_one() {
        // A lossy path with a blackout, three flows added along the way:
        // both loss draws and the grow-once rule come into play.
        let path = |seed: u64| {
            let mut cfg = PathConfig::constant(150e6, Duration::from_millis(30));
            cfg.loss_prob = 2e-3;
            cfg.seed = seed;
            PathModel::new(cfg).with_faults(FaultPlan::blackout(
                SimTime::from_millis(1_900),
                Duration::from_millis(600),
            ))
        };
        let config = |seed| MultiFlowConfig {
            seed,
            ..Default::default()
        };
        let run = |s: &mut MultiFlowSim, alg: CcAlgorithm, reserve: bool| {
            if reserve {
                s.reserve_horizon(Duration::from_secs(2));
            }
            for at_ms in [0, 300, 900] {
                s.run_until(Duration::from_millis(at_ms));
                s.add_flow(alg);
            }
            s.run_until(Duration::from_secs(2));
            let exits: Vec<_> = (0..s.flow_count()).map(|i| s.slow_start_exit(i)).collect();
            let bits: Vec<_> = s
                .samples()
                .iter()
                .map(|x| (x.at, x.bps.to_bits()))
                .collect();
            let (sent, delivered, losses) = s.totals();
            (bits, sent.to_bits(), delivered.to_bits(), losses, exits)
        };
        for alg in CcAlgorithm::ALL {
            for reserve in [false, true] {
                let mut used = sim(400e6, 60);
                used.reserve_horizon(Duration::from_secs(8));
                for _ in 0..5 {
                    used.add_flow(CcAlgorithm::Bbr);
                }
                used.run_until(Duration::from_secs(6));
                let capacity = (used.flows.capacity(), used.bins.capacity());
                used.reset(path(3), config(4));
                assert_eq!(used.flow_count(), 0);
                assert_eq!(used.now(), Duration::ZERO);
                assert_eq!((used.flows.capacity(), used.bins.capacity()), capacity);
                let mut fresh = MultiFlowSim::new(path(3), config(4));
                assert_eq!(
                    run(&mut used, alg, reserve),
                    run(&mut fresh, alg, reserve),
                    "{alg}, reserved {reserve}"
                );
            }
        }
    }

    /// The draw as the simulator made it before the lazy bound: the
    /// at-least-one-loss probability, always computed, against `u`.
    fn eager_p_any(loss: f64, segments: f64) -> f64 {
        (1.0 - (1.0 - loss).powf(segments)).clamp(0.0, 1.0)
    }

    #[test]
    fn lazy_loss_draw_decides_as_the_eager_one() {
        // Below about 1e-9 the rounding of `1 − loss` is larger than
        // the padding relative to the bound; 1.000000028e-9 at 50
        // segments is a point where a bound taken from `loss` itself
        // falls under the probability.
        let losses = [
            1e-12,
            1e-9,
            1.000_000_028_339_442_8e-9,
            1e-6,
            5e-6,
            2e-5,
            4e-4,
            3e-3,
            0.5,
            1.0,
        ];
        // The simulator clamps the segment count with `max(0.0)`, which
        // turns a NaN into 0.
        let segments = [0.0, 1e-3, 0.5, 1.0, 7.3, 50.0, 1e3, 1e6, f64::NAN.max(0.0)];
        let mut rng = SeededRng::new(0x1A27);
        let (mut fast, mut slow) = (0, 0);
        for loss in losses {
            for a in segments {
                let p_any = eager_p_any(loss, a);
                let bound = loss_bound(1.0 - loss, a);
                assert!(
                    bound >= p_any,
                    "loss {loss} segments {a}: bound {bound} < {p_any}"
                );
                // Half the seeded draws land near the bound, where the
                // two paths part.
                let seeded: Vec<f64> = (0..1000)
                    .map(|i| {
                        let u = rng.uniform();
                        if i % 2 == 0 {
                            u
                        } else {
                            u * (2.0 * bound).min(1.0)
                        }
                    })
                    .collect();
                for u in [p_any.next_down(), p_any, p_any.next_up()]
                    .into_iter()
                    .chain(seeded)
                {
                    assert_eq!(
                        wireless_loss_strikes(u, loss, a),
                        u < p_any,
                        "loss {loss} segments {a} u {u}"
                    );
                    if u >= bound {
                        fast += 1;
                    } else {
                        slow += 1;
                    }
                }
            }
        }
        // The grid exercises both paths.
        assert!(
            fast > 10_000 && slow > 10_000,
            "{fast} draws skipped the powf, {slow} computed it"
        );
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

    /// One `alg` flow over a constant `rate_bps` path of `rtt_ms` base
    /// RTT that loses `loss` of its segments, run for `secs`; the path
    /// and the flow are seeded with `seeds`.
    fn one_flow(
        alg: CcAlgorithm,
        rate_bps: f64,
        rtt_ms: u64,
        loss: f64,
        secs: u64,
        seeds: (u64, u64),
    ) -> MultiFlowSim {
        let mut cfg = PathConfig::constant(rate_bps, Duration::from_millis(rtt_ms));
        cfg.loss_prob = loss;
        cfg.seed = seeds.0;
        let mut s = MultiFlowSim::new(
            PathModel::new(cfg),
            MultiFlowConfig {
                seed: seeds.1,
                ..Default::default()
            },
        );
        s.add_flow(alg);
        s.run_until(Duration::from_secs(secs));
        s
    }

    /// A clean 20 s run.
    fn clean(alg: CcAlgorithm, rate_bps: f64, rtt_ms: u64) -> MultiFlowSim {
        one_flow(alg, rate_bps, rtt_ms, 0.0, 20, (1, 2))
    }

    /// Mean goodput over the samples at or after `after`.
    fn mean_bps_after(s: &MultiFlowSim, after: Duration) -> f64 {
        let late: Vec<f64> = s
            .samples()
            .iter()
            .filter(|x| x.at >= after)
            .map(|x| x.bps)
            .collect();
        late.iter().sum::<f64>() / late.len().max(1) as f64
    }

    #[test]
    fn all_algorithms_eventually_saturate_a_clean_path() {
        for alg in CcAlgorithm::ALL {
            let late = mean_bps_after(&clean(alg, 100e6, 40), Duration::from_secs(10));
            assert!(late > 85e6, "{alg}: late mean {:.1} Mbps", late / 1e6);
        }
    }

    #[test]
    fn goodput_never_exceeds_capacity() {
        for alg in CcAlgorithm::ALL {
            for s in clean(alg, 50e6, 30).samples() {
                assert!(
                    s.bps <= 50e6 * 1.01,
                    "{alg}: sample {:.1} Mbps at {:?}",
                    s.bps / 1e6,
                    s.at
                );
            }
        }
    }

    #[test]
    fn slow_start_exit_is_recorded() {
        for alg in CcAlgorithm::ALL {
            let exit = clean(alg, 100e6, 40)
                .slow_start_exit(0)
                .expect("must exit slow start");
            assert!(
                exit > Duration::ZERO && exit < Duration::from_secs(20),
                "{alg}: {exit:?}"
            );
        }
    }

    #[test]
    fn saturation_time_grows_with_bandwidth() {
        // The core of Fig 17: ramping to 400 Mbps takes longer than to
        // 50 Mbps for every algorithm.
        let time_to_90 = |alg, rate_bps| {
            clean(alg, rate_bps, 40)
                .samples()
                .iter()
                .find(|s| s.bps >= rate_bps * 0.9)
                .map(|s| s.at)
                .expect("saturates")
        };
        for alg in CcAlgorithm::ALL {
            let slow = time_to_90(alg, 50e6);
            let fast = time_to_90(alg, 400e6);
            assert!(fast > slow, "{alg}: fast {fast:?} !> slow {slow:?}");
        }
    }

    #[test]
    fn delivered_never_exceeds_sent() {
        for alg in CcAlgorithm::ALL {
            let (sent, delivered, _) = clean(alg, 100e6, 40).totals();
            assert!(delivered <= sent + 1.0);
            assert!(delivered > 0.0);
        }
    }

    #[test]
    fn wireless_loss_causes_loss_rounds_for_loss_based_cc() {
        let lossy = one_flow(CcAlgorithm::Reno, 100e6, 40, 0.003, 10, (3, 4));
        assert!(lossy.totals().2 > 0);
        // Random loss keeps Reno below a clean run's goodput.
        let clean = clean(CcAlgorithm::Reno, 100e6, 40);
        assert!(
            mean_bps_after(&lossy, Duration::from_secs(5))
                < mean_bps_after(&clean, Duration::from_secs(5))
        );
    }

    #[test]
    fn bbr_tolerates_random_loss_better_than_reno() {
        let run = |alg| one_flow(alg, 100e6, 40, 0.005, 10, (5, 6));
        let b = mean_bps_after(&run(CcAlgorithm::Bbr), Duration::from_secs(3));
        let r = mean_bps_after(&run(CcAlgorithm::Reno), Duration::from_secs(3));
        assert!(b > r, "BBR {:.1} Mbps vs Reno {:.1} Mbps", b / 1e6, r / 1e6);
    }

    #[test]
    fn sample_times_are_monotone_and_spaced() {
        for w in clean(CcAlgorithm::Cubic, 100e6, 40).samples().windows(2) {
            assert!(w[1].at > w[0].at);
            let gap = (w[1].at - w[0].at).as_millis();
            assert_eq!(gap, 50);
        }
    }

    #[test]
    fn trace_accounting_consistent_with_samples() {
        let s = clean(CcAlgorithm::Bbr, 100e6, 40);
        let (_, delivered, _) = s.totals();
        let from_samples: f64 = s.samples().iter().map(|x| x.bps * 0.05 / 8.0).sum();
        // Sample bins cover delivered bytes (within the final partial bin).
        let diff = (from_samples - delivered).abs();
        assert!(
            diff < delivered * 0.05 + MSS * 200.0,
            "samples {from_samples} vs delivered {delivered}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = clean(CcAlgorithm::Cubic, 200e6, 40).samples();
        let b = clean(CcAlgorithm::Cubic, 200e6, 40).samples();
        assert_eq!(a, b);
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
