//! The TCP-based Swiftest variant (§7, "Design Choices of Swiftest").
//!
//! The paper notes that UDP "is just one of the feasible design
//! choices, and similar benefits can also be achieved by not giving up
//! TCP: we can customize the TCP congestion control algorithm to
//! realize in part the data-driven bandwidth probing mechanism, while
//! retaining TCP's fairness properties". This module is that variant:
//! a congestion controller that
//!
//! 1. **jump-starts** at the model's most probable modal bandwidth
//!    instead of slow-starting from 10 segments,
//! 2. **escalates** its pacing target to the next most probable larger
//!    mode while the delivery rate keeps up (the same rule as the UDP
//!    prober), and
//! 3. **remains TCP**: on loss it backs off multiplicatively and lets
//!    the ACK clock cap its window, so it cannot starve a competing
//!    flow the way an open-loop UDP blast could.
//!
//! The paper chose UDP because this approach "involves heavy
//! modifications to the congestion control of TCP"; here the kernel is
//! ours, so the modification is a module.

use crate::estimator::{BandwidthEstimator, ConvergenceEstimator};
use crate::probe::{drive_tcp_test, ProbeResult, SwiftestConfig};
use mbw_congestion::{CongestionControl, RoundInput, MSS};
use mbw_netsim::PathModel;
use mbw_stats::{Gmm, SeededRng};

/// Model-guided TCP congestion control.
#[derive(Debug, Clone)]
pub struct ModelGuidedCc {
    /// The technology's bandwidth model (Mbps modes).
    model: Gmm,
    /// Current pacing target, segments/second.
    target_pps: f64,
    /// Congestion window, segments.
    cwnd: f64,
    /// Saturation margin: delivery ≥ margin × target means "not
    /// saturated, escalate".
    margin: f64,
    /// Growth factor past the largest mode.
    beyond_growth: f64,
    /// Smoothed delivery rate, segments/second.
    delivered_ewma: f64,
}

fn mbps_to_pps(mbps: f64) -> f64 {
    mbps * 1e6 / (8.0 * MSS)
}

fn pps_to_mbps(pps: f64) -> f64 {
    pps * 8.0 * MSS / 1e6
}

impl ModelGuidedCc {
    /// Start at the model's most probable mode.
    pub fn new(model: Gmm, config: &SwiftestConfig) -> Self {
        let start = model.dominant_mode().max(1.0);
        Self {
            target_pps: mbps_to_pps(start),
            cwnd: 10.0,
            margin: config.saturation_margin,
            beyond_growth: config.beyond_mode_growth,
            model,
            delivered_ewma: 0.0,
        }
    }

    /// Current pacing target in Mbps (diagnostics).
    pub fn target_mbps(&self) -> f64 {
        pps_to_mbps(self.target_pps)
    }
}

impl CongestionControl for ModelGuidedCc {
    fn window_pkts(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate_pps(&self) -> Option<f64> {
        Some(self.target_pps)
    }

    fn on_round(&mut self, input: &RoundInput, _rng: &mut SeededRng) {
        let rtt = input.rtt.as_secs_f64().max(1e-6);
        self.delivered_ewma = if self.delivered_ewma == 0.0 {
            input.delivery_rate_pps
        } else {
            0.7 * self.delivered_ewma + 0.3 * input.delivery_rate_pps
        };

        if input.saw_loss() {
            // TCP-friendliness: multiplicative decrease toward what the
            // path proved it can deliver.
            self.target_pps = (self.target_pps * 0.85)
                .max(self.delivered_ewma * 0.9)
                .max(mbps_to_pps(1.0));
        } else if input.delivery_rate_pps >= self.target_pps * self.margin {
            // Not saturated: escalate to the next most probable larger
            // modal bandwidth, exactly like the UDP prober.
            let current_mbps = pps_to_mbps(self.target_pps);
            let next = self
                .model
                .next_larger_mode(current_mbps)
                .unwrap_or(current_mbps * self.beyond_growth);
            self.target_pps = mbps_to_pps(next);
        } else {
            // Saturated: track the link (the UDP variant holds its rate;
            // holding *above* capacity would keep the queue full, so the
            // TCP variant trails the measured rate slightly high to keep
            // probing pressure without standing loss).
            self.target_pps = (self.delivered_ewma * 1.05).max(mbps_to_pps(1.0));
        }
        // Window: two BDPs at the pacing target keeps the pacer, not the
        // window, in control, while still bounding inflight like TCP.
        self.cwnd = (2.0 * self.target_pps * rtt).max(10.0);
    }

    fn in_slow_start(&self) -> bool {
        false // jump-start: there is no slow-start phase at all
    }

    fn name(&self) -> &'static str {
        "Swiftest-TCP"
    }
}

/// Run the TCP-variant Swiftest test over a simulated path.
pub fn run_swiftest_tcp(
    path: PathModel,
    model: &Gmm,
    estimator: &mut dyn BandwidthEstimator,
    config: &SwiftestConfig,
    seed: u64,
) -> ProbeResult {
    drive_tcp_test(
        path,
        Box::new(ModelGuidedCc::new(model.clone(), config)),
        "swiftest-tcp",
        estimator,
        config.max_duration,
        seed,
        |_, _, _, _| {},
    )
}

/// Convenience: run with the standard Swiftest estimator.
pub fn run_swiftest_tcp_default(path: PathModel, model: &Gmm, seed: u64) -> ProbeResult {
    let mut est = ConvergenceEstimator::swiftest();
    run_swiftest_tcp(path, model, &mut est, &SwiftestConfig::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::GroupedTrimmedMean;
    use crate::model::TechClass;
    use crate::probe::{run_flooding, FloodingConfig};
    use mbw_netsim::PathConfig;
    use std::time::Duration;

    fn flat_path(mbps: f64, rtt_ms: u64) -> PathModel {
        PathModel::new(PathConfig::constant(
            mbps * 1e6,
            Duration::from_millis(rtt_ms),
        ))
    }

    #[test]
    fn jump_start_skips_slow_start() {
        let model = TechClass::Nr.default_model();
        let cc = ModelGuidedCc::new(model.clone(), &SwiftestConfig::default());
        assert!(!cc.in_slow_start());
        assert!((cc.target_mbps() - model.dominant_mode()).abs() < 1e-9);
    }

    #[test]
    fn tcp_variant_converges_fast_and_accurately() {
        let model = TechClass::Nr.default_model();
        let r = run_swiftest_tcp_default(flat_path(300.0, 20), &model, 1);
        assert!(
            r.duration < Duration::from_millis(2_500),
            "duration {:?}",
            r.duration
        );
        assert!(
            (r.estimate_mbps - 300.0).abs() < 20.0,
            "estimate {}",
            r.estimate_mbps
        );
    }

    #[test]
    fn tcp_variant_is_much_faster_than_cubic_flooding() {
        let model = TechClass::Nr.default_model();
        let tcp_swift = run_swiftest_tcp_default(flat_path(400.0, 30), &model, 2);
        let mut est = GroupedTrimmedMean::bts_app();
        let flooding = run_flooding(
            flat_path(400.0, 30),
            &mut est,
            &FloodingConfig::bts_app(),
            2,
        );
        assert!(tcp_swift.duration < flooding.duration / 3);
        assert!(tcp_swift.data_bytes < flooding.data_bytes / 3.0);
    }

    #[test]
    fn escalates_through_modes_to_reach_fast_links() {
        let model = Gmm::from_triples(&[(0.7, 50.0, 8.0), (0.3, 150.0, 20.0)]).unwrap();
        let r = run_swiftest_tcp_default(flat_path(600.0, 20), &model, 3);
        assert!(
            (r.estimate_mbps - 600.0).abs() < 60.0,
            "estimate {}",
            r.estimate_mbps
        );
    }

    #[test]
    fn backs_off_on_loss_like_tcp() {
        let model = TechClass::Nr.default_model();
        let mut cc = ModelGuidedCc::new(model, &SwiftestConfig::default());
        let mut rng = SeededRng::new(1);
        // Feed a saturated round first so the EWMA has signal.
        let clean = RoundInput {
            now: Duration::from_millis(50),
            rtt: Duration::from_millis(25),
            min_rtt: Duration::from_millis(25),
            delivered_pkts: 500.0,
            lost_pkts: 0.0,
            delivery_rate_pps: 8_000.0,
        };
        cc.on_round(&clean, &mut rng);
        let before = cc.target_mbps();
        let lossy = RoundInput {
            lost_pkts: 5.0,
            ..clean
        };
        cc.on_round(&lossy, &mut rng);
        assert!(
            cc.target_mbps() < before,
            "{} !< {before}",
            cc.target_mbps()
        );
    }

    #[test]
    fn stays_below_capacity_when_saturated() {
        // After saturation the pacing target tracks the delivered rate
        // instead of holding an over-capacity blast.
        let model = TechClass::Nr.default_model();
        let mut est = ConvergenceEstimator::swiftest();
        let r = run_swiftest_tcp(
            flat_path(80.0, 25),
            &model,
            &mut est,
            &SwiftestConfig::default(),
            4,
        );
        assert!(
            (r.estimate_mbps - 80.0).abs() < 8.0,
            "estimate {}",
            r.estimate_mbps
        );
        // Goodput samples never exceed the link.
        for &s in &r.samples {
            assert!(s <= 80.0 * 1.02, "sample {s}");
        }
    }

    #[test]
    fn matches_udp_variant_within_a_few_percent() {
        let model = TechClass::Nr.default_model();
        let scenario = crate::scenario::AccessScenario::default_for(TechClass::Nr);
        let mut devs = Vec::new();
        for seed in 0..20u64 {
            let drawn = scenario.draw(seed * 11 + 5);
            let tcp = run_swiftest_tcp_default(drawn.build(), &model, seed);
            let mut est = ConvergenceEstimator::swiftest();
            let udp = crate::probe::run_swiftest(
                drawn.build(),
                &model,
                &mut est,
                &SwiftestConfig::default(),
                seed,
            );
            if tcp.estimate_mbps > 0.0 && udp.estimate_mbps > 0.0 {
                devs.push(mbw_stats::descriptive::relative_deviation(
                    tcp.estimate_mbps,
                    udp.estimate_mbps,
                ));
            }
        }
        let mean_dev = mbw_stats::descriptive::mean(&devs);
        assert!(mean_dev < 0.10, "UDP vs TCP variant deviation {mean_dev}");
    }
}
