//! The TCP-based Swiftest variant (§7, "Design Choices of Swiftest").
//!
//! The paper notes that UDP "is just one of the feasible design
//! choices, and similar benefits can also be achieved by not giving up
//! TCP: we can customize the TCP congestion control algorithm to
//! realize in part the data-driven bandwidth probing mechanism, while
//! retaining TCP's fairness properties". This module is that variant:
//! a test run under [`ModelGuidedCc`], a congestion controller that
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
//! ours, so the modification is a module. The controller lives with
//! the other controllers in `mbw-congestion` and is re-exported here.

use crate::estimator::{BandwidthEstimator, ConvergenceEstimator};
use crate::probe::{drive_tcp_test, tcp_config, FloodingConfig, ProbeResult, SwiftestConfig};
pub use mbw_congestion::ModelGuidedCc;
use mbw_congestion::MultiFlowSim;
use mbw_netsim::PathModel;
use mbw_stats::Gmm;

/// Run the TCP-variant Swiftest test over a simulated path.
pub fn run_swiftest_tcp(
    path: PathModel,
    model: &Gmm,
    estimator: &mut dyn BandwidthEstimator,
    config: &SwiftestConfig,
    seed: u64,
) -> ProbeResult {
    // No ladder: the variant is one connection throughout.
    let one_flow = FloodingConfig {
        max_duration: config.max_duration,
        thresholds: &[],
        ..FloodingConfig::bts_app()
    };
    drive_tcp_test(
        &mut MultiFlowSim::new(path, tcp_config(seed)),
        ModelGuidedCc::new(
            model.clone(),
            config.saturation_margin,
            config.beyond_mode_growth,
        )
        .into(),
        "swiftest-tcp",
        estimator,
        &one_flow,
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
    use mbw_congestion::{CongestionControl, RoundInput};
    use mbw_netsim::PathConfig;
    use mbw_stats::SeededRng;
    use std::time::Duration;

    fn guided(model: Gmm) -> ModelGuidedCc {
        let config = SwiftestConfig::default();
        ModelGuidedCc::new(model, config.saturation_margin, config.beyond_mode_growth)
    }

    fn flat_path(mbps: f64, rtt_ms: u64) -> PathModel {
        PathModel::new(PathConfig::constant(
            mbps * 1e6,
            Duration::from_millis(rtt_ms),
        ))
    }

    #[test]
    fn jump_start_skips_slow_start() {
        let model = TechClass::Nr.default_model();
        let cc = guided(model.clone());
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
        let mut cc = guided(model);
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
        for (_, s) in r.timeline.trajectory() {
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
