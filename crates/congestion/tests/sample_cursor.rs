//! The sample cursor is the sample history: draining
//! `MultiFlowSim::next_sample` after every round yields, once each and
//! in order, exactly the samples `samples()` lists at the end — and a
//! sample, once finished, never changes.

use mbw_congestion::{CcAlgorithm, MultiFlowConfig, MultiFlowSim, ThroughputSample};
use mbw_netsim::{Capacity, ConstantCapacity, OuCapacity, PathConfig, PathModel, RampUpCapacity};
use proptest::prelude::*;
use std::time::Duration;

fn capacity(shape: u8, rate_bps: f64, seed: u64) -> Capacity {
    match shape {
        0 => ConstantCapacity(rate_bps).into(),
        1 => OuCapacity::new(rate_bps, 0.8, 0.3, seed).into(),
        _ => RampUpCapacity::new(ConstantCapacity(rate_bps), 0.7, 0.15).into(),
    }
}

fn bits(samples: &[ThroughputSample]) -> Vec<(Duration, u64)> {
    samples.iter().map(|s| (s.at, s.bps.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn draining_round_by_round_is_the_end_of_run_history(
        shape in 0u8..3,
        rate_mbps in 5.0f64..1200.0,
        rtt_ms in 2u64..120,
        interval_ms in 10u64..200,
        loss_exp in -6.0f64..-2.0,
        seed in any::<u64>(),
        mut adds in prop::collection::vec((1u64..3_000, 0usize..3), 0..6),
    ) {
        let path = PathModel::new(PathConfig {
            capacity: capacity(shape, rate_mbps * 1e6, seed),
            base_rtt: Duration::from_millis(rtt_ms),
            loss_prob: 10f64.powf(loss_exp),
            buffer_bdp: 1.0,
            seed,
        });
        let mut sim = MultiFlowSim::new(
            path,
            MultiFlowConfig {
                sample_interval: Duration::from_millis(interval_ms),
                seed: seed ^ 0xC0FFEE,
            },
        );
        sim.add_flow(CcAlgorithm::ALL[seed as usize % 3]);
        adds.sort_unstable();
        let mut next_add = 0;

        let mut drained: Vec<ThroughputSample> = Vec::new();
        while sim.now() < Duration::from_secs(4) {
            while next_add < adds.len() && sim.now() >= Duration::from_millis(adds[next_add].0) {
                sim.add_flow(CcAlgorithm::ALL[adds[next_add].1]);
                next_add += 1;
            }
            sim.step_round();
            while let Some(s) = sim.next_sample() {
                drained.push(s);
            }
            // Caught up after every round, and everything handed out so
            // far still reads the same in the whole-history view.
            prop_assert_eq!(bits(&drained), bits(&sim.samples()), "at {:?}", sim.now());
            prop_assert_eq!(sim.latest_sample(), drained.last().copied());
        }
        prop_assert!(!drained.is_empty());
    }
}
