//! Round-based flow simulation.
//!
//! Couples one congestion controller to a [`PathModel`]. Each iteration is
//! one RTT: the flow offers its window (or paced allowance), the
//! bottleneck services what it can, the excess builds a queue or
//! overflows, wireless loss strikes randomly, and the controller digests
//! the result. Throughput is sampled into fixed 50 ms bins — the same
//! granularity as the BTS clients in the paper — so the BTS layer can
//! consume simulated samples exactly as it would consume real ones.

use crate::control::CongestionControl;
use crate::multi::{MultiFlowConfig, MultiFlowSim};
use mbw_netsim::PathModel;
use std::time::Duration;

/// One throughput sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// End of the sampling interval, relative to flow start.
    pub at: Duration,
    /// Goodput over the interval, bits/second.
    pub bps: f64,
}

/// Configuration for a single-flow run.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Width of each throughput sample (the paper's clients use 50 ms).
    pub sample_interval: Duration,
    /// Hard stop for the simulation.
    pub max_duration: Duration,
    /// Seed for the flow's stochastic processes.
    pub seed: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            sample_interval: Duration::from_millis(50),
            max_duration: Duration::from_secs(15),
            seed: 0,
        }
    }
}

/// The complete record of one simulated flow.
#[derive(Debug, Clone)]
pub struct FlowTrace {
    /// 50 ms goodput samples.
    pub samples: Vec<ThroughputSample>,
    /// Total bytes offered by the sender.
    pub bytes_sent: f64,
    /// Total bytes delivered to the receiver.
    pub bytes_delivered: f64,
    /// Rounds in which at least one loss occurred.
    pub loss_rounds: u32,
    /// When the controller left slow start / startup, if it did.
    pub slow_start_exit: Option<Duration>,
}

impl FlowTrace {
    /// First sample time at which goodput reached `frac` of
    /// `reference_bps`. This is the "time to saturation" metric behind
    /// Fig 17.
    pub fn time_to_fraction(&self, reference_bps: f64, frac: f64) -> Option<Duration> {
        let target = reference_bps * frac;
        self.samples.iter().find(|s| s.bps >= target).map(|s| s.at)
    }

    /// Mean goodput over samples at or after `after`.
    pub fn mean_bps_after(&self, after: Duration) -> f64 {
        let late = || self.samples.iter().filter(|s| s.at >= after);
        let n = late().count();
        if n == 0 {
            0.0
        } else {
            late().map(|s| s.bps).sum::<f64>() / n as f64
        }
    }

    /// Overall mean goodput.
    pub fn mean_bps(&self) -> f64 {
        self.mean_bps_after(Duration::ZERO)
    }
}

/// Single-flow façade over [`MultiFlowSim`].
pub struct FlowSim;

impl FlowSim {
    /// Run `cc` over `path` until `config.max_duration`.
    pub fn run(path: PathModel, cc: Box<dyn CongestionControl>, config: FlowConfig) -> FlowTrace {
        let mut sim = MultiFlowSim::new(
            path,
            MultiFlowConfig {
                sample_interval: config.sample_interval,
                seed: config.seed,
            },
        );
        sim.add_flow_boxed(cc);
        sim.run_until(config.max_duration);
        let samples = sim.samples();
        let ss_exit = sim.slow_start_exit(0);
        let (sent, delivered, loss_rounds) = sim.totals();
        FlowTrace {
            samples,
            bytes_sent: sent,
            bytes_delivered: delivered,
            loss_rounds,
            slow_start_exit: ss_exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::CcAlgorithm;
    use crate::MSS;
    use mbw_netsim::{PathConfig, PathModel};

    fn path(rate_bps: f64, rtt_ms: u64, loss: f64, seed: u64) -> PathModel {
        let mut cfg = PathConfig::constant(rate_bps, Duration::from_millis(rtt_ms));
        cfg.loss_prob = loss;
        cfg.seed = seed;
        PathModel::new(cfg)
    }

    fn run(alg: CcAlgorithm, rate_bps: f64, rtt_ms: u64) -> FlowTrace {
        FlowSim::run(
            path(rate_bps, rtt_ms, 0.0, 1),
            alg.build(),
            FlowConfig {
                max_duration: Duration::from_secs(20),
                seed: 2,
                ..Default::default()
            },
        )
    }

    #[test]
    fn all_algorithms_eventually_saturate_a_clean_path() {
        for alg in CcAlgorithm::ALL {
            let trace = run(alg, 100e6, 40);
            let late = trace.mean_bps_after(Duration::from_secs(10));
            assert!(late > 85e6, "{alg}: late mean {:.1} Mbps", late / 1e6);
        }
    }

    #[test]
    fn goodput_never_exceeds_capacity() {
        for alg in CcAlgorithm::ALL {
            let trace = run(alg, 50e6, 30);
            for s in &trace.samples {
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
            let trace = run(alg, 100e6, 40);
            let exit = trace.slow_start_exit.expect("must exit slow start");
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
        for alg in CcAlgorithm::ALL {
            let slow = run(alg, 50e6, 40)
                .time_to_fraction(50e6, 0.9)
                .expect("saturates 50M");
            let fast = run(alg, 400e6, 40)
                .time_to_fraction(400e6, 0.9)
                .expect("saturates 400M");
            assert!(fast > slow, "{alg}: fast {fast:?} !> slow {slow:?}");
        }
    }

    #[test]
    fn delivered_never_exceeds_sent() {
        for alg in CcAlgorithm::ALL {
            let trace = run(alg, 100e6, 40);
            assert!(trace.bytes_delivered <= trace.bytes_sent + 1.0);
            assert!(trace.bytes_delivered > 0.0);
        }
    }

    #[test]
    fn wireless_loss_causes_loss_rounds_for_loss_based_cc() {
        let trace = FlowSim::run(
            path(100e6, 40, 0.003, 3),
            CcAlgorithm::Reno.build(),
            FlowConfig {
                max_duration: Duration::from_secs(10),
                seed: 4,
                ..Default::default()
            },
        );
        assert!(trace.loss_rounds > 0);
        // Random loss keeps Reno below a clean run's goodput.
        let clean = run(CcAlgorithm::Reno, 100e6, 40);
        assert!(
            trace.mean_bps_after(Duration::from_secs(5))
                < clean.mean_bps_after(Duration::from_secs(5))
        );
    }

    #[test]
    fn bbr_tolerates_random_loss_better_than_reno() {
        let loss = 0.005;
        let bbr = FlowSim::run(
            path(100e6, 40, loss, 5),
            CcAlgorithm::Bbr.build(),
            FlowConfig {
                max_duration: Duration::from_secs(10),
                seed: 6,
                ..Default::default()
            },
        );
        let reno = FlowSim::run(
            path(100e6, 40, loss, 5),
            CcAlgorithm::Reno.build(),
            FlowConfig {
                max_duration: Duration::from_secs(10),
                seed: 6,
                ..Default::default()
            },
        );
        let b = bbr.mean_bps_after(Duration::from_secs(3));
        let r = reno.mean_bps_after(Duration::from_secs(3));
        assert!(b > r, "BBR {:.1} Mbps vs Reno {:.1} Mbps", b / 1e6, r / 1e6);
    }

    #[test]
    fn sample_times_are_monotone_and_spaced() {
        let trace = run(CcAlgorithm::Cubic, 100e6, 40);
        for w in trace.samples.windows(2) {
            assert!(w[1].at > w[0].at);
            let gap = (w[1].at - w[0].at).as_millis();
            assert_eq!(gap, 50);
        }
    }

    #[test]
    fn trace_accounting_consistent_with_samples() {
        let trace = run(CcAlgorithm::Bbr, 100e6, 40);
        let from_samples: f64 = trace.samples.iter().map(|s| s.bps * 0.05 / 8.0).sum();
        // Sample bins cover delivered bytes (within the final partial bin).
        let diff = (from_samples - trace.bytes_delivered).abs();
        assert!(
            diff < trace.bytes_delivered * 0.05 + MSS * 200.0,
            "samples {from_samples} vs delivered {}",
            trace.bytes_delivered
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = run(CcAlgorithm::Cubic, 200e6, 40);
        let b = run(CcAlgorithm::Cubic, 200e6, 40);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.bps, y.bps);
        }
    }
}
