//! Access-link scenario generation.
//!
//! Each simulated test runs against a concrete path drawn from a
//! technology's population: a capacity from the multi-modal model, an
//! RTT, a wireless loss rate, and a fluctuation class. The class mix is
//! calibrated to §5.3's deviation findings: most links are stable
//! (back-to-back deviations under 5%), ~15% fluctuate heavily (the >10%
//! deviations), and ~1% are traffic-shaped with clear on/off patterns
//! (the >30% outliers).

use crate::model::TechClass;
use mbw_netsim::{
    Capacity, ConstantCapacity, FaultPlan, FaultProfile, OuCapacity, PathConfig, PathModel,
    ShapedCapacity, SimTime,
};
use mbw_stats::{Gmm, SeededRng};
use std::time::Duration;

/// Horizon over which a drawn path's random fault plan is laid out. A
/// hair beyond Swiftest's 4.5 s cap so faults can land anywhere in a
/// test's lifetime.
const FAULT_HORIZON: Duration = Duration::from_secs(5);

/// How a drawn link's capacity behaves over a test's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluctuationClass {
    /// Stable: small mean-reverting noise (σ ≈ 2%).
    Stable,
    /// Fluctuating: heavy noise (σ ≈ 12%) — §5.3's >10% deviation pairs.
    Fluctuating,
    /// Traffic-shaped: on/off pattern from a BS/AP shaper — the >30%
    /// outliers with "clear patterns".
    Shaped,
    /// Perfectly constant (unit tests and ablations).
    Constant,
}

/// A scenario: the population a test's path is drawn from.
#[derive(Debug, Clone)]
pub struct AccessScenario {
    /// Technology class (selects the default model and RTT range).
    pub tech: TechClass,
    /// Population bandwidth model (Mbps).
    pub model: Gmm,
    /// RTT draw range (log-uniform), seconds.
    pub rtt_range: (f64, f64),
    /// Wireless loss-probability draw range (log-uniform).
    pub loss_range: (f64, f64),
    /// Probability of each fluctuation class: `(stable, fluctuating,
    /// shaped)`; remainder is constant.
    pub class_mix: (f64, f64, f64),
    /// Probability that a drawn path carries a transient-fault episode
    /// mix (handover blackout, deep fade, burst loss, delay spike).
    /// Zero in the calibrated defaults; chaos suites raise it.
    pub fault_rate: f64,
}

impl AccessScenario {
    /// The calibrated default for a technology class. RTTs reflect the
    /// paper's China-mainland deployment (nearby servers, §2): WiFi
    /// lowest, cellular higher and more variable.
    pub fn default_for(tech: TechClass) -> Self {
        let (rtt_range, loss_range) = match tech {
            TechClass::Lte => ((0.020, 0.070), (2e-5, 4e-4)),
            TechClass::Nr => ((0.012, 0.040), (1e-5, 2e-4)),
            TechClass::Wifi => ((0.008, 0.030), (5e-6, 1e-4)),
        };
        Self {
            tech,
            model: tech.default_model(),
            rtt_range,
            loss_range,
            class_mix: (0.84, 0.15, 0.01),
            fault_rate: 0.0,
        }
    }

    /// The same scenario with a given transient-fault probability.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of range");
        self.fault_rate = rate;
        self
    }

    /// An mmWave 5G scenario (§7, "Global Applicability"): contiguous
    /// high-frequency spectrum gives multi-Gbps modes and very low RTTs,
    /// but the dense small-cell deployment makes heavy fluctuation (the
    /// blockage/beam-switching analogue of the sub-6 GHz level-5
    /// interference) far more common.
    pub fn mmwave() -> Self {
        Self {
            tech: TechClass::Nr,
            model: Gmm::from_triples(&[
                (0.35, 600.0, 150.0),
                (0.40, 1400.0, 300.0),
                (0.25, 2600.0, 500.0),
            ])
            .expect("static model valid"),
            rtt_range: (0.004, 0.015),
            loss_range: (1e-5, 5e-4),
            class_mix: (0.55, 0.42, 0.02),
            fault_rate: 0.0,
        }
    }

    /// Draw one concrete path (and its ground truth) from the scenario.
    pub fn draw(&self, seed: u64) -> DrawnPath {
        let mut rng = SeededRng::new(seed);
        // Truth: the nominal capacity the link would deliver to a
        // saturating long transfer.
        let truth_mbps = self.model.sample_at_least(&mut rng, 1.0);
        let rtt = log_uniform(&mut rng, self.rtt_range.0, self.rtt_range.1);
        let loss = log_uniform(&mut rng, self.loss_range.0, self.loss_range.1);

        let (s, f, sh) = self.class_mix;
        let u = rng.uniform();
        let class = if u < s {
            FluctuationClass::Stable
        } else if u < s + f {
            FluctuationClass::Fluctuating
        } else if u < s + f + sh {
            FluctuationClass::Shaped
        } else {
            FluctuationClass::Constant
        };
        // Drawn last so scenarios with fault_rate == 0 reproduce the
        // exact paths they drew before faults existed.
        let faults = if self.fault_rate > 0.0 && rng.chance(self.fault_rate) {
            FaultInjection::Seeded {
                seed: seed ^ 0xFA17,
            }
        } else {
            FaultInjection::None
        };
        DrawnPath {
            truth_mbps,
            rtt,
            loss,
            class,
            seed,
            faults,
        }
    }
}

/// Transient-fault injection mode of one drawn path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Clean link: steady-state impairments only.
    None,
    /// A deterministic episode mix ([`FaultProfile::mobile`]) drawn from
    /// the contained seed over the test horizon.
    Seeded {
        /// Seed of the episode draw.
        seed: u64,
    },
    /// One scripted total outage — the worst single fault a radio
    /// handover produces, and the easiest to reason about in tests.
    Blackout {
        /// Outage start, milliseconds into the test.
        start_ms: u64,
        /// Outage length, milliseconds.
        duration_ms: u64,
    },
}

impl FaultInjection {
    /// Materialise the concrete fault plan this injection mode denotes.
    pub fn plan(self) -> FaultPlan {
        match self {
            FaultInjection::None => FaultPlan::none(),
            FaultInjection::Seeded { seed } => {
                FaultPlan::seeded_random(seed, FAULT_HORIZON, &FaultProfile::mobile())
            }
            FaultInjection::Blackout {
                start_ms,
                duration_ms,
            } => FaultPlan::blackout(
                SimTime::from_millis(start_ms),
                Duration::from_millis(duration_ms),
            ),
        }
    }
}

/// One concrete drawn path, materialisable into a [`PathModel`].
///
/// `build()` can be called repeatedly to get byte-identical paths — that
/// is how the harness runs back-to-back tests "on the same link".
#[derive(Debug, Clone, Copy)]
pub struct DrawnPath {
    /// Nominal capacity, Mbps — the ground truth a perfect test reports.
    pub truth_mbps: f64,
    /// Base RTT, seconds.
    pub rtt: f64,
    /// Wireless per-packet loss probability.
    pub loss: f64,
    /// Capacity dynamics class.
    pub class: FluctuationClass,
    /// Seed for the path's stochastic processes.
    pub seed: u64,
    /// Transient faults the path carries (none for clean links).
    pub faults: FaultInjection,
}

impl DrawnPath {
    /// Materialise the path. Each call returns an identical instance.
    pub fn build(&self) -> PathModel {
        let nominal_bps = self.truth_mbps * 1e6;
        let capacity: Capacity = match self.class {
            FluctuationClass::Constant => ConstantCapacity(nominal_bps).into(),
            FluctuationClass::Stable => {
                OuCapacity::new(nominal_bps, 0.8, 0.02, self.seed ^ 0xCAFE).into()
            }
            FluctuationClass::Fluctuating => {
                OuCapacity::new(nominal_bps, 0.6, 0.12, self.seed ^ 0xCAFE).into()
            }
            FluctuationClass::Shaped => {
                ShapedCapacity::new(nominal_bps * 1.25, nominal_bps * 0.45, 2.5, 0.55).into()
            }
        };
        PathModel::new(PathConfig {
            capacity,
            base_rtt: Duration::from_secs_f64(self.rtt),
            loss_prob: self.loss,
            buffer_bdp: 1.0,
            seed: self.seed ^ 0xBEEF,
        })
        .with_faults(self.faults.plan())
    }

    /// The same drawn link carrying a different fault injection — how
    /// chaos tests script an outage onto an otherwise-clean draw.
    pub fn with_faults(self, faults: FaultInjection) -> Self {
        Self { faults, ..self }
    }
}

fn log_uniform(rng: &mut SeededRng, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo > 0.0 && hi >= lo);
    (rng.uniform_range(lo.ln(), hi.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_netsim::SimTime;

    #[test]
    fn draws_are_deterministic_per_seed() {
        let s = AccessScenario::default_for(TechClass::Nr);
        let a = s.draw(7);
        let b = s.draw(7);
        assert_eq!(a.truth_mbps, b.truth_mbps);
        assert_eq!(a.rtt, b.rtt);
        assert_eq!(a.class, b.class);
    }

    #[test]
    fn rtt_and_loss_stay_in_range() {
        for tech in TechClass::ALL {
            let s = AccessScenario::default_for(tech);
            for seed in 0..200 {
                let d = s.draw(seed);
                assert!(
                    d.rtt >= s.rtt_range.0 && d.rtt <= s.rtt_range.1,
                    "{tech}: {}",
                    d.rtt
                );
                assert!(d.loss >= s.loss_range.0 && d.loss <= s.loss_range.1);
                assert!(d.truth_mbps >= 1.0);
            }
        }
    }

    #[test]
    fn class_mix_frequencies() {
        let s = AccessScenario::default_for(TechClass::Wifi);
        let mut stable = 0;
        let mut fluct = 0;
        let mut shaped = 0;
        let n = 5000;
        for seed in 0..n {
            match s.draw(seed).class {
                FluctuationClass::Stable => stable += 1,
                FluctuationClass::Fluctuating => fluct += 1,
                FluctuationClass::Shaped => shaped += 1,
                FluctuationClass::Constant => {}
            }
        }
        assert!((stable as f64 / n as f64 - 0.84).abs() < 0.03);
        assert!((fluct as f64 / n as f64 - 0.15).abs() < 0.03);
        assert!(shaped > 0);
    }

    #[test]
    fn build_is_reproducible() {
        let s = AccessScenario::default_for(TechClass::Lte);
        let d = s.draw(99);
        let mut p1 = d.build();
        let mut p2 = d.build();
        for i in 0..50 {
            let t = SimTime::from_millis(i * 100);
            assert_eq!(p1.capacity_bps(t), p2.capacity_bps(t));
        }
    }

    #[test]
    fn stable_paths_hold_capacity_within_a_few_percent() {
        let s = AccessScenario::default_for(TechClass::Wifi);
        // Find a stable draw.
        let d = (0..100)
            .map(|seed| s.draw(seed))
            .find(|d| d.class == FluctuationClass::Stable)
            .expect("stable draws are 84% of the mix");
        let mut p = d.build();
        let nominal = d.truth_mbps * 1e6;
        for i in 0..100 {
            let cap = p.capacity_bps(SimTime::from_millis(i * 50));
            assert!(
                (cap / nominal - 1.0).abs() < 0.12,
                "cap {} vs {}",
                cap,
                nominal
            );
        }
    }

    #[test]
    fn mmwave_scenario_reaches_multi_gbps_with_heavy_fluctuation() {
        let s = AccessScenario::mmwave();
        let mut fast = 0;
        let mut fluctuating = 0;
        for seed in 0..400 {
            let d = s.draw(seed);
            if d.truth_mbps > 2000.0 {
                fast += 1;
            }
            if d.class == FluctuationClass::Fluctuating {
                fluctuating += 1;
            }
            assert!(d.rtt <= 0.015, "mmWave RTT {}", d.rtt);
        }
        assert!(fast > 40, "multi-Gbps draws: {fast}");
        // Blockage-dominated: fluctuation is ~3x more common than in the
        // sub-6 GHz default (42% vs 15%).
        assert!((fluctuating as f64 / 400.0 - 0.42).abs() < 0.08);
    }

    #[test]
    fn swiftest_handles_mmwave_links() {
        // The probing logic needs no change for mmWave — the model's
        // modes just sit higher (§7's applicability claim).
        let s = AccessScenario::mmwave();
        let mut est = crate::estimator::ConvergenceEstimator::swiftest();
        let drawn = (0..50)
            .map(|i| s.draw(i))
            .find(|d| d.class == FluctuationClass::Stable && d.truth_mbps > 1000.0)
            .expect("stable multi-Gbps draw");
        let r = crate::probe::run_swiftest(
            drawn.build(),
            &s.model,
            &mut est,
            &crate::probe::SwiftestConfig::default(),
            9,
        );
        let dev = (r.estimate_mbps - drawn.truth_mbps).abs() / drawn.truth_mbps;
        assert!(
            dev < 0.08,
            "estimate {} vs truth {}",
            r.estimate_mbps,
            drawn.truth_mbps
        );
        assert!(r.duration < std::time::Duration::from_secs(3));
    }

    #[test]
    fn fault_rate_controls_fault_frequency() {
        let s = AccessScenario::default_for(TechClass::Lte).with_fault_rate(0.5);
        let n = 2000;
        let faulted = (0..n)
            .filter(|&seed| s.draw(seed).faults != FaultInjection::None)
            .count();
        assert!(
            (faulted as f64 / n as f64 - 0.5).abs() < 0.05,
            "faulted {faulted}/{n}"
        );
        // Zero-rate scenarios never fault.
        let clean = AccessScenario::default_for(TechClass::Lte);
        assert!((0..200).all(|seed| clean.draw(seed).faults == FaultInjection::None));
    }

    #[test]
    fn fault_draw_does_not_perturb_the_path_draw() {
        // The fault decision is drawn last, so the same seed yields the
        // same link whether or not the scenario injects faults.
        let clean = AccessScenario::default_for(TechClass::Nr);
        let chaotic = clean.clone().with_fault_rate(1.0);
        for seed in 0..50 {
            let a = clean.draw(seed);
            let b = chaotic.draw(seed);
            assert_eq!(a.truth_mbps, b.truth_mbps);
            assert_eq!(a.rtt, b.rtt);
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.class, b.class);
            assert_ne!(b.faults, FaultInjection::None);
        }
    }

    #[test]
    fn scripted_blackout_kills_capacity_inside_the_window() {
        let s = AccessScenario::default_for(TechClass::Wifi);
        let d = s.draw(3).with_faults(FaultInjection::Blackout {
            start_ms: 500,
            duration_ms: 300,
        });
        let mut p = d.build();
        assert_eq!(p.capacity_bps(SimTime::from_millis(600)), 0.0);
        assert!(p.capacity_bps(SimTime::from_millis(100)) > 0.0);
        assert!(p.capacity_bps(SimTime::from_millis(900)) > 0.0);
    }

    #[test]
    fn seeded_fault_plans_are_reproducible_across_builds() {
        let s = AccessScenario::default_for(TechClass::Lte).with_fault_rate(1.0);
        let d = s.draw(12);
        let p1 = d.build();
        let p2 = d.build();
        assert_eq!(p1.faults(), p2.faults());
        assert!(!p1.faults().is_empty());
    }

    #[test]
    fn shaped_paths_alternate() {
        let d = DrawnPath {
            truth_mbps: 100.0,
            rtt: 0.02,
            loss: 0.0,
            class: FluctuationClass::Shaped,
            seed: 1,
            faults: FaultInjection::None,
        };
        let mut p = d.build();
        let caps: Vec<f64> = (0..100)
            .map(|i| p.capacity_bps(SimTime::from_millis(i * 100)))
            .collect();
        let hi = caps.iter().cloned().fold(0.0, f64::max);
        let lo = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(hi / lo > 2.0, "{lo}..{hi}");
    }
}
