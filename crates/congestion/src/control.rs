//! The congestion-control interface consumed by the flow simulator, and
//! [`Controller`], the closed set of controllers a flow holds by value.

use crate::bbr::Bbr;
use crate::cubic::Cubic;
use crate::guided::ModelGuidedCc;
use crate::reno::Reno;
use mbw_stats::SeededRng;
use std::time::Duration;

/// What a congestion controller learns at the end of each round
/// (one round ≈ one RTT of the flow).
#[derive(Debug, Clone, Copy)]
pub struct RoundInput {
    /// Flow time at the end of the round.
    pub now: Duration,
    /// The round's actual RTT (base RTT + queueing delay).
    pub rtt: Duration,
    /// The path's base (unloaded) RTT.
    pub min_rtt: Duration,
    /// Segments acknowledged this round.
    pub delivered_pkts: f64,
    /// Segments lost this round (buffer overflow + wireless loss).
    pub lost_pkts: f64,
    /// Delivery rate observed this round, segments/second.
    pub delivery_rate_pps: f64,
}

impl RoundInput {
    /// Whether any loss was observed this round.
    pub fn saw_loss(&self) -> bool {
        self.lost_pkts > 0.0
    }
}

/// A congestion-control algorithm, advanced once per round.
pub trait CongestionControl {
    /// Current congestion window in segments.
    fn window_pkts(&self) -> f64;

    /// Pacing rate in segments/second, if the algorithm paces (BBR).
    /// `None` means pure window-limited sending (Reno, Cubic).
    fn pacing_rate_pps(&self) -> Option<f64>;

    /// Digest one round of feedback. `rng` backs any stochastic element
    /// of the model (e.g. HyStart's jitter sensitivity on wireless).
    fn on_round(&mut self, input: &RoundInput, rng: &mut SeededRng);

    /// Whether the algorithm considers itself in slow start (startup for
    /// BBR). Fig 17 measures the duration of this phase.
    fn in_slow_start(&self) -> bool;

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Algorithm selector used by configs and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// NewReno.
    Reno,
    /// CUBIC (RFC 8312) with HyStart.
    Cubic,
    /// BBR v1.
    Bbr,
}

impl CcAlgorithm {
    /// Instantiate a fresh controller.
    pub fn build(self) -> Controller {
        match self {
            CcAlgorithm::Reno => Reno::new().into(),
            CcAlgorithm::Cubic => Cubic::new().into(),
            CcAlgorithm::Bbr => Bbr::new().into(),
        }
    }

    /// All three algorithms, in the order Fig 17 plots them.
    pub const ALL: [CcAlgorithm; 3] = [CcAlgorithm::Cubic, CcAlgorithm::Reno, CcAlgorithm::Bbr];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "Reno",
            CcAlgorithm::Cubic => "Cubic",
            CcAlgorithm::Bbr => "BBR",
        }
    }
}

impl std::fmt::Display for CcAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every controller a flow can run, held by value and dispatched with a
/// `match`: a flow's controller lives in the simulator's flow list, so
/// adding a flow allocates nothing once the list has room. Each
/// controller, and a [`CcAlgorithm`], converts into it with `.into()`.
#[derive(Debug, Clone)]
pub enum Controller {
    /// [`Reno`].
    Reno(Reno),
    /// [`Cubic`].
    Cubic(Cubic),
    /// [`Bbr`].
    Bbr(Bbr),
    /// [`ModelGuidedCc`], the TCP variant of Swiftest.
    ModelGuided(ModelGuidedCc),
}

impl CongestionControl for Controller {
    fn window_pkts(&self) -> f64 {
        match self {
            Controller::Reno(cc) => cc.window_pkts(),
            Controller::Cubic(cc) => cc.window_pkts(),
            Controller::Bbr(cc) => cc.window_pkts(),
            Controller::ModelGuided(cc) => cc.window_pkts(),
        }
    }

    fn pacing_rate_pps(&self) -> Option<f64> {
        match self {
            Controller::Reno(cc) => cc.pacing_rate_pps(),
            Controller::Cubic(cc) => cc.pacing_rate_pps(),
            Controller::Bbr(cc) => cc.pacing_rate_pps(),
            Controller::ModelGuided(cc) => cc.pacing_rate_pps(),
        }
    }

    fn on_round(&mut self, input: &RoundInput, rng: &mut SeededRng) {
        match self {
            Controller::Reno(cc) => cc.on_round(input, rng),
            Controller::Cubic(cc) => cc.on_round(input, rng),
            Controller::Bbr(cc) => cc.on_round(input, rng),
            Controller::ModelGuided(cc) => cc.on_round(input, rng),
        }
    }

    fn in_slow_start(&self) -> bool {
        match self {
            Controller::Reno(cc) => cc.in_slow_start(),
            Controller::Cubic(cc) => cc.in_slow_start(),
            Controller::Bbr(cc) => cc.in_slow_start(),
            Controller::ModelGuided(cc) => cc.in_slow_start(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Controller::Reno(cc) => cc.name(),
            Controller::Cubic(cc) => cc.name(),
            Controller::Bbr(cc) => cc.name(),
            Controller::ModelGuided(cc) => cc.name(),
        }
    }
}

impl From<CcAlgorithm> for Controller {
    fn from(alg: CcAlgorithm) -> Self {
        alg.build()
    }
}

impl From<Reno> for Controller {
    fn from(cc: Reno) -> Self {
        Controller::Reno(cc)
    }
}

impl From<Cubic> for Controller {
    fn from(cc: Cubic) -> Self {
        Controller::Cubic(cc)
    }
}

impl From<Bbr> for Controller {
    fn from(cc: Bbr) -> Self {
        Controller::Bbr(cc)
    }
}

impl From<ModelGuidedCc> for Controller {
    fn from(cc: ModelGuidedCc) -> Self {
        Controller::ModelGuided(cc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_each_algorithm() {
        for alg in CcAlgorithm::ALL {
            let cc = alg.build();
            assert_eq!(cc.name(), alg.name());
            assert!(cc.window_pkts() > 0.0);
            assert!(cc.in_slow_start());
        }
    }

    #[test]
    fn saw_loss_flag() {
        let mut input = RoundInput {
            now: Duration::from_millis(100),
            rtt: Duration::from_millis(40),
            min_rtt: Duration::from_millis(40),
            delivered_pkts: 10.0,
            lost_pkts: 0.0,
            delivery_rate_pps: 250.0,
        };
        assert!(!input.saw_loss());
        input.lost_pkts = 0.5;
        assert!(input.saw_loss());
    }
}
