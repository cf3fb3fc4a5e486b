//! Model-guided congestion control: the TCP variant of Swiftest (§7,
//! "Design Choices of Swiftest").
//!
//! The paper notes that UDP "is just one of the feasible design
//! choices, and similar benefits can also be achieved by not giving up
//! TCP: we can customize the TCP congestion control algorithm to
//! realize in part the data-driven bandwidth probing mechanism, while
//! retaining TCP's fairness properties". [`ModelGuidedCc`] is that
//! controller:
//!
//! 1. it **jump-starts** at the model's most probable modal bandwidth
//!    instead of slow-starting from 10 segments,
//! 2. it **escalates** its pacing target to the next most probable
//!    larger mode while the delivery rate keeps up (the same rule as the
//!    UDP prober), and
//! 3. it **remains TCP**: on loss it backs off multiplicatively and lets
//!    the ACK clock cap its window, so it cannot starve a competing
//!    flow the way an open-loop UDP blast could.

use crate::control::{CongestionControl, RoundInput};
use crate::MSS;
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
    /// Start at the model's most probable mode. A delivery rate of at
    /// least `margin` × the pacing target escalates it; past the largest
    /// mode it grows by `beyond_growth`.
    pub fn new(model: Gmm, margin: f64, beyond_growth: f64) -> Self {
        let start = model.dominant_mode().max(1.0);
        Self {
            target_pps: mbps_to_pps(start),
            cwnd: 10.0,
            margin,
            beyond_growth,
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
            let (next, _) = self
                .model
                .escalate(pps_to_mbps(self.target_pps), self.beyond_growth);
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
