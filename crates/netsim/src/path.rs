//! The end-to-end path model.
//!
//! Both the congestion-control layer and the BTS probers interact with the
//! network through a [`PathModel`]: an access bottleneck whose capacity
//! varies over time, a base round-trip time, wireless loss, and a finite
//! bottleneck buffer. The model offers two views:
//!
//! - **fluid**: integrate goodput of a paced (UDP) stream over an
//!   interval — what Swiftest's probing observes;
//! - **parameters**: capacity / RTT / buffer / loss queried by the
//!   round-based TCP models in `mbw-congestion`.

use crate::capacity::CapacityProcess;
use crate::fault::FaultPlan;
use crate::time::SimTime;
use mbw_stats::SeededRng;
use std::time::Duration;

/// Path construction parameters.
pub struct PathConfig {
    /// The bottleneck capacity process (bits/second over time).
    pub capacity: Box<dyn CapacityProcess>,
    /// Base (unloaded) round-trip time.
    pub base_rtt: Duration,
    /// Per-packet random loss probability (wireless corruption; congestion
    /// loss emerges separately from the buffer model).
    pub loss_prob: f64,
    /// Bottleneck buffer, as a multiple of the nominal
    /// bandwidth-delay product. 1.0 is the classic rule-of-thumb sizing.
    pub buffer_bdp: f64,
    /// Seed for the path's stochastic processes.
    pub seed: u64,
}

impl PathConfig {
    /// A constant-rate path — the simplest usable configuration.
    pub fn constant(rate_bps: f64, base_rtt: Duration) -> Self {
        Self {
            capacity: Box::new(crate::capacity::ConstantCapacity(rate_bps)),
            base_rtt,
            loss_prob: 0.0,
            buffer_bdp: 1.0,
            seed: 0,
        }
    }
}

/// Goodput observed over one fluid integration step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidSample {
    /// Interval start.
    pub at: SimTime,
    /// Bytes delivered to the receiver in the interval.
    pub delivered_bytes: f64,
    /// Bytes lost in the interval.
    pub lost_bytes: f64,
    /// Bottleneck capacity (bps) prevailing during the interval.
    pub capacity_bps: f64,
}

/// Cumulative fluid-integration totals observed by a path since its
/// construction — the per-link delivered/dropped/faulted accounting the
/// telemetry layer publishes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathTotals {
    /// Bytes delivered to the receiver.
    pub delivered_bytes: f64,
    /// Bytes lost (overshoot beyond capacity, wireless loss, faults).
    pub lost_bytes: f64,
    /// Integration steps evaluated.
    pub steps: u64,
    /// Steps in which an injected fault zeroed the link entirely.
    pub blackout_steps: u64,
}

impl PathTotals {
    /// Publish this snapshot into `registry` as labelled gauges
    /// (`netsim_path_*{path="<label>"}`).
    pub fn publish_to(&self, registry: &mbw_telemetry::Registry, path: &str) {
        let labels = [("path", path)];
        registry
            .gauge_with(
                "netsim_path_delivered_bytes",
                "Bytes delivered end-to-end",
                &labels,
            )
            .set(self.delivered_bytes);
        registry
            .gauge_with("netsim_path_lost_bytes", "Bytes lost on the path", &labels)
            .set(self.lost_bytes);
        registry
            .gauge_with(
                "netsim_path_steps",
                "Fluid integration steps evaluated",
                &labels,
            )
            .set(self.steps as f64);
        registry
            .gauge_with(
                "netsim_path_blackout_steps",
                "Integration steps fully inside a blackout window",
                &labels,
            )
            .set(self.blackout_steps as f64);
    }
}

/// An end-to-end path with a time-varying bottleneck.
pub struct PathModel {
    capacity: Box<dyn CapacityProcess>,
    base_rtt: Duration,
    loss_prob: f64,
    buffer_bdp: f64,
    rng: SeededRng,
    faults: FaultPlan,
    totals: PathTotals,
}

impl PathModel {
    /// Build from a configuration.
    ///
    /// # Panics
    /// Panics on invalid loss probability or non-positive buffer.
    pub fn new(config: PathConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.loss_prob));
        assert!(config.buffer_bdp > 0.0);
        Self {
            capacity: config.capacity,
            base_rtt: config.base_rtt,
            loss_prob: config.loss_prob,
            buffer_bdp: config.buffer_bdp,
            rng: SeededRng::new(config.seed),
            faults: FaultPlan::none(),
            totals: PathTotals::default(),
        }
    }

    /// Cumulative delivered/lost accounting since construction.
    pub fn totals(&self) -> PathTotals {
        self.totals
    }

    /// Attach a fault plan; transient windows modulate capacity, loss,
    /// and delay in every subsequent query and integration.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The attached fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Base round-trip time.
    pub fn base_rtt(&self) -> Duration {
        self.base_rtt
    }

    /// Per-packet wireless loss probability.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Bottleneck capacity at `t`, bits/second (zero during an injected
    /// blackout, scaled by any open collapse windows).
    pub fn capacity_bps(&mut self, t: SimTime) -> f64 {
        self.capacity.capacity_at(t) * self.faults.capacity_multiplier_at(t)
    }

    /// One-way delay surcharge from injected delay spikes at `t`.
    pub fn extra_delay_at(&self, t: SimTime) -> Duration {
        self.faults.extra_delay_at(t)
    }

    /// Long-run nominal capacity of the bottleneck.
    pub fn nominal_bps(&self) -> f64 {
        self.capacity.nominal_bps()
    }

    /// Nominal bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> f64 {
        self.nominal_bps() * self.base_rtt.as_secs_f64() / 8.0
    }

    /// Bottleneck buffer size in bytes.
    pub fn buffer_bytes(&self) -> f64 {
        (self.bdp_bytes() * self.buffer_bdp).max(8.0 * 1500.0)
    }

    /// Draw a Bernoulli loss for one packet on this path.
    pub fn draw_loss(&mut self) -> bool {
        let p = self.loss_prob;
        self.rng.chance(p)
    }

    /// Borrow the path's RNG (flows fork their own streams from it).
    pub fn rng(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Integrate the goodput of a stream *paced at* `send_rate_bps` over
    /// `[start, start + duration)`, in steps of `step`.
    ///
    /// The delivered rate in each step is `min(send_rate, capacity(t))`
    /// discounted by wireless loss; when the send rate exceeds capacity
    /// the excess is counted as lost bytes (a paced UDP stream has no
    /// retransmission — exactly Swiftest's situation when it over-probes).
    pub fn integrate_paced(
        &mut self,
        start: SimTime,
        duration: Duration,
        step: Duration,
        send_rate_bps: f64,
    ) -> Vec<FluidSample> {
        assert!(step > Duration::ZERO, "step must be positive");
        let mut out = Vec::new();
        let mut t = start;
        let end = start + duration;
        while t < end {
            let dt = step.min(end - t);
            out.push(self.paced_step(t, dt, send_rate_bps));
            t += dt;
        }
        out
    }

    /// One step of [`PathModel::integrate_paced`]: the goodput of a
    /// stream paced at `send_rate_bps` over `[t, t + dt)`, at the
    /// capacity, loss and faults prevailing at `t`. Counts into
    /// [`PathModel::totals`] like any other step and allocates nothing —
    /// the call for a prober that reads one window at a time.
    pub fn paced_step(&mut self, t: SimTime, dt: Duration, send_rate_bps: f64) -> FluidSample {
        let cap = self.capacity.capacity_at(t) * self.faults.capacity_multiplier_at(t);
        let loss = 1.0 - (1.0 - self.loss_prob) * (1.0 - self.faults.extra_loss_at(t));
        let delivered_rate = send_rate_bps.min(cap) * (1.0 - loss);
        let sent = send_rate_bps * dt.as_secs_f64() / 8.0;
        let delivered = delivered_rate * dt.as_secs_f64() / 8.0;
        let lost = (sent - delivered).max(0.0);
        self.totals.delivered_bytes += delivered;
        self.totals.lost_bytes += lost;
        self.totals.steps += 1;
        if cap <= 0.0 {
            self.totals.blackout_steps += 1;
        }
        FluidSample {
            at: t,
            delivered_bytes: delivered,
            lost_bytes: lost,
            capacity_bps: cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{ConstantCapacity, ShapedCapacity};

    fn flat_path(rate: f64) -> PathModel {
        PathModel::new(PathConfig::constant(rate, Duration::from_millis(40)))
    }

    #[test]
    fn bdp_and_buffer_sizing() {
        let p = flat_path(100e6);
        // 100 Mbps × 40 ms = 500 kB.
        assert!((p.bdp_bytes() - 500_000.0).abs() < 1.0);
        assert!((p.buffer_bytes() - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn buffer_has_floor_for_tiny_paths() {
        let p = PathModel::new(PathConfig::constant(1e6, Duration::from_millis(1)));
        assert!(p.buffer_bytes() >= 8.0 * 1500.0);
    }

    #[test]
    fn paced_below_capacity_delivers_everything() {
        let mut p = flat_path(100e6);
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(50),
            50e6,
        );
        let delivered: f64 = samples.iter().map(|s| s.delivered_bytes).sum();
        assert!((delivered - 50e6 / 8.0).abs() / (50e6 / 8.0) < 1e-9);
        assert!(samples.iter().all(|s| s.lost_bytes == 0.0));
    }

    #[test]
    fn paced_above_capacity_saturates_and_loses_excess() {
        let mut p = flat_path(100e6);
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(50),
            200e6,
        );
        let delivered: f64 = samples.iter().map(|s| s.delivered_bytes).sum();
        let lost: f64 = samples.iter().map(|s| s.lost_bytes).sum();
        assert!((delivered - 100e6 / 8.0).abs() / (100e6 / 8.0) < 1e-9);
        assert!((lost - 100e6 / 8.0).abs() / (100e6 / 8.0) < 1e-9);
    }

    #[test]
    fn wireless_loss_discounts_goodput() {
        let mut p = PathModel::new(PathConfig {
            capacity: Box::new(ConstantCapacity(100e6)),
            base_rtt: Duration::from_millis(40),
            loss_prob: 0.02,
            buffer_bdp: 1.0,
            seed: 0,
        });
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(50),
            100e6,
        );
        let delivered: f64 = samples.iter().map(|s| s.delivered_bytes).sum();
        let want = 100e6 / 8.0 * 0.98;
        assert!((delivered - want).abs() / want < 1e-9);
    }

    #[test]
    fn shaped_path_shows_on_off_pattern() {
        let mut p = PathModel::new(PathConfig {
            capacity: Box::new(ShapedCapacity::new(100e6, 10e6, 1.0, 0.5)),
            base_rtt: Duration::from_millis(20),
            loss_prob: 0.0,
            buffer_bdp: 1.0,
            seed: 0,
        });
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(2),
            Duration::from_millis(100),
            200e6,
        );
        let caps: Vec<f64> = samples.iter().map(|s| s.capacity_bps).collect();
        assert!(caps.contains(&100e6) && caps.contains(&10e6));
    }

    #[test]
    fn integration_covers_partial_final_step() {
        let mut p = flat_path(80e6);
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_millis(125),
            Duration::from_millis(50),
            80e6,
        );
        // 50 + 50 + 25 ms.
        assert_eq!(samples.len(), 3);
        let delivered: f64 = samples.iter().map(|s| s.delivered_bytes).sum();
        let want = 80e6 * 0.125 / 8.0;
        assert!((delivered - want).abs() < 1.0);
    }

    #[test]
    fn blackout_zeroes_goodput_only_inside_window() {
        use crate::fault::FaultPlan;
        let mut p = flat_path(100e6).with_faults(FaultPlan::blackout(
            SimTime::from_millis(400),
            Duration::from_millis(200),
        ));
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(100),
            50e6,
        );
        for s in &samples {
            let ms = s.at.as_millis_f64();
            if (400.0..600.0).contains(&ms) {
                assert_eq!(s.delivered_bytes, 0.0, "blackout at {ms} ms");
                assert!(s.lost_bytes > 0.0);
            } else {
                assert!(s.delivered_bytes > 0.0, "clear air at {ms} ms");
            }
        }
    }

    #[test]
    fn burst_loss_discounts_goodput_inside_window() {
        use crate::fault::{FaultKind, FaultPlan, FaultWindow};
        let plan = FaultPlan::scripted(vec![FaultWindow {
            start: SimTime::ZERO,
            duration: Duration::from_millis(500),
            kind: FaultKind::BurstLoss { loss_prob: 0.5 },
        }]);
        let mut p = flat_path(100e6).with_faults(plan);
        let samples = p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(100),
            80e6,
        );
        let in_burst: f64 = samples[..5].iter().map(|s| s.delivered_bytes).sum();
        let clear: f64 = samples[5..].iter().map(|s| s.delivered_bytes).sum();
        assert!((in_burst - clear / 2.0).abs() / clear < 1e-9);
    }

    #[test]
    fn totals_accumulate_across_integrations() {
        let mut p = flat_path(100e6);
        p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(50),
            200e6,
        );
        p.integrate_paced(
            SimTime::from_secs(1),
            Duration::from_secs(1),
            Duration::from_millis(50),
            50e6,
        );
        let t = p.totals();
        assert_eq!(t.steps, 40);
        // Second 1 s under capacity delivers all 50e6/8; first delivers 100e6/8.
        let want = (100e6 + 50e6) / 8.0;
        assert!((t.delivered_bytes - want).abs() / want < 1e-9, "{t:?}");
        assert!(
            (t.lost_bytes - 100e6 / 8.0).abs() / (100e6 / 8.0) < 1e-9,
            "{t:?}"
        );
        assert_eq!(t.blackout_steps, 0);
    }

    #[test]
    fn totals_count_blackout_steps_and_publish() {
        use crate::fault::FaultPlan;
        let mut p = flat_path(100e6).with_faults(FaultPlan::blackout(
            SimTime::from_millis(400),
            Duration::from_millis(200),
        ));
        p.integrate_paced(
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_millis(100),
            50e6,
        );
        let t = p.totals();
        assert_eq!(t.blackout_steps, 2, "{t:?}");
        let registry = mbw_telemetry::Registry::new();
        t.publish_to(&registry, "access");
        let text = registry.render_prometheus();
        assert!(
            text.contains("netsim_path_blackout_steps{path=\"access\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("netsim_path_delivered_bytes{path=\"access\"}"),
            "{text}"
        );
    }

    #[test]
    fn draw_loss_frequency() {
        let mut p = PathModel::new(PathConfig {
            capacity: Box::new(ConstantCapacity(1e6)),
            base_rtt: Duration::from_millis(10),
            loss_prob: 0.25,
            buffer_bdp: 1.0,
            seed: 77,
        });
        let n = 100_000;
        let losses = (0..n).filter(|_| p.draw_loss()).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }
}
