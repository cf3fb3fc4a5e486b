//! Time-varying link capacity processes.
//!
//! Real access links do not hold a constant rate: the paper attributes
//! large test-pair deviations to "severe network fluctuations" (§5.3)
//! and identifies on/off traffic shaping by certain BSes/APs. Each of
//! those behaviours is one process here; the congestion and BTS layers
//! only see [`CapacityProcess::capacity_at`]. A path holds its process
//! by value as a [`Capacity`], the closed set of them, so drawing a
//! link allocates nothing. The diurnal pattern of Fig 10 lives in the
//! dataset profile's hour tables, not in a link.

use crate::time::SimTime;
use mbw_stats::SeededRng;

/// A (possibly stochastic) capacity trajectory in bits/second.
///
/// Implementations must be deterministic: `capacity_at` may be called with
/// non-decreasing times and must give the same trajectory for the same
/// construction seed.
pub trait CapacityProcess: Send {
    /// Capacity at virtual time `t`, in bits/second. Never negative.
    fn capacity_at(&mut self, t: SimTime) -> f64;

    /// The long-run average the process fluctuates around, used by tests
    /// and by workload estimation.
    fn nominal_bps(&self) -> f64;
}

/// Constant capacity.
#[derive(Debug, Clone)]
pub struct ConstantCapacity(pub f64);

impl CapacityProcess for ConstantCapacity {
    fn capacity_at(&mut self, _t: SimTime) -> f64 {
        self.0.max(0.0)
    }
    fn nominal_bps(&self) -> f64 {
        self.0
    }
}

/// Mean-reverting (Ornstein–Uhlenbeck) fluctuation around a nominal rate.
///
/// Discretised per call interval: `x ← x + θ(0 − x)dt + σ√dt·ξ`, where `x`
/// is the *relative* deviation from nominal. Capacity is clamped to
/// `[floor_frac, ceil_frac] × nominal`. This models ordinary sharing noise
/// on a cell/AP: bursty but mean-reverting on a seconds timescale.
#[derive(Debug, Clone)]
pub struct OuCapacity {
    nominal: f64,
    theta: f64,
    sigma: f64,
    floor_frac: f64,
    ceil_frac: f64,
    state: f64,
    last: SimTime,
    rng: SeededRng,
}

impl OuCapacity {
    /// `theta`: mean-reversion rate (1/s); `sigma`: relative volatility
    /// (1/√s). Typical access-link values: `theta = 0.8`, `sigma = 0.15`.
    pub fn new(nominal: f64, theta: f64, sigma: f64, seed: u64) -> Self {
        assert!(nominal > 0.0 && theta > 0.0 && sigma >= 0.0);
        Self {
            nominal,
            theta,
            sigma,
            floor_frac: 0.3,
            ceil_frac: 1.3,
            state: 0.0,
            last: SimTime::ZERO,
            rng: SeededRng::new(seed),
        }
    }

    /// Override the clamp band (fractions of nominal).
    pub fn with_bounds(mut self, floor_frac: f64, ceil_frac: f64) -> Self {
        assert!(0.0 <= floor_frac && floor_frac < ceil_frac);
        self.floor_frac = floor_frac;
        self.ceil_frac = ceil_frac;
        self
    }
}

impl CapacityProcess for OuCapacity {
    fn capacity_at(&mut self, t: SimTime) -> f64 {
        if t > self.last {
            // Step the SDE in chunks of at most 100 ms for stability even
            // when the caller queries sparsely.
            let mut remaining = (t - self.last).as_secs_f64();
            while remaining > 0.0 {
                let dt = remaining.min(0.1);
                self.state += -self.theta * self.state * dt
                    + self.sigma * dt.sqrt() * self.rng.standard_normal();
                remaining -= dt;
            }
            self.last = t;
        }
        (self.nominal * (1.0 + self.state)).clamp(
            self.nominal * self.floor_frac,
            self.nominal * self.ceil_frac,
        )
    }

    fn nominal_bps(&self) -> f64 {
        self.nominal
    }
}

/// On/off traffic shaping: `high_bps` for `duty × period`, then `low_bps`
/// for the rest — the "clear patterns" §5.3 observes for the 0.7% of
/// pairs whose deviation exceeds 30%.
#[derive(Debug, Clone)]
pub struct ShapedCapacity {
    high_bps: f64,
    low_bps: f64,
    period: f64,
    duty: f64,
}

impl ShapedCapacity {
    /// # Panics
    /// Panics unless `0 < duty < 1`, `period > 0`, and rates are
    /// non-negative with `low <= high`.
    pub fn new(high_bps: f64, low_bps: f64, period_secs: f64, duty: f64) -> Self {
        assert!(high_bps >= low_bps && low_bps >= 0.0);
        assert!(period_secs > 0.0);
        assert!(duty > 0.0 && duty < 1.0);
        Self {
            high_bps,
            low_bps,
            period: period_secs,
            duty,
        }
    }
}

impl CapacityProcess for ShapedCapacity {
    fn capacity_at(&mut self, t: SimTime) -> f64 {
        let phase = (t.as_secs_f64() / self.period).fract();
        if phase < self.duty {
            self.high_bps
        } else {
            self.low_bps
        }
    }

    fn nominal_bps(&self) -> f64 {
        self.high_bps * self.duty + self.low_bps * (1.0 - self.duty)
    }
}

/// A radio ramp in front of a constant capacity: cellular links do not
/// grant full scheduling capacity to a fresh flow instantly — RRC state
/// promotion and the per-UE scheduler ramp take hundreds of
/// milliseconds. The wrapped capacity scales from `floor_frac` to 1.0
/// linearly over `ramp_secs`.
#[derive(Debug, Clone)]
pub struct RampUpCapacity {
    inner: ConstantCapacity,
    ramp_secs: f64,
    floor_frac: f64,
}

impl RampUpCapacity {
    /// Wrap `inner` with a linear ramp.
    ///
    /// # Panics
    /// Panics unless `ramp_secs > 0` and `0 < floor_frac <= 1`.
    pub fn new(inner: ConstantCapacity, ramp_secs: f64, floor_frac: f64) -> Self {
        assert!(ramp_secs > 0.0);
        assert!(floor_frac > 0.0 && floor_frac <= 1.0);
        Self {
            inner,
            ramp_secs,
            floor_frac,
        }
    }
}

impl CapacityProcess for RampUpCapacity {
    fn capacity_at(&mut self, t: SimTime) -> f64 {
        let frac = (t.as_secs_f64() / self.ramp_secs).min(1.0);
        let scale = self.floor_frac + (1.0 - self.floor_frac) * frac;
        self.inner.capacity_at(t) * scale
    }

    fn nominal_bps(&self) -> f64 {
        self.inner.nominal_bps()
    }
}

/// Every capacity process a path can carry, held by value and
/// dispatched with a `match`. Each process converts into it with
/// `.into()`.
#[derive(Debug, Clone)]
pub enum Capacity {
    /// [`ConstantCapacity`].
    Constant(ConstantCapacity),
    /// [`OuCapacity`].
    Ou(OuCapacity),
    /// [`ShapedCapacity`].
    Shaped(ShapedCapacity),
    /// [`RampUpCapacity`].
    RampUp(RampUpCapacity),
}

impl CapacityProcess for Capacity {
    fn capacity_at(&mut self, t: SimTime) -> f64 {
        match self {
            Capacity::Constant(c) => c.capacity_at(t),
            Capacity::Ou(c) => c.capacity_at(t),
            Capacity::Shaped(c) => c.capacity_at(t),
            Capacity::RampUp(c) => c.capacity_at(t),
        }
    }

    fn nominal_bps(&self) -> f64 {
        match self {
            Capacity::Constant(c) => c.nominal_bps(),
            Capacity::Ou(c) => c.nominal_bps(),
            Capacity::Shaped(c) => c.nominal_bps(),
            Capacity::RampUp(c) => c.nominal_bps(),
        }
    }
}

impl From<ConstantCapacity> for Capacity {
    fn from(c: ConstantCapacity) -> Self {
        Capacity::Constant(c)
    }
}

impl From<OuCapacity> for Capacity {
    fn from(c: OuCapacity) -> Self {
        Capacity::Ou(c)
    }
}

impl From<ShapedCapacity> for Capacity {
    fn from(c: ShapedCapacity) -> Self {
        Capacity::Shaped(c)
    }
}

impl From<RampUpCapacity> for Capacity {
    fn from(c: RampUpCapacity) -> Self {
        Capacity::RampUp(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_scales_from_floor_to_full() {
        let mut c = RampUpCapacity::new(ConstantCapacity(100e6), 1.0, 0.2);
        assert!((c.capacity_at(SimTime::ZERO) - 20e6).abs() < 1e-6);
        assert!((c.capacity_at(SimTime::from_millis(500)) - 60e6).abs() < 1e-6);
        assert!((c.capacity_at(SimTime::from_secs(1)) - 100e6).abs() < 1e-6);
        assert!((c.capacity_at(SimTime::from_secs(10)) - 100e6).abs() < 1e-6);
        assert_eq!(c.nominal_bps(), 100e6);
    }

    #[test]
    fn constant_is_constant() {
        let mut c = ConstantCapacity(5e6);
        assert_eq!(c.capacity_at(SimTime::ZERO), 5e6);
        assert_eq!(c.capacity_at(SimTime::from_secs(100)), 5e6);
    }

    #[test]
    fn constant_clamps_negative() {
        let mut c = ConstantCapacity(-1.0);
        assert_eq!(c.capacity_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn ou_stays_in_bounds_and_reverts() {
        let mut c = OuCapacity::new(100e6, 0.8, 0.15, 42);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let cap = c.capacity_at(SimTime::from_millis(i * 50));
            assert!((30e6 - 1.0..=130e6 + 1.0).contains(&cap), "cap {cap}");
            sum += cap;
        }
        let mean = sum / n as f64;
        // Long-run mean near nominal.
        assert!((mean - 100e6).abs() / 100e6 < 0.1, "mean {mean}");
    }

    #[test]
    fn ou_is_deterministic_per_seed() {
        let mut a = OuCapacity::new(100e6, 0.8, 0.15, 7);
        let mut b = OuCapacity::new(100e6, 0.8, 0.15, 7);
        for i in 0..100 {
            let t = SimTime::from_millis(i * 13);
            assert_eq!(a.capacity_at(t), b.capacity_at(t));
        }
    }

    #[test]
    fn ou_actually_fluctuates() {
        let mut c = OuCapacity::new(100e6, 0.8, 0.15, 3);
        let caps: Vec<f64> = (0..100)
            .map(|i| c.capacity_at(SimTime::from_millis(i * 100)))
            .collect();
        let distinct = caps.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > 50);
    }

    #[test]
    fn shaped_alternates_and_averages() {
        let mut s = ShapedCapacity::new(100e6, 20e6, 2.0, 0.5);
        assert_eq!(s.capacity_at(SimTime::from_millis(500)), 100e6);
        assert_eq!(s.capacity_at(SimTime::from_millis(1500)), 20e6);
        assert_eq!(s.nominal_bps(), 60e6);
    }
}
