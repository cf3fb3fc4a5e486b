//! §3.1's "hardware illusion": mobile access bandwidth *appears*
//! positively correlated with device-hardware tier, but conditioning on
//! the Android version collapses the effect — "the standard deviation
//! for the same access technology is ≤23 Mbps". Higher-end phones are
//! faster only because they run newer OSes.

use crate::accum::FigureAccumulator;
use crate::summary::{Mean, Sample};
use crate::Render;
use mbw_dataset::{AccessTech, DeviceTier, TestRecord};
use mbw_stats::descriptive::std_dev;
use std::fmt::Write as _;

/// The hardware-vs-software decomposition for one technology.
#[derive(Debug, Clone)]
pub struct HardwareIllusion {
    /// Technology analysed.
    pub tech: AccessTech,
    /// Unconditional per-tier means `(low, mid, high)` — the "illusion".
    pub unconditional: (f64, f64, f64),
    /// For each Android version with enough data: the standard
    /// deviation of the per-tier means *within* that version.
    pub within_version_std: Vec<(u8, f64)>,
    /// The largest within-version std (paper: ≤ 23 Mbps).
    pub max_within_std: f64,
}

/// Minimum tests per (version, tier) stratum to include it.
const MIN_STRATUM: usize = 80;

/// Lowest Android version the decomposition stratifies on.
const MIN_VERSION: u8 = 5;
/// Number of Android versions (5–12) covered.
const VERSIONS: usize = 8;

/// Stable index of a tier in [`DeviceTier::ALL`] order.
fn tier_index(tier: DeviceTier) -> usize {
    match tier {
        DeviceTier::Low => 0,
        DeviceTier::Mid => 1,
        DeviceTier::High => 2,
    }
}

/// Accumulator behind [`HardwareIllusion`]: decomposes the hardware
/// effect for one technology.
#[derive(Debug, Clone)]
pub struct HardwareIllusionAcc {
    tech: AccessTech,
    /// Per-tier strata, [`DeviceTier::ALL`] order.
    tiers: [Mean; 3],
    /// `[version - 5][tier]` strata.
    strata: [[Mean; 3]; VERSIONS],
}

crate::mergeable! {
    HardwareIllusionAcc {
        // An accumulator of another technology is refused, so a part
        // whose device accumulators are out of order cannot fold one
        // technology's strata into another's.
        tech: tag("device figure technology"),
        tiers,
        strata,
    } from Self::new(AccessTech::Cellular4g)
}

impl HardwareIllusionAcc {
    /// Fresh accumulator for `tech`.
    pub fn new(tech: AccessTech) -> Self {
        Self {
            tech,
            tiers: Default::default(),
            strata: Default::default(),
        }
    }
}

impl FigureAccumulator<TestRecord> for HardwareIllusionAcc {
    type Output = HardwareIllusion;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech != self.tech {
            return;
        }
        let tier = tier_index(r.device_tier);
        let bw = Sample::new(r.bandwidth_mbps);
        self.tiers[tier].push(bw);
        if (MIN_VERSION..MIN_VERSION + VERSIONS as u8).contains(&r.android_version) {
            self.strata[(r.android_version - MIN_VERSION) as usize][tier].push(bw);
        }
    }

    fn finish(self) -> HardwareIllusion {
        let of_tier = |tier: DeviceTier| self.tiers[tier_index(tier)].mean();
        let unconditional = (
            of_tier(DeviceTier::Low),
            of_tier(DeviceTier::Mid),
            of_tier(DeviceTier::High),
        );

        let mut within = Vec::new();
        for (i, stratum) in self.strata.iter().enumerate() {
            let tier_means: Vec<f64> = DeviceTier::ALL
                .iter()
                .filter_map(|&tier| {
                    let bw = &stratum[tier_index(tier)];
                    (bw.len() >= MIN_STRATUM).then(|| bw.mean())
                })
                .collect();
            if tier_means.len() == 3 {
                within.push((MIN_VERSION + i as u8, std_dev(&tier_means)));
            }
        }
        let max_within_std = within.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        HardwareIllusion {
            tech: self.tech,
            unconditional,
            within_version_std: within,
            max_within_std,
        }
    }
}

impl Render for HardwareIllusion {
    fn render(&self) -> String {
        let (low, mid, high) = self.unconditional;
        let mut out = format!(
            "Hardware illusion, {}: unconditional tier means {:.1} / {:.1} / {:.1} Mbps\n",
            self.tech.name(),
            low,
            mid,
            high
        );
        for (v, s) in &self.within_version_std {
            let _ = writeln!(out, "  Android {v}: within-version tier std {s:.1} Mbps");
        }
        let _ = writeln!(
            out,
            "  max within-version std: {:.1} Mbps (paper: <= 23 Mbps)",
            self.max_within_std
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum;
    use crate::summary::Mergeable;
    use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};

    fn records() -> Vec<TestRecord> {
        Generator::new(DatasetConfig {
            seed: 601,
            tests: 600_000,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn high_end_devices_look_faster_unconditionally() {
        let recs = records();
        for tech in [AccessTech::Cellular5g, AccessTech::Wifi] {
            let h = accum::run(HardwareIllusionAcc::new(tech), &recs);
            let (low, _, high) = h.unconditional;
            assert!(
                high > low * 1.02,
                "{tech:?}: high {high} should look faster than low {low}"
            );
        }
    }

    #[test]
    fn conditioning_on_android_collapses_the_effect() {
        let recs = records();
        for tech in [
            AccessTech::Cellular4g,
            AccessTech::Cellular5g,
            AccessTech::Wifi,
        ] {
            let h = accum::run(HardwareIllusionAcc::new(tech), &recs);
            assert!(
                !h.within_version_std.is_empty(),
                "{tech:?}: need populated version strata"
            );
            // §3.1: "the standard deviation for the same access
            // technology is ≤ 23 Mbps".
            assert!(
                h.max_within_std <= 23.0,
                "{tech:?}: within-version std {}",
                h.max_within_std
            );
        }
    }

    #[test]
    fn tier_index_matches_all_order() {
        for (i, &tier) in DeviceTier::ALL.iter().enumerate() {
            assert_eq!(tier_index(tier), i);
        }
    }

    #[test]
    fn merged_halves_match_single_pass() {
        let recs = records();
        let recs = &recs[..120_000];
        let (a, b) = recs.split_at(recs.len() / 2);
        let mut left = HardwareIllusionAcc::new(AccessTech::Wifi);
        let mut right = HardwareIllusionAcc::new(AccessTech::Wifi);
        for r in a {
            left.observe(r);
        }
        for r in b {
            right.observe(r);
        }
        left.merge(right);
        let merged = left.finish();
        let single = accum::run(HardwareIllusionAcc::new(AccessTech::Wifi), recs);
        assert_eq!(merged.unconditional, single.unconditional);
        assert_eq!(merged.within_version_std, single.within_version_std);
    }

    #[test]
    fn render_shows_the_comparison() {
        let recs = records();
        let text = accum::run(HardwareIllusionAcc::new(AccessTech::Wifi), &recs).render();
        assert!(text.contains("unconditional"));
        assert!(text.contains("23 Mbps"));
    }
}
