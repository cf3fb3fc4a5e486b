//! Figures 13–15: WiFi bandwidth by standard and radio band.
//!
//! The headline (Fig 13) is the generational ladder 59 → 208 → 345 Mbps;
//! the insight (Figs 14–15) is that WiFi 4 and WiFi 5 are nearly equal
//! *over 5 GHz* (195 vs 208 Mbps) — the generation gap in the aggregate
//! comes from WiFi 4 users sitting on 2.4 GHz, and the remaining gap to
//! advertised speeds comes from the wired plans behind the APs.

use crate::accum::FigureAccumulator;
use crate::summary::{decode_count_usize, BinnedCdf, MergeDecode, Sample};
use crate::Render;
use mbw_dataset::{TestRecord, WifiStandard};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use std::fmt::Write as _;

/// One CDF per WiFi standard (Figs 13, 14, 15 are this over different
/// radio-band filters).
#[derive(Debug, Clone)]
pub struct WifiCdfFigure {
    /// Figure title.
    pub title: &'static str,
    /// `(standard, cdf)` for the standards present in the filter.
    pub series: Vec<(WifiStandard, CdfSummary)>,
}

/// CDF + annotations for one standard.
#[derive(Debug, Clone)]
pub struct CdfSummary {
    /// The binned CDF (exact count, mean, min and max).
    pub ecdf: BinnedCdf,
    /// Mean, Mbps.
    pub mean: f64,
    /// Median, Mbps.
    pub median: f64,
    /// Max, Mbps.
    pub max: f64,
    /// Share of this standard among the figure's tests.
    pub share: f64,
}

/// Stable index of a standard in [`WifiStandard::ALL`] order.
fn standard_index(standard: WifiStandard) -> usize {
    match standard {
        WifiStandard::Wifi4 => 0,
        WifiStandard::Wifi5 => 1,
        WifiStandard::Wifi6 => 2,
    }
}

/// Accumulator behind Figs 13–15 — per-standard bandwidth
/// distributions over one radio-band filter.
#[derive(Debug, Clone)]
pub struct WifiAcc {
    title: &'static str,
    /// `Some(true)` = 5 GHz only, `Some(false)` = 2.4 GHz only.
    band_filter: Option<bool>,
    /// WiFi tests matching the band filter, any standard.
    total: usize,
    per_std: [BinnedCdf; WifiStandard::ALL.len()],
}

impl WifiAcc {
    fn new(title: &'static str, band_filter: Option<bool>) -> Self {
        Self {
            title,
            band_filter,
            total: 0,
            per_std: Default::default(),
        }
    }

    /// Fig 13: all WiFi tests, per standard.
    pub fn fig13() -> Self {
        Self::new("Fig 13: WiFi bandwidth distribution (all bands)", None)
    }

    /// Fig 14: the 2.4 GHz subset (WiFi 4 and 6 only).
    pub fn fig14() -> Self {
        Self::new("Fig 14: WiFi bandwidth distribution (2.4 GHz)", Some(false))
    }

    /// Fig 15: the 5 GHz subset.
    pub fn fig15() -> Self {
        Self::new("Fig 15: WiFi bandwidth distribution (5 GHz)", Some(true))
    }

    /// This figure's accumulator with every stratum spanning the whole
    /// grid from the start ([`BinnedCdf::full_grid`]).
    pub(crate) fn full_grid(self) -> Self {
        Self {
            per_std: std::array::from_fn(|_| BinnedCdf::full_grid()),
            ..self
        }
    }

    /// Which of Figs 13–15 this is, as the encoding tags it.
    fn tag(&self) -> u8 {
        match self.band_filter {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        }
    }

    /// Fold in the encoded fields after the tag.
    fn merge_fields(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.total += decode_count_usize(dec, "wifi tests in band")?;
        self.per_std.merge_decoded(dec)
    }
}

impl FigureAccumulator<TestRecord> for WifiAcc {
    type Output = WifiCdfFigure;

    fn observe(&mut self, r: &TestRecord) {
        let Some(w) = r.wifi() else { return };
        if self.band_filter.is_some_and(|g5| w.on_5ghz != g5) {
            return;
        }
        self.total += 1;
        self.per_std[standard_index(w.standard)].push(Sample::new(r.bandwidth_mbps));
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for (a, b) in self.per_std.iter_mut().zip(&other.per_std) {
            a.merge(b);
        }
    }

    /// A sibling of another of Figs 13–15 is refused by its tag.
    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let tag = dec.u8()?;
        if tag != self.tag() {
            return Err(CodecError::BadTag {
                what: "wifi figure",
                tag: u64::from(tag),
            });
        }
        self.merge_fields(dec)
    }

    fn finish(self) -> WifiCdfFigure {
        let mut series = Vec::new();
        for (std, ecdf) in WifiStandard::ALL.into_iter().zip(self.per_std) {
            if self.band_filter == Some(false) && !std.supports_24ghz() {
                continue; // WiFi 5 has no 2.4 GHz presence
            }
            if ecdf.is_empty() {
                continue;
            }
            series.push((
                std,
                CdfSummary {
                    mean: ecdf.mean(),
                    median: ecdf.median(),
                    max: ecdf.max(),
                    share: ecdf.len() as f64 / self.total.max(1) as f64,
                    ecdf,
                },
            ));
        }
        WifiCdfFigure {
            title: self.title,
            series,
        }
    }
}

impl Codec for WifiAcc {
    fn encode(&self, enc: &mut Enc) {
        // The title/filter pair is structural — which of Figs 13–15 the
        // accumulator is — so it travels as a tag, not as data.
        enc.put_u8(self.tag());
        enc.put_usize(self.total);
        self.per_std.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acc = match dec.u8()? {
            0 => WifiAcc::fig13(),
            1 => WifiAcc::fig14(),
            2 => WifiAcc::fig15(),
            tag => {
                return Err(CodecError::BadTag {
                    what: "wifi figure",
                    tag: u64::from(tag),
                })
            }
        };
        acc.merge_fields(dec)?;
        Ok(acc)
    }
}

impl WifiCdfFigure {
    /// Summary for one standard, if present.
    pub fn of(&self, std: WifiStandard) -> Option<&CdfSummary> {
        self.series.iter().find(|(s, _)| *s == std).map(|(_, c)| c)
    }
}

impl Render for WifiCdfFigure {
    fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>9}",
            "std", "mean", "median", "max", "share%", "tests"
        );
        for (std, c) in &self.series {
            let _ = writeln!(
                out,
                "{:<8} {:>8.1} {:>8.1} {:>8.0} {:>8.1} {:>9}",
                std.name(),
                c.mean,
                c.median,
                c.max,
                c.share * 100.0,
                c.ecdf.len()
            );
        }
        out
    }
}

/// Accumulator behind §3.4's wired-bottleneck statistic: share of WiFi
/// users on plans ≤ 200 Mbps, overall and for WiFi 6 —
/// order-independent counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlowPlanAcc {
    wifi_total: usize,
    slow: usize,
    w6_total: usize,
    w6_slow: usize,
}

impl SlowPlanAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for SlowPlanAcc {
    type Output = (f64, f64);

    fn observe(&mut self, r: &TestRecord) {
        let Some(w) = r.wifi() else { return };
        let slow = w.plan_mbps <= 200.0;
        self.wifi_total += 1;
        self.slow += slow as usize;
        if w.standard == WifiStandard::Wifi6 {
            self.w6_total += 1;
            self.w6_slow += slow as usize;
        }
    }

    fn merge(&mut self, other: Self) {
        self.wifi_total += other.wifi_total;
        self.slow += other.slow;
        self.w6_total += other.w6_total;
        self.w6_slow += other.w6_slow;
    }

    fn finish(self) -> (f64, f64) {
        (
            self.slow as f64 / self.wifi_total.max(1) as f64,
            self.w6_slow as f64 / self.w6_total.max(1) as f64,
        )
    }
}

impl Codec for SlowPlanAcc {
    fn encode(&self, enc: &mut Enc) {
        enc.put_usize(self.wifi_total);
        enc.put_usize(self.slow);
        enc.put_usize(self.w6_total);
        enc.put_usize(self.w6_slow);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut count = || decode_count_usize(dec, "slow-plan count");
        Ok(Self {
            wifi_total: count()?,
            slow: count()?,
            w6_total: count()?,
            w6_slow: count()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum;
    use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};

    fn y2021(tests: usize, seed: u64) -> Vec<TestRecord> {
        Generator::new(DatasetConfig {
            seed,
            tests,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn fig13_generational_ladder() {
        let records = y2021(400_000, 301);
        let fig = accum::run(WifiAcc::fig13(), &records);
        let m4 = fig.of(WifiStandard::Wifi4).unwrap().mean;
        let m5 = fig.of(WifiStandard::Wifi5).unwrap().mean;
        let m6 = fig.of(WifiStandard::Wifi6).unwrap().mean;
        assert!((m4 - 59.0).abs() < 12.0, "W4 {m4}");
        assert!((m5 - 208.0).abs() < 28.0, "W5 {m5}");
        assert!((m6 - 345.0).abs() < 45.0, "W6 {m6}");
        // Standard shares 57.2 / 31.3 / 11.5%.
        let s4 = fig.of(WifiStandard::Wifi4).unwrap().share;
        assert!((s4 - 0.572).abs() < 0.02, "share {s4}");
    }

    #[test]
    fn fig14_24ghz_subset() {
        let records = y2021(400_000, 303);
        let fig = accum::run(WifiAcc::fig14(), &records);
        assert!(
            fig.of(WifiStandard::Wifi5).is_none(),
            "WiFi 5 has no 2.4 GHz"
        );
        let m4 = fig.of(WifiStandard::Wifi4).unwrap().mean;
        let m6 = fig.of(WifiStandard::Wifi6).unwrap().mean;
        assert!((m4 - 39.0).abs() < 8.0, "W4@2.4 {m4}");
        assert!((m6 - 83.0).abs() < 20.0, "W6@2.4 {m6}");
    }

    #[test]
    fn fig15_wifi4_nearly_matches_wifi5_on_5ghz() {
        let records = y2021(500_000, 307);
        let fig = accum::run(WifiAcc::fig15(), &records);
        let m4 = fig.of(WifiStandard::Wifi4).unwrap().mean;
        let m5 = fig.of(WifiStandard::Wifi5).unwrap().mean;
        let m6 = fig.of(WifiStandard::Wifi6).unwrap().mean;
        // §3.4: "fairly close over the 5 GHz band — 195 vs 208 Mbps".
        assert!((m4 - 195.0).abs() < 30.0, "W4@5 {m4}");
        assert!((m5 - 208.0).abs() < 28.0, "W5@5 {m5}");
        assert!(
            (m4 - m5).abs() / m5 < 0.18,
            "W4≈W5 over 5 GHz: {m4} vs {m5}"
        );
        assert!((m6 - 351.0).abs() < 50.0, "W6@5 {m6}");
    }

    #[test]
    fn slow_plans_dominate_except_wifi6() {
        let records = y2021(300_000, 311);
        let (overall, w6) = accum::run(SlowPlanAcc::new(), &records);
        assert!((overall - 0.64).abs() < 0.06, "overall {overall}");
        assert!((w6 - 0.39).abs() < 0.06, "wifi6 {w6}");
    }

    #[test]
    fn standard_index_matches_all_order() {
        for (i, &standard) in WifiStandard::ALL.iter().enumerate() {
            assert_eq!(standard_index(standard), i);
        }
    }

    #[test]
    fn merged_halves_match_single_pass() {
        let records = y2021(80_000, 317);
        let (a, b) = records.split_at(records.len() / 2);
        for make in [WifiAcc::fig13, WifiAcc::fig14, WifiAcc::fig15] {
            let mut left = make();
            let mut right = make();
            for r in a {
                left.observe(r);
            }
            for r in b {
                right.observe(r);
            }
            left.merge(right);
            let merged = left.finish();
            let single = accum::run(make(), &records);
            assert_eq!(merged.series.len(), single.series.len());
            for ((s1, c1), (s2, c2)) in merged.series.iter().zip(&single.series) {
                assert_eq!(s1, s2);
                assert_eq!(c1.mean, c2.mean);
                assert_eq!(c1.median, c2.median);
                assert_eq!(c1.share, c2.share);
            }
        }
    }

    #[test]
    fn decode_rejects_counts_above_the_bound() {
        // `merge` adds these totals: bounded where the bytes come in.
        let mut bytes = WifiAcc::fig14().to_bytes();
        assert!(WifiAcc::from_bytes(&bytes).is_ok());
        bytes[1..9].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            WifiAcc::from_bytes(&bytes),
            Err(CodecError::BadLen { .. })
        ));
        for field in 0..4 {
            let mut bytes = SlowPlanAcc::new().to_bytes();
            bytes[8 * field..8 * field + 8].copy_from_slice(&u64::MAX.to_be_bytes());
            assert!(
                matches!(
                    SlowPlanAcc::from_bytes(&bytes),
                    Err(CodecError::BadLen { .. })
                ),
                "slow-plan field {field}"
            );
        }
    }

    #[test]
    fn render_lists_all_standards() {
        let records = y2021(60_000, 313);
        let text = accum::run(WifiAcc::fig13(), &records).render();
        for std in WifiStandard::ALL {
            assert!(text.contains(std.name()), "{text}");
        }
    }
}
