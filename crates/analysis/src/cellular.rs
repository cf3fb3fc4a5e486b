//! Figures 4–12: the cellular deep dive.
//!
//! 4G: bandwidth CDF (Fig 4), per-LTE-band means (Fig 5) and test counts
//! (Fig 6). 5G: bandwidth CDF (Fig 7), per-NR-band means (Fig 8) and
//! counts (Fig 9), the diurnal pattern (Fig 10), and the RSS analyses
//! (Figs 11–12) including the counter-intuitive level-5 dip.

use crate::accum::FigureAccumulator;
use crate::summary::{decode_count, BinnedCdf, Mean, MergeDecode, Sample};
use crate::Render;
use mbw_dataset::bands;
use mbw_dataset::{AccessTech, LteBandId, NrBandId, TestRecord};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use std::fmt::Write as _;

/// A CDF figure with the paper's annotations (Figs 4 and 7).
#[derive(Debug, Clone)]
pub struct CdfFigure {
    /// Which figure this is, for rendering.
    pub title: &'static str,
    /// The binned CDF (exact count, mean, min and max).
    pub ecdf: BinnedCdf,
    /// Annotated mean.
    pub mean: f64,
    /// Annotated median.
    pub median: f64,
    /// Annotated max.
    pub max: f64,
}

impl CdfFigure {
    fn new(title: &'static str, ecdf: BinnedCdf) -> Self {
        Self {
            title,
            mean: ecdf.mean(),
            median: ecdf.median(),
            max: ecdf.max(),
            ecdf,
        }
    }
}

impl Render for CdfFigure {
    fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        let _ = writeln!(
            out,
            "median = {:.0}  mean = {:.0}  max = {:.0}  (n = {})",
            self.median,
            self.mean,
            self.max,
            self.ecdf.len()
        );
        for (x, f) in self.ecdf.series(20) {
            let _ = writeln!(out, "{:>8.1} Mbps  CDF {:>6.3}", x, f);
        }
        out
    }
}

/// Fig 4: 4G bandwidth distribution, with the §3.2 tail fractions.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// The CDF with annotations.
    pub cdf: CdfFigure,
    /// Fraction of tests below 10 Mbps (paper: 26.3%).
    pub below_10: f64,
    /// Fraction of tests above 300 Mbps (paper: 6.8%).
    pub above_300: f64,
    /// Mean of the >300 Mbps tests (paper: 403 Mbps).
    pub mean_above_300: f64,
}

/// Accumulator behind [`Fig04`]. The two tail thresholds are known at
/// compile time, so their fractions and the fast tail's mean are exact
/// counters beside the binned CDF.
#[derive(Debug, Clone, Default)]
pub struct Fig04Acc {
    bw: BinnedCdf,
    /// Tests strictly below 10 Mbps.
    below_10: u64,
    /// Tests strictly above 300 Mbps.
    above_300: Mean,
}

impl Fig04Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh accumulator whose stratum spans the whole grid from the
    /// start ([`BinnedCdf::full_grid`]).
    pub(crate) fn full_grid() -> Self {
        Self {
            bw: BinnedCdf::full_grid(),
            ..Self::default()
        }
    }
}

impl FigureAccumulator<TestRecord> for Fig04Acc {
    type Output = Fig04;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech == AccessTech::Cellular4g {
            let bw = Sample::new(r.bandwidth_mbps);
            self.bw.push(bw);
            self.below_10 += u64::from(r.bandwidth_mbps < 10.0);
            if r.bandwidth_mbps > 300.0 {
                self.above_300.push(bw);
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.bw.merge(&other.bw);
        self.below_10 += other.below_10;
        self.above_300.merge(&other.above_300);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.bw.merge_decoded(dec)?;
        self.below_10 += decode_count(dec, "fig04 tests below 10 Mbps")?;
        self.above_300.merge_decoded(dec)
    }

    fn finish(self) -> Fig04 {
        let share = |count: usize| {
            if self.bw.is_empty() {
                0.0
            } else {
                count as f64 / self.bw.len() as f64
            }
        };
        Fig04 {
            below_10: share(self.below_10 as usize),
            above_300: share(self.above_300.len()),
            mean_above_300: self.above_300.mean(),
            cdf: CdfFigure::new("Fig 4: bandwidth distribution for 4G access", self.bw),
        }
    }
}

impl Codec for Fig04Acc {
    fn encode(&self, enc: &mut Enc) {
        self.bw.encode(enc);
        enc.put_u64(self.below_10);
        self.above_300.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acc = Self::new();
        acc.merge_decoded(dec)?;
        Ok(acc)
    }
}

impl Render for Fig04 {
    fn render(&self) -> String {
        format!(
            "{}<10 Mbps: {:.1}%   >300 Mbps: {:.1}% (mean {:.0} Mbps)\n",
            self.cdf.render(),
            self.below_10 * 100.0,
            self.above_300 * 100.0,
            self.mean_above_300
        )
    }
}

/// Figs 5–6: per-LTE-band mean bandwidth and test counts.
#[derive(Debug, Clone)]
pub struct LteBandFigure {
    /// `(band, is_h_band, mean bandwidth, test count)` in Table 1 order.
    pub rows: Vec<(LteBandId, bool, f64, usize)>,
    /// Fraction of LTE tests on H-Bands (paper: 85.6%).
    pub h_band_share: f64,
    /// Band 3's share of all LTE tests (paper: 55%).
    pub band3_share: f64,
}

/// Accumulator behind [`LteBandFigure`] — one stratum per Table 1 band.
#[derive(Debug, Clone, Default)]
pub struct LteBandAcc {
    per_band: [Mean; bands::LTE_BANDS.len()],
}

impl LteBandAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for LteBandAcc {
    type Output = LteBandFigure;

    fn observe(&mut self, r: &TestRecord) {
        let Some(id) = r.lte_band() else { return };
        if let Some(i) = bands::LTE_BANDS.iter().position(|b| b.id == id) {
            self.per_band[i].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.per_band.iter_mut().zip(&other.per_band) {
            a.merge(b);
        }
    }

    fn finish(self) -> LteBandFigure {
        let mut rows = Vec::new();
        let mut total = 0usize;
        let mut h_count = 0usize;
        let mut b3_count = 0usize;
        for (info, bw) in bands::LTE_BANDS.iter().zip(&self.per_band) {
            total += bw.len();
            if info.is_h_band() {
                h_count += bw.len();
            }
            if info.id == LteBandId::B3 {
                b3_count = bw.len();
            }
            rows.push((info.id, info.is_h_band(), bw.mean(), bw.len()));
        }
        LteBandFigure {
            rows,
            h_band_share: if total == 0 {
                0.0
            } else {
                h_count as f64 / total as f64
            },
            band3_share: if total == 0 {
                0.0
            } else {
                b3_count as f64 / total as f64
            },
        }
    }
}

impl Codec for LteBandAcc {
    fn encode(&self, enc: &mut Enc) {
        self.per_band.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            per_band: Codec::decode(dec)?,
        })
    }
}

impl Render for LteBandFigure {
    fn render(&self) -> String {
        let mut out = String::from("Figs 5-6: LTE bands - mean bandwidth and test counts\n");
        let _ = writeln!(
            out,
            "{:<6} {:<7} {:>10} {:>10}",
            "band", "class", "mean Mbps", "tests"
        );
        for (band, h, m, n) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:<7} {:>10.1} {:>10}",
                band.name(),
                if *h { "H-Band" } else { "L-Band" },
                m,
                n
            );
        }
        let _ = writeln!(
            out,
            "H-Band share: {:.1}%   Band-3 share: {:.1}%",
            self.h_band_share * 100.0,
            self.band3_share * 100.0
        );
        out
    }
}

/// Accumulator behind [`CdfFigure`] — the 5G bandwidth CDF.
#[derive(Debug, Clone, Default)]
pub struct Fig07Acc {
    bw: BinnedCdf,
}

impl Fig07Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh accumulator whose stratum spans the whole grid from the
    /// start ([`BinnedCdf::full_grid`]).
    pub(crate) fn full_grid() -> Self {
        Self {
            bw: BinnedCdf::full_grid(),
        }
    }
}

impl FigureAccumulator<TestRecord> for Fig07Acc {
    type Output = CdfFigure;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech == AccessTech::Cellular5g {
            self.bw.push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        self.bw.merge(&other.bw);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.bw.merge_decoded(dec)
    }

    fn finish(self) -> CdfFigure {
        CdfFigure::new("Fig 7: bandwidth distribution for 5G access", self.bw)
    }
}

impl Codec for Fig07Acc {
    fn encode(&self, enc: &mut Enc) {
        self.bw.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acc = Self::new();
        acc.merge_decoded(dec)?;
        Ok(acc)
    }
}

/// Figs 8–9: per-NR-band mean bandwidth and test counts.
#[derive(Debug, Clone)]
pub struct NrBandFigure {
    /// `(band, refarmed, mean bandwidth, test count)` in Table 2 order.
    pub rows: Vec<(NrBandId, bool, f64, usize)>,
}

/// Accumulator behind [`NrBandFigure`] — one stratum per Table 2 band.
/// N79 rows remain (the paper keeps the bar but excludes it from
/// analysis — three tests total).
#[derive(Debug, Clone, Default)]
pub struct NrBandAcc {
    per_band: [Mean; bands::NR_BANDS.len()],
}

impl NrBandAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for NrBandAcc {
    type Output = NrBandFigure;

    fn observe(&mut self, r: &TestRecord) {
        let Some(id) = r.nr_band() else { return };
        if let Some(i) = bands::NR_BANDS.iter().position(|b| b.id == id) {
            self.per_band[i].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.per_band.iter_mut().zip(&other.per_band) {
            a.merge(b);
        }
    }

    fn finish(self) -> NrBandFigure {
        let rows = bands::NR_BANDS
            .iter()
            .zip(&self.per_band)
            .map(|(info, bw)| (info.id, info.refarmed_from.is_some(), bw.mean(), bw.len()))
            .collect();
        NrBandFigure { rows }
    }
}

impl Codec for NrBandAcc {
    fn encode(&self, enc: &mut Enc) {
        self.per_band.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            per_band: Codec::decode(dec)?,
        })
    }
}

impl Render for NrBandFigure {
    fn render(&self) -> String {
        let mut out = String::from("Figs 8-9: NR bands - mean bandwidth and test counts\n");
        let _ = writeln!(
            out,
            "{:<6} {:<10} {:>10} {:>10}",
            "band", "origin", "mean Mbps", "tests"
        );
        for (band, refarmed, m, n) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:<10} {:>10.1} {:>10}",
                band.name(),
                if *refarmed { "refarmed" } else { "dedicated" },
                m,
                n
            );
        }
        out
    }
}

/// Fig 10: 5G tests and mean bandwidth per hour of day.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// `(hour, test count, mean bandwidth)` for hours 0–23.
    pub rows: Vec<(u8, usize, f64)>,
}

/// Accumulator behind [`Fig10`] — one 5G stratum per hour of day.
#[derive(Debug, Clone, Default)]
pub struct Fig10Acc {
    hours: [Mean; 24],
}

impl Fig10Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for Fig10Acc {
    type Output = Fig10;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech == AccessTech::Cellular5g && (r.hour as usize) < 24 {
            self.hours[r.hour as usize].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.hours.iter_mut().zip(&other.hours) {
            a.merge(b);
        }
    }

    fn finish(self) -> Fig10 {
        let rows = self
            .hours
            .iter()
            .enumerate()
            .map(|(h, bw)| (h as u8, bw.len(), bw.mean()))
            .collect();
        Fig10 { rows }
    }
}

impl Codec for Fig10Acc {
    fn encode(&self, enc: &mut Enc) {
        self.hours.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            hours: Codec::decode(dec)?,
        })
    }
}

impl Fig10 {
    /// Mean bandwidth over an inclusive hour window.
    pub fn mean_over(&self, from: u8, to: u8) -> f64 {
        let rows: Vec<&(u8, usize, f64)> = self
            .rows
            .iter()
            .filter(|(h, n, _)| *h >= from && *h <= to && *n > 0)
            .collect();
        if rows.is_empty() {
            return 0.0;
        }
        let total: usize = rows.iter().map(|(_, n, _)| n).sum();
        rows.iter().map(|(_, n, m)| m * *n as f64).sum::<f64>() / total as f64
    }

    /// Test volume over an inclusive hour window.
    pub fn tests_over(&self, from: u8, to: u8) -> usize {
        self.rows
            .iter()
            .filter(|(h, _, _)| *h >= from && *h <= to)
            .map(|(_, n, _)| n)
            .sum()
    }
}

impl Render for Fig10 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 10: 5G tests and mean bandwidth by hour\n");
        let _ = writeln!(out, "{:<5} {:>8} {:>10}", "hour", "tests", "mean Mbps");
        for (h, n, m) in &self.rows {
            let _ = writeln!(out, "{:<5} {:>8} {:>10.1}", h, n, m);
        }
        out
    }
}

/// Figs 11–12: RSS level vs SNR and vs 5G bandwidth.
#[derive(Debug, Clone)]
pub struct RssFigure {
    /// `(rss level, mean SNR dB, mean 5G bandwidth, median 5G bandwidth)`.
    pub rows: Vec<(u8, f64, f64, f64)>,
}

/// Accumulator behind [`RssFigure`] — per-RSS-level SNR means and
/// bandwidth distributions over the 5G population.
#[derive(Debug, Clone, Default)]
pub struct RssAcc {
    snr: [Mean; 5],
    bw: [BinnedCdf; 5],
}

impl RssAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh accumulator whose strata span the whole grid from the start
    /// ([`BinnedCdf::full_grid`]).
    pub(crate) fn full_grid() -> Self {
        Self {
            bw: std::array::from_fn(|_| BinnedCdf::full_grid()),
            ..Self::default()
        }
    }
}

impl FigureAccumulator<TestRecord> for RssAcc {
    type Output = RssFigure;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech != AccessTech::Cellular5g {
            return;
        }
        let Some(cell) = r.cell() else { return };
        if (1..=5).contains(&cell.rss_level) {
            let i = (cell.rss_level - 1) as usize;
            self.snr[i].push(Sample::new(cell.snr_db));
            self.bw[i].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.snr.iter_mut().zip(&other.snr) {
            a.merge(b);
        }
        for (a, b) in self.bw.iter_mut().zip(&other.bw) {
            a.merge(b);
        }
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.snr.merge_decoded(dec)?;
        self.bw.merge_decoded(dec)
    }

    fn finish(self) -> RssFigure {
        let rows = (0..5)
            .map(|i| {
                (
                    i as u8 + 1,
                    self.snr[i].mean(),
                    self.bw[i].mean(),
                    self.bw[i].median(),
                )
            })
            .collect();
        RssFigure { rows }
    }
}

impl Codec for RssAcc {
    fn encode(&self, enc: &mut Enc) {
        self.snr.encode(enc);
        self.bw.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acc = Self::new();
        acc.merge_decoded(dec)?;
        Ok(acc)
    }
}

impl Render for RssFigure {
    fn render(&self) -> String {
        let mut out = String::from("Figs 11-12: 5G RSS level vs SNR and bandwidth\n");
        let _ = writeln!(
            out,
            "{:<5} {:>10} {:>12} {:>12}",
            "RSS", "SNR dB", "mean Mbps", "median Mbps"
        );
        for (lvl, snr, m, md) in &self.rows {
            let _ = writeln!(out, "{:<5} {:>10.1} {:>12.1} {:>12.1}", lvl, snr, m, md);
        }
        out
    }
}

/// Accumulator behind the 4G RSS cross-check (§3.3: unlike 5G, RSS and
/// 4G bandwidth stay positively correlated) — per-RSS-level bandwidth
/// over plain (non-LTE-A) 4G tests.
#[derive(Debug, Clone, Default)]
pub struct LteRssAcc {
    bw: [Mean; 5],
}

impl LteRssAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for LteRssAcc {
    type Output = Vec<(u8, f64)>;

    fn observe(&mut self, r: &TestRecord) {
        if r.tech != AccessTech::Cellular4g {
            return;
        }
        let Some(cell) = r.cell() else { return };
        if cell.lte_advanced {
            return;
        }
        if (1..=5).contains(&cell.rss_level) {
            self.bw[(cell.rss_level - 1) as usize].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.bw.iter_mut().zip(&other.bw) {
            a.merge(b);
        }
    }

    fn finish(self) -> Vec<(u8, f64)> {
        (0..5).map(|i| (i as u8 + 1, self.bw[i].mean())).collect()
    }
}

impl Codec for LteRssAcc {
    fn encode(&self, enc: &mut Enc) {
        self.bw.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            bw: Codec::decode(dec)?,
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
    fn fig04_matches_paper_aggregates() {
        let records = y2021(400_000, 201);
        let fig = accum::run(Fig04Acc::new(), &records);
        assert!((fig.cdf.mean - 53.0).abs() < 8.0, "mean {}", fig.cdf.mean);
        assert!(
            (fig.cdf.median - 22.0).abs() < 7.0,
            "median {}",
            fig.cdf.median
        );
        assert!(fig.cdf.max <= 813.0);
        assert!(
            (fig.below_10 - 0.263).abs() < 0.07,
            "below10 {}",
            fig.below_10
        );
        assert!(
            (fig.above_300 - 0.068).abs() < 0.025,
            "above300 {}",
            fig.above_300
        );
        assert!(
            (fig.mean_above_300 - 403.0).abs() < 40.0,
            "fast mean {}",
            fig.mean_above_300
        );
    }

    #[test]
    fn fig05_06_band_structure() {
        let records = y2021(400_000, 203);
        let fig = accum::run(LteBandAcc::new(), &records);
        assert!(
            (fig.h_band_share - 0.856).abs() < 0.06,
            "H share {}",
            fig.h_band_share
        );
        assert!(
            (fig.band3_share - 0.55).abs() < 0.08,
            "B3 share {}",
            fig.band3_share
        );
        let mean_of = |id: LteBandId| fig.rows.iter().find(|(b, _, _, _)| *b == id).unwrap().2;
        // Fig 5 anchors (±35%): B3 55, B1 63, B41 58, B8 28-ish.
        assert!(
            (mean_of(LteBandId::B3) - 55.0).abs() < 12.0,
            "B3 {}",
            mean_of(LteBandId::B3)
        );
        assert!(
            (mean_of(LteBandId::B1) - 63.0).abs() < 15.0,
            "B1 {}",
            mean_of(LteBandId::B1)
        );
        assert!(
            mean_of(LteBandId::B8) < mean_of(LteBandId::B3),
            "L-band below workhorse"
        );
    }

    #[test]
    fn fig07_matches_paper() {
        let records = y2021(400_000, 207);
        let fig = accum::run(Fig07Acc::new(), &records);
        assert!((fig.mean - 303.0).abs() < 30.0, "mean {}", fig.mean);
        assert!((fig.median - 273.0).abs() < 35.0, "median {}", fig.median);
        assert!(fig.max <= 1032.0);
    }

    #[test]
    fn fig08_09_refarmed_band_discrepancy() {
        let records = y2021(600_000, 209);
        let fig = accum::run(NrBandAcc::new(), &records);
        let row = |id: NrBandId| *fig.rows.iter().find(|(b, _, _, _)| *b == id).unwrap();
        let (_, _, n1, n1_count) = row(NrBandId::N1);
        let (_, _, n41, n41_count) = row(NrBandId::N41);
        let (_, _, n78, n78_count) = row(NrBandId::N78);
        // Fig 8: N1 ≈ 103, N41 ≈ 312 comparable to N78 ≈ 332.
        assert!((n1 - 103.0).abs() < 20.0, "N1 {n1}");
        assert!((n41 - 312.0).abs() < 35.0, "N41 {n41}");
        assert!((n78 - 332.0).abs() < 35.0, "N78 {n78}");
        assert!((n41 - n78).abs() / n78 < 0.15, "N41 comparable to N78");
        // Fig 9: N78 busiest, N79 nearly absent.
        assert!(n78_count > n41_count && n41_count > n1_count);
        let (_, _, _, n79_count) = row(NrBandId::N79);
        assert!(n79_count < records.len() / 2000, "N79 {n79_count}");
    }

    #[test]
    fn fig10_diurnal_shape() {
        let records = y2021(800_000, 211);
        let fig = accum::run(Fig10Acc::new(), &records);
        // Trough at 21:00–23:00 despite modest load; peak 03:00–05:00.
        let trough = fig.mean_over(21, 22);
        let peak = fig.mean_over(3, 4);
        let afternoon = fig.mean_over(15, 16);
        assert!(
            trough < afternoon,
            "trough {trough} vs afternoon {afternoon}"
        );
        assert!(peak > afternoon, "peak {peak} vs afternoon {afternoon}");
        // Volume: 15–17 h has ~25% more tests than 21–23 h.
        let v_pm = fig.tests_over(15, 16) as f64;
        let v_night = fig.tests_over(21, 22) as f64;
        assert!(
            (v_pm / v_night - 1.25).abs() < 0.2,
            "volume ratio {}",
            v_pm / v_night
        );
    }

    #[test]
    fn fig11_12_rss_story() {
        let records = y2021(800_000, 213);
        let fig = accum::run(RssAcc::new(), &records);
        // Fig 11: SNR monotone in RSS.
        for w in fig.rows.windows(2) {
            assert!(w[1].1 > w[0].1, "SNR must rise with RSS");
        }
        // Fig 12: bandwidth rises level 1→4, then dips at level 5 below
        // levels 3 and 4 — for both mean and median.
        let bw: Vec<f64> = fig.rows.iter().map(|r| r.2).collect();
        assert!(bw[0] < bw[1] && bw[1] < bw[2] && bw[2] < bw[3], "{bw:?}");
        assert!(bw[4] < bw[3] && bw[4] < bw[2], "level-5 dip: {bw:?}");
        let md: Vec<f64> = fig.rows.iter().map(|r| r.3).collect();
        assert!(md[4] < md[3], "median dip: {md:?}");
        // Fig 12 anchors (loose: the stratum means shift with the overall
        // calibration; the monotone-then-dip *shape* above is the strict
        // check): level 1 ≈ 204, level 4 ≈ 314.
        assert!((bw[0] - 204.0).abs() < 45.0, "level1 {}", bw[0]);
        assert!((bw[3] - 314.0).abs() < 70.0, "level4 {}", bw[3]);
        // Relative rise level 1 → 4 matches Fig 12's ≈1.54× within 20%.
        let rise = bw[3] / bw[0];
        assert!((rise - 1.54).abs() < 0.31, "rise {rise}");
    }

    #[test]
    fn lte_rss_stays_monotone() {
        let records = y2021(600_000, 217);
        let rows = accum::run(LteRssAcc::new(), &records);
        for w in rows.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "4G RSS-bandwidth must stay positive: {rows:?}"
            );
        }
    }

    #[test]
    fn split_and_merge_matches_single_pass() {
        let records = y2021(60_000, 221);
        let (a, b) = records.split_at(records.len() / 3);
        fn halves<A, O>(acc: A, a: &[TestRecord], b: &[TestRecord]) -> O
        where
            A: FigureAccumulator<TestRecord, Output = O> + Clone,
        {
            let mut left = acc.clone();
            let mut right = acc;
            for r in a {
                left.observe(r);
            }
            for r in b {
                right.observe(r);
            }
            left.merge(right);
            left.finish()
        }
        let merged = halves(LteBandAcc::new(), a, b);
        let single = accum::run(LteBandAcc::new(), &records);
        assert_eq!(merged.rows, single.rows);
        let merged = halves(RssAcc::new(), a, b);
        let single = accum::run(RssAcc::new(), &records);
        assert_eq!(merged.rows, single.rows);
        let merged = halves(Fig10Acc::new(), a, b);
        let single = accum::run(Fig10Acc::new(), &records);
        assert_eq!(merged.rows, single.rows);
    }

    #[test]
    fn renders_contain_key_rows() {
        let records = y2021(50_000, 219);
        assert!(accum::run(Fig04Acc::new(), &records)
            .render()
            .contains("300 Mbps"));
        assert!(accum::run(LteBandAcc::new(), &records)
            .render()
            .contains("B3"));
        assert!(accum::run(NrBandAcc::new(), &records)
            .render()
            .contains("N78"));
        assert!(
            accum::run(Fig10Acc::new(), &records)
                .render()
                .lines()
                .count()
                >= 26
        );
        assert!(accum::run(RssAcc::new(), &records).render().contains("RSS"));
    }
}
