//! §3.1 prose statistics: spatial disparity, urban/rural gaps, and the
//! same-user-group declines that do not get their own figure but anchor
//! the paper's narrative.

use crate::accum::{self, FigureAccumulator, TECH3};
use crate::summary::{decode_count_usize, Dense, IdBitmap, Mean, Pearson, Sample};
use crate::Render;
use mbw_dataset::{AccessTech, CityTier, Isp, RecordView};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use mbw_stats::descriptive::{mean, pearson};
use std::fmt;
use std::fmt::Write as _;

/// Per-city mean bandwidth ranges (§3.1: 4G 28–119 Mbps, 5G 113–428,
/// WiFi 83–256 across 326 cities).
#[derive(Debug, Clone)]
pub struct SpatialDisparity {
    /// `(tech, min city mean, max city mean, #cities with ≥min_n tests)`.
    pub ranges: Vec<(AccessTech, f64, f64, usize)>,
    /// Fraction of cities with unbalanced 4G/5G development (one above
    /// the national mean, the other below; paper: 41%).
    pub unbalanced_share: f64,
}

/// Minimum per-city sample size for a city to count in the ranges.
const MIN_CITY_TESTS: usize = 50;

/// Rows a decoded per-city table may claim: the whole `u16` id range.
const CITY_ROWS_CAP: usize = 1 << 16;

/// Accumulator behind [`SpatialDisparity`] — a 4G/5G/WiFi stratum per
/// city, indexed by city id, plus the national 4G/5G strata for the
/// balance baseline.
#[derive(Debug, Clone, Default)]
pub struct SpatialAcc {
    per_city: Dense<[Mean; 3]>,
    nat4: Mean,
    nat5: Mean,
}

impl SpatialAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for SpatialAcc {
    type Output = SpatialDisparity;

    fn observe(&mut self, r: &RecordView<'a>) {
        let Some(t) = accum::tech3_index(r.tech) else {
            return;
        };
        let bw = Sample::new(r.bandwidth_mbps);
        self.per_city.slot(usize::from(r.city_id))[t].push(bw);
        match r.tech {
            AccessTech::Cellular4g => self.nat4.push(bw),
            AccessTech::Cellular5g => self.nat5.push(bw),
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        self.per_city.merge_with(&other.per_city, |mine, theirs| {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b);
            }
        });
        self.nat4.merge(&other.nat4);
        self.nat5.merge(&other.nat5);
    }

    fn finish(self) -> SpatialDisparity {
        // A city's mean for one technology, if it has enough tests.
        let city_mean =
            |city: &[Mean; 3], t: usize| (city[t].len() >= MIN_CITY_TESTS).then(|| city[t].mean());
        let mut ranges = Vec::new();
        for (t, &tech) in TECH3.iter().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            let mut count = 0usize;
            for m in self.per_city.rows().iter().filter_map(|c| city_mean(c, t)) {
                lo = lo.min(m);
                hi = hi.max(m);
                count += 1;
            }
            if count == 0 {
                lo = 0.0;
            }
            ranges.push((tech, lo, hi, count));
        }

        // Unbalanced development: city above national 4G mean but below
        // national 5G mean, or vice versa.
        let nat4 = self.nat4.mean();
        let nat5 = self.nat5.mean();
        let mut both = 0usize;
        let mut unbalanced = 0usize;
        for city in self.per_city.rows() {
            if let (Some(c4), Some(c5)) = (city_mean(city, 0), city_mean(city, 1)) {
                both += 1;
                if (c4 > nat4) != (c5 > nat5) {
                    unbalanced += 1;
                }
            }
        }
        SpatialDisparity {
            ranges,
            unbalanced_share: if both == 0 {
                0.0
            } else {
                unbalanced as f64 / both as f64
            },
        }
    }
}

impl Codec for SpatialAcc {
    fn encode(&self, enc: &mut Enc) {
        self.per_city.encode(enc);
        self.nat4.encode(enc);
        self.nat5.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            per_city: Dense::decode_capped(dec, CITY_ROWS_CAP, "spatial city rows")?,
            nat4: Codec::decode(dec)?,
            nat5: Codec::decode(dec)?,
        })
    }
}

impl Render for SpatialDisparity {
    fn render(&self) -> String {
        let mut out = String::from("Spatial disparity across cities (per-city means, Mbps)\n");
        for (tech, lo, hi, n) in &self.ranges {
            let _ = writeln!(
                out,
                "{:<6} {:>7.1} – {:>7.1}  ({} cities)",
                tech.name(),
                lo,
                hi,
                n
            );
        }
        let _ = writeln!(
            out,
            "cities with unbalanced 4G/5G development: {:.0}%",
            self.unbalanced_share * 100.0
        );
        out
    }
}

/// Urban vs rural gaps (§3.1: urban 4G +24%, urban 5G +33%).
#[derive(Debug, Clone, Copy)]
pub struct UrbanRuralGap {
    /// Urban-over-rural ratio for 4G.
    pub lte_ratio: f64,
    /// Urban-over-rural ratio for 5G.
    pub nr_ratio: f64,
}

/// Accumulator behind [`UrbanRuralGap`] — the four (tech, locale)
/// strata.
#[derive(Debug, Clone, Default)]
pub struct UrbanRuralAcc {
    /// `[4G urban, 4G rural, 5G urban, 5G rural]`.
    cells: [Mean; 4],
}

impl UrbanRuralAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for UrbanRuralAcc {
    type Output = UrbanRuralGap;

    fn observe(&mut self, r: &RecordView<'a>) {
        let base = match r.tech {
            AccessTech::Cellular4g => 0,
            AccessTech::Cellular5g => 2,
            _ => return,
        };
        self.cells[base + usize::from(!r.urban)].push(Sample::new(r.bandwidth_mbps));
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b);
        }
    }

    fn finish(self) -> UrbanRuralGap {
        UrbanRuralGap {
            lte_ratio: self.cells[0].mean() / self.cells[1].mean(),
            nr_ratio: self.cells[2].mean() / self.cells[3].mean(),
        }
    }
}

impl Codec for UrbanRuralAcc {
    fn encode(&self, enc: &mut Enc) {
        self.cells.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            cells: Codec::decode(dec)?,
        })
    }
}

impl Render for UrbanRuralGap {
    fn render(&self) -> String {
        format!(
            "Urban vs rural mean bandwidth: 4G {:+.0}%  5G {:+.0}%\n",
            (self.lte_ratio - 1.0) * 100.0,
            (self.nr_ratio - 1.0) * 100.0
        )
    }
}

/// Same-user-group year-over-year decline (§3.1: 12–31% for 4G, 5–23%
/// for 5G among big-ISP mega-city user groups).
#[derive(Debug, Clone)]
pub struct SameGroupDecline {
    /// `(isp index, city id, 4G decline fraction, 5G decline fraction)`
    /// for groups with enough tests in both years.
    pub groups: Vec<(usize, u16, f64, f64)>,
}

/// Minimum per-year group size for a (ISP, city, tech) group to count.
const MIN_GROUP_TESTS: usize = 30;

/// Accumulator behind [`SameGroupDecline`]. Two-population: the 2020
/// side is folded in via [`SameGroupAcc::observe_baseline`], the 2021
/// side via the trait's `observe` (which also records which cities are
/// mega-tier — the paper fixes the city list from the current year).
#[derive(Debug, Clone, Default)]
pub struct SameGroupAcc {
    /// Mega-tier cities seen among the current year's group records
    /// (a city with none cannot reach the output).
    mega: IdBitmap,
    /// Indexed by city id: `[isp index < 3][tech index 0=4G/1=5G]` →
    /// `[2020, 2021]` bandwidth strata. Collected for every city;
    /// restricted to mega cities in `finish`.
    groups: Dense<CityGroups>,
}

/// One city's `[big ISP][4G/5G][2020/2021]` strata.
type CityGroups = [[[Mean; 2]; 2]; 3];

fn big_isp_index(isp: Isp) -> Option<usize> {
    let i = accum::isp_index(isp);
    (i < 3).then_some(i)
}

fn group_tech_index(tech: AccessTech) -> Option<usize> {
    match tech {
        AccessTech::Cellular4g => Some(0),
        AccessTech::Cellular5g => Some(1),
        _ => None,
    }
}

impl SameGroupAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one record into its group's stratum for `year` (0 = 2020,
    /// 1 = 2021) and report whether it belongs to a big-ISP cellular
    /// group at all.
    fn observe_year(&mut self, r: &RecordView<'_>, year: usize) -> bool {
        // Technology first: nine records in ten are WiFi and stop here.
        let Some(tech) = group_tech_index(r.tech) else {
            return false;
        };
        let Some(isp) = big_isp_index(r.isp) else {
            return false;
        };
        self.groups.slot(usize::from(r.city_id))[isp][tech][year]
            .push(Sample::new(r.bandwidth_mbps));
        true
    }

    /// Fold one 2020 (baseline) record in.
    pub fn observe_baseline(&mut self, r: &RecordView<'_>) {
        self.observe_year(r, 0);
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for SameGroupAcc {
    type Output = SameGroupDecline;

    fn observe(&mut self, r: &RecordView<'a>) {
        if self.observe_year(r, 1) && r.city_tier == CityTier::Mega {
            self.mega.insert(u32::from(r.city_id));
        }
    }

    fn merge(&mut self, other: Self) {
        self.mega.merge(&other.mega);
        self.groups.merge_with(&other.groups, |mine, theirs| {
            let strata = mine.iter_mut().flatten().flatten();
            for (a, b) in strata.zip(theirs.iter().flatten().flatten()) {
                a.merge(b);
            }
        });
    }

    fn finish(self) -> SameGroupDecline {
        let decline = |i: usize, city: u32, tech: usize| -> Option<f64> {
            let [y20, y21] = &self.groups.get(city as usize)?[i][tech];
            if y20.len() < MIN_GROUP_TESTS || y21.len() < MIN_GROUP_TESTS {
                return None;
            }
            Some(1.0 - y21.mean() / y20.mean())
        };
        let mut groups = Vec::new();
        for i in 0..3 {
            for city in self.mega.iter() {
                let Some(d4) = decline(i, city, 0) else {
                    continue;
                };
                let Some(d5) = decline(i, city, 1) else {
                    continue;
                };
                groups.push((i + 1, city as u16, d4, d5));
            }
        }
        SameGroupDecline { groups }
    }
}

impl Codec for SameGroupAcc {
    fn encode(&self, enc: &mut Enc) {
        self.mega.encode(enc);
        self.groups.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            mega: Codec::decode(dec)?,
            groups: Dense::decode_capped(dec, CITY_ROWS_CAP, "same-group city rows")?,
        })
    }
}

impl Render for SameGroupDecline {
    fn render(&self) -> String {
        let mut out = String::from("Same-user-group decline 2020→2021 (ISP × mega-city)\n");
        let d4: Vec<f64> = self.groups.iter().map(|g| g.2).collect();
        let d5: Vec<f64> = self.groups.iter().map(|g| g.3).collect();
        let _ = writeln!(
            out,
            "groups: {}   mean 4G decline {:.0}%   mean 5G decline {:.0}%",
            self.groups.len(),
            mean(&d4) * 100.0,
            mean(&d5) * 100.0
        );
        out
    }
}

/// §3.1's opening statistics: test counts per technology, distinct
/// infrastructure elements, ISP and city coverage.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// `(tech, test count)` in the paper's order.
    pub tech_counts: Vec<(AccessTech, usize)>,
    /// Distinct base stations observed.
    pub distinct_bs: usize,
    /// Distinct WiFi APs observed.
    pub distinct_aps: usize,
    /// Distinct cities observed.
    pub distinct_cities: usize,
    /// `(isp, share of tests)`.
    pub isp_shares: Vec<(Isp, f64)>,
}

/// Error for summary statistics requested over zero records: shares of
/// an empty population are undefined, and silently reporting 0% (the
/// old `max(1)` behaviour) hid upstream pipeline bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPopulation;

impl fmt::Display for EmptyPopulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("population is empty: summary shares are undefined over zero records")
    }
}

impl std::error::Error for EmptyPopulation {}

/// The tech order of [`DatasetSummary::tech_counts`].
const SUMMARY_TECHS: [AccessTech; 4] = [
    AccessTech::Cellular3g,
    AccessTech::Cellular4g,
    AccessTech::Cellular5g,
    AccessTech::Wifi,
];

/// Accumulator behind [`DatasetSummary`] — pure counters and id
/// bitmaps, all order-independent. The bitmaps make its memory
/// O(largest id): base-station, AP and city ids are drawn densely below
/// the profile's population sizes (559 KB + 255 KB under paper-china).
#[derive(Debug, Clone, Default)]
pub struct DatasetSummaryAcc {
    total: usize,
    tech_counts: [usize; 4],
    isp_counts: [usize; 4],
    bs: IdBitmap,
    aps: IdBitmap,
    cities: IdBitmap,
}

impl DatasetSummaryAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for DatasetSummaryAcc {
    type Output = Result<DatasetSummary, EmptyPopulation>;

    fn observe(&mut self, r: &RecordView<'a>) {
        self.total += 1;
        if let Some(i) = SUMMARY_TECHS.iter().position(|&t| t == r.tech) {
            self.tech_counts[i] += 1;
        }
        self.isp_counts[accum::isp_index(r.isp)] += 1;
        if let Some(c) = r.cell() {
            self.bs.insert(c.bs_id);
        }
        if let Some(w) = r.wifi() {
            self.aps.insert(w.ap_id);
        }
        self.cities.insert(u32::from(r.city_id));
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for (a, b) in self.tech_counts.iter_mut().zip(other.tech_counts) {
            *a += b;
        }
        for (a, b) in self.isp_counts.iter_mut().zip(other.isp_counts) {
            *a += b;
        }
        self.bs.merge(&other.bs);
        self.aps.merge(&other.aps);
        self.cities.merge(&other.cities);
    }

    fn finish(self) -> Result<DatasetSummary, EmptyPopulation> {
        if self.total == 0 {
            return Err(EmptyPopulation);
        }
        let tech_counts = SUMMARY_TECHS
            .iter()
            .zip(self.tech_counts)
            .map(|(&t, n)| (t, n))
            .collect();
        let isp_shares = Isp::ALL
            .iter()
            .zip(self.isp_counts)
            .map(|(&isp, n)| (isp, n as f64 / self.total as f64))
            .collect();
        Ok(DatasetSummary {
            tech_counts,
            distinct_bs: self.bs.len(),
            distinct_aps: self.aps.len(),
            distinct_cities: self.cities.len(),
            isp_shares,
        })
    }
}

impl Codec for DatasetSummaryAcc {
    fn encode(&self, enc: &mut Enc) {
        self.total.encode(enc);
        self.tech_counts.encode(enc);
        self.isp_counts.encode(enc);
        self.bs.encode(enc);
        self.aps.encode(enc);
        self.cities.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut counts = || decode_count_usize(dec, "dataset summary count");
        Ok(Self {
            total: counts()?,
            tech_counts: [counts()?, counts()?, counts()?, counts()?],
            isp_counts: [counts()?, counts()?, counts()?, counts()?],
            bs: Codec::decode(dec)?,
            aps: Codec::decode(dec)?,
            cities: Codec::decode(dec)?,
        })
    }
}

impl Render for DatasetSummary {
    fn render(&self) -> String {
        let mut out = String::from("Dataset summary (§3.1)\n");
        for (tech, n) in &self.tech_counts {
            let _ = writeln!(out, "  {:<5} tests: {n}", tech.name());
        }
        let _ = writeln!(
            out,
            "  distinct BSes: {}   distinct APs: {}   cities: {}",
            self.distinct_bs, self.distinct_aps, self.distinct_cities
        );
        for (isp, share) in &self.isp_shares {
            let _ = writeln!(out, "  {} share: {:.1}%", isp.name(), share * 100.0);
        }
        out
    }
}

impl Render for Result<DatasetSummary, EmptyPopulation> {
    fn render(&self) -> String {
        match self {
            Ok(summary) => summary.render(),
            Err(e) => format!("Dataset summary (§3.1)\n  error: {e}\n"),
        }
    }
}

/// Correlation summary backing the §3 prose: RSS↔SNR positive
/// everywhere; RSS↔bandwidth positive for 4G but broken at level 5 for
/// 5G; 5G hourly bandwidth anticorrelated with test volume while 4G's
/// is positively correlated.
#[derive(Debug, Clone, Copy)]
pub struct Correlations {
    /// Pearson r between RSS level and SNR over 5G tests.
    pub rss_snr_5g: f64,
    /// Pearson r between RSS level and bandwidth over non-LTE-A 4G tests.
    pub rss_bw_4g: f64,
    /// Pearson r between hourly test volume and hourly mean bandwidth, 5G.
    pub hourly_volume_bw_5g: f64,
    /// Same for 4G.
    pub hourly_volume_bw_4g: f64,
}

/// Accumulator behind [`Correlations`].
#[derive(Debug, Clone, Default)]
pub struct CorrelationsAcc {
    /// RSS level against SNR for 5G tests with cell context.
    rss_snr5: Pearson,
    /// RSS level against bandwidth for non-LTE-A 4G tests with cell
    /// context.
    rss_bw4: Pearson,
    /// Per-hour bandwidth strata, all 5G / 4G tests.
    hours5: [Mean; 24],
    hours4: [Mean; 24],
}

impl CorrelationsAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for CorrelationsAcc {
    type Output = Correlations;

    fn observe(&mut self, r: &RecordView<'a>) {
        match r.tech {
            AccessTech::Cellular5g => {
                if let Some(c) = r.cell() {
                    self.rss_snr5.push(c.rss_level, c.snr_db);
                }
                if (r.hour as usize) < 24 {
                    self.hours5[r.hour as usize].push(Sample::new(r.bandwidth_mbps));
                }
            }
            AccessTech::Cellular4g => {
                if let Some(c) = r.cell() {
                    if !c.lte_advanced {
                        self.rss_bw4.push(c.rss_level, r.bandwidth_mbps);
                    }
                }
                if (r.hour as usize) < 24 {
                    self.hours4[r.hour as usize].push(Sample::new(r.bandwidth_mbps));
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        self.rss_snr5.merge(&other.rss_snr5);
        self.rss_bw4.merge(&other.rss_bw4);
        for (a, b) in self.hours5.iter_mut().zip(&other.hours5) {
            a.merge(b);
        }
        for (a, b) in self.hours4.iter_mut().zip(&other.hours4) {
            a.merge(b);
        }
    }

    fn finish(self) -> Correlations {
        // Over at most 24 hourly points, so plain `f64` vectors.
        let hourly = |hours: &[Mean; 24]| {
            let busy = || hours.iter().filter(|h| !h.is_empty());
            let volume: Vec<f64> = busy().map(|h| h.len() as f64).collect();
            let bw: Vec<f64> = busy().map(Mean::mean).collect();
            pearson(&volume, &bw).unwrap_or(0.0)
        };
        Correlations {
            rss_snr_5g: self.rss_snr5.r().unwrap_or(0.0),
            rss_bw_4g: self.rss_bw4.r().unwrap_or(0.0),
            hourly_volume_bw_5g: hourly(&self.hours5),
            hourly_volume_bw_4g: hourly(&self.hours4),
        }
    }
}

impl Codec for CorrelationsAcc {
    fn encode(&self, enc: &mut Enc) {
        self.rss_snr5.encode(enc);
        self.rss_bw4.encode(enc);
        self.hours5.encode(enc);
        self.hours4.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            rss_snr5: Codec::decode(dec)?,
            rss_bw4: Codec::decode(dec)?,
            hours5: Codec::decode(dec)?,
            hours4: Codec::decode(dec)?,
        })
    }
}

impl Render for Correlations {
    fn render(&self) -> String {
        format!(
            "Correlations: RSS~SNR(5G) r={:.2}  RSS~bw(4G) r={:.2}  \
             hourly volume~bw: 5G r={:.2}, 4G r={:.2}\n",
            self.rss_snr_5g, self.rss_bw_4g, self.hourly_volume_bw_5g, self.hourly_volume_bw_4g
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};

    fn same_group_decline(y20: &[TestRecord], y21: &[TestRecord]) -> SameGroupDecline {
        let mut acc = SameGroupAcc::new();
        for r in y20 {
            acc.observe_baseline(&r.into());
        }
        accum::run(acc, y21)
    }

    fn pop(year: Year, tests: usize, seed: u64) -> Vec<TestRecord> {
        Generator::new(DatasetConfig {
            seed,
            tests,
            year,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn spatial_ranges_are_wide() {
        let records = pop(Year::Y2021, 600_000, 501);
        let sd = accum::run(SpatialAcc::new(), &records);
        for (tech, lo, hi, n) in &sd.ranges {
            assert!(*n > 50, "{tech:?}: only {n} cities qualified");
            assert!(hi / lo > 2.0, "{tech:?}: range too narrow {lo}–{hi}");
        }
        // §3.1: ~41% unbalanced (tolerant band).
        assert!(
            (0.2..=0.6).contains(&sd.unbalanced_share),
            "unbalanced {}",
            sd.unbalanced_share
        );
    }

    #[test]
    fn urban_gaps_near_paper_values() {
        let records = pop(Year::Y2021, 400_000, 503);
        let gap = accum::run(UrbanRuralAcc::new(), &records);
        assert!((gap.lte_ratio - 1.24).abs() < 0.10, "4G {}", gap.lte_ratio);
        assert!((gap.nr_ratio - 1.33).abs() < 0.12, "5G {}", gap.nr_ratio);
    }

    #[test]
    fn same_groups_decline_in_both_technologies() {
        let y20 = pop(Year::Y2020, 500_000, 505);
        let y21 = pop(Year::Y2021, 500_000, 505);
        let decline = same_group_decline(&y20, &y21);
        assert!(
            decline.groups.len() >= 10,
            "groups {}",
            decline.groups.len()
        );
        let d4: Vec<f64> = decline.groups.iter().map(|g| g.2).collect();
        let d5: Vec<f64> = decline.groups.iter().map(|g| g.3).collect();
        // §3.1: declines of 12–31% (4G) and 5–23% (5G); check means land
        // inside generous versions of those bands.
        assert!(
            (0.08..=0.40).contains(&mean(&d4)),
            "4G decline {}",
            mean(&d4)
        );
        assert!(
            (0.02..=0.30).contains(&mean(&d5)),
            "5G decline {}",
            mean(&d5)
        );
    }

    #[test]
    fn same_group_merge_matches_single_pass() {
        let y20 = pop(Year::Y2020, 120_000, 515);
        let y21 = pop(Year::Y2021, 120_000, 515);
        let single = same_group_decline(&y20, &y21);
        let mut a = SameGroupAcc::new();
        let mut b = SameGroupAcc::new();
        let (y20a, y20b) = y20.split_at(y20.len() / 2);
        let (y21a, y21b) = y21.split_at(y21.len() / 2);
        for r in y20a {
            a.observe_baseline(&r.into());
        }
        for r in y21a {
            a.observe(&r.into());
        }
        for r in y20b {
            b.observe_baseline(&r.into());
        }
        for r in y21b {
            b.observe(&r.into());
        }
        a.merge(b);
        assert_eq!(a.finish().groups, single.groups);
    }

    #[test]
    fn dataset_summary_proportions() {
        let records = pop(Year::Y2021, 150_000, 511);
        let s = accum::run(DatasetSummaryAcc::new(), &records).expect("non-empty population");
        let total: usize = s.tech_counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, records.len());
        // §3.1 proportions: WiFi ≈ 89%, 4G ≈ 6.9%, 5G ≈ 3.8%, 3G tiny.
        let share = |tech: AccessTech| {
            s.tech_counts.iter().find(|(t, _)| *t == tech).unwrap().1 as f64 / total as f64
        };
        assert!((share(AccessTech::Wifi) - 0.892).abs() < 0.01);
        assert!((share(AccessTech::Cellular4g) - 0.069).abs() < 0.01);
        assert!(share(AccessTech::Cellular3g) < 0.002);
        assert!(s.distinct_cities > 300, "cities {}", s.distinct_cities);
        assert!(s.distinct_aps > 50_000, "APs {}", s.distinct_aps);
        let isp1 = s
            .isp_shares
            .iter()
            .find(|(i, _)| *i == Isp::Isp1)
            .unwrap()
            .1;
        assert!((0.3..0.5).contains(&isp1), "ISP-1 share {isp1}");
    }

    #[test]
    fn dataset_summary_rejects_empty_population() {
        let err =
            accum::run(DatasetSummaryAcc::new(), &[]).expect_err("empty population must error");
        assert_eq!(err, EmptyPopulation);
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn dataset_summary_decode_rejects_counts_above_the_bound() {
        // total, four tech counts, four ISP counts: `merge` adds them all.
        let valid = DatasetSummaryAcc::new().to_bytes();
        assert!(DatasetSummaryAcc::from_bytes(&valid).is_ok());
        for field in 0..9 {
            let mut bytes = valid.clone();
            bytes[8 * field..8 * field + 8].copy_from_slice(&u64::MAX.to_be_bytes());
            assert!(
                matches!(
                    DatasetSummaryAcc::from_bytes(&bytes),
                    Err(CodecError::BadLen { .. })
                ),
                "summary count {field}"
            );
        }
    }

    #[test]
    fn city_tables_decode_only_within_the_city_id_range() {
        let mut enc = Enc::new();
        enc.put_u32(CITY_ROWS_CAP as u32 + 1);
        assert!(matches!(
            SpatialAcc::from_bytes(&enc.into_bytes()),
            Err(CodecError::BadLen { .. })
        ));
        let mut enc = Enc::new();
        IdBitmap::new().encode(&mut enc);
        enc.put_u32(CITY_ROWS_CAP as u32 + 1);
        assert!(matches!(
            SameGroupAcc::from_bytes(&enc.into_bytes()),
            Err(CodecError::BadLen { .. })
        ));
    }

    #[test]
    fn correlation_signs_match_the_paper() {
        let records = pop(Year::Y2021, 700_000, 509);
        let c = accum::run(CorrelationsAcc::new(), &records);
        // Fig 11: RSS and SNR strongly positive.
        assert!(c.rss_snr_5g > 0.5, "rss~snr {}", c.rss_snr_5g);
        // §3.3: 4G RSS and bandwidth positively correlated.
        assert!(c.rss_bw_4g > 0.15, "rss~bw 4G {}", c.rss_bw_4g);
        // Fig 10: 5G bandwidth anticorrelated with test volume; 4G the
        // opposite.
        assert!(
            c.hourly_volume_bw_5g < -0.2,
            "5G hourly r {}",
            c.hourly_volume_bw_5g
        );
        assert!(
            c.hourly_volume_bw_4g > 0.2,
            "4G hourly r {}",
            c.hourly_volume_bw_4g
        );
    }

    #[test]
    fn renders_mention_percentages() {
        let records = pop(Year::Y2021, 100_000, 507);
        assert!(accum::run(SpatialAcc::new(), &records)
            .render()
            .contains('%'));
        assert!(accum::run(UrbanRuralAcc::new(), &records)
            .render()
            .contains('%'));
    }
}
