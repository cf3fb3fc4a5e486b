//! The accuracy contract of the bounded summaries, executable.
//!
//! The reference here is the code the summaries replaced: every stratum
//! as the `Vec<f64>` of its samples, reduced with
//! `mbw_stats::descriptive` and `mbw_stats::Ecdf`. Each ported
//! accumulator is held against it over seeds, population sizes from
//! empty to 20 000 records and all four ecosystem profiles:
//!
//! - counts, minima, maxima, shares and threshold fractions are equal;
//! - means agree to 1e-9 relative (the summaries' sum is exact, the
//!   reference's `f64` fold is not);
//! - Pearson r agrees to 1e-9 absolute;
//! - a median is within one bin of the grid, 2^-7 of its value;
//! - a CDF value is within the mass of the bin its x falls in.

use mbw_analysis::accum::{self, tech3_index, TECH3};
use mbw_analysis::cellular::{
    CdfFigure, Fig04Acc, Fig07Acc, Fig10Acc, LteBandAcc, LteRssAcc, NrBandAcc, RssAcc,
};
use mbw_analysis::devices::HardwareIllusionAcc;
use mbw_analysis::general::{
    CorrelationsAcc, DatasetSummaryAcc, SameGroupAcc, SpatialAcc, UrbanRuralAcc,
};
use mbw_analysis::overview::{Fig01Acc, Fig02Acc, Fig03Acc};
use mbw_analysis::summary::BinnedCdf;
use mbw_analysis::wifi::WifiAcc;
use mbw_dataset::{
    AccessTech, CityTier, DatasetConfig, DeviceTier, EcosystemProfile, Generator, Isp, TestRecord,
    WifiStandard, Year, LTE_BANDS, NR_BANDS,
};
use mbw_stats::descriptive::{fraction_above, fraction_below, mean, median, pearson, std_dev};
use mbw_stats::Ecdf;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Widest a grid bin gets, relative to the values in it.
const BIN: f64 = 1.0 / 128.0;
/// Below this the grid has one catch-all bin.
const GRID_FLOOR: f64 = 0.0625;

const SIZES: [usize; 5] = [0, 1, 2, 50, 20_000];

fn population(
    profile: &'static EcosystemProfile,
    tests: usize,
    seed: u64,
    year: Year,
) -> Vec<TestRecord> {
    Generator::new(DatasetConfig {
        seed,
        tests,
        year,
        profile,
    })
    .generate()
}

/// A stratum as the accumulators used to keep it: the bandwidths of the
/// records it selects, in population order.
fn bw(records: &[TestRecord], keep: impl Fn(&TestRecord) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| keep(r))
        .map(|r| r.bandwidth_mbps)
        .collect()
}

fn assert_mean(got: f64, want: &[f64], what: &str) {
    let want = mean(want);
    assert!(
        (got - want).abs() <= 1e-9 * want.abs(),
        "{what}: mean {got} vs exact {want}"
    );
}

fn assert_ratio(got: f64, want: f64, what: &str) {
    // 0/0 renders NaN on both sides of an empty stratum.
    assert!(
        (got.is_nan() && want.is_nan()) || got == want || (got - want).abs() <= 1e-9 * want.abs(),
        "{what}: {got} vs exact {want}"
    );
}

fn assert_median(got: f64, want: &[f64], what: &str) {
    let want = median(want);
    assert!(
        (got - want).abs() <= (BIN * want.abs()).max(GRID_FLOOR),
        "{what}: median {got} vs exact {want}"
    );
}

/// Everything a binned CDF reads out, against the sorted samples.
fn assert_cdf(cdf: &BinnedCdf, sample: &[f64], what: &str) {
    let exact = Ecdf::new(sample);
    assert_eq!(cdf.len(), sample.len(), "{what}: count");
    assert_eq!(cdf.max(), exact.max(), "{what}: max");
    assert_mean(cdf.mean(), sample, what);
    assert_median(cdf.median(), sample, what);
    if sample.len() <= 2 {
        assert_eq!(
            cdf.median(),
            exact.median(),
            "{what}: tiny strata are exact"
        );
    }
    let (series, exact_series) = (cdf.series(20), exact.series(20));
    assert_eq!(series.len(), exact_series.len(), "{what}: series length");
    for (&(x, f), &(exact_x, exact_f)) in series.iter().zip(&exact_series) {
        assert_eq!(x, exact_x, "{what}: the x-grid moved");
        // The bin x falls in lies inside this window, so its mass is at
        // most the window's.
        let bin_mass = if x < GRID_FLOOR {
            exact.eval(GRID_FLOOR) - exact.eval(0.0)
        } else {
            exact.eval(x * (1.0 + BIN)) - exact.eval(x / (1.0 + BIN))
        };
        assert!(
            (f - exact_f).abs() <= bin_mass + 1e-12,
            "{what}: F({x}) = {f} vs exact {exact_f} (bin mass {bin_mass})"
        );
    }
}

fn assert_cdf_figure(fig: &CdfFigure, sample: &[f64], what: &str) {
    assert_cdf(&fig.ecdf, sample, what);
    assert_eq!(fig.max, Ecdf::new(sample).max(), "{what}: annotated max");
    assert_mean(fig.mean, sample, what);
    assert_median(fig.median, sample, what);
}

fn check_overview(y20: &[TestRecord], y21: &[TestRecord]) {
    let mut acc = Fig01Acc::new();
    for r in y20 {
        acc.observe_baseline(&r.into());
    }
    let fig = accum::run(acc, y21);
    for (&(tech, m20, m21), &t) in fig.rows.iter().zip(&TECH3) {
        assert_eq!(tech, t);
        assert_mean(m20, &bw(y20, |r| r.tech == t), "fig01 2020");
        assert_mean(m21, &bw(y21, |r| r.tech == t), "fig01 2021");
    }
    let cellular = |r: &TestRecord| r.tech != AccessTech::Wifi;
    assert_mean(
        fig.overall_cellular.0,
        &bw(y20, cellular),
        "fig01 cell 2020",
    );
    assert_mean(
        fig.overall_cellular.1,
        &bw(y21, cellular),
        "fig01 cell 2021",
    );

    let fig = accum::run(Fig02Acc::new(), y21);
    assert_eq!(fig.rows.len(), 8);
    for &(version, g4, g5, wifi) in &fig.rows {
        for (got, t) in [g4, g5, wifi].into_iter().zip(TECH3) {
            let want = bw(y21, |r| r.android_version == version && r.tech == t);
            assert_mean(got, &want, "fig02");
        }
    }

    let fig = accum::run(Fig03Acc::new(), y21);
    for (&(isp, g4, g5, wifi), &want_isp) in fig.rows.iter().zip(&Isp::ALL) {
        assert_eq!(isp, want_isp);
        for (got, t) in [g4, g5, wifi].into_iter().zip(TECH3) {
            assert_mean(got, &bw(y21, |r| r.isp == isp && r.tech == t), "fig03");
        }
    }
}

fn check_cellular(y21: &[TestRecord]) {
    let g4 = bw(y21, |r| r.tech == AccessTech::Cellular4g);
    let fig = accum::run(Fig04Acc::new(), y21);
    assert_cdf_figure(&fig.cdf, &g4, "fig04");
    assert_eq!(fig.below_10, fraction_below(&g4, 10.0), "fig04 <10");
    assert_eq!(fig.above_300, fraction_above(&g4, 300.0), "fig04 >300");
    let fast: Vec<f64> = g4.iter().copied().filter(|&b| b > 300.0).collect();
    assert_mean(fig.mean_above_300, &fast, "fig04 mean >300");

    let g5 = bw(y21, |r| r.tech == AccessTech::Cellular5g);
    assert_cdf_figure(&accum::run(Fig07Acc::new(), y21), &g5, "fig07");

    let fig = accum::run(LteBandAcc::new(), y21);
    let lte_total = y21.iter().filter(|r| r.lte_band().is_some()).count();
    let mut h_count = 0;
    for (&(band, h, m, n), info) in fig.rows.iter().zip(&LTE_BANDS) {
        let want = bw(y21, |r| r.lte_band() == Some(info.id));
        assert_eq!((band, h, n), (info.id, info.is_h_band(), want.len()));
        assert_mean(m, &want, "fig05");
        h_count += if h { n } else { 0 };
    }
    if lte_total > 0 {
        assert_eq!(fig.h_band_share, h_count as f64 / lte_total as f64);
    }

    let fig = accum::run(NrBandAcc::new(), y21);
    for (&(band, _, m, n), info) in fig.rows.iter().zip(&NR_BANDS) {
        let want = bw(y21, |r| r.nr_band() == Some(info.id));
        assert_eq!((band, n), (info.id, want.len()));
        assert_mean(m, &want, "fig08");
    }

    let fig = accum::run(Fig10Acc::new(), y21);
    for &(hour, n, m) in &fig.rows {
        let want = bw(y21, |r| r.tech == AccessTech::Cellular5g && r.hour == hour);
        assert_eq!(n, want.len(), "fig10 hour {hour}");
        assert_mean(m, &want, "fig10");
    }

    let level_of = |r: &TestRecord| r.cell().map(|c| c.rss_level);
    let fig = accum::run(RssAcc::new(), y21);
    for &(level, snr, m, md) in &fig.rows {
        let here = |r: &TestRecord| r.tech == AccessTech::Cellular5g && level_of(r) == Some(level);
        let snrs: Vec<f64> = y21
            .iter()
            .filter(|r| here(r))
            .map(|r| r.cell().expect("5G tests are cellular").snr_db)
            .collect();
        assert_mean(snr, &snrs, "fig11 snr");
        assert_mean(m, &bw(y21, here), "fig12 mean");
        assert_median(md, &bw(y21, here), "fig12 median");
    }

    for (level, m) in accum::run(LteRssAcc::new(), y21) {
        let want = bw(y21, |r| {
            r.tech == AccessTech::Cellular4g
                && r.cell()
                    .is_some_and(|c| !c.lte_advanced && c.rss_level == level)
        });
        assert_mean(m, &want, "lte rss");
    }
}

fn check_wifi(y21: &[TestRecord]) {
    for (make, band) in [
        (WifiAcc::fig13 as fn() -> WifiAcc, None),
        (WifiAcc::fig14 as fn() -> WifiAcc, Some(false)),
        (WifiAcc::fig15 as fn() -> WifiAcc, Some(true)),
    ] {
        let in_band = |r: &TestRecord| {
            r.wifi()
                .is_some_and(|w| band.is_none_or(|g5| w.on_5ghz == g5))
        };
        let total = y21.iter().filter(|r| in_band(r)).count();
        let fig = accum::run(make(), y21);
        let mut listed = 0;
        for standard in WifiStandard::ALL {
            let want = bw(y21, |r| {
                in_band(r) && r.wifi().is_some_and(|w| w.standard == standard)
            });
            let skipped = want.is_empty() || (band == Some(false) && !standard.supports_24ghz());
            let Some(got) = fig.of(standard) else {
                assert!(skipped, "{}: {standard:?} missing", fig.title);
                continue;
            };
            assert!(!skipped, "{}: {standard:?} listed", fig.title);
            listed += 1;
            assert_cdf(&got.ecdf, &want, fig.title);
            assert_mean(got.mean, &want, fig.title);
            assert_median(got.median, &want, fig.title);
            assert_eq!(got.max, Ecdf::new(&want).max(), "{}: max", fig.title);
            assert_eq!(got.share, want.len() as f64 / total.max(1) as f64);
        }
        assert_eq!(fig.series.len(), listed);
    }
}

fn check_general(y20: &[TestRecord], y21: &[TestRecord]) {
    // Spatial disparity: per-(city, tech) vectors, as the hash map held.
    let mut per_city: BTreeMap<(u16, usize), Vec<f64>> = BTreeMap::new();
    for r in y21 {
        if let Some(t) = tech3_index(r.tech) {
            per_city
                .entry((r.city_id, t))
                .or_default()
                .push(r.bandwidth_mbps);
        }
    }
    let city_mean = |city: u16, t: usize| {
        per_city
            .get(&(city, t))
            .filter(|v| v.len() >= 50)
            .map(|v| mean(v))
    };
    let cities: BTreeSet<u16> = per_city.keys().map(|&(city, _)| city).collect();
    let fig = accum::run(SpatialAcc::new(), y21);
    for (t, &(tech, lo, hi, n)) in fig.ranges.iter().enumerate() {
        assert_eq!(tech, TECH3[t]);
        let means: Vec<f64> = cities.iter().filter_map(|&c| city_mean(c, t)).collect();
        assert_eq!(n, means.len(), "spatial {tech:?}: qualifying cities");
        if n > 0 {
            let exact_lo = means.iter().copied().fold(f64::INFINITY, f64::min);
            let exact_hi = means.iter().copied().fold(0.0, f64::max);
            assert!((lo - exact_lo).abs() <= 1e-9 * exact_lo, "spatial lo");
            assert!((hi - exact_hi).abs() <= 1e-9 * exact_hi, "spatial hi");
        } else {
            assert_eq!((lo, hi), (0.0, 0.0));
        }
    }
    let nat4 = mean(&bw(y21, |r| r.tech == AccessTech::Cellular4g));
    let nat5 = mean(&bw(y21, |r| r.tech == AccessTech::Cellular5g));
    let both: Vec<(f64, f64)> = cities
        .iter()
        .filter_map(|&c| Some((city_mean(c, 0)?, city_mean(c, 1)?)))
        .collect();
    let unbalanced = both
        .iter()
        .filter(|&&(c4, c5)| (c4 > nat4) != (c5 > nat5))
        .count();
    if !both.is_empty() {
        assert_eq!(fig.unbalanced_share, unbalanced as f64 / both.len() as f64);
    }

    let cell = |tech: AccessTech, urban: bool| bw(y21, |r| r.tech == tech && r.urban == urban);
    let gap = accum::run(UrbanRuralAcc::new(), y21);
    for (got, tech) in [
        (gap.lte_ratio, AccessTech::Cellular4g),
        (gap.nr_ratio, AccessTech::Cellular5g),
    ] {
        let want = mean(&cell(tech, true)) / mean(&cell(tech, false));
        assert_ratio(got, want, "urban/rural");
    }

    // Same-group decline: (big ISP, mega city, 4G and 5G), >= 30 tests
    // in both years.
    let mut acc = SameGroupAcc::new();
    for r in y20 {
        acc.observe_baseline(&r.into());
    }
    let fig = accum::run(acc, y21);
    let mega: BTreeSet<u16> = y21
        .iter()
        .filter(|r| r.city_tier == CityTier::Mega)
        .map(|r| r.city_id)
        .collect();
    let mut want = Vec::new();
    for (i, &isp) in Isp::ALL[..3].iter().enumerate() {
        for &city in &mega {
            let decline = |tech: AccessTech| {
                let group = |r: &TestRecord| r.isp == isp && r.city_id == city && r.tech == tech;
                let (a, b) = (bw(y20, group), bw(y21, group));
                (a.len() >= 30 && b.len() >= 30).then(|| 1.0 - mean(&b) / mean(&a))
            };
            if let (Some(d4), Some(d5)) = (
                decline(AccessTech::Cellular4g),
                decline(AccessTech::Cellular5g),
            ) {
                want.push((i + 1, city, d4, d5));
            }
        }
    }
    assert_eq!(fig.groups.len(), want.len(), "same-group rows");
    for (got, want) in fig.groups.iter().zip(&want) {
        assert_eq!((got.0, got.1), (want.0, want.1));
        assert!((got.2 - want.2).abs() <= 1e-9 && (got.3 - want.3).abs() <= 1e-9);
    }

    // Correlations: the two-pass Pearson over the pair vectors.
    let fig = accum::run(CorrelationsAcc::new(), y21);
    let pairs = |tech: AccessTech, y: fn(&TestRecord) -> f64, plain_lte: bool| {
        let kept: Vec<&TestRecord> = y21
            .iter()
            .filter(|r| r.tech == tech)
            .filter(|r| r.cell().is_some_and(|c| !(plain_lte && c.lte_advanced)))
            .collect();
        let xs: Vec<f64> = kept
            .iter()
            .map(|r| f64::from(r.cell().expect("filtered").rss_level))
            .collect();
        let ys: Vec<f64> = kept.iter().map(|r| y(r)).collect();
        pearson(&xs, &ys).unwrap_or(0.0)
    };
    let snr = |r: &TestRecord| r.cell().expect("filtered").snr_db;
    let want = pairs(AccessTech::Cellular5g, snr, false);
    assert!(
        (fig.rss_snr_5g - want).abs() <= 1e-9,
        "rss~snr {} vs {want}",
        fig.rss_snr_5g
    );
    let want = pairs(AccessTech::Cellular4g, |r| r.bandwidth_mbps, true);
    assert!(
        (fig.rss_bw_4g - want).abs() <= 1e-9,
        "rss~bw {} vs {want}",
        fig.rss_bw_4g
    );
    for (got, tech) in [
        (fig.hourly_volume_bw_5g, AccessTech::Cellular5g),
        (fig.hourly_volume_bw_4g, AccessTech::Cellular4g),
    ] {
        let hours: Vec<Vec<f64>> = (0..24u8)
            .map(|h| bw(y21, |r| r.tech == tech && r.hour == h))
            .filter(|v| !v.is_empty())
            .collect();
        let volume: Vec<f64> = hours.iter().map(|v| v.len() as f64).collect();
        let means: Vec<f64> = hours.iter().map(|v| mean(v)).collect();
        let want = pearson(&volume, &means).unwrap_or(0.0);
        assert!(
            (got - want).abs() <= 1e-9,
            "hourly {tech:?}: {got} vs {want}"
        );
    }

    // Dataset summary: every count exact.
    match accum::run(DatasetSummaryAcc::new(), y21) {
        Err(_) => assert!(y21.is_empty()),
        Ok(summary) => {
            for &(tech, n) in &summary.tech_counts {
                assert_eq!(n, y21.iter().filter(|r| r.tech == tech).count());
            }
            let distinct = |ids: Vec<u32>| ids.into_iter().collect::<BTreeSet<u32>>().len();
            let cells = y21.iter().filter_map(|r| r.cell());
            assert_eq!(
                summary.distinct_bs,
                distinct(cells.map(|c| c.bs_id).collect())
            );
            let aps = y21.iter().filter_map(|r| r.wifi());
            assert_eq!(
                summary.distinct_aps,
                distinct(aps.map(|w| w.ap_id).collect())
            );
            let cities = y21.iter().map(|r| u32::from(r.city_id)).collect();
            assert_eq!(summary.distinct_cities, distinct(cities));
            for &(isp, share) in &summary.isp_shares {
                let n = y21.iter().filter(|r| r.isp == isp).count();
                assert_eq!(share, n as f64 / y21.len() as f64);
            }
        }
    }
}

fn check_devices(y21: &[TestRecord]) {
    for tech in TECH3 {
        let fig = accum::run(HardwareIllusionAcc::new(tech), y21);
        let (low, mid, high) = fig.unconditional;
        for (got, tier) in [low, mid, high].into_iter().zip(DeviceTier::ALL) {
            let want = bw(y21, |r| r.tech == tech && r.device_tier == tier);
            assert_mean(got, &want, "devices unconditional");
        }
        let mut want = Vec::new();
        for version in 5..=12u8 {
            let tiers: Vec<Vec<f64>> = DeviceTier::ALL
                .iter()
                .map(|&tier| {
                    bw(y21, |r| {
                        r.tech == tech && r.device_tier == tier && r.android_version == version
                    })
                })
                .collect();
            if tiers.iter().all(|v| v.len() >= 80) {
                let means: Vec<f64> = tiers.iter().map(|v| mean(v)).collect();
                want.push((version, std_dev(&means)));
            }
        }
        assert_eq!(fig.within_version_std.len(), want.len());
        for (got, want) in fig.within_version_std.iter().zip(&want) {
            assert_eq!(got.0, want.0);
            assert!((got.1 - want.1).abs() <= 1e-9 * want.1.max(1.0));
        }
    }
}

fn check_every_accumulator(profile: &'static EcosystemProfile, tests: usize, seed: u64) {
    let y20 = population(profile, tests, seed, Year::Y2020);
    let y21 = population(profile, tests, seed, Year::Y2021);
    check_overview(&y20, &y21);
    check_cellular(&y21);
    check_wifi(&y21);
    check_general(&y20, &y21);
    check_devices(&y21);
}

#[test]
fn every_accumulator_matches_the_exact_reference_at_every_size_and_profile() {
    for profile in EcosystemProfile::all_builtins() {
        for tests in SIZES {
            check_every_accumulator(profile, tests, 0xACC);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_accumulator_matches_the_exact_reference_for_any_seed(
        seed in any::<u64>(),
        size in 0usize..SIZES.len(),
        profile in 0usize..4,
    ) {
        check_every_accumulator(EcosystemProfile::all_builtins()[profile], SIZES[size], seed);
    }
}

#[test]
fn degenerate_cdf_figures_render_what_the_sorted_samples_rendered() {
    use mbw_analysis::Render;
    // No 4G test at all: the pre-summary figure, byte for byte.
    let empty = accum::run(Fig04Acc::new(), &[]);
    assert_eq!(
        empty.render(),
        "Fig 4: bandwidth distribution for 4G access\n\
         median = 0  mean = 0  max = 0  (n = 0)\n\
         <10 Mbps: 0.0%   >300 Mbps: 0.0% (mean 0 Mbps)\n"
    );
    // One 4G test, then forty identical ones: a single CDF point at 1.
    let one = population(EcosystemProfile::paper_china(), 400, 7, Year::Y2021)
        .into_iter()
        .find(|r| r.tech == AccessTech::Cellular4g)
        .expect("a 4G record in 400");
    for copies in [1usize, 40] {
        let fig = accum::run(Fig04Acc::new(), &vec![one; copies]);
        let b = one.bandwidth_mbps;
        assert_eq!((fig.cdf.median, fig.cdf.mean, fig.cdf.max), (b, b, b));
        assert_eq!(fig.cdf.ecdf.series(20), vec![(b, 1.0)]);
        assert_eq!(fig.render().lines().count(), 4);
    }
    // All failed (zero-bandwidth) tests: exact zeros throughout.
    let mut failed = one;
    failed.bandwidth_mbps = 0.0;
    let fig = accum::run(Fig04Acc::new(), &vec![failed; 9]);
    assert_eq!((fig.cdf.median, fig.cdf.max, fig.below_10), (0.0, 0.0, 1.0));
    assert_eq!(fig.cdf.ecdf.series(20), vec![(0.0, 1.0)]);
}
