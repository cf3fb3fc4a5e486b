//! The fused figure set.
//!
//! [`FigureSet`] bundles one accumulator per paper figure, so one pass
//! over a population feeds every figure at once. The streaming engine
//! ([`mod@crate::stream`]) gives each worker its own set, folds that
//! worker's shards into it and merges the sets back;
//! [`FigureSet::merge`] is integer addition, `min`, `max` and OR over
//! the summaries of [`crate::summary`] (see the determinism contract in
//! [`crate::accum`]), so the finished [`MeasurementFigures`] depend on
//! neither the thread count, nor the split, nor the merge order. A set
//! holds no sample: its state is bounded by the figures, not by the
//! record count — about 1.1 MB in a reducer, most of it the two id
//! bitmaps of the dataset summary, with each CDF stratum holding only
//! the run of bins its samples reach (99 KB for all 16 of a
//! `shard_reduce` pass), or the whole 17 KB grid in a set sized for its
//! profile. It is also the unit of distributed state: it
//! encodes with [`mbw_frame::Codec`], and merging the decoded parts of
//! any partition, in any order, rebuilds the single-process set bit for
//! bit.

use crate::accum::FigureAccumulator;
use crate::cellular::{
    CdfFigure, Fig04, Fig04Acc, Fig07Acc, Fig10, Fig10Acc, LteBandAcc, LteBandFigure, LteRssAcc,
    NrBandAcc, NrBandFigure, RssAcc, RssFigure,
};
use crate::devices::{HardwareIllusion, HardwareIllusionAcc};
use crate::fitcache::FitCache;
use crate::general::{
    Correlations, CorrelationsAcc, DatasetSummary, DatasetSummaryAcc, EmptyPopulation,
    SameGroupAcc, SameGroupDecline, SpatialAcc, SpatialDisparity, UrbanRuralAcc, UrbanRuralGap,
};
use crate::overview::{Fig01, Fig01Acc, Fig02, Fig02Acc, Fig03, Fig03Acc};
use crate::pdfs::{PdfAcc, PdfFigure};
use crate::robustness::{OutcomeRates, OutcomeRatesAcc};
use crate::tables::{Table1, Table2};
use crate::wifi::{SlowPlanAcc, WifiAcc, WifiCdfFigure};
use crate::Render;
use mbw_dataset::{AccessTech, EcosystemProfile, TestRecord};
use mbw_stats::pool;
use mbw_telemetry::trace::{self, ArgValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Version of the accumulator layout inside an encoded [`FigureSet`]
/// and the evaluation figure set that travels with it. The snapshot
/// container does not change when the meaning of a body does, so
/// whatever names a run on disk (the distributed plan hash) mixes this
/// in: state written under another layout is then refused by name and
/// never decoded. Bump it with any change to what an accumulator, or
/// the shard part around them, encodes.
pub const STATE_LAYOUT: u32 = 4;

/// One accumulator per measurement figure — the state of a fused sweep.
#[derive(Debug)]
pub struct FigureSet {
    fig01: Fig01Acc,
    fig02: Fig02Acc,
    fig03: Fig03Acc,
    fig04: Fig04Acc,
    fig05_06: LteBandAcc,
    fig07: Fig07Acc,
    fig08_09: NrBandAcc,
    fig10: Fig10Acc,
    fig11_12: RssAcc,
    lte_rss: LteRssAcc,
    fig13: WifiAcc,
    fig14: WifiAcc,
    fig15: WifiAcc,
    slow_plan: SlowPlanAcc,
    fig16: PdfAcc,
    fig18: PdfAcc,
    fig19: PdfAcc,
    spatial: SpatialAcc,
    urban_rural: UrbanRuralAcc,
    same_group: SameGroupAcc,
    correlations: CorrelationsAcc,
    summary: DatasetSummaryAcc,
    devices: [HardwareIllusionAcc; 3],
    outcomes: OutcomeRatesAcc,
}

impl FigureSet {
    /// A fresh set of empty accumulators.
    pub fn new() -> Self {
        Self {
            fig01: Fig01Acc::new(),
            fig02: Fig02Acc::new(),
            fig03: Fig03Acc::new(),
            fig04: Fig04Acc::new(),
            fig05_06: LteBandAcc::new(),
            fig07: Fig07Acc::new(),
            fig08_09: NrBandAcc::new(),
            fig10: Fig10Acc::new(),
            fig11_12: RssAcc::new(),
            lte_rss: LteRssAcc::new(),
            fig13: WifiAcc::fig13(),
            fig14: WifiAcc::fig14(),
            fig15: WifiAcc::fig15(),
            slow_plan: SlowPlanAcc::new(),
            fig16: PdfAcc::fig16(),
            fig18: PdfAcc::fig18(),
            fig19: PdfAcc::fig19(),
            spatial: SpatialAcc::new(),
            urban_rural: UrbanRuralAcc::new(),
            same_group: SameGroupAcc::new(),
            correlations: CorrelationsAcc::new(),
            summary: DatasetSummaryAcc::new(),
            devices: [
                HardwareIllusionAcc::new(AccessTech::Cellular4g),
                HardwareIllusionAcc::new(AccessTech::Cellular5g),
                HardwareIllusionAcc::new(AccessTech::Wifi),
            ],
            outcomes: OutcomeRatesAcc::new(),
        }
    }

    /// A fresh set whose per-city tables and id-bitmap indexes are
    /// sized once for the profile's cities, base stations and APs, and
    /// whose CDF strata span the whole bin grid, so what observing its
    /// records allocates depends on neither the records nor the order
    /// they arrive in. [`Self::new`] grows them as ids and bins arrive
    /// instead.
    pub fn sized_for(profile: &EcosystemProfile) -> Self {
        Self {
            fig04: Fig04Acc::full_grid(),
            fig07: Fig07Acc::full_grid(),
            fig11_12: RssAcc::full_grid(),
            fig13: WifiAcc::fig13().full_grid(),
            fig14: WifiAcc::fig14().full_grid(),
            fig15: WifiAcc::fig15().full_grid(),
            spatial: SpatialAcc::sized_for(profile),
            same_group: SameGroupAcc::sized_for(profile),
            summary: DatasetSummaryAcc::sized_for(profile),
            ..Self::new()
        }
    }

    /// Fold one record of the *baseline* (2020) population. Only the
    /// two year-over-year figures consume the baseline.
    pub fn observe_baseline(&mut self, r: &TestRecord) {
        self.fig01.observe_baseline(r);
        self.same_group.observe_baseline(r);
    }

    /// Fold one record of the *current* (2021) population into every
    /// accumulator.
    pub fn observe(&mut self, r: &TestRecord) {
        self.fig01.observe(r);
        self.fig02.observe(r);
        self.fig03.observe(r);
        self.fig04.observe(r);
        self.fig05_06.observe(r);
        self.fig07.observe(r);
        self.fig08_09.observe(r);
        self.fig10.observe(r);
        self.fig11_12.observe(r);
        self.lte_rss.observe(r);
        self.fig13.observe(r);
        self.fig14.observe(r);
        self.fig15.observe(r);
        self.slow_plan.observe(r);
        self.fig16.observe(r);
        self.fig18.observe(r);
        self.fig19.observe(r);
        self.spatial.observe(r);
        self.urban_rural.observe(r);
        self.same_group.observe(r);
        self.correlations.observe(r);
        self.summary.observe(r);
        for d in &mut self.devices {
            d.observe(r);
        }
        self.outcomes.observe(r);
    }

    /// Fold a batch of baseline records, in slice order (batch sibling
    /// of [`Self::observe_baseline`]).
    pub fn observe_baseline_records(&mut self, records: &[TestRecord]) {
        for r in records {
            self.observe_baseline(r);
        }
    }

    /// Fold a batch of current records, in slice order (batch sibling
    /// of [`Self::observe`]).
    pub fn observe_records(&mut self, records: &[TestRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// Fold in a sibling set that observed another part of the
    /// populations. Commutative and associative.
    pub fn merge(&mut self, other: Self) {
        self.fig01.merge(other.fig01);
        self.fig02.merge(other.fig02);
        self.fig03.merge(other.fig03);
        self.fig04.merge(other.fig04);
        self.fig05_06.merge(other.fig05_06);
        self.fig07.merge(other.fig07);
        self.fig08_09.merge(other.fig08_09);
        self.fig10.merge(other.fig10);
        self.fig11_12.merge(other.fig11_12);
        self.lte_rss.merge(other.lte_rss);
        self.fig13.merge(other.fig13);
        self.fig14.merge(other.fig14);
        self.fig15.merge(other.fig15);
        self.slow_plan.merge(other.slow_plan);
        self.fig16.merge(other.fig16);
        self.fig18.merge(other.fig18);
        self.fig19.merge(other.fig19);
        self.spatial.merge(other.spatial);
        self.urban_rural.merge(other.urban_rural);
        self.same_group.merge(other.same_group);
        self.correlations.merge(other.correlations);
        self.summary.merge(other.summary);
        let [d4, d5, dw] = other.devices;
        let [s4, s5, sw] = &mut self.devices;
        s4.merge(d4);
        s5.merge(d5);
        sw.merge(dw);
        self.outcomes.merge(other.outcomes);
    }

    /// Fold in a sibling set from its encoding, accumulator by
    /// accumulator, as [`Self::merge`] of its `decode` would: every
    /// summary the sibling holds is checked and added in place, so no
    /// decoded copy of it is ever built (see
    /// [`crate::summary::MergeDecode`]). On an error `self` may be partly
    /// merged, and the caller drops it.
    pub fn merge_decoded(
        &mut self,
        dec: &mut mbw_frame::Dec<'_>,
    ) -> Result<(), mbw_frame::CodecError> {
        self.fig01.merge_decoded(dec)?;
        self.fig02.merge_decoded(dec)?;
        self.fig03.merge_decoded(dec)?;
        self.fig04.merge_decoded(dec)?;
        self.fig05_06.merge_decoded(dec)?;
        self.fig07.merge_decoded(dec)?;
        self.fig08_09.merge_decoded(dec)?;
        self.fig10.merge_decoded(dec)?;
        self.fig11_12.merge_decoded(dec)?;
        self.lte_rss.merge_decoded(dec)?;
        self.fig13.merge_decoded(dec)?;
        self.fig14.merge_decoded(dec)?;
        self.fig15.merge_decoded(dec)?;
        self.slow_plan.merge_decoded(dec)?;
        self.fig16.merge_decoded(dec)?;
        self.fig18.merge_decoded(dec)?;
        self.fig19.merge_decoded(dec)?;
        self.spatial.merge_decoded(dec)?;
        self.urban_rural.merge_decoded(dec)?;
        self.same_group.merge_decoded(dec)?;
        self.correlations.merge_decoded(dec)?;
        self.summary.merge_decoded(dec)?;
        for device in &mut self.devices {
            device.merge_decoded(dec)?;
        }
        self.outcomes.merge_decoded(dec)
    }

    /// Produce every finished figure, serially and uncached — shorthand
    /// for [`Self::finish_with`] at one thread.
    pub fn finish(self) -> MeasurementFigures {
        self.finish_with(FinishOptions::default()).0
    }

    /// Produce every finished figure on `opts.threads` threads.
    ///
    /// The 24 per-figure finishes are independent pure functions of
    /// their accumulators, so they run as one [`mbw_stats::pool::run`]
    /// batch. Figs 16, 18 and 19 — the three GMM fits, the only long
    /// jobs — are listed first, so they are claimed first and the short
    /// finishes fill in behind them. Results are byte-identical at every
    /// thread count.
    ///
    /// Under an active [`trace::Tracer`] scope each per-figure finish
    /// is recorded as a `finish.{field}` span parented to one
    /// `sweep.finish` root — with the pool, child spans may overlap and
    /// their summed duration can exceed the root's wall time; that gap
    /// *is* the parallel speedup. With a fit cache a `finish.cache`
    /// span records hit/miss counts for this finish.
    pub fn finish_with(self, opts: FinishOptions<'_>) -> (MeasurementFigures, FinishStats) {
        let start = Instant::now();
        let tracer = trace::active();
        let mut spans = tracer.local();
        let all = spans.begin();
        let root_id = all.id;
        let cpu_ns = AtomicU64::new(0);
        let cache = opts.cache;
        let counts0 = cache.map_or((0, 0), |c| (c.hits(), c.misses()));

        let Self {
            fig01,
            fig02,
            fig03,
            fig04,
            fig05_06,
            fig07,
            fig08_09,
            fig10,
            fig11_12,
            lte_rss,
            fig13,
            fig14,
            fig15,
            slow_plan,
            fig16,
            fig18,
            fig19,
            spatial,
            urban_rural,
            same_group,
            correlations,
            summary,
            devices,
            outcomes,
        } = self;
        let [d4, d5, dw] = devices;

        let mut o_fig01 = None;
        let mut o_fig02 = None;
        let mut o_fig03 = None;
        let mut o_fig04 = None;
        let mut o_fig05_06 = None;
        let mut o_fig07 = None;
        let mut o_fig08_09 = None;
        let mut o_fig10 = None;
        let mut o_fig11_12 = None;
        let mut o_lte_rss = None;
        let mut o_fig13 = None;
        let mut o_fig14 = None;
        let mut o_fig15 = None;
        let mut o_slow_plan = None;
        let mut o_fig16 = None;
        let mut o_fig18 = None;
        let mut o_fig19 = None;
        let mut o_spatial = None;
        let mut o_urban_rural = None;
        let mut o_same_group = None;
        let mut o_correlations = None;
        let mut o_summary = None;
        let mut o_devices = None;
        let mut o_outcomes = None;

        {
            let tracer = &tracer;
            let cpu_ns = &cpu_ns;
            let mut tasks: Vec<pool::Task<'_, ()>> = Vec::with_capacity(24);
            // One pool job per figure: finish, time it, park the result
            // in this frame's slot.
            macro_rules! job {
                ($name:literal, $slot:ident, $body:expr) => {{
                    let slot = &mut $slot;
                    tasks.push(Box::new(move |_ctx| {
                        let t0 = Instant::now();
                        let mut spans = tracer.local();
                        let span = spans.begin();
                        *slot = Some($body);
                        spans.end(span, root_id, concat!("finish.", $name), "sweep");
                        cpu_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }));
                }};
            }
            job!("fig16", o_fig16, fig16.finish_on(cache));
            job!("fig18", o_fig18, fig18.finish_on(cache));
            job!("fig19", o_fig19, fig19.finish_on(cache));
            job!("fig01", o_fig01, fig01.finish());
            job!("fig02", o_fig02, fig02.finish());
            job!("fig03", o_fig03, fig03.finish());
            job!("fig04", o_fig04, fig04.finish());
            job!("fig05_06", o_fig05_06, fig05_06.finish());
            job!("fig07", o_fig07, fig07.finish());
            job!("fig08_09", o_fig08_09, fig08_09.finish());
            job!("fig10", o_fig10, fig10.finish());
            job!("fig11_12", o_fig11_12, fig11_12.finish());
            job!("lte_rss", o_lte_rss, lte_rss.finish());
            job!("fig13", o_fig13, fig13.finish());
            job!("fig14", o_fig14, fig14.finish());
            job!("fig15", o_fig15, fig15.finish());
            job!("slow_plan", o_slow_plan, slow_plan.finish());
            job!("spatial", o_spatial, spatial.finish());
            job!("urban_rural", o_urban_rural, urban_rural.finish());
            job!("same_group", o_same_group, same_group.finish());
            job!("correlations", o_correlations, correlations.finish());
            job!("summary", o_summary, summary.finish());
            job!(
                "devices",
                o_devices,
                [d4.finish(), d5.finish(), dw.finish()]
            );
            job!("robustness", o_outcomes, outcomes.finish());
            pool::run(opts.threads, tasks);
        }

        let figures = MeasurementFigures {
            table1: Table1,
            table2: Table2,
            fig01: o_fig01.expect("finish job ran"),
            fig02: o_fig02.expect("finish job ran"),
            fig03: o_fig03.expect("finish job ran"),
            fig04: o_fig04.expect("finish job ran"),
            fig05_06: o_fig05_06.expect("finish job ran"),
            fig07: o_fig07.expect("finish job ran"),
            fig08_09: o_fig08_09.expect("finish job ran"),
            fig10: o_fig10.expect("finish job ran"),
            fig11_12: o_fig11_12.expect("finish job ran"),
            lte_rss: o_lte_rss.expect("finish job ran"),
            fig13: o_fig13.expect("finish job ran"),
            fig14: o_fig14.expect("finish job ran"),
            fig15: o_fig15.expect("finish job ran"),
            slow_plan_shares: o_slow_plan.expect("finish job ran"),
            fig16: o_fig16.expect("finish job ran"),
            fig18: o_fig18.expect("finish job ran"),
            fig19: o_fig19.expect("finish job ran"),
            spatial: o_spatial.expect("finish job ran"),
            urban_rural: o_urban_rural.expect("finish job ran"),
            same_group: o_same_group.expect("finish job ran"),
            correlations: o_correlations.expect("finish job ran"),
            summary: o_summary.expect("finish job ran"),
            devices: o_devices.expect("finish job ran"),
            outcomes: o_outcomes.expect("finish job ran"),
            profile_tag: None,
        };

        let stats = FinishStats {
            wall: start.elapsed(),
            cpu: Duration::from_nanos(cpu_ns.load(Ordering::Relaxed)),
            cache_hits: cache.map_or(0, |c| c.hits() - counts0.0),
            cache_misses: cache.map_or(0, |c| c.misses() - counts0.1),
        };
        if cache.is_some() {
            let span = spans.begin();
            spans.end_with(
                span,
                root_id,
                "finish.cache",
                "sweep",
                vec![
                    ("hits", ArgValue::from(stats.cache_hits)),
                    ("misses", ArgValue::from(stats.cache_misses)),
                ],
            );
        }
        spans.end(all, 0, "sweep.finish", "sweep");
        (figures, stats)
    }
}

/// How [`FigureSet::finish_with`] should run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FinishOptions<'a> {
    /// Worker threads for the per-figure fan-out. `0` and `1` both mean
    /// serial on the calling thread.
    pub threads: usize,
    /// Memoized GMM fits to consult and feed; `None` fits everything.
    pub cache: Option<&'a FitCache>,
}

impl FinishOptions<'_> {
    /// Parallel finish across `threads`, no cache.
    pub fn threads(threads: usize) -> Self {
        Self {
            threads,
            cache: None,
        }
    }
}

/// What one [`FigureSet::finish_with`] spent and saved.
#[derive(Debug, Clone, Copy, Default)]
pub struct FinishStats {
    /// Wall-clock time of the whole finish stage.
    pub wall: Duration,
    /// Summed per-job CPU time across pool threads; `cpu / wall` is the
    /// finish-stage parallel efficiency.
    pub cpu: Duration,
    /// Fit-cache hits during this finish.
    pub cache_hits: u64,
    /// Fit-cache misses during this finish.
    pub cache_misses: u64,
}

impl Default for FigureSet {
    fn default() -> Self {
        Self::new()
    }
}

impl mbw_frame::Codec for FigureSet {
    fn encode(&self, enc: &mut mbw_frame::Enc) {
        self.fig01.encode(enc);
        self.fig02.encode(enc);
        self.fig03.encode(enc);
        self.fig04.encode(enc);
        self.fig05_06.encode(enc);
        self.fig07.encode(enc);
        self.fig08_09.encode(enc);
        self.fig10.encode(enc);
        self.fig11_12.encode(enc);
        self.lte_rss.encode(enc);
        self.fig13.encode(enc);
        self.fig14.encode(enc);
        self.fig15.encode(enc);
        self.slow_plan.encode(enc);
        self.fig16.encode(enc);
        self.fig18.encode(enc);
        self.fig19.encode(enc);
        self.spatial.encode(enc);
        self.urban_rural.encode(enc);
        self.same_group.encode(enc);
        self.correlations.encode(enc);
        self.summary.encode(enc);
        self.devices.encode(enc);
        self.outcomes.encode(enc);
    }

    fn decode(dec: &mut mbw_frame::Dec<'_>) -> Result<Self, mbw_frame::CodecError> {
        let mut set = Self::new();
        set.merge_decoded(dec)?;
        Ok(set)
    }
}

/// Every measurement figure of the paper, produced by one fused sweep.
#[derive(Debug, Clone)]
pub struct MeasurementFigures {
    /// Table 1 (static band data).
    pub table1: Table1,
    /// Table 2 (static band data).
    pub table2: Table2,
    /// Fig 1: year-over-year technology means.
    pub fig01: Fig01,
    /// Fig 2: per-Android-version means.
    pub fig02: Fig02,
    /// Fig 3: per-ISP means.
    pub fig03: Fig03,
    /// Fig 4: 4G bandwidth CDF with tail fractions.
    pub fig04: Fig04,
    /// Figs 5–6: per-LTE-band means and counts.
    pub fig05_06: LteBandFigure,
    /// Fig 7: 5G bandwidth CDF.
    pub fig07: CdfFigure,
    /// Figs 8–9: per-NR-band means and counts.
    pub fig08_09: NrBandFigure,
    /// Fig 10: 5G diurnal pattern.
    pub fig10: Fig10,
    /// Figs 11–12: 5G RSS level vs SNR and bandwidth.
    pub fig11_12: RssFigure,
    /// §3.3 cross-check: 4G per-RSS-level means.
    pub lte_rss: Vec<(u8, f64)>,
    /// Fig 13: WiFi CDFs, all bands.
    pub fig13: WifiCdfFigure,
    /// Fig 14: WiFi CDFs, 2.4 GHz.
    pub fig14: WifiCdfFigure,
    /// Fig 15: WiFi CDFs, 5 GHz.
    pub fig15: WifiCdfFigure,
    /// §3.4: share of WiFi users on ≤200 Mbps plans (overall, WiFi 6).
    pub slow_plan_shares: (f64, f64),
    /// Fig 16: WiFi 5 bandwidth PDF.
    pub fig16: PdfFigure,
    /// Fig 18: 4G bandwidth PDF.
    pub fig18: PdfFigure,
    /// Fig 19: 5G bandwidth PDF.
    pub fig19: PdfFigure,
    /// §3.1 spatial disparity.
    pub spatial: SpatialDisparity,
    /// §3.1 urban/rural gaps.
    pub urban_rural: UrbanRuralGap,
    /// §3.1 same-user-group decline.
    pub same_group: SameGroupDecline,
    /// §3 correlation summary.
    pub correlations: Correlations,
    /// §3.1 dataset summary (error on an empty population).
    pub summary: Result<DatasetSummary, EmptyPopulation>,
    /// Hardware-illusion decomposition for 4G, 5G, WiFi.
    pub devices: [HardwareIllusion; 3],
    /// Test-outcome rates per technology.
    pub outcomes: OutcomeRates,
    /// Ecosystem-profile tag prepended to every rendered figure, or
    /// `None` for untagged output (the paper's own ecosystem). Keeping
    /// the default untagged preserves byte-identical paper-china
    /// figures across the profile refactor.
    pub profile_tag: Option<&'static str>,
}

/// Every id [`MeasurementFigures::render`] understands, in paper order.
pub const SWEEP_IDS: [&str; 24] = [
    "table1",
    "table2",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "general",
    "devices",
    "summary",
    "robustness",
];

impl MeasurementFigures {
    /// Tag every rendered figure with the named ecosystem profile (see
    /// [`mbw_dataset::profile::EcosystemProfile`]). The streaming
    /// engine applies this for every profile except the paper's own, so
    /// cross-ecosystem figure output is self-describing.
    pub fn with_profile_tag(mut self, name: &'static str) -> Self {
        self.profile_tag = Some(name);
        self
    }

    /// Render one figure by the same ids the `figures` binary uses
    /// (`table1`, `fig01` … `fig19`, `general`, `devices`, `summary`,
    /// `robustness`). Returns `None` for unknown ids.
    pub fn render(&self, id: &str) -> Option<String> {
        let body = match id {
            "table1" => self.table1.render(),
            "table2" => self.table2.render(),
            "fig01" => self.fig01.render(),
            "fig02" => self.fig02.render(),
            "fig03" => self.fig03.render(),
            "fig04" => self.fig04.render(),
            "fig05" | "fig06" => self.fig05_06.render(),
            "fig07" => self.fig07.render(),
            "fig08" | "fig09" => self.fig08_09.render(),
            "fig10" => self.fig10.render(),
            "fig11" | "fig12" => self.fig11_12.render(),
            "fig13" => self.fig13.render(),
            "fig14" => self.fig14.render(),
            "fig15" => self.fig15.render(),
            "fig16" => self.fig16.render(),
            "fig18" => self.fig18.render(),
            "fig19" => self.fig19.render(),
            "general" => {
                let mut s = self.spatial.render();
                s.push_str(&self.urban_rural.render());
                s.push_str(&self.same_group.render());
                s.push_str(&self.correlations.render());
                s
            }
            "devices" => {
                let mut s = String::new();
                for d in &self.devices {
                    s.push_str(&d.render());
                }
                s
            }
            "summary" => self.summary.render(),
            "robustness" => self.outcomes.render(),
            _ => return None,
        };
        Some(match self.profile_tag {
            Some(profile) => format!("profile: {profile}\n{body}"),
            None => body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_dataset::{generate_sharded, DatasetConfig, ShardPlan, Year};

    /// Both yearly populations folded through one set, serially.
    fn figures(tests: usize, seed: u64) -> MeasurementFigures {
        let rows = |year| {
            let config = DatasetConfig {
                seed,
                tests,
                year,
                ..Default::default()
            };
            generate_sharded(config, ShardPlan::default())
        };
        let mut set = FigureSet::new();
        set.observe_baseline_records(&rows(Year::Y2020));
        set.observe_records(&rows(Year::Y2021));
        set.finish()
    }

    #[test]
    fn every_sweep_id_renders() {
        let figs = figures(30_000, 901);
        for id in SWEEP_IDS {
            let text = figs.render(id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(text.len() > 20, "{id} rendered almost nothing");
        }
        assert!(figs.render("fig99").is_none());
    }

    #[test]
    fn profile_tag_prepends_every_rendered_figure() {
        let figs = figures(5_000, 909);
        let untagged = figs.render("fig04").unwrap();
        let tagged = figs.with_profile_tag("europe-ran");
        for id in SWEEP_IDS {
            let text = tagged.render(id).unwrap();
            assert!(
                text.starts_with("profile: europe-ran\n"),
                "{id} missing tag"
            );
        }
        assert_eq!(
            tagged.render("fig04").unwrap(),
            format!("profile: europe-ran\n{untagged}")
        );
    }

    #[test]
    fn empty_population_reports_typed_summary_error() {
        let figs = FigureSet::new().finish();
        assert!(figs.summary.is_err());
        assert!(figs.render("summary").unwrap().contains("empty"));
        assert!(figs.render("table1").is_some());
    }
}
