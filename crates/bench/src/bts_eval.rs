//! Figures 20–25: the Swiftest evaluation.
//!
//! §5.3's protocol: opt-in users run back-to-back test pairs (Swiftest
//! and BTS-APP in random order) on whatever link they have; the
//! benchmark study additionally runs FAST and FastBTS in the same test
//! group. Every figure here is a streaming reducer
//! ([`FigureAccumulator`]) over the shared campaign pool: the
//! back-to-back pairs run *once* and feed the duration (Fig 20),
//! data-usage (Fig 21), and deviation (Fig 22) figures alike, and the
//! four-service groups feed Figs 23–25.

use mbw_analysis::accum::FigureAccumulator;
use mbw_core::{
    trial_seed, BackToBack, BtsKind, CampaignPlan, EmptyCampaign, ScenarioId, TechClass,
    TestHarness, TrialKind, TrialOutcome, TrialView,
};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use mbw_stats::{descriptive, Ecdf};
use std::fmt::Write as _;

/// The back-to-back pair kind shared by Figs 20–22 (and the workload
/// estimate): Swiftest first, BTS-APP second, on one drawn link.
pub const EVAL_PAIR: TrialKind = TrialKind::Pair(BtsKind::Swiftest, BtsKind::BtsApp);

fn tech_index(tech: TechClass) -> usize {
    TechClass::ALL
        .iter()
        .position(|&t| t == tech)
        .expect("tech in ALL")
}

/// The pair trial's `(tech, swiftest, bts_app)` outcomes, if `r` is
/// one of the shared back-to-back pairs.
pub fn eval_pair_outcomes(r: &TrialView<'_>) -> Option<(TechClass, TrialOutcome, TrialOutcome)> {
    match (r.spec().kind, r.spec().scenario) {
        (k, ScenarioId::Tech(tech)) if k == EVAL_PAIR => Some((tech, r.outcome(0), r.outcome(1))),
        _ => None,
    }
}

/// Add the shared back-to-back pair series (Figs 20–22) to `plan`.
pub fn plan_pairs(plan: &mut CampaignPlan, n: usize) {
    for tech in TechClass::ALL {
        plan.push_series(EVAL_PAIR, ScenarioId::Tech(tech), n);
    }
}

/// Add the four-service test-group series (Figs 23–25) to `plan`.
pub fn plan_groups(plan: &mut CampaignPlan, n: usize) {
    for tech in TechClass::ALL {
        plan.push_series(TrialKind::Group, ScenarioId::Tech(tech), n);
    }
}

/// Add the §7 mmWave series to `plan`.
pub fn plan_mmwave(plan: &mut CampaignPlan, n: usize) {
    plan.push_series(TrialKind::Single(BtsKind::Swiftest), ScenarioId::Mmwave, n);
}

/// Fig 20: Swiftest test-time distribution per technology.
#[derive(Debug, Clone)]
pub struct Fig20 {
    /// `(tech, probing-time ECDF seconds, mean total incl. PING)`.
    pub series: Vec<(TechClass, Ecdf, f64)>,
    /// Fraction of tests finishing within one second including PING.
    pub within_one_second: f64,
}

/// Streaming reducer for Fig 20 over the shared pair trials.
#[derive(Debug, Clone, Default)]
pub struct Fig20Acc {
    durations: [Vec<f64>; 3],
    totals: [Vec<f64>; 3],
}

impl Codec for Fig20Acc {
    fn encode(&self, enc: &mut Enc) {
        self.durations.encode(enc);
        self.totals.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            durations: Codec::decode(dec)?,
            totals: Codec::decode(dec)?,
        })
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for Fig20Acc {
    type Output = Result<Fig20, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let Some((tech, swift, _bts)) = eval_pair_outcomes(r) {
            let t = tech_index(tech);
            self.durations[t].push(swift.duration_s);
            self.totals[t].push(swift.total_s());
        }
    }

    fn merge(&mut self, other: Self) {
        for t in 0..3 {
            self.durations[t].extend(other.durations[t].iter());
            self.totals[t].extend(other.totals[t].iter());
        }
    }

    fn finish(self) -> Self::Output {
        let total_count: usize = self.totals.iter().map(Vec::len).sum();
        if total_count == 0 {
            return Err(EmptyCampaign);
        }
        let fast_count: usize = self
            .totals
            .iter()
            .flat_map(|v| v.iter())
            .filter(|&&t| t <= 1.0)
            .count();
        let series = TechClass::ALL
            .iter()
            .map(|&tech| {
                let t = tech_index(tech);
                (
                    tech,
                    Ecdf::new(&self.durations[t]),
                    descriptive::mean(&self.totals[t]),
                )
            })
            .collect();
        Ok(Fig20 {
            series,
            within_one_second: fast_count as f64 / total_count as f64,
        })
    }
}

impl Fig20 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 20: Swiftest test time per technology (seconds)\n");
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>8} {:>8} {:>12}",
            "tech", "mean", "median", "max", "mean+PING"
        );
        for (tech, ecdf, total) in &self.series {
            let _ = writeln!(
                out,
                "{:<6} {:>8.2} {:>8.2} {:>8.2} {:>12.2}",
                tech.name(),
                ecdf.mean(),
                ecdf.median(),
                ecdf.max(),
                total
            );
        }
        let _ = writeln!(
            out,
            "tests finished within 1 s (incl. PING): {:.0}%",
            self.within_one_second * 100.0
        );
        out
    }
}

/// Fig 21: data usage per test, BTS-APP vs Swiftest.
#[derive(Debug, Clone)]
pub struct Fig21 {
    /// `(tech, mean BTS-APP MB, mean Swiftest MB, ratio)`.
    pub rows: Vec<(TechClass, f64, f64, f64)>,
}

/// Streaming reducer for Fig 21 over the shared pair trials.
#[derive(Debug, Clone, Default)]
pub struct Fig21Acc {
    bts: [Vec<f64>; 3],
    swift: [Vec<f64>; 3],
}

impl Codec for Fig21Acc {
    fn encode(&self, enc: &mut Enc) {
        self.bts.encode(enc);
        self.swift.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            bts: Codec::decode(dec)?,
            swift: Codec::decode(dec)?,
        })
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for Fig21Acc {
    type Output = Result<Fig21, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let Some((tech, swift, bts)) = eval_pair_outcomes(r) {
            let t = tech_index(tech);
            self.bts[t].push(bts.data_bytes / 1e6);
            self.swift[t].push(swift.data_bytes / 1e6);
        }
    }

    fn merge(&mut self, other: Self) {
        for t in 0..3 {
            self.bts[t].extend(other.bts[t].iter());
            self.swift[t].extend(other.swift[t].iter());
        }
    }

    fn finish(self) -> Self::Output {
        if self.bts.iter().all(Vec::is_empty) {
            return Err(EmptyCampaign);
        }
        let rows = TechClass::ALL
            .iter()
            .map(|&tech| {
                let t = tech_index(tech);
                let b = descriptive::mean(&self.bts[t]);
                let s = descriptive::mean(&self.swift[t]);
                (tech, b, s, b / s.max(1e-9))
            })
            .collect();
        Ok(Fig21 { rows })
    }
}

impl Fig21 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 21: average data usage per test (MB)\n");
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>10} {:>7}",
            "tech", "BTS-APP", "Swiftest", "ratio"
        );
        for (tech, b, s, r) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>10.1} {:>10.1} {:>6.1}x",
                tech.name(),
                b,
                s,
                r
            );
        }
        out
    }
}

/// Fig 22: deviation between back-to-back Swiftest and BTS-APP results.
#[derive(Debug, Clone)]
pub struct Fig22 {
    /// Per-technology deviation ECDFs (fractions, not %).
    pub series: Vec<(TechClass, Ecdf)>,
    /// Pooled deviations.
    pub overall: Ecdf,
    /// Fraction of pairs deviating more than 10%.
    pub above_10pct: f64,
    /// Fraction of pairs deviating more than 30%.
    pub above_30pct: f64,
}

/// Streaming reducer for Fig 22 over the shared pair trials.
#[derive(Debug, Clone, Default)]
pub struct Fig22Acc {
    devs: [Vec<f64>; 3],
}

impl Codec for Fig22Acc {
    fn encode(&self, enc: &mut Enc) {
        self.devs.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            devs: Codec::decode(dec)?,
        })
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for Fig22Acc {
    type Output = Result<Fig22, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let Some((tech, swift, bts)) = eval_pair_outcomes(r) {
            self.devs[tech_index(tech)].push(descriptive::relative_deviation(
                swift.estimate_mbps,
                bts.estimate_mbps,
            ));
        }
    }

    fn merge(&mut self, other: Self) {
        for t in 0..3 {
            self.devs[t].extend(other.devs[t].iter());
        }
    }

    fn finish(self) -> Self::Output {
        if self.devs.iter().all(Vec::is_empty) {
            return Err(EmptyCampaign);
        }
        let mut series = Vec::new();
        let mut pooled = Vec::new();
        for &tech in &TechClass::ALL {
            let devs = &self.devs[tech_index(tech)];
            pooled.extend_from_slice(devs);
            series.push((tech, Ecdf::new(devs)));
        }
        Ok(Fig22 {
            above_10pct: descriptive::fraction_above(&pooled, 0.10),
            above_30pct: descriptive::fraction_above(&pooled, 0.30),
            overall: Ecdf::new(&pooled),
            series,
        })
    }
}

impl Fig22 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 22: result deviation between Swiftest and BTS-APP (%)\n");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8}",
            "tech", "mean", "median", "max"
        );
        for (tech, e) in &self.series {
            let _ = writeln!(
                out,
                "{:<8} {:>8.1} {:>8.1} {:>8.1}",
                tech.name(),
                e.mean() * 100.0,
                e.median() * 100.0,
                e.max() * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<8} {:>8.1} {:>8.1} {:>8.1}",
            "overall",
            self.overall.mean() * 100.0,
            self.overall.median() * 100.0,
            self.overall.max() * 100.0
        );
        let _ = writeln!(
            out,
            ">10%: {:.1}% of pairs   >30%: {:.1}% of pairs",
            self.above_10pct * 100.0,
            self.above_30pct * 100.0
        );
        out
    }
}

/// Figs 23–25: FAST vs FastBTS vs Swiftest (test time, data usage,
/// accuracy against the same-group BTS-APP result).
#[derive(Debug, Clone)]
pub struct Fig23to25 {
    /// `(tech, kind, mean time s, mean data MB, mean accuracy)`.
    pub rows: Vec<(TechClass, BtsKind, f64, f64, f64)>,
}

/// The three contenders of the benchmark study.
pub const CONTENDERS: [BtsKind; 3] = [BtsKind::Fast, BtsKind::FastBts, BtsKind::Swiftest];

/// Streaming reducer for Figs 23–25 over the group trials.
#[derive(Debug, Clone, Default)]
pub struct Fig23to25Acc {
    /// `[tech][contender]` sample vectors.
    time: [[Vec<f64>; 3]; 3],
    data: [[Vec<f64>; 3]; 3],
    acc: [[Vec<f64>; 3]; 3],
}

impl Codec for Fig23to25Acc {
    fn encode(&self, enc: &mut Enc) {
        self.time.encode(enc);
        self.data.encode(enc);
        self.acc.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            time: Codec::decode(dec)?,
            data: Codec::decode(dec)?,
            acc: Codec::decode(dec)?,
        })
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for Fig23to25Acc {
    type Output = Result<Fig23to25, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        let (TrialKind::Group, ScenarioId::Tech(tech)) = (r.spec().kind, r.spec().scenario) else {
            return;
        };
        let t = tech_index(tech);
        let reference = r.outcome(0);
        // Group rows follow `TestGroup`: BTS-APP, then FAST, FastBTS,
        // Swiftest — the CONTENDERS order.
        for k in 0..CONTENDERS.len() {
            let o = r.outcome(1 + k);
            self.time[t][k].push(o.duration_s);
            self.data[t][k].push(o.data_bytes / 1e6);
            self.acc[t][k].push(o.accuracy_vs(reference.estimate_mbps).max(0.0));
        }
    }

    fn merge(&mut self, other: Self) {
        for t in 0..3 {
            for k in 0..3 {
                self.time[t][k].extend(other.time[t][k].iter());
                self.data[t][k].extend(other.data[t][k].iter());
                self.acc[t][k].extend(other.acc[t][k].iter());
            }
        }
    }

    fn finish(self) -> Self::Output {
        if self.time.iter().flatten().all(Vec::is_empty) {
            return Err(EmptyCampaign);
        }
        let mut rows = Vec::new();
        for &tech in &TechClass::ALL {
            let t = tech_index(tech);
            for (k, &kind) in CONTENDERS.iter().enumerate() {
                rows.push((
                    tech,
                    kind,
                    descriptive::mean(&self.time[t][k]),
                    descriptive::mean(&self.data[t][k]),
                    descriptive::mean(&self.acc[t][k]),
                ));
            }
        }
        Ok(Fig23to25 { rows })
    }
}

impl Fig23to25 {
    /// One `(tech, kind)` cell: `(time, data, accuracy)`.
    pub fn cell(&self, tech: TechClass, kind: BtsKind) -> Option<(f64, f64, f64)> {
        self.rows
            .iter()
            .find(|(t, k, ..)| *t == tech && *k == kind)
            .map(|&(_, _, t, d, a)| (t, d, a))
    }

    /// Text report.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figs 23-25: FAST vs FastBTS vs Swiftest (time s / data MB / accuracy)\n");
        let _ = writeln!(
            out,
            "{:<6} {:<9} {:>8} {:>9} {:>9}",
            "tech", "BTS", "time", "data MB", "accuracy"
        );
        for (tech, kind, t, d, a) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:<9} {:>8.2} {:>9.1} {:>9.2}",
                tech.name(),
                kind.name(),
                t,
                d,
                a
            );
        }
        out
    }
}

/// Shared helper: run a back-to-back pair (used by examples).
pub fn run_pair(tech: TechClass, seed: u64) -> BackToBack {
    TestHarness::new(tech).back_to_back(BtsKind::Swiftest, BtsKind::BtsApp, seed)
}

/// §7 extension: the UDP prober vs the TCP-variant (model-guided
/// congestion control) on the same drawn links.
#[derive(Debug, Clone)]
pub struct TcpVariantComparison {
    /// `(tech, udp time s, tcp time s, udp data MB, tcp data MB, mean deviation)`.
    pub rows: Vec<(TechClass, f64, f64, f64, f64, f64)>,
}

/// Run the UDP-vs-TCP-variant comparison with `n` links per technology.
pub fn tcp_variant_comparison(n: usize, seed: u64) -> TcpVariantComparison {
    use mbw_core::estimator::ConvergenceEstimator;
    use mbw_core::probe::{run_swiftest, SwiftestConfig};
    use mbw_core::tcp_variant::run_swiftest_tcp_default;
    let mut rows = Vec::new();
    for (t, &tech) in TechClass::ALL.iter().enumerate() {
        let scenario = mbw_core::AccessScenario::default_for(tech);
        let model = scenario.model.clone();
        let mut udp_t = Vec::new();
        let mut tcp_t = Vec::new();
        let mut udp_d = Vec::new();
        let mut tcp_d = Vec::new();
        let mut dev = Vec::new();
        for i in 0..n {
            // One seed stream per technology, same derivation as the
            // campaign's trials.
            let s = trial_seed(seed, (0x7C9 << 8) | t as u64, i as u64);
            let drawn = scenario.draw(s);
            let mut est = ConvergenceEstimator::swiftest();
            let udp = run_swiftest(
                drawn.build(),
                &model,
                &mut est,
                &SwiftestConfig::default(),
                s ^ 0x51AB,
            );
            let tcp = run_swiftest_tcp_default(drawn.build(), &model, s ^ 0x51AB);
            udp_t.push(udp.duration.as_secs_f64());
            tcp_t.push(tcp.duration.as_secs_f64());
            udp_d.push(udp.data_bytes / 1e6);
            tcp_d.push(tcp.data_bytes / 1e6);
            if udp.estimate_mbps > 0.0 && tcp.estimate_mbps > 0.0 {
                dev.push(mbw_stats::descriptive::relative_deviation(
                    udp.estimate_mbps,
                    tcp.estimate_mbps,
                ));
            }
        }
        rows.push((
            tech,
            descriptive::mean(&udp_t),
            descriptive::mean(&tcp_t),
            descriptive::mean(&udp_d),
            descriptive::mean(&tcp_d),
            descriptive::mean(&dev),
        ));
    }
    TcpVariantComparison { rows }
}

impl TcpVariantComparison {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "TCP-variant Swiftest (§7) vs the UDP prober (time s / data MB / deviation)\n",
        );
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>8} {:>9} {:>9} {:>10}",
            "tech", "UDP t", "TCP t", "UDP MB", "TCP MB", "deviation%"
        );
        for (tech, ut, tt, ud, td, dev) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>8.2} {:>8.2} {:>9.1} {:>9.1} {:>10.1}",
                tech.name(),
                ut,
                tt,
                ud,
                td,
                dev * 100.0
            );
        }
        out
    }
}

/// §7 extension: Swiftest over an mmWave-class scenario.
#[derive(Debug, Clone)]
pub struct MmwaveReport {
    /// Mean probing time, seconds.
    pub mean_duration_s: f64,
    /// Mean accuracy against the drawn link's true capacity.
    pub mean_accuracy: f64,
    /// Links measured.
    pub links: usize,
}

/// Streaming reducer for the mmWave report over the campaign pool.
#[derive(Debug, Clone, Default)]
pub struct MmwaveAcc {
    durations: Vec<f64>,
    acc: Vec<f64>,
}

impl Codec for MmwaveAcc {
    fn encode(&self, enc: &mut Enc) {
        self.durations.encode(enc);
        self.acc.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            durations: Codec::decode(dec)?,
            acc: Codec::decode(dec)?,
        })
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for MmwaveAcc {
    type Output = Result<MmwaveReport, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        let spec = r.spec();
        if spec.kind == TrialKind::Single(BtsKind::Swiftest) && spec.scenario == ScenarioId::Mmwave
        {
            let o = r.solo();
            self.durations.push(o.duration_s);
            self.acc.push(o.accuracy_vs(o.truth_mbps).max(0.0));
        }
    }

    fn merge(&mut self, other: Self) {
        self.durations.extend(other.durations);
        self.acc.extend(other.acc);
    }

    fn finish(self) -> Self::Output {
        if self.durations.is_empty() {
            return Err(EmptyCampaign);
        }
        Ok(MmwaveReport {
            mean_duration_s: descriptive::mean(&self.durations),
            mean_accuracy: descriptive::mean(&self.acc),
            links: self.durations.len(),
        })
    }
}

impl MmwaveReport {
    /// Text report.
    pub fn render(&self) -> String {
        format!(
            "Swiftest on mmWave 5G (§7): mean test time {:.2}s, mean accuracy {:.3} over {} links\n\
             (heavy blockage-driven fluctuation: accuracy below the sub-6 GHz ~0.97 is expected)\n",
            self.mean_duration_s, self.mean_accuracy, self.links
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_core::run_campaign;

    /// One figure on its own: plan its series, run them on one thread,
    /// fold its reducer over the pool.
    fn solo<A, O>(series: fn(&mut CampaignPlan, usize), n: usize, seed: u64, acc: A) -> O
    where
        A: for<'a> FigureAccumulator<TrialView<'a>, Output = O>,
    {
        let mut plan = CampaignPlan::new(seed);
        series(&mut plan, n);
        crate::eval_sweep::reduce(acc, &run_campaign(&plan, 1))
    }

    #[test]
    fn fig20_swiftest_is_about_one_second() {
        let fig = solo(plan_pairs, 60, 2000, Fig20Acc::default()).expect("non-empty campaign");
        for (tech, ecdf, mean_total) in &fig.series {
            // §5.3: means 0.95–1.05 s probing; ≈1.19 s incl. PING.
            assert!(
                (0.4..=2.0).contains(&ecdf.mean()),
                "{tech}: mean {}",
                ecdf.mean()
            );
            assert!(ecdf.max() < 5.0, "{tech}: max {}", ecdf.max());
            assert!(*mean_total < 2.4, "{tech}: total {mean_total}");
        }
        // §5.3: the majority of tests finish within one second.
        assert!(fig.within_one_second > 0.30, "{}", fig.within_one_second);
    }

    #[test]
    fn fig20_empty_campaign_is_a_typed_error() {
        assert_eq!(
            solo(plan_pairs, 0, 1, Fig20Acc::default()).unwrap_err(),
            EmptyCampaign
        );
        assert_eq!(
            solo(plan_pairs, 0, 1, Fig21Acc::default()).unwrap_err(),
            EmptyCampaign
        );
        assert_eq!(
            solo(plan_pairs, 0, 1, Fig22Acc::default()).unwrap_err(),
            EmptyCampaign
        );
        assert_eq!(
            solo(plan_groups, 0, 1, Fig23to25Acc::default()).unwrap_err(),
            EmptyCampaign
        );
        assert_eq!(
            solo(plan_mmwave, 0, 1, MmwaveAcc::default()).unwrap_err(),
            EmptyCampaign
        );
    }

    #[test]
    fn fig21_data_usage_ratio() {
        let fig = solo(plan_pairs, 40, 2100, Fig21Acc::default()).expect("non-empty campaign");
        for (tech, bts, swift, ratio) in &fig.rows {
            assert!(bts > swift, "{tech}");
            // §5.3: 8.2–9.0×; accept a broad band for the simulation.
            assert!((3.0..=25.0).contains(ratio), "{tech}: ratio {ratio}");
        }
        // 5G: BTS-APP hundreds of MB, Swiftest tens (289 vs 32 MB).
        let nr = fig.rows.iter().find(|(t, ..)| *t == TechClass::Nr).unwrap();
        assert!(nr.1 > 100.0, "BTS-APP 5G usage {}", nr.1);
        assert!(nr.2 < 80.0, "Swiftest 5G usage {}", nr.2);
    }

    #[test]
    fn fig22_deviations_are_small() {
        let fig = solo(plan_pairs, 50, 2200, Fig22Acc::default()).expect("non-empty campaign");
        // §5.3: mean 5.1%, median 3.0%; a small fraction exceeds 10%.
        assert!(fig.overall.mean() < 0.12, "mean {}", fig.overall.mean());
        assert!(
            fig.overall.median() < 0.08,
            "median {}",
            fig.overall.median()
        );
        assert!(fig.above_10pct < 0.35, "{}", fig.above_10pct);
        assert!(fig.above_30pct < fig.above_10pct);
    }

    #[test]
    fn fig23_25_swiftest_wins_time_data_and_accuracy() {
        let fig = solo(plan_groups, 30, 2300, Fig23to25Acc::default()).expect("non-empty campaign");
        for tech in TechClass::ALL {
            let (t_fast, d_fast, a_fast) = fig.cell(tech, BtsKind::Fast).unwrap();
            let (t_fbts, d_fbts, a_fbts) = fig.cell(tech, BtsKind::FastBts).unwrap();
            let (t_swift, d_swift, a_swift) = fig.cell(tech, BtsKind::Swiftest).unwrap();
            // Fig 23: Swiftest is fastest.
            assert!(
                t_swift < t_fast && t_swift < t_fbts,
                "{tech}: times {t_fast} {t_fbts} {t_swift}"
            );
            // Fig 24: Swiftest uses a fraction of FAST's data. (FastBTS
            // can post even smaller numbers, but only because its crude
            // convergence aborts tests early — the accuracy assertions
            // below are where that catches up with it.)
            assert!(d_swift < d_fast, "{tech}: data {d_fast} {d_fbts} {d_swift}");
            assert!(d_fbts < d_fast, "{tech}: data {d_fast} {d_fbts} {d_swift}");
            // Fig 25: Swiftest at least matches FAST per technology
            // (on stable low-BDP 4G links the two tie) and clearly beats
            // FastBTS, which is the worst everywhere.
            assert!(
                a_swift > a_fast - 0.02,
                "{tech}: acc {a_swift} !≳ FAST {a_fast}"
            );
            assert!(
                a_swift > a_fbts,
                "{tech}: acc {a_swift} !> FastBTS {a_fbts}"
            );
            assert!(
                a_fbts < a_fast,
                "{tech}: FastBTS should be worst ({a_fbts} vs {a_fast})"
            );
        }
        // Pooled across technologies Swiftest at least matches FAST (the
        // paper's 8–12% gap over FAST comes from real-world TCP noise
        // our simulated FAST does not suffer; see EXPERIMENTS.md) and
        // clearly beats FastBTS, as in Fig 25.
        let pooled = |kind: BtsKind| {
            let v: Vec<f64> = fig
                .rows
                .iter()
                .filter(|(_, k, ..)| *k == kind)
                .map(|&(.., a)| a)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(pooled(BtsKind::Swiftest) > pooled(BtsKind::Fast) - 0.01);
        assert!(pooled(BtsKind::Swiftest) > pooled(BtsKind::FastBts) + 0.1);
    }

    #[test]
    fn renders_are_tables() {
        assert!(solo(plan_pairs, 5, 1, Fig20Acc::default())
            .expect("ok")
            .render()
            .contains("WiFi"));
        assert!(solo(plan_pairs, 5, 2, Fig21Acc::default())
            .expect("ok")
            .render()
            .contains('x'));
        assert!(solo(plan_pairs, 5, 3, Fig22Acc::default())
            .expect("ok")
            .render()
            .contains("overall"));
        assert!(solo(plan_groups, 5, 4, Fig23to25Acc::default())
            .expect("ok")
            .render()
            .contains("Swiftest"));
        assert!(solo(plan_mmwave, 5, 5, MmwaveAcc::default())
            .expect("ok")
            .render()
            .contains("mmWave"));
    }
}
