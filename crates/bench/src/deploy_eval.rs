//! Fig 26 and the §5.3 infrastructure-cost comparison.
//!
//! Fig 26 is a streaming reducer over the replay's raw per-second
//! demand stream ([`mbw_deploy::replay_seconds`]); the cost report can
//! take its workload estimate either from the paper's calibrated
//! constants or from the evaluation campaign's own observed Swiftest
//! outcomes ([`WorkloadAcc`]).

use mbw_analysis::accum::FigureAccumulator;
use mbw_core::{EmptyCampaign, TrialView};
use mbw_deploy::utilization::{cost_comparison, ReplayConfig};
use mbw_deploy::{
    replay_seconds, solve_ilp, synthetic_catalog, PurchaseProblem, UtilizationReport,
    WorkloadEstimate,
};
use std::fmt::Write as _;

/// Fig 26 output: the utilisation CDF annotations plus the cost result.
#[derive(Debug, Clone)]
pub struct Fig26 {
    /// `(median, mean, p99, p999, max)` busy-second utilisation, %.
    pub summary: (f64, f64, f64, f64, f64),
    /// Fraction of seconds with any load at all.
    pub busy_fraction: f64,
    /// `(x%, CDF)` series over busy seconds.
    pub series: Vec<(f64, f64)>,
}

/// Streaming reducer for Fig 26 over per-second demand fractions.
#[derive(Debug, Clone, Default)]
pub struct Fig26Acc {
    seconds: usize,
    busy: Vec<f64>,
}

mbw_analysis::mergeable! {
    Fig26Acc {
        seconds: count("fig26 seconds"),
        busy,
    }
}

impl FigureAccumulator<f64> for Fig26Acc {
    type Output = Result<Fig26, EmptyCampaign>;

    fn observe(&mut self, &demand: &f64) {
        self.seconds += 1;
        if demand > 0.0 {
            self.busy.push(demand);
        }
    }

    fn finish(self) -> Self::Output {
        if self.seconds == 0 {
            return Err(EmptyCampaign);
        }
        let report = UtilizationReport {
            busy_fraction: self.busy.len() as f64 / self.seconds as f64,
            busy_samples: self.busy,
        };
        let series = report
            .ecdf()
            .series(40)
            .into_iter()
            .map(|(x, f)| (x * 100.0, f))
            .collect();
        Ok(Fig26 {
            summary: report.summary_percent(),
            busy_fraction: report.busy_fraction,
            series,
        })
    }
}

/// Run the month-long replay (scaled to `days`).
pub fn fig26(days: u32, seed: u64) -> Result<Fig26, EmptyCampaign> {
    let mut config = ReplayConfig::swiftest_paper(seed);
    config.days = days;
    let mut acc = Fig26Acc::default();
    for demand in replay_seconds(&config) {
        acc.observe(&demand);
    }
    acc.finish()
}

impl Fig26 {
    /// Text report.
    pub fn render(&self) -> String {
        let (median, mean, p99, p999, max) = self.summary;
        let mut out =
            String::from("Fig 26: Swiftest server bandwidth utilisation (busy seconds)\n");
        let _ = writeln!(
            out,
            "median = {median:.1}%  mean = {mean:.1}%  P99 = {p99:.1}%  P999 = {p999:.1}%  max = {max:.1}%"
        );
        let _ = writeln!(
            out,
            "busy seconds: {:.1}% of the month",
            self.busy_fraction * 100.0
        );
        for (x, f) in &self.series {
            let _ = writeln!(out, "{:>7.1}%  CDF {:>6.3}", x, f);
        }
        out
    }
}

/// Streaming reducer that estimates the deployment workload from the
/// campaign's own Swiftest pair outcomes — the "recent user scale and
/// their access bandwidths reflected in our data" of §5.2, with the
/// durations and reported bandwidths observed in the evaluation pool.
/// The estimate reads a p95, so both samples are kept whole and sorted
/// before they are read.
#[derive(Debug, Clone, Default)]
pub struct WorkloadAcc {
    durations_s: Vec<f64>,
    bandwidths_mbps: Vec<f64>,
}

mbw_analysis::mergeable! { WorkloadAcc { durations_s, bandwidths_mbps } }

impl<'a> FigureAccumulator<TrialView<'a>> for WorkloadAcc {
    type Output = Result<WorkloadEstimate, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let Some((_, swift, _)) = crate::bts_eval::eval_pair_outcomes(r) {
            self.durations_s.push(swift.total_s());
            self.bandwidths_mbps.push(swift.estimate_mbps);
        }
    }

    fn finish(mut self) -> Self::Output {
        if self.durations_s.is_empty() {
            return Err(EmptyCampaign);
        }
        self.durations_s.sort_by(f64::total_cmp);
        self.bandwidths_mbps.sort_by(f64::total_cmp);
        Ok(WorkloadEstimate::from_samples(
            10_000.0,
            &self.durations_s,
            &self.bandwidths_mbps,
        ))
    }
}

/// The §5.3 cost table: BTS-APP's 50 × 1 Gbps allocation vs Swiftest's
/// ILP purchase, plus the plan details.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// BTS-APP's monthly spend, USD.
    pub bts_app_cost: f64,
    /// Swiftest's monthly spend, USD.
    pub swiftest_cost: f64,
    /// Reduction factor.
    pub ratio: f64,
    /// Swiftest's fleet: `(offer id, units)`.
    pub plan: Vec<(u32, u32)>,
    /// Swiftest's fleet capacity, Mbps.
    pub fleet_mbps: f64,
}

/// Compute the cost comparison for a given workload estimate.
pub fn cost_report_with(workload: &WorkloadEstimate, seed: u64) -> CostReport {
    // The BTS-APP side of the comparison is workload-independent: a
    // fixed 50 × 1 Gbps allocation at market price.
    let (bts, _) = cost_comparison(seed);
    let catalog: Vec<_> = synthetic_catalog(seed)
        .into_iter()
        .filter(|o| o.bandwidth_mbps <= 300.0)
        .collect();
    let plan = solve_ilp(&PurchaseProblem {
        offers: catalog,
        demand_mbps: workload.provisioning_demand_mbps(),
        margin: 0.08,
    })
    .expect("paper workload is purchasable");
    CostReport {
        bts_app_cost: bts,
        swiftest_cost: plan.total_cost,
        ratio: bts / plan.total_cost,
        plan: plan.purchases.clone(),
        fleet_mbps: plan.total_bandwidth_mbps,
    }
}

impl CostReport {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("Infrastructure cost (per month, §5.3)\n");
        let _ = writeln!(out, "BTS-APP  (50 × 1 Gbps):  ${:>8.2}", self.bts_app_cost);
        let _ = writeln!(
            out,
            "Swiftest (ILP, {:.0} Mbps): ${:>8.2}",
            self.fleet_mbps, self.swiftest_cost
        );
        let _ = writeln!(out, "reduction: {:.1}x", self.ratio);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_core::{run_campaign, CampaignPlan};

    #[test]
    fn fig26_annotations_have_fig_shape() {
        let fig = fig26(10, 42).expect("non-empty replay");
        let (median, mean, p99, _p999, max) = fig.summary;
        assert!(median < mean, "skewed right: {median} vs {mean}");
        assert!(mean < p99 && p99 < max);
        assert!((1.0..=15.0).contains(&median), "median {median}");
        assert!(p99 < 80.0, "p99 {p99}");
    }

    #[test]
    fn fig26_matches_the_batch_replay() {
        // The streaming reducer over `replay_seconds` must agree with
        // `replay_month`'s batch summary exactly.
        let config = ReplayConfig::swiftest_paper(26);
        let fig = fig26(config.days, 26).expect("ok");
        let report = mbw_deploy::replay_month(&config);
        assert_eq!(fig.summary, report.summary_percent());
        assert_eq!(fig.busy_fraction, report.busy_fraction);
    }

    #[test]
    fn empty_replay_is_a_typed_error() {
        assert_eq!(fig26(0, 1).unwrap_err(), EmptyCampaign);
    }

    #[test]
    fn cost_reduction_matches_paper_scale() {
        let report = cost_report_with(&WorkloadEstimate::swiftest_paper(), 7);
        assert!(
            (8.0..=30.0).contains(&report.ratio),
            "ratio {}",
            report.ratio
        );
        assert!(report.fleet_mbps >= 1_900.0);
        assert!(!report.plan.is_empty());
    }

    #[test]
    fn campaign_workload_lands_near_the_paper_constants() {
        let mut plan = CampaignPlan::new(520);
        crate::bts_eval::plan_pairs(&mut plan, 40);
        let pool = run_campaign(&plan, 1);
        let w = crate::eval_sweep::reduce(WorkloadAcc::default(), &pool).expect("non-empty");
        let hand = WorkloadEstimate::swiftest_paper();
        // Swiftest's observed ~1 s tests and the pooled bandwidth
        // population should reproduce §5.2's calibrated workload well
        // enough that the same 2 Gbps-class fleet covers it.
        assert!(
            (0.5..=2.5).contains(&w.mean_duration_s),
            "duration {}",
            w.mean_duration_s
        );
        assert!(
            (w.mean_bandwidth_mbps - hand.mean_bandwidth_mbps).abs() < 120.0,
            "mean bw {}",
            w.mean_bandwidth_mbps
        );
        let report = cost_report_with(&w, 7);
        assert!(
            (5.0..=40.0).contains(&report.ratio),
            "ratio {}",
            report.ratio
        );
    }

    #[test]
    fn renders() {
        assert!(fig26(3, 1).expect("ok").render().contains("P99"));
        let report = cost_report_with(&WorkloadEstimate::swiftest_paper(), 2);
        assert!(report.render().contains("reduction"));
    }
}
