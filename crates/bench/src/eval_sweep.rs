//! Fused single-pass reduction of the Swiftest evaluation figures.
//!
//! The evaluation half of the paper (Figs 17, 20–25, the ablations,
//! the mmWave report, and the cost table's workload estimate) is one
//! plan → execute → reduce campaign:
//!
//! 1. **Plan** — [`plan_for`] enumerates the union of trials the
//!    requested figure ids need. [`mbw_core::CampaignPlan`]
//!    deduplicates: Figs 20–22 and the workload estimate all read the
//!    *same* back-to-back pair series, and the paper-default ablation
//!    row is shared by all three ablation tables.
//! 2. **Execute** — [`mbw_core::run_campaign`] fills a columnar
//!    [`TrialPool`], byte-identical for any thread count.
//! 3. **Reduce** — [`EvalFigureSet`] folds every requested figure in a
//!    single pass over the pool; [`reduce`] folds one accumulator, which
//!    is how a figure is computed on its own.
//!
//! Per-trial seeds are *structural* (derived from what a trial is, not
//! where it sits in the plan), so the fused pool reproduces each figure
//! computed alone exactly: `EvalFigures::render("fig20")` is
//! byte-identical to `plan_pairs` → `run_campaign(.., 1)` →
//! `reduce(Fig20Acc::default(), ..)` rendered, for the same count and
//! campaign seed.

use crate::ablation::{
    render_variants, AblationAcc, AblationTables, CONVERGE_TABLE, ESCALATE_TABLE, INIT_TABLE,
};
use crate::bts_eval::{
    Fig20, Fig20Acc, Fig21, Fig21Acc, Fig22, Fig22Acc, Fig23to25, Fig23to25Acc, MmwaveAcc,
    MmwaveReport,
};
use crate::deploy_eval::{cost_report_with, WorkloadAcc};
use crate::fig17::{Fig17, Fig17Acc};
use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::summary::Mergeable;
use mbw_core::{CampaignPlan, EmptyCampaign, EvalCounts, TrialPool, TrialView, VariantId};
use mbw_deploy::WorkloadEstimate;
use mbw_stats::pool;
use mbw_telemetry::trace;

/// Figure ids the fused evaluation sweep can serve from one pool.
pub const EVAL_SWEEP_IDS: [&str; 12] = [
    "fig17",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "ablation_init",
    "ablation_converge",
    "ablation_escalate",
    "mmwave",
    "cost",
];

/// Fold one accumulator over every trial of `pool`.
pub fn reduce<A, O>(mut acc: A, pool: &TrialPool) -> O
where
    A: for<'a> FigureAccumulator<TrialView<'a>, Output = O>,
{
    for view in pool.iter() {
        acc.observe(&view);
    }
    acc.finish()
}

/// Fold the full evaluation figure set over every trial of `pool`,
/// then finish it on a work pool of `threads` (see
/// [`EvalFigureSet::finish_with`]). Byte-identical to [`reduce`] at
/// any thread count.
pub fn reduce_with(mut set: EvalFigureSet, pool: &TrialPool, threads: usize) -> EvalFigures {
    for view in pool.iter() {
        set.observe(&view);
    }
    set.finish_with(threads)
}

/// Plan the union of trials the requested figure ids need. Unknown ids
/// plan nothing (the binary rejects them before getting here).
pub fn plan_for<S: AsRef<str>>(ids: &[S], counts: &EvalCounts, campaign_seed: u64) -> CampaignPlan {
    let mut plan = CampaignPlan::new(campaign_seed);
    let wants = |id: &str| ids.iter().any(|x| x.as_ref() == id);
    if wants("fig17") {
        crate::fig17::plan_fig17(&mut plan, counts.ramp_paths);
    }
    if wants("fig20") || wants("fig21") || wants("fig22") || wants("cost") {
        crate::bts_eval::plan_pairs(&mut plan, counts.tests);
    }
    if wants("fig23") || wants("fig24") || wants("fig25") {
        crate::bts_eval::plan_groups(&mut plan, counts.groups);
    }
    let mut variants: Vec<VariantId> = Vec::new();
    for (id, table) in [
        ("ablation_init", &INIT_TABLE[..]),
        ("ablation_converge", &CONVERGE_TABLE[..]),
        ("ablation_escalate", &ESCALATE_TABLE[..]),
    ] {
        if wants(id) {
            variants.extend(table.iter().map(|&(v, _)| v));
        }
    }
    crate::ablation::plan_variants(&mut plan, &variants, counts.ablation);
    if wants("mmwave") {
        crate::bts_eval::plan_mmwave(&mut plan, counts.mmwave);
    }
    plan
}

/// Every figure the fused pass produced. Each field carries its own
/// [`EmptyCampaign`] result: a pool planned without Fig 17's trials
/// still renders Fig 20 fine, and asking for the missing figure
/// surfaces the typed error instead of a NaN table.
#[derive(Debug, Clone)]
pub struct EvalFigures {
    /// Fig 17: TCP ramp-up times.
    pub fig17: Result<Fig17, EmptyCampaign>,
    /// Fig 20: Swiftest test-time distributions.
    pub fig20: Result<Fig20, EmptyCampaign>,
    /// Fig 21: data usage, BTS-APP vs Swiftest.
    pub fig21: Result<Fig21, EmptyCampaign>,
    /// Fig 22: back-to-back result deviation.
    pub fig22: Result<Fig22, EmptyCampaign>,
    /// Figs 23–25: the benchmark study.
    pub fig23_25: Result<Fig23to25, EmptyCampaign>,
    /// Per-variant ablation means (projected into the three tables).
    pub ablations: Result<AblationTables, EmptyCampaign>,
    /// §7 mmWave report.
    pub mmwave: Result<MmwaveReport, EmptyCampaign>,
    /// Workload estimated from the pool's own Swiftest outcomes.
    pub workload: Result<WorkloadEstimate, EmptyCampaign>,
    /// Catalog seed for the cost report.
    cost_seed: u64,
}

impl EvalFigures {
    /// Render one figure id; `None` for ids this sweep does not serve.
    pub fn render(&self, id: &str) -> Option<Result<String, EmptyCampaign>> {
        let table = |rows: &[(VariantId, &str)], title: &str| {
            self.ablations.clone().and_then(|t| {
                t.table(rows)
                    .map(|rows| render_variants(title, &rows))
                    .ok_or(EmptyCampaign)
            })
        };
        Some(match id {
            "fig17" => self.fig17.as_ref().map(Fig17::render).map_err(|&e| e),
            "fig20" => self.fig20.as_ref().map(Fig20::render).map_err(|&e| e),
            "fig21" => self.fig21.as_ref().map(Fig21::render).map_err(|&e| e),
            "fig22" => self.fig22.as_ref().map(Fig22::render).map_err(|&e| e),
            "fig23" | "fig24" | "fig25" => self
                .fig23_25
                .as_ref()
                .map(Fig23to25::render)
                .map_err(|&e| e),
            "ablation_init" => table(&INIT_TABLE, "Ablation: initial probing rate"),
            "ablation_converge" => table(&CONVERGE_TABLE, "Ablation: convergence rule"),
            "ablation_escalate" => table(&ESCALATE_TABLE, "Ablation: escalation policy"),
            "mmwave" => self
                .mmwave
                .as_ref()
                .map(MmwaveReport::render)
                .map_err(|&e| e),
            "cost" => self
                .workload
                .as_ref()
                .map(|w| cost_report_with(w, self.cost_seed).render())
                .map_err(|&e| e),
            _ => return None,
        })
    }
}

/// The fused accumulator: folds every evaluation figure in one pass.
#[derive(Debug, Clone)]
pub struct EvalFigureSet {
    fig17: Fig17Acc,
    fig20: Fig20Acc,
    fig21: Fig21Acc,
    fig22: Fig22Acc,
    fig23_25: Fig23to25Acc,
    ablations: AblationAcc,
    mmwave: MmwaveAcc,
    workload: WorkloadAcc,
    cost_seed: u64,
}

mbw_analysis::mergeable! {
    EvalFigureSet {
        fig17,
        fig20,
        fig21,
        fig22,
        fig23_25,
        ablations,
        mmwave,
        workload,
        // A part built under another catalog seed would finish to
        // another cost report: it is refused, not folded in.
        cost_seed: tag("evaluation cost seed"),
    } from Self::new(0)
}

impl EvalFigureSet {
    /// Fresh accumulator; `cost_seed` picks the server-catalog draw the
    /// cost report purchases from.
    pub fn new(cost_seed: u64) -> Self {
        Self {
            fig17: Fig17Acc::default(),
            fig20: Fig20Acc::default(),
            fig21: Fig21Acc::default(),
            fig22: Fig22Acc::default(),
            fig23_25: Fig23to25Acc::default(),
            ablations: AblationAcc::default(),
            mmwave: MmwaveAcc::default(),
            workload: WorkloadAcc::default(),
            cost_seed,
        }
    }

    /// Fold in a sibling set that observed another part of the campaign
    /// under the same cost seed: its [`Mergeable`] `merge`, callable
    /// without the trait in scope.
    pub fn merge(&mut self, other: Self) {
        Mergeable::merge(self, other);
    }

    /// Finish every evaluation figure on a work pool of `threads`
    /// (sibling of [`mbw_analysis::FigureSet::finish_with`]): the eight
    /// per-field finishes are independent pure reductions, so they run
    /// as one batch and the result is byte-identical at any thread
    /// count. Each finish is traced as a `finish.{field}` span under an
    /// `eval.finish` root.
    pub fn finish_with(self, threads: usize) -> EvalFigures {
        let tracer = trace::active();
        let mut spans = tracer.local();
        let all = spans.begin();
        let root_id = all.id;
        let Self {
            fig17,
            fig20,
            fig21,
            fig22,
            fig23_25,
            ablations,
            mmwave,
            workload,
            cost_seed,
        } = self;

        let mut o_fig17 = None;
        let mut o_fig20 = None;
        let mut o_fig21 = None;
        let mut o_fig22 = None;
        let mut o_fig23_25 = None;
        let mut o_ablations = None;
        let mut o_mmwave = None;
        let mut o_workload = None;
        {
            let tracer = &tracer;
            let mut tasks: Vec<pool::Task<'_, ()>> = Vec::with_capacity(8);
            macro_rules! job {
                ($name:literal, $slot:ident, $acc:ident) => {{
                    let slot = &mut $slot;
                    tasks.push(Box::new(move |_ctx| {
                        let mut spans = tracer.local();
                        let span = spans.begin();
                        *slot = Some($acc.finish());
                        spans.end(span, root_id, concat!("finish.", $name), "eval");
                    }));
                }};
            }
            job!("fig17", o_fig17, fig17);
            job!("fig20", o_fig20, fig20);
            job!("fig21", o_fig21, fig21);
            job!("fig22", o_fig22, fig22);
            job!("fig23_25", o_fig23_25, fig23_25);
            job!("ablations", o_ablations, ablations);
            job!("mmwave", o_mmwave, mmwave);
            job!("workload", o_workload, workload);
            pool::run(threads, tasks);
        }
        let figures = EvalFigures {
            fig17: o_fig17.expect("finish job ran"),
            fig20: o_fig20.expect("finish job ran"),
            fig21: o_fig21.expect("finish job ran"),
            fig22: o_fig22.expect("finish job ran"),
            fig23_25: o_fig23_25.expect("finish job ran"),
            ablations: o_ablations.expect("finish job ran"),
            mmwave: o_mmwave.expect("finish job ran"),
            workload: o_workload.expect("finish job ran"),
            cost_seed,
        };
        spans.end(all, 0, "eval.finish", "eval");
        figures
    }
}

impl<'a> FigureAccumulator<TrialView<'a>> for EvalFigureSet {
    type Output = EvalFigures;

    fn observe(&mut self, r: &TrialView<'a>) {
        self.fig17.observe(r);
        self.fig20.observe(r);
        self.fig21.observe(r);
        self.fig22.observe(r);
        self.fig23_25.observe(r);
        self.ablations.observe(r);
        self.mmwave.observe(r);
        self.workload.observe(r);
    }

    fn finish(self) -> Self::Output {
        self.finish_with(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_core::run_campaign;

    #[test]
    fn union_plan_is_smaller_than_the_sum_of_its_parts() {
        let counts = EvalCounts::uniform(8);
        let all = plan_for(&EVAL_SWEEP_IDS, &counts, 1);
        let separate: usize = EVAL_SWEEP_IDS
            .iter()
            .map(|&id| plan_for(&[id], &counts, 1).len())
            .sum();
        assert!(
            all.len() < separate,
            "no dedup: union {} vs sum {separate}",
            all.len()
        );
        // Figs 20–22 + cost share pairs; three tables share PaperDefault.
        assert_eq!(
            plan_for(&["fig20", "fig21", "fig22", "cost"], &counts, 1).len(),
            plan_for(&["fig20"], &counts, 1).len()
        );
    }

    #[test]
    fn fused_pass_serves_every_sweep_id() {
        let counts = EvalCounts::uniform(6);
        let plan = plan_for(&EVAL_SWEEP_IDS, &counts, 42);
        let pool = run_campaign(&plan, 2);
        let figs = reduce(EvalFigureSet::new(0xC0), &pool);
        for id in EVAL_SWEEP_IDS {
            let text = figs
                .render(id)
                .expect("known id")
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(!text.is_empty(), "{id}");
        }
        assert!(figs.render("fig04").is_none());
    }

    /// Every number a finished evaluation figure set holds, as bits.
    fn finished_bits(figs: &EvalFigures) -> Vec<u64> {
        let mut bits = Vec::new();
        let fig17 = figs.fig17.as_ref().expect("fig17");
        bits.extend(fig17.rows.iter().map(|&(_, _, t)| t));
        let fig20 = figs.fig20.as_ref().expect("fig20");
        for (_, ecdf, total) in &fig20.series {
            bits.extend([ecdf.mean(), ecdf.median(), ecdf.max(), *total]);
        }
        bits.push(fig20.within_one_second);
        let fig21 = figs.fig21.as_ref().expect("fig21");
        bits.extend(fig21.rows.iter().flat_map(|&(_, b, s, r)| [b, s, r]));
        let fig22 = figs.fig22.as_ref().expect("fig22");
        for e in fig22.series.iter().map(|(_, e)| e).chain([&fig22.overall]) {
            bits.extend([e.mean(), e.median(), e.max()]);
        }
        bits.extend([fig22.above_10pct, fig22.above_30pct]);
        let fig23_25 = figs.fig23_25.as_ref().expect("fig23_25");
        bits.extend(fig23_25.rows.iter().flat_map(|&(.., t, d, a)| [t, d, a]));
        let ablations = figs.ablations.as_ref().expect("ablations");
        let variants: Vec<(VariantId, &str)> = VariantId::ALL.iter().map(|&v| (v, "")).collect();
        for v in ablations.table(&variants).expect("every variant planned") {
            bits.extend([v.mean_duration_s, v.mean_data_mb, v.mean_accuracy]);
        }
        let mmwave = figs.mmwave.as_ref().expect("mmwave");
        bits.extend([mmwave.mean_duration_s, mmwave.mean_accuracy]);
        let w = figs.workload.as_ref().expect("workload");
        bits.extend([
            w.mean_duration_s,
            w.mean_bandwidth_mbps,
            w.p95_bandwidth_mbps,
        ]);
        bits.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn interleaved_halves_merge_in_either_order_to_the_same_bits() {
        use mbw_frame::Codec;
        let counts = EvalCounts::uniform(4);
        let plan = plan_for(&EVAL_SWEEP_IDS, &counts, 9);
        let pool = run_campaign(&plan, 1);
        // Even trials in one set, odd trials in the other: no prefix or
        // suffix of the pool, so only an order-free merge rebuilds it.
        let mut even = EvalFigureSet::new(0xC0);
        let mut odd = EvalFigureSet::new(0xC0);
        let mut whole = EvalFigureSet::new(0xC0);
        for (i, view) in pool.iter().enumerate() {
            if i % 2 == 0 {
                even.observe(&view);
            } else {
                odd.observe(&view);
            }
            whole.observe(&view);
        }
        // The snapshot of a half decodes to the same bytes.
        let bytes = even.to_bytes();
        let even = EvalFigureSet::from_bytes(&bytes).expect("decodes");
        assert_eq!(bytes, even.to_bytes());

        let mut even_odd = even.clone();
        even_odd.merge(odd.clone());
        let mut odd_even = odd;
        odd_even.merge(even);
        let want = finished_bits(&whole.finish());
        assert_eq!(finished_bits(&even_odd.finish()), want, "even then odd");
        assert_eq!(finished_bits(&odd_even.finish()), want, "odd then even");
    }

    #[test]
    fn parallel_eval_finish_matches_serial() {
        let counts = EvalCounts::uniform(6);
        let plan = plan_for(&EVAL_SWEEP_IDS, &counts, 42);
        let pool = run_campaign(&plan, 2);
        let mut acc = EvalFigureSet::new(0xC0);
        for view in pool.iter() {
            acc.observe(&view);
        }
        let serial = acc.clone().finish_with(1);
        for threads in [2usize, 8] {
            let multi = acc.clone().finish_with(threads);
            for id in EVAL_SWEEP_IDS {
                assert_eq!(
                    serial.render(id),
                    multi.render(id),
                    "{id} differs at {threads} finish threads"
                );
            }
        }
    }

    #[test]
    fn missing_series_yield_typed_errors_not_panics() {
        let counts = EvalCounts::uniform(4);
        let plan = plan_for(&["fig20"], &counts, 7);
        let pool = run_campaign(&plan, 1);
        let figs = reduce(EvalFigureSet::new(0xC0), &pool);
        assert!(figs.render("fig20").expect("known id").is_ok());
        assert_eq!(figs.render("fig17"), Some(Err(EmptyCampaign)));
        assert_eq!(figs.render("mmwave"), Some(Err(EmptyCampaign)));
    }
}
