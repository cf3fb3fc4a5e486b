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

/// Decode a `Vec<Vec<f64>>` whose outer length is an accumulator
/// invariant (one inner vector per cell/variant), rejecting any other
/// outer length — a merge that zips slots would silently drop samples
/// otherwise.
pub fn decode_fixed_outer(
    dec: &mut mbw_frame::Dec<'_>,
    expected: usize,
    what: &'static str,
) -> Result<Vec<Vec<f64>>, mbw_frame::CodecError> {
    let outer: Vec<Vec<f64>> = mbw_frame::Codec::decode(dec)?;
    if outer.len() != expected {
        return Err(mbw_frame::CodecError::BadLen {
            what,
            len: outer.len() as u64,
        });
    }
    Ok(outer)
}

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

impl EvalFigureSet {
    /// Fresh accumulator; `cost_seed` picks the server-catalog draw the
    /// cost report purchases from.
    pub fn new(cost_seed: u64) -> Self {
        Self {
            fig17: Fig17Acc::new(),
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
                        let value = trace::scope(tracer, || {
                            let mut spans = tracer.local();
                            let span = spans.begin();
                            let value = $acc.finish();
                            spans.end(span, root_id, concat!("finish.", $name), "eval");
                            value
                        });
                        *slot = Some(value);
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

impl mbw_frame::Codec for EvalFigureSet {
    fn encode(&self, enc: &mut mbw_frame::Enc) {
        self.fig17.encode(enc);
        self.fig20.encode(enc);
        self.fig21.encode(enc);
        self.fig22.encode(enc);
        self.fig23_25.encode(enc);
        self.ablations.encode(enc);
        self.mmwave.encode(enc);
        self.workload.encode(enc);
        enc.put_u64(self.cost_seed);
    }

    fn decode(dec: &mut mbw_frame::Dec<'_>) -> Result<Self, mbw_frame::CodecError> {
        use mbw_frame::Codec;
        Ok(Self {
            fig17: Codec::decode(dec)?,
            fig20: Codec::decode(dec)?,
            fig21: Codec::decode(dec)?,
            fig22: Codec::decode(dec)?,
            fig23_25: Codec::decode(dec)?,
            ablations: Codec::decode(dec)?,
            mmwave: Codec::decode(dec)?,
            workload: Codec::decode(dec)?,
            cost_seed: dec.u64()?,
        })
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

    fn merge(&mut self, other: Self) {
        self.fig17.merge(other.fig17);
        self.fig20.merge(other.fig20);
        self.fig21.merge(other.fig21);
        self.fig22.merge(other.fig22);
        self.fig23_25.merge(other.fig23_25);
        self.ablations.merge(other.ablations);
        self.mmwave.merge(other.mmwave);
        self.workload.merge(other.workload);
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

    #[test]
    fn eval_set_codec_roundtrips_mid_pool_state() {
        use mbw_frame::Codec;
        let counts = EvalCounts::uniform(4);
        let plan = plan_for(&EVAL_SWEEP_IDS, &counts, 9);
        let pool = run_campaign(&plan, 1);
        let cut = pool.iter().count() / 2;
        let mut acc = EvalFigureSet::new(0xC0);
        // Observe only a prefix of the pool so the snapshot captures
        // genuinely partial state, then roundtrip it through the wire
        // format. Merge is observe-concatenation, so the split must be
        // prefix/suffix, not interleaved.
        for view in pool.iter().take(cut) {
            acc.observe(&view);
        }
        let bytes = acc.to_bytes();
        let back = EvalFigureSet::from_bytes(&bytes).expect("decodes");
        assert_eq!(bytes, back.to_bytes());
        // And the decoded prefix merges with the suffix to the full run.
        let mut rest = EvalFigureSet::new(0xC0);
        for view in pool.iter().skip(cut) {
            rest.observe(&view);
        }
        let mut merged = back;
        merged.merge(rest);
        let mut whole = EvalFigureSet::new(0xC0);
        for view in pool.iter() {
            whole.observe(&view);
        }
        for id in EVAL_SWEEP_IDS {
            assert_eq!(
                merged.clone().finish().render(id),
                whole.clone().finish().render(id),
                "{id}"
            );
        }
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
