//! Design-choice ablations (listed in DESIGN.md).
//!
//! Each ablation swaps one element of Swiftest's design for an obvious
//! alternative and measures what the paper's metrics (duration, data,
//! accuracy) lose:
//!
//! 1. **Initial probing rate** — GMM dominant mode vs "start from
//!    1 Mbps and grow" (slow-start-like) vs "start from the population
//!    mean" (single-Gaussian model).
//! 2. **Convergence rule** — the 10-sample/3% window vs looser and
//!    tighter variants.
//! 3. **Escalation** — jump to the next most probable larger mode vs a
//!    fixed 1.25× multiplicative increase.
//! 4. **Purchase optimiser** — branch-and-bound ILP vs the greedy
//!    cost-per-bit heuristic.
//!
//! Ablations 1–3 are `Variant` campaign trials: the paper-default row
//! is *one* trial series shared by all three tables (the campaign plan
//! deduplicates it), and each table is a relabelled projection of the
//! per-variant means.

use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::summary::{Mean, Sample};
use mbw_core::{
    CampaignPlan, EmptyCampaign, ScenarioId, TechClass, TrialKind, TrialView, VariantId,
};
use mbw_deploy::{solve_greedy, solve_ilp, synthetic_catalog, PurchaseProblem};
use std::fmt::Write as _;

/// The scenario every ablation runs on (5G, as in the paper's §5.3
/// sensitivity discussion).
pub const ABLATION_SCENARIO: ScenarioId = ScenarioId::Tech(TechClass::Nr);

/// Ablation 1's rows: paper default vs single-Gaussian prior vs none.
pub const INIT_TABLE: [(VariantId, &str); 3] = [
    (VariantId::PaperDefault, "gmm-dominant-mode"),
    (VariantId::PopulationMean, "population-mean"),
    (VariantId::BlindRampup, "blind-rampup"),
];

/// Ablation 2's rows: the 10-sample/3% window vs looser and tighter.
pub const CONVERGE_TABLE: [(VariantId, &str); 3] = [
    (VariantId::PaperDefault, "w10-t3% (paper)"),
    (VariantId::ConvergeLoose, "w5-t5% (loose)"),
    (VariantId::ConvergeStrict, "w20-t1% (strict)"),
];

/// Ablation 3's rows: modal jumps vs fixed multiplicative growth.
pub const ESCALATE_TABLE: [(VariantId, &str); 2] = [
    (VariantId::PaperDefault, "modal-jumps (paper)"),
    (VariantId::EscalateFixed, "fixed-1.25x"),
];

/// Outcome of one Swiftest variant over a batch of drawn links.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// Variant label.
    pub label: String,
    /// Mean probing time, seconds.
    pub mean_duration_s: f64,
    /// Mean data usage, MB.
    pub mean_data_mb: f64,
    /// Mean accuracy against the drawn link's true capacity.
    pub mean_accuracy: f64,
}

fn variant_index(v: VariantId) -> usize {
    VariantId::ALL
        .iter()
        .position(|&x| x == v)
        .expect("variant in ALL")
}

/// Add the `Variant` series a set of ablation tables needs to `plan`.
pub fn plan_variants(plan: &mut CampaignPlan, variants: &[VariantId], n: usize) {
    for &v in variants {
        plan.push_series(TrialKind::Variant(v), ABLATION_SCENARIO, n);
    }
}

/// Per-variant means folded from the campaign pool.
#[derive(Debug, Clone)]
pub struct AblationTables {
    /// `(time s, data MB, accuracy)` per [`VariantId::ALL`] position;
    /// `None` for variants the pool did not contain.
    means: Vec<Option<(f64, f64, f64)>>,
}

impl AblationTables {
    /// Project one labelled table; `None` if any row's variant is
    /// missing from the pool.
    pub fn table(&self, rows: &[(VariantId, &str)]) -> Option<Vec<VariantOutcome>> {
        rows.iter()
            .map(|&(v, label)| {
                self.means[variant_index(v)].map(|(t, d, a)| VariantOutcome {
                    label: label.to_string(),
                    mean_duration_s: t,
                    mean_data_mb: d,
                    mean_accuracy: a,
                })
            })
            .collect()
    }
}

/// Streaming reducer for the variant ablations over the campaign pool:
/// per [`VariantId::ALL`] position, the mean time, data and accuracy.
#[derive(Debug, Clone, Default)]
pub struct AblationAcc {
    time: [Mean; VariantId::ALL.len()],
    data: [Mean; VariantId::ALL.len()],
    acc: [Mean; VariantId::ALL.len()],
}

mbw_analysis::mergeable! { AblationAcc { time, data, acc } }

impl<'a> FigureAccumulator<TrialView<'a>> for AblationAcc {
    type Output = Result<AblationTables, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let TrialKind::Variant(v) = r.spec().kind {
            let i = variant_index(v);
            let o = r.solo();
            self.time[i].push(Sample::new(o.duration_s));
            self.data[i].push(Sample::new(o.data_bytes / 1e6));
            self.acc[i].push(Sample::new(o.accuracy_vs(o.truth_mbps).max(0.0)));
        }
    }

    fn finish(self) -> Self::Output {
        if self.time.iter().all(Mean::is_empty) {
            return Err(EmptyCampaign);
        }
        let means = (0..self.time.len())
            .map(|i| {
                (!self.time[i].is_empty())
                    .then(|| (self.time[i].mean(), self.data[i].mean(), self.acc[i].mean()))
            })
            .collect();
        Ok(AblationTables { means })
    }
}

/// Render a variant table.
pub fn render_variants(title: &str, variants: &[VariantOutcome]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>9}",
        "variant", "time s", "data MB", "accuracy"
    );
    for v in variants {
        let _ = writeln!(
            out,
            "{:<22} {:>9.2} {:>9.1} {:>9.3}",
            v.label, v.mean_duration_s, v.mean_data_mb, v.mean_accuracy
        );
    }
    out
}

/// Ablation 4: ILP vs greedy purchase, over a sweep of demands.
/// Returns `(demand Mbps, greedy cost, ilp cost)`.
pub fn ablation_ilp(seed: u64) -> Vec<(f64, f64, f64)> {
    let catalog = synthetic_catalog(seed);
    [900.0, 1_900.0, 4_700.0, 11_300.0, 23_500.0]
        .iter()
        .map(|&demand| {
            let p = PurchaseProblem {
                offers: catalog.clone(),
                demand_mbps: demand,
                margin: 0.08,
            };
            let greedy = solve_greedy(&p).expect("greedy feasible");
            let ilp = solve_ilp(&p).expect("ilp feasible");
            (demand, greedy.total_cost, ilp.total_cost)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_core::run_campaign;

    /// One table on its own: plan its variants, run them on one
    /// thread, reduce, project.
    fn run_table(
        rows: &[(VariantId, &str)],
        n: usize,
        seed: u64,
    ) -> Result<Vec<VariantOutcome>, EmptyCampaign> {
        let mut plan = CampaignPlan::new(seed);
        let variants: Vec<VariantId> = rows.iter().map(|&(v, _)| v).collect();
        plan_variants(&mut plan, &variants, n);
        let pool = run_campaign(&plan, 1);
        let tables = crate::eval_sweep::reduce(AblationAcc::default(), &pool)?;
        tables.table(rows).ok_or(EmptyCampaign)
    }

    #[test]
    fn gmm_prior_beats_blind_rampup_on_time() {
        let variants = run_table(&INIT_TABLE, 25, 4000).expect("non-empty campaign");
        let gmm = &variants[0];
        let blind = &variants[2];
        assert!(
            gmm.mean_duration_s < blind.mean_duration_s,
            "gmm {} !< blind {}",
            gmm.mean_duration_s,
            blind.mean_duration_s
        );
        // All variants stay reasonably accurate — the prior buys time,
        // not correctness.
        for v in &variants {
            assert!(v.mean_accuracy > 0.75, "{}: {}", v.label, v.mean_accuracy);
        }
    }

    #[test]
    fn strict_convergence_costs_time() {
        let variants = run_table(&CONVERGE_TABLE, 25, 4100).expect("non-empty campaign");
        let paper = &variants[0];
        let strict = &variants[2];
        assert!(strict.mean_duration_s > paper.mean_duration_s);
        let loose = &variants[1];
        assert!(loose.mean_duration_s <= paper.mean_duration_s + 0.05);
    }

    #[test]
    fn modal_escalation_is_competitive_with_fixed_growth() {
        let variants = run_table(&ESCALATE_TABLE, 40, 4200).expect("non-empty campaign");
        let modal = &variants[0];
        let fixed = &variants[1];
        // Both policies finish in the ~1 s regime; modal jumps must not
        // be dramatically slower than blind 1.25× growth (seed-to-seed
        // the two trade places within ~±40%), and must not give up any
        // accuracy for the speed.
        assert!(
            modal.mean_duration_s <= fixed.mean_duration_s * 1.5,
            "modal {} vs fixed {}",
            modal.mean_duration_s,
            fixed.mean_duration_s
        );
        assert!(modal.mean_accuracy >= fixed.mean_accuracy - 0.05);
        assert!(modal.mean_accuracy > 0.9, "{}", modal.mean_accuracy);
    }

    #[test]
    fn shared_paper_default_row_is_identical_across_tables() {
        // All three tables project the same PaperDefault trial series;
        // with structural per-trial seeds the row's numbers must agree
        // no matter which table (or the full union) ran it.
        let init = run_table(&INIT_TABLE, 10, 4400).expect("ok");
        let converge = run_table(&CONVERGE_TABLE, 10, 4400).expect("ok");
        let escalate = run_table(&ESCALATE_TABLE, 10, 4400).expect("ok");
        assert_eq!(init[0].mean_duration_s, converge[0].mean_duration_s);
        assert_eq!(init[0].mean_accuracy, escalate[0].mean_accuracy);
        assert_eq!(converge[0].mean_data_mb, escalate[0].mean_data_mb);
    }

    #[test]
    fn empty_campaign_is_a_typed_error() {
        assert_eq!(run_table(&INIT_TABLE, 0, 1).unwrap_err(), EmptyCampaign);
    }

    #[test]
    fn ilp_never_loses_to_greedy() {
        for (demand, greedy, ilp) in ablation_ilp(4300) {
            assert!(
                ilp <= greedy + 1e-6,
                "demand {demand}: ilp {ilp} > greedy {greedy}"
            );
        }
    }

    #[test]
    fn variant_rendering() {
        let text = render_variants("test", &run_table(&ESCALATE_TABLE, 3, 1).expect("ok"));
        assert!(text.contains("accuracy"));
        assert!(text.lines().count() >= 4);
    }
}
