//! The fused evaluation campaign reproduces, for every evaluation
//! figure id, the figure computed on its own — that id's series planned
//! alone, run on one thread, folded through that id's accumulator alone
//! — and the executed pool is byte-identical for any worker thread
//! count.
//!
//! This mirrors `mbw-analysis`' `stream_equivalence.rs` (the
//! measurement half's guarantee) for the Swiftest evaluation half. The
//! equivalence holds by construction — per-trial seeds are structural,
//! derived from what a trial *is* rather than where it sits in the plan
//! — and these tests keep that construction honest.

use mbw_analysis::accum::FigureAccumulator;
use mbw_bench::ablation::{
    plan_variants, render_variants, AblationAcc, CONVERGE_TABLE, ESCALATE_TABLE, INIT_TABLE,
};
use mbw_bench::bts_eval::{
    plan_groups, plan_mmwave, plan_pairs, Fig20Acc, Fig21Acc, Fig22Acc, Fig23to25Acc, MmwaveAcc,
};
use mbw_bench::deploy_eval::{cost_report_with, WorkloadAcc};
use mbw_bench::distributed::EVAL_SEED;
use mbw_bench::eval_sweep::{plan_for, reduce, EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_bench::fig17::{plan_fig17, Fig17Acc};
use mbw_core::{
    run_campaign, trial_seed, CampaignPlan, EmptyCampaign, EvalCounts, TrialView, VariantId,
};
use mbw_frame::{fnv1a64, Codec};
use proptest::prelude::*;

const SEED: u64 = 0xE7A1;
const COST_SEED: u64 = 0xC0;

fn counts() -> EvalCounts {
    EvalCounts::uniform(10)
}

/// One figure on its own: only its series in the plan, one thread, only
/// its accumulator over the pool.
fn alone(id: &str, c: &EvalCounts) -> String {
    fn one<A, T>(series: impl FnOnce(&mut CampaignPlan), acc: A) -> T
    where
        A: for<'a> FigureAccumulator<TrialView<'a>, Output = Result<T, EmptyCampaign>>,
    {
        let mut plan = CampaignPlan::new(SEED);
        series(&mut plan);
        reduce(acc, &run_campaign(&plan, 1)).expect("non-empty campaign")
    }
    let table = |rows: &[(VariantId, &str)], title: &str| {
        let variants: Vec<VariantId> = rows.iter().map(|&(v, _)| v).collect();
        let tables = one(
            |p| plan_variants(p, &variants, c.ablation),
            AblationAcc::default(),
        );
        render_variants(title, &tables.table(rows).expect("every row planned"))
    };
    match id {
        "fig17" => one(|p| plan_fig17(p, c.ramp_paths), Fig17Acc::new()).render(),
        "fig20" => one(|p| plan_pairs(p, c.tests), Fig20Acc::default()).render(),
        "fig21" => one(|p| plan_pairs(p, c.tests), Fig21Acc::default()).render(),
        "fig22" => one(|p| plan_pairs(p, c.tests), Fig22Acc::default()).render(),
        "fig23" | "fig24" | "fig25" => {
            one(|p| plan_groups(p, c.groups), Fig23to25Acc::default()).render()
        }
        "ablation_init" => table(&INIT_TABLE, "Ablation: initial probing rate"),
        "ablation_converge" => table(&CONVERGE_TABLE, "Ablation: convergence rule"),
        "ablation_escalate" => table(&ESCALATE_TABLE, "Ablation: escalation policy"),
        "mmwave" => one(|p| plan_mmwave(p, c.mmwave), MmwaveAcc::default()).render(),
        // Estimate the workload from a pairs-only run, then purchase
        // for it.
        "cost" => {
            let workload = one(|p| plan_pairs(p, c.tests), WorkloadAcc::default());
            cost_report_with(&workload, COST_SEED).render()
        }
        other => panic!("no accumulator mapping for {other}"),
    }
}

#[test]
fn fused_campaign_reproduces_every_standalone_figure() {
    let c = counts();
    let expected: Vec<(&str, String)> = EVAL_SWEEP_IDS
        .iter()
        .map(|&id| (id, alone(id, &c)))
        .collect();

    let plan = plan_for(&EVAL_SWEEP_IDS, &c, SEED);
    for threads in [1usize, 4] {
        let pool = run_campaign(&plan, threads);
        let figs = reduce(EvalFigureSet::new(COST_SEED), &pool);
        for (id, expected) in &expected {
            let fused = figs
                .render(id)
                .unwrap_or_else(|| panic!("unknown id {id}"))
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(
                &fused, expected,
                "{id} diverged from the figure computed alone at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn pool_is_byte_identical_for_any_thread_count() {
    let plan = plan_for(&EVAL_SWEEP_IDS, &counts(), 0xDE7);
    let serial = run_campaign(&plan, 1);
    for threads in [2usize, 8] {
        let parallel = run_campaign(&plan, threads);
        assert_eq!(serial, parallel, "pool diverged at {threads} threads");
    }
}

/// The executed pool of the `figures` binary's own plans, frozen as the
/// fnv1a64 of its `Codec` bytes (computed at 0053e5f, before the
/// simulator handed samples out through a cursor). Every eval figure is
/// a pure function of these bytes, so a simulator or prober change that
/// moves one outcome by one bit fails here before it reaches `results/`.
#[test]
fn executed_pool_digests_are_frozen() {
    for (counts, want) in [
        (EvalCounts::quick(), 0x60dd_f4f3_4f1f_bdb2_u64),
        (EvalCounts::full(), 0x1f11_4adc_7155_5060),
    ] {
        let pool = run_campaign(&plan_for(&EVAL_SWEEP_IDS, &counts, EVAL_SEED), 2);
        let got = fnv1a64(&pool.to_bytes());
        assert_eq!(got, want, "pool digest {got:#018x} for {counts:?}");
    }
}

#[test]
fn trial_count_does_not_disturb_the_shared_prefix() {
    // Growing a series appends trials; the existing ones keep their
    // structural seeds, so figures over the common prefix agree.
    let mut small = CampaignPlan::new(77);
    plan_pairs(&mut small, 6);
    let mut large = CampaignPlan::new(77);
    plan_pairs(&mut large, 9);
    let small_pool = run_campaign(&small, 1);
    let large_pool = run_campaign(&large, 2);
    for (i, spec) in small.specs().iter().enumerate() {
        let j = large
            .specs()
            .iter()
            .position(|s| s == spec)
            .expect("prefix spec present in the larger plan");
        assert_eq!(
            small_pool.view(i).outcome(0),
            large_pool.view(j).outcome(0),
            "trial {spec:?} changed when the plan grew"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distinct trial indices never collide within a series, and the
    /// figure series used by the evaluation never collide with each
    /// other — the property the old `seed.wrapping_add(i * 17)` strides
    /// could not guarantee.
    #[test]
    fn per_trial_seed_streams_never_collide(
        campaign_seed in any::<u64>(),
        series_a in 0u64..0x700,
        series_b in 0u64..0x700,
        i in 0u64..512,
        j in 0u64..512,
    ) {
        prop_assume!(series_a != series_b || i != j);
        prop_assert_ne!(
            trial_seed(campaign_seed, series_a, i),
            trial_seed(campaign_seed, series_b, j)
        );
    }
}
