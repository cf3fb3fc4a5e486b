//! `eval_campaign`: the §5 Swiftest-vs-BTS evaluation, plan → execute →
//! reduce.
//!
//! Why: `core`'s probers and estimators, `netsim`, `congestion` and
//! `deploy` do the work and `dataset`, `analysis` and `frame` none, so
//! this is the bypass on which a measurement-side optimisation must
//! show no change (and the workload a simulator speed-up must move).
//!
//! A trial's cost varies fourfold with the path it draws, so reseeding
//! the campaign is ±4 % more or less work in a pass. The campaign seed
//! is therefore the `figures` binary's own, and `--seed` only trims the
//! back-to-back pair series, by one of 150 trials per technology for
//! odd seeds (0.3 % of the work).

use super::{eval_text, PassOut, Workload};
use crate::span::{Layer, Recorder};
use mbw_analysis::accum::FigureAccumulator;
use mbw_bench::distributed::{COST_SEED, EVAL_SEED};
use mbw_bench::eval_sweep::{plan_for, reduce_with, EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_core::{run_campaign, BtsKind, CampaignPlan, EvalCounts, TrialKind, TrialPool};
use mbw_stats::descriptive::median;

/// Trial counts of a pass: the `figures` binary's full mode (1 562
/// trials after deduplication), less the seed's trim.
fn counts(seed: u64) -> EvalCounts {
    EvalCounts {
        tests: 150 - (seed % 2) as usize,
        ..EvalCounts::full()
    }
}

fn execute_span(kind: TrialKind) -> &'static str {
    match kind {
        TrialKind::Single(_) => "run_campaign.single",
        TrialKind::Pair(..) => "run_campaign.pair",
        TrialKind::Group => "run_campaign.group",
        TrialKind::Ramp(..) => "run_campaign.ramp",
        TrialKind::Variant(_) => "run_campaign.variant",
    }
}

/// Execute `plan` as one sub-campaign per run of consecutive same-kind
/// trials, appended in plan order: structural per-trial seeds make the
/// pool identical to one `run_campaign` over the whole plan, and each
/// trial kind gets its own span.
pub fn execute_by_kind(rec: &mut Recorder, plan: &CampaignPlan) -> TrialPool {
    let specs = plan.specs();
    let mut pool: Option<TrialPool> = None;
    let mut start = 0;
    while start < specs.len() {
        let label = specs[start].kind.label();
        let len = specs[start..]
            .iter()
            .take_while(|s| s.kind.label() == label)
            .count();
        let mut sub = CampaignPlan::new(plan.campaign_seed());
        sub.set_profile(plan.profile());
        for spec in &specs[start..start + len] {
            sub.push(*spec);
        }
        let part = rec.span(Layer::Core, execute_span(specs[start].kind), |_| {
            run_campaign(&sub, 1)
        });
        match pool.as_mut() {
            None => pool = Some(part),
            Some(p) => p.append(part).expect("one campaign seed"),
        }
        start += len;
    }
    pool.unwrap_or_else(|| run_campaign(plan, 1))
}

pub struct EvalCampaign {
    counts: EvalCounts,
}

impl EvalCampaign {
    pub fn new(seed: u64) -> Self {
        EvalCampaign {
            counts: counts(seed),
        }
    }
}

impl Workload for EvalCampaign {
    fn setup(&mut self) -> PassOut {
        // Nothing outlives a pass: a fresh process pays one cold pass.
        self.pass()
    }

    fn pass(&mut self) -> PassOut {
        let plan = plan_for(&EVAL_SWEEP_IDS, &self.counts, EVAL_SEED);
        let pool = run_campaign(&plan, 1);
        let figures = reduce_with(EvalFigureSet::new(COST_SEED), &pool, 1);
        let check = if pool.len() == plan.len() {
            Ok(())
        } else {
            Err(format!("executed {} of {} trials", pool.len(), plan.len()))
        };
        PassOut::new(&eval_text(&figures), pool.len() as u64, check)
    }

    fn composed(&mut self, rec: &mut Recorder) -> PassOut {
        let counts = self.counts;
        rec.span(Layer::Harness, "pass", |rec| {
            let plan = rec.span(Layer::Bench, "plan_for", |_| {
                plan_for(&EVAL_SWEEP_IDS, &counts, EVAL_SEED)
            });
            let pool = execute_by_kind(rec, &plan);
            let mut set = EvalFigureSet::new(COST_SEED);
            rec.span(Layer::Bench, "observe", |_| {
                for view in pool.iter() {
                    set.observe(&view);
                }
            });
            let figures = rec.span(Layer::Bench, "finish", |_| set.finish_with(1));
            let text = rec.span(Layer::Bench, "render", |_| eval_text(&figures));
            rec.span(Layer::Harness, "digest", |_| {
                PassOut::new(&text, pool.len() as u64, Ok(()))
            })
        })
    }

    fn verify(&mut self) -> Vec<(String, bool)> {
        let plan = plan_for(&EVAL_SWEEP_IDS, &EvalCounts::uniform(12), EVAL_SEED);
        let one = run_campaign(&plan, 1);
        let two = run_campaign(&plan, 2);
        let text =
            |pool: &TrialPool| eval_text(&reduce_with(EvalFigureSet::new(COST_SEED), pool, 1));
        let figures_equal = text(&one) == text(&two);

        let (mut swiftest, mut bts_app) = (Vec::new(), Vec::new());
        for trial in one.iter() {
            if trial.spec().kind == TrialKind::Pair(BtsKind::Swiftest, BtsKind::BtsApp) {
                swiftest.push(trial.outcome(0).total_s());
                bts_app.push(trial.outcome(1).total_s());
            }
        }
        vec![
            (
                "trial pool at 1 thread equals the pool at 2 threads".to_string(),
                one == two,
            ),
            (
                "figures at 1 thread equal figures at 2 threads".to_string(),
                figures_equal,
            ),
            (
                "Swiftest's median test time is below BTS-APP's".to_string(),
                !swiftest.is_empty() && median(&swiftest) < median(&bts_app),
            ),
        ]
    }
}
