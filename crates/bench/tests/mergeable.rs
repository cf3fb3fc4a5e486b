//! Every accumulator's `encode`, `decode`, `merge` and `merge_decoded`
//! come from one `mbw_analysis::mergeable!` declaration, so merging a
//! sibling in memory and merging it from its bytes agree: for random
//! splits of the input, `a.merge(b)` and `a.merge_decoded(bytes of b)`
//! encode to the same bytes and finish to the same text, and a decoded
//! value re-encodes to the bytes it came from. [`FigureSet`] and
//! [`EvalFigureSet`] hold every declared accumulator between them, but
//! for Fig 26's, which is checked beside them.

use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::summary::Mergeable;
use mbw_analysis::sweep::{FigureSet, SWEEP_IDS};
use mbw_bench::deploy_eval::Fig26Acc;
use mbw_bench::distributed::COST_SEED;
use mbw_bench::eval_sweep::{plan_for, EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_core::{run_campaign, EvalCounts};
use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};
use mbw_frame::{Codec, Dec};
use proptest::prelude::*;
use proptest::sample::Index;

/// Check the property for `left` (built fresh by each call) merging
/// `right`: in memory and from its bytes alike, `finish` rendering the
/// result.
fn merges_agree<T: Mergeable + Codec>(
    left: impl Fn() -> T,
    right: T,
    finish: impl Fn(T) -> String,
) -> Result<(), TestCaseError> {
    let bytes = right.to_bytes();
    let decoded = T::from_bytes(&bytes).expect("own encoding decodes");
    prop_assert!(
        decoded.to_bytes() == bytes,
        "a decoded value re-encodes to other bytes"
    );

    let mut in_memory = left();
    in_memory.merge(right);
    let mut from_bytes = left();
    let mut dec = Dec::new(&bytes);
    from_bytes
        .merge_decoded(&mut dec)
        .expect("own encoding merges");
    dec.finish().expect("every byte read");
    prop_assert!(
        from_bytes.to_bytes() == in_memory.to_bytes(),
        "merging from bytes and in memory encode differently"
    );
    prop_assert_eq!(finish(from_bytes), finish(in_memory));
    Ok(())
}

fn records(seed: u64, year: Year) -> Vec<TestRecord> {
    Generator::new(DatasetConfig {
        seed,
        tests: 1_500,
        year,
        ..Default::default()
    })
    .generate()
}

/// A set that folded these slices of both years.
fn set_of(baseline: &[TestRecord], current: &[TestRecord]) -> FigureSet {
    let mut set = FigureSet::new();
    set.observe_baseline_records(baseline);
    set.observe_records(current);
    set
}

/// Both halves of `items`, split at `at`.
fn split<T>(items: &[T], at: Index) -> (&[T], &[T]) {
    items.split_at(at.index(items.len() + 1))
}

proptest! {
    // Each case finishes two figure sets, three GMM fits apiece.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn merging_in_memory_and_from_bytes_agree(
        seed in any::<u64>(),
        at_baseline in any::<Index>(),
        at_current in any::<Index>(),
        at_trial in any::<Index>(),
        demand in proptest::collection::vec(0.0f64..1.0, 0..60),
        at_second in any::<Index>(),
    ) {
        let (y20, y21) = (records(seed, Year::Y2020), records(seed, Year::Y2021));
        let (left20, right20) = split(&y20, at_baseline);
        let (left21, right21) = split(&y21, at_current);
        merges_agree(
            || set_of(left20, left21),
            set_of(right20, right21),
            |set| {
                let figures = set.finish();
                SWEEP_IDS.iter().filter_map(|id| figures.render(id)).collect()
            },
        )?;

        let pool = run_campaign(&plan_for(&EVAL_SWEEP_IDS, &EvalCounts::uniform(2), seed), 1);
        let at = at_trial.index(pool.len() + 1);
        let eval_of = |range: std::ops::Range<usize>| {
            let mut set = EvalFigureSet::new(COST_SEED);
            for view in pool.iter().take(range.end).skip(range.start) {
                set.observe(&view);
            }
            set
        };
        merges_agree(
            || eval_of(0..at),
            eval_of(at..pool.len()),
            |set| {
                let figures = set.finish_with(1);
                let text = EVAL_SWEEP_IDS.map(|id| format!("{:?}", figures.render(id)));
                text.concat()
            },
        )?;

        let (before, after) = split(&demand, at_second);
        let fig26_of = |seconds: &[f64]| {
            let mut acc = Fig26Acc::default();
            for second in seconds {
                acc.observe(second);
            }
            acc
        };
        merges_agree(
            || fig26_of(before),
            fig26_of(after),
            |acc| format!("{:?}", acc.finish().map(|fig| fig.render())),
        )?;
    }
}
