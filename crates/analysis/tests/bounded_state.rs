//! The invariants bounded state adds to the measurement sweep.
//!
//! - **Merge is commutative and associative.** The parts of a 4-way
//!   split merged in every one of the 24 orders encode to the bytes of
//!   the unsplit fold (before the summaries only shard order held).
//! - **State does not grow with the records.** A set's encoding after
//!   200 000 records per year is within 1 % of its size after 50 000,
//!   and a second pass over the same records leaves it identical in
//!   size.
//! - **No panic is reachable from bytes we did not write.** Arbitrary
//!   bytes, and single-bit flips and overwritten words of a valid
//!   encoding, decode to an error or to a set whose `merge` and `finish`
//!   run to completion.

use mbw_analysis::sweep::{FigureSet, SWEEP_IDS};
use mbw_analysis::{stream_partial, stream_unit_count};
use mbw_dataset::{generate_sharded, DatasetConfig, ShardPlan, Year};
use mbw_frame::Codec;
use proptest::prelude::*;

fn configs(tests: usize, seed: u64) -> (DatasetConfig, DatasetConfig) {
    let cfg = |year| DatasetConfig {
        seed,
        tests,
        year,
        ..Default::default()
    };
    (cfg(Year::Y2020), cfg(Year::Y2021))
}

/// Every ordering of `items`.
fn permutations(items: Vec<usize>) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.clone();
        let head = rest.remove(i);
        for mut tail in permutations(rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

#[test]
fn the_parts_of_a_four_way_split_merge_in_any_of_the_24_orders() {
    let (b, c) = configs(6_000, 0x0DE2);
    let plan = ShardPlan::new(512, 1);
    let n = stream_unit_count(b, c, plan);
    assert!(n >= 8, "want a few units per part, got {n}");
    let whole = stream_partial(b, c, plan, 0, n).0.to_bytes();
    let bounds = [0, n / 4, n / 2, 3 * n / 4, n];
    let part = |i: usize| stream_partial(b, c, plan, bounds[i], bounds[i + 1] - bounds[i]).0;

    let orders = permutations(vec![0, 1, 2, 3]);
    assert_eq!(orders.len(), 24);
    for order in orders {
        let mut merged = part(order[0]);
        for &i in &order[1..] {
            merged.merge(part(i));
        }
        assert_eq!(merged.to_bytes(), whole, "merge order {order:?}");
    }

    // Associativity: (0 + 1) + (2 + 3), not only a left fold.
    let (mut left, mut right) = (part(0), part(2));
    left.merge(part(1));
    right.merge(part(3));
    right.merge(left);
    assert_eq!(right.to_bytes(), whole, "pairwise tree");
}

#[test]
fn state_is_a_function_of_the_figures_not_of_the_record_count() {
    let encoded_len = |tests: usize, passes: usize| {
        let (b, c) = configs(tests, 0x51A7E);
        let plan = ShardPlan::new(8_192, 1);
        let (y20, y21) = (generate_sharded(b, plan), generate_sharded(c, plan));
        let mut set = FigureSet::new();
        for _ in 0..passes {
            set.observe_baseline_records(&y20);
            set.observe_records(&y21);
        }
        set.to_bytes().len()
    };
    let (small, large) = (encoded_len(50_000, 1), encoded_len(200_000, 1));
    assert!(
        large as f64 <= small as f64 * 1.01,
        "state grew from {small} B at 50 000 records to {large} B at 200 000"
    );
    assert!(large < 2 << 20, "a figure set encodes to {large} B");
    assert_eq!(
        encoded_len(50_000, 2),
        small,
        "a second pass over the same records changed the state's size"
    );
}

/// A small valid encoding to flip bits in.
fn valid_bytes() -> Vec<u8> {
    let (b, c) = configs(1_500, 0xF11B);
    let plan = ShardPlan::new(256, 1);
    let n = stream_unit_count(b, c, plan);
    stream_partial(b, c, plan, 0, n).0.to_bytes()
}

/// Whatever decoded must merge (into an empty set, and into itself) and
/// finish without panicking, and still encode.
fn survives(bytes: &[u8]) {
    let (Ok(set), Ok(twin)) = (FigureSet::from_bytes(bytes), FigureSet::from_bytes(bytes)) else {
        return;
    };
    let mut merged = FigureSet::new();
    merged.merge(set);
    merged.merge(twin);
    let _ = merged.to_bytes();
    let figures = merged.finish();
    for id in SWEEP_IDS {
        assert!(figures.render(id).is_some());
    }
}

#[test]
fn a_valid_encoding_survives_and_roundtrips() {
    let bytes = valid_bytes();
    survives(&bytes);
    let back = FigureSet::from_bytes(&bytes).expect("valid state decodes");
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn every_truncation_of_a_valid_encoding_is_an_error() {
    let bytes = valid_bytes();
    for cut in (0..bytes.len()).step_by(97) {
        assert!(
            FigureSet::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn arbitrary_bytes_never_panic_a_figure_set(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        survives(&bytes);
    }

    #[test]
    fn single_bit_flips_of_a_valid_encoding_never_panic(
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = valid_bytes();
        let i = at.index(bytes.len());
        bytes[i] ^= 1 << bit;
        survives(&bytes);
    }

    /// Eight arbitrary bytes anywhere: a count, a sum, a bin, a word.
    #[test]
    fn an_arbitrary_word_over_a_valid_encoding_never_panics(
        at in any::<prop::sample::Index>(),
        word in any::<u64>(),
    ) {
        let mut bytes = valid_bytes();
        let i = at.index(bytes.len() - 8);
        bytes[i..i + 8].copy_from_slice(&word.to_be_bytes());
        survives(&bytes);
    }
}
