//! Merging a sibling straight from its bytes is merging its decode: for
//! random splits of a population, `a.merge_decoded(bytes of b)` leaves
//! `a` bit for bit as `a.merge(decode(bytes of b))` does — for the
//! summaries that merge in place and for a whole figure set.

use mbw_analysis::summary::{BinnedCdf, Bins, Dense, Mergeable, Sample};
use mbw_analysis::sweep::FigureSet;
use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use mbw_stats::LogBins;
use proptest::prelude::*;
use proptest::sample::Index;

/// Rows a test table may claim.
const ROWS: usize = 40;

/// A value anywhere on the binned grid, below it, above it, or a
/// failed test's zero.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-8.0f64..15.0).prop_map(f64::exp2),
        -50.0f64..0.0,
        Just(0.0),
    ]
}

fn cdf(values: &[f64]) -> BinnedCdf {
    let mut cdf = BinnedCdf::new();
    for &v in values {
        cdf.push(Sample::new(v));
    }
    cdf
}

fn table(rows: &[(usize, f64)]) -> Dense<BinnedCdf> {
    let mut table = Dense::<BinnedCdf>::new();
    for &(id, v) in rows {
        table.slot(id).push(Sample::new(v));
    }
    table
}

fn table_bytes(table: &Dense<BinnedCdf>) -> Vec<u8> {
    let mut enc = Enc::new();
    table.encode(&mut enc);
    enc.into_bytes()
}

/// The log histogram of Fig 19's shape over `values`.
fn logbins(values: &[f64]) -> LogBins {
    let mut bins = LogBins::for_range(1000.0);
    for &v in values {
        bins.add(v);
    }
    bins
}

/// `bytes` folded into `into` through `merge`, the whole input read.
fn merged<T>(
    mut into: T,
    bytes: &[u8],
    merge: impl FnOnce(&mut T, &mut Dec<'_>) -> Result<(), CodecError>,
) -> T {
    let mut dec = Dec::new(bytes);
    merge(&mut into, &mut dec).expect("valid bytes merge");
    dec.finish().expect("every byte read");
    into
}

/// Both halves of a split, each a slice of the same population.
fn split<T>(items: &[T], at: Index) -> (&[T], &[T]) {
    items.split_at(at.index(items.len() + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_binned_cdf_merges_its_bytes_as_their_decode(
        values in proptest::collection::vec(value(), 0..400),
        at in any::<Index>(),
    ) {
        let (left, right) = split(&values, at);
        let bytes = cdf(right).to_bytes();
        let mut via_decode = cdf(left);
        via_decode.merge(&BinnedCdf::from_bytes(&bytes).unwrap());
        let via_bytes = merged(cdf(left), &bytes, BinnedCdf::merge_decoded);
        prop_assert_eq!(via_bytes.to_bytes(), via_decode.to_bytes());
        prop_assert!(via_bytes == via_decode);
        prop_assert!(via_bytes == cdf(&values));
    }

    #[test]
    fn a_table_of_binned_cdfs_merges_its_bytes_as_their_decode(
        rows in proptest::collection::vec((0..ROWS, value()), 0..300),
        at in any::<Index>(),
    ) {
        let (left, right) = split(&rows, at);
        let bytes = table_bytes(&table(right));
        let decode = |t: &mut Dense<BinnedCdf>, dec: &mut Dec<'_>| {
            t.merge_decoded_capped(dec, ROWS, "rows")
        };
        let decoded = merged(Dense::new(), &bytes, decode);
        let mut via_decode = table(left);
        via_decode.merge(decoded);
        let via_bytes = merged(table(left), &bytes, decode);
        prop_assert_eq!(table_bytes(&via_bytes), table_bytes(&via_decode));
        prop_assert!(via_bytes == via_decode);
    }

    #[test]
    fn log_bins_merge_their_bytes_as_their_decode(
        values in proptest::collection::vec(value(), 0..400),
        at in any::<Index>(),
    ) {
        let (left, right) = split(&values, at);
        let bytes = logbins(right).counts().to_vec().to_bytes();
        let mut via_decode = logbins(left);
        via_decode.merge(&LogBins::from_counts(0.1, 1000.0, Vec::from_bytes(&bytes).unwrap()));
        let via_bytes = merged(logbins(left), &bytes, |bins, dec| {
            bins.merge_decoded_bins(dec, "log-bin counts", "log-bin total")
        });
        prop_assert!(via_bytes == via_decode);
        prop_assert!(via_bytes == logbins(&values));
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_figure_set_merges_its_bytes_as_their_decode(
        seed in any::<u64>(),
        at_baseline in any::<Index>(),
        at_current in any::<Index>(),
    ) {
        let (y20, y21) = (records(seed, Year::Y2020), records(seed, Year::Y2021));
        let (left20, right20) = split(&y20, at_baseline);
        let (left21, right21) = split(&y21, at_current);
        let bytes = set_of(right20, right21).to_bytes();
        let mut via_decode = set_of(left20, left21);
        via_decode.merge(FigureSet::from_bytes(&bytes).unwrap());
        let via_bytes = merged(set_of(left20, left21), &bytes, FigureSet::merge_decoded);
        prop_assert_eq!(via_bytes.to_bytes(), via_decode.to_bytes());
        prop_assert_eq!(via_bytes.to_bytes(), set_of(&y20, &y21).to_bytes());
    }
}
