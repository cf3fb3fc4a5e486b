//! End-to-end determinism of the sharded parallel generator: the CSV
//! serialisation of a generated population is byte-identical for every
//! worker thread count, because the shard partition — and therefore
//! every per-shard RNG stream — depends only on `(seed, tests, shard
//! size)`.

use mbw_dataset::csv::to_csv;
use mbw_dataset::{generate_sharded, DatasetConfig, Generator, ShardPlan, Year};
use proptest::prelude::*;

fn cfg(tests: usize, seed: u64, year: Year) -> DatasetConfig {
    DatasetConfig {
        seed,
        tests,
        year,
        ..Default::default()
    }
}

#[test]
fn csv_bytes_identical_across_thread_counts() {
    // A small shard size forces many shards, so multi-thread runs
    // genuinely interleave shard execution.
    for year in [Year::Y2020, Year::Y2021] {
        let config = cfg(10_000, 0xD17E, year);
        let baseline = to_csv(&generate_sharded(config, ShardPlan::new(512, 1)));
        for threads in [2usize, 8] {
            let run = to_csv(&generate_sharded(config, ShardPlan::new(512, threads)));
            assert_eq!(run, baseline, "threads={threads} changed the CSV bytes");
        }
    }
}

#[test]
fn sharded_stream_differs_from_but_matches_its_own_plan() {
    // Different shard sizes are *allowed* to produce different records
    // (they change the stream partition); the guarantee is only that a
    // given shard size is reproducible.
    let config = cfg(4_000, 0x5EED, Year::Y2021);
    let a = generate_sharded(config, ShardPlan::new(256, 3));
    let b = generate_sharded(config, ShardPlan::new(256, 5));
    assert_eq!(a, b);
    // And a single unsharded generator is its own reproducible stream.
    let c = Generator::new(config).generate();
    let d = Generator::new(config).generate();
    assert_eq!(c, d);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_plan_is_thread_count_independent(
        tests in 0usize..400,
        shard_size in 1usize..64,
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        let config = cfg(tests, seed, Year::Y2021);
        let single = generate_sharded(config, ShardPlan::new(shard_size, 1));
        let multi = generate_sharded(config, ShardPlan::new(shard_size, threads));
        prop_assert_eq!(&multi, &single);
        prop_assert_eq!(to_csv(&multi), to_csv(&single));
        prop_assert_eq!(single.len(), tests);
    }
}
