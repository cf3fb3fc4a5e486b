//! Byte-equivalence of the streaming fused generate→analyze engine
//! against a sequential fold of the same rows.
//!
//! The streaming engine's whole value rests on one claim: sharding the
//! work over threads and never materialising the populations changes
//! *when* records exist, never *what* the figures say. The reference is
//! the simplest thing that could compute the figures: materialise both
//! populations, push every row through one [`FigureSet`] in order on
//! this thread, finish serially. These tests pin the engine to it —
//! at the fixed seed and the thread counts 1, 2 and 8, on unbalanced
//! and ragged populations, under proptest over seeds, thread counts and
//! shard sizes — and then check the *wiring* of the set: every id's
//! streamed figure equals the figure its own accumulator produces when
//! folded alone over the same rows.

use mbw_analysis::accum::{self, FigureAccumulator};
use mbw_analysis::sweep::{FigureSet, FinishOptions, MeasurementFigures, SWEEP_IDS};
use mbw_analysis::{
    cellular, devices, general, overview, pdfs, robustness, stream_figures_cached, tables, wifi,
    Render,
};
use mbw_dataset::{
    generate_sharded, AccessTech, DatasetConfig, EcosystemProfile, ShardPlan, TestRecord, Year,
};
use proptest::prelude::*;

fn configs(tests: usize, seed: u64) -> (DatasetConfig, DatasetConfig) {
    configs_for(EcosystemProfile::paper_china(), tests, seed)
}

fn configs_for(
    profile: &'static EcosystemProfile,
    tests: usize,
    seed: u64,
) -> (DatasetConfig, DatasetConfig) {
    let cfg = |year| DatasetConfig {
        seed,
        tests,
        year,
        profile,
    };
    (cfg(Year::Y2020), cfg(Year::Y2021))
}

fn rows(
    baseline: DatasetConfig,
    current: DatasetConfig,
    shard: usize,
) -> (Vec<TestRecord>, Vec<TestRecord>) {
    let plan = ShardPlan::new(shard, 1);
    (
        generate_sharded(baseline, plan),
        generate_sharded(current, plan),
    )
}

/// The reference: both whole populations through one figure set, in
/// order, on one thread.
fn sequential_fold(
    baseline: DatasetConfig,
    current: DatasetConfig,
    shard: usize,
) -> MeasurementFigures {
    let (y20, y21) = rows(baseline, current, shard);
    let mut set = FigureSet::new();
    set.observe_baseline_records(&y20);
    set.observe_records(&y21);
    set.finish_with(FinishOptions::threads(1)).0
}

fn stream(
    baseline: DatasetConfig,
    current: DatasetConfig,
    shard: usize,
    threads: usize,
) -> MeasurementFigures {
    stream_figures_cached(baseline, current, ShardPlan::new(shard, threads), None).0
}

fn assert_all_figures_equal(a: &MeasurementFigures, b: &MeasurementFigures, context: &str) {
    for id in SWEEP_IDS {
        assert_eq!(a.render(id), b.render(id), "{id} diverged ({context})");
    }
}

#[test]
fn streaming_is_byte_identical_at_1_2_and_8_threads() {
    let (b, c) = configs(30_000, 0xF00D);
    let shard = 4_096; // ~8 shards per population
    let reference = sequential_fold(b, c, shard);
    for threads in [1usize, 2, 8] {
        let streamed = stream(b, c, shard, threads);
        assert_all_figures_equal(&reference, &streamed, &format!("threads={threads}"));
    }
}

#[test]
fn unbalanced_populations_stream_identically() {
    // Different sizes per year, a ragged final shard, more workers than
    // shards on the smaller population.
    let (mut b, mut c) = configs(0, 0xBA1A);
    b.tests = 3_000;
    c.tests = 10_500;
    let shard = 2_048;
    let reference = sequential_fold(b, c, shard);
    let streamed = stream(b, c, shard, 8);
    assert_all_figures_equal(&reference, &streamed, "unbalanced populations");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streaming_equals_a_sequential_fold_for_any_seed_threads_and_shards(
        seed in 0u64..u64::MAX,
        threads in 1usize..9,
        shard_pow in 9u32..12, // shards of 512..2048 records
        tests in 3_000usize..8_000,
    ) {
        let shard = 1usize << shard_pow;
        let (b, c) = configs(tests, seed);
        let reference = sequential_fold(b, c, shard);
        let streamed = stream(b, c, shard, threads);
        assert_all_figures_equal(
            &reference,
            &streamed,
            &format!("seed={seed:#x} threads={threads} shard={shard} tests={tests}"),
        );
    }
}

/// One id's figure from its own accumulator(s), each folded alone.
fn alone(id: &str, y20: &[TestRecord], y21: &[TestRecord]) -> String {
    fn one<A, O: Render>(acc: A, records: &[TestRecord]) -> String
    where
        A: for<'a> FigureAccumulator<mbw_dataset::RecordView<'a>, Output = O>,
    {
        accum::run(acc, records).render()
    }
    match id {
        "table1" => tables::Table1.render(),
        "table2" => tables::Table2.render(),
        "fig01" => {
            let mut acc = overview::Fig01Acc::new();
            for r in y20 {
                acc.observe_baseline(&r.into());
            }
            one(acc, y21)
        }
        "fig02" => one(overview::Fig02Acc::new(), y21),
        "fig03" => one(overview::Fig03Acc::new(), y21),
        "fig04" => one(cellular::Fig04Acc::new(), y21),
        "fig05" | "fig06" => one(cellular::LteBandAcc::new(), y21),
        "fig07" => one(cellular::Fig07Acc::new(), y21),
        "fig08" | "fig09" => one(cellular::NrBandAcc::new(), y21),
        "fig10" => one(cellular::Fig10Acc::new(), y21),
        "fig11" | "fig12" => one(cellular::RssAcc::new(), y21),
        "fig13" => one(wifi::WifiAcc::fig13(), y21),
        "fig14" => one(wifi::WifiAcc::fig14(), y21),
        "fig15" => one(wifi::WifiAcc::fig15(), y21),
        "fig16" => one(pdfs::PdfAcc::fig16(), y21),
        "fig18" => one(pdfs::PdfAcc::fig18(), y21),
        "fig19" => one(pdfs::PdfAcc::fig19(), y21),
        "general" => {
            let mut same_group = general::SameGroupAcc::new();
            for r in y20 {
                same_group.observe_baseline(&r.into());
            }
            [
                one(general::SpatialAcc::new(), y21),
                one(general::UrbanRuralAcc::new(), y21),
                one(same_group, y21),
                one(general::CorrelationsAcc::new(), y21),
            ]
            .concat()
        }
        "devices" => [
            AccessTech::Cellular4g,
            AccessTech::Cellular5g,
            AccessTech::Wifi,
        ]
        .map(|tech| one(devices::HardwareIllusionAcc::new(tech), y21))
        .concat(),
        "summary" => one(general::DatasetSummaryAcc::new(), y21),
        "robustness" => one(robustness::OutcomeRatesAcc::new(), y21),
        other => panic!("no accumulator mapping for {other}"),
    }
}

#[test]
fn every_id_is_wired_to_its_own_accumulator() {
    // A slot mistake in `FigureSet` (`fig14: WifiAcc::fig13()`, a figure
    // finished from its neighbour's field) passes every set-vs-set
    // comparison above; only the accumulator folded alone catches it.
    let (b, c) = configs(100_000, 0x100E);
    let shard = 8_192;
    let (y20, y21) = rows(b, c, shard);
    let expected: Vec<(&str, String)> = SWEEP_IDS
        .iter()
        .map(|&id| (id, alone(id, &y20, &y21)))
        .collect();
    for threads in [1usize, 4] {
        let figs = stream(b, c, shard, threads);
        for (id, expected) in &expected {
            let streamed = figs.render(id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert_eq!(
                &streamed, expected,
                "{id} diverged from its own accumulator at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn every_id_renders_and_the_output_is_thread_count_independent() {
    let (b, c) = configs(12_000, 81);
    let single = stream(b, c, 1_024, 1);
    for id in SWEEP_IDS {
        let text = single
            .render(id)
            .unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(text.len() > 40, "{id} rendered almost nothing");
    }
    assert!(single.render("fig99").is_none());
    for threads in [2usize, 4, 7] {
        assert_all_figures_equal(
            &single,
            &stream(b, c, 1_024, threads),
            &format!("threads={threads}"),
        );
    }
}

#[test]
fn profiled_streaming_is_tagged_and_distinct() {
    let (china_b, china_c) = configs(8_000, 82);
    let (eu_b, eu_c) = configs_for(EcosystemProfile::europe_ran(), 8_000, 82);
    let china = stream(china_b, china_c, 1_024, 2);
    let eu = stream(eu_b, eu_c, 1_024, 2);
    let eu_fig04 = eu.render("fig04").unwrap();
    assert!(!china.render("fig04").unwrap().starts_with("profile:"));
    assert_ne!(china.render("fig04").unwrap(), eu_fig04);
    // The tag is the only thing streaming adds to the folded figures.
    let reference = sequential_fold(eu_b, eu_c, 1_024).with_profile_tag("europe-ran");
    assert_all_figures_equal(&reference, &eu, "europe-ran");
    assert!(eu_fig04.starts_with("profile: europe-ran\n"));
}
