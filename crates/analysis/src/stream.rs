//! Streaming fused generate→analyze engine.
//!
//! [`stream_figures_cached`] fuses the two pipeline halves: per-shard record
//! generation (`mbw_dataset::parallel`) feeds straight into per-worker
//! [`FigureSet`] accumulators, so the populations are **never
//! materialised** and no sample is stored: a worker holds one
//! [`BATCH`]-record buffer and one [`FigureSet`], whose bounded
//! summaries ([`crate::summary`]) come to about 1 MB whatever the
//! record count (1.6 MB of live heap for the paper's 2 × 11.8 M
//! records), and generation overlaps analysis on every core.
//!
//! # Determinism contract
//!
//! The work list is the baseline population's shards followed by the
//! current population's shards, in shard order. Workers take
//! *contiguous* chunks of that list and fold each shard's records into
//! their private [`FigureSet`]. Because [`FigureSet::merge`] is integer
//! addition, `min`, `max` and OR (see [`crate::accum`]) — commutative
//! and associative — and shard content is a pure function of
//! `(config, shard_size)` (see `mbw_dataset::parallel`), the finished
//! [`MeasurementFigures`] are byte-identical to folding both whole
//! populations into one [`FigureSet`], for **any** thread count, any
//! split of the work list and any merge order.

use crate::fitcache::FitCache;
use crate::sweep::{FigureSet, FinishOptions, MeasurementFigures};
use mbw_dataset::{DatasetConfig, EcosystemProfile, Generator, ShardPlan, TestRecord};
use mbw_telemetry::trace::{self, ArgValue};
use std::time::{Duration, Instant};

/// Records generated per buffer refill. Large enough to amortise the
/// two timestamp reads per refill, small enough that a worker's
/// resident buffer stays under ~300 KiB.
pub const BATCH: usize = 4_096;

/// Per-stage wall/CPU breakdown of one streaming run.
///
/// `generate` and `observe` are summed across workers (CPU seconds, so
/// they can exceed `wall` on multi-core runs); `merge` and `finish`
/// happen once, on the calling thread, after the workers join.
#[derive(Debug, Clone, Copy)]
pub struct StreamTimings {
    /// Time spent drawing records from the generators.
    pub generate: Duration,
    /// Time spent folding records into the accumulators.
    pub observe: Duration,
    /// Time spent merging per-worker figure sets.
    pub merge: Duration,
    /// Wall-clock time of the finish stage (GMM fits live here). The
    /// finish runs on a work pool of the plan's threads, so this
    /// shrinks with the thread count while [`Self::finish_cpu`] stays
    /// roughly constant.
    pub finish: Duration,
    /// Summed per-figure CPU time across the finish pool's threads;
    /// `finish_cpu / finish` is the finish-stage parallel efficiency.
    pub finish_cpu: Duration,
    /// End-to-end wall clock of the whole run.
    pub wall: Duration,
    /// Total records generated and analyzed (both populations).
    pub records: usize,
}

impl StreamTimings {
    /// End-to-end records per second (both populations over `wall`).
    pub fn records_per_second(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Wall clock of the streaming phase: everything before the
    /// workers join (`wall` minus the `merge` and `finish` tail).
    /// `finish` now scales on its own work pool and is gated
    /// separately (see [`Self::finish_cpu`]); generate/observe
    /// thread-scaling comparisons are made on this number so the two
    /// stages' speedups stay independently attributable.
    pub fn parallel_wall(&self) -> Duration {
        self.wall
            .saturating_sub(self.merge)
            .saturating_sub(self.finish)
    }

    /// Records per second through the thread-parallel phase
    /// (generate + observe) alone. See [`Self::parallel_wall`].
    pub fn parallel_records_per_second(&self) -> f64 {
        self.records as f64 / self.parallel_wall().as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// One shard of one population on the streaming work list.
#[derive(Clone, Copy)]
struct Unit {
    config: DatasetConfig,
    shard: u64,
    len: usize,
    baseline: bool,
}

fn work_list(baseline: DatasetConfig, current: DatasetConfig, plan: ShardPlan) -> Vec<Unit> {
    let mut units =
        Vec::with_capacity(plan.shard_count(baseline.tests) + plan.shard_count(current.tests));
    for (config, is_baseline) in [(baseline, true), (current, false)] {
        for spec in plan.shard_specs(config.tests) {
            units.push(Unit {
                config,
                shard: spec.shard,
                len: spec.len,
                baseline: is_baseline,
            });
        }
    }
    units
}

struct WorkerOut {
    set: FigureSet,
    generate_nanos: u64,
    observe_nanos: u64,
}

/// Fold a contiguous run of units into one fresh figure set, reusing a
/// single batch buffer across every shard in the run.
fn fold_units(units: &[Unit]) -> WorkerOut {
    let tracer = trace::active();
    let mut spans = tracer.local();
    let mut set = FigureSet::new();
    let mut buf: Vec<TestRecord> = Vec::with_capacity(BATCH);
    let mut generate_nanos = 0u64;
    let mut observe_nanos = 0u64;
    for unit in units {
        let shard_span = spans.begin();
        let mut gen = Generator::for_shard(unit.config, unit.shard);
        let mut remaining = unit.len;
        while remaining > 0 {
            let take = remaining.min(BATCH);
            let t0 = Instant::now();
            buf.clear();
            buf.extend((0..take).map(|_| gen.generate_one()));
            let t1 = Instant::now();
            if unit.baseline {
                set.observe_baseline_records(&buf);
            } else {
                set.observe_records(&buf);
            }
            observe_nanos += t1.elapsed().as_nanos() as u64;
            generate_nanos += (t1 - t0).as_nanos() as u64;
            remaining -= take;
        }
        if shard_span.id != 0 {
            spans.end_with(
                shard_span,
                0,
                "stream.shard",
                "stream",
                vec![
                    ("shard", ArgValue::U64(unit.shard)),
                    ("records", ArgValue::from(unit.len)),
                    ("baseline", ArgValue::U64(u64::from(unit.baseline))),
                ],
            );
        }
    }
    WorkerOut {
        set,
        generate_nanos,
        observe_nanos,
    }
}

/// Fold a unit list with up to `threads` workers, returning the
/// per-worker outputs in work-list order.
fn fold_list(units: &[Unit], threads: usize, tracer: &trace::Tracer) -> Vec<WorkerOut> {
    if threads <= 1 || units.len() <= 1 {
        return vec![fold_units(units)];
    }
    let workers = threads.min(units.len());
    let per_worker = units.len().div_ceil(workers);
    let mut slots: Vec<Option<WorkerOut>> = Vec::new();
    slots.resize_with(workers, || None);
    // Spawned workers do not inherit the caller's trace scope, so
    // each one re-`scope`s the captured tracer around its fold.
    std::thread::scope(|scope| {
        for (chunk, slot) in units.chunks(per_worker).zip(slots.iter_mut()) {
            scope.spawn(move || {
                *slot = Some(trace::scope(tracer, || fold_units(chunk)));
            });
        }
    });
    slots.into_iter().flatten().collect()
}

/// Number of units on the streaming work list for these populations —
/// the domain over which distributed slice assignments
/// (`mbw_dataset::SliceAssignment`) are expressed. Baseline shards come
/// first, then current shards, matching the fold order of
/// [`stream_figures_cached`].
pub fn stream_unit_count(
    baseline: DatasetConfig,
    current: DatasetConfig,
    plan: ShardPlan,
) -> usize {
    plan.shard_count(baseline.tests) + plan.shard_count(current.tests)
}

/// Fold work-list units `start .. start + len` into one partial
/// [`FigureSet`] without finishing it — the shard-runner's half of the
/// distributed plan→execute→reduce pipeline.
///
/// The work list is deterministic and [`FigureSet::merge`] is
/// commutative and associative, so merging the partial sets of any
/// partition of `0 .. stream_unit_count(..)`, in any order, rebuilds
/// exactly the set one [`stream_figures_cached`] run would have built —
/// and therefore byte-identical finished figures. `timings.finish` is
/// zero: finishing belongs to the reduce side.
///
/// # Panics
///
/// If `start + len` exceeds the unit count; distributed callers
/// validate slice assignments against [`stream_unit_count`] first.
pub fn stream_partial(
    baseline: DatasetConfig,
    current: DatasetConfig,
    plan: ShardPlan,
    start: usize,
    len: usize,
) -> (FigureSet, StreamTimings) {
    let wall_start = Instant::now();
    let tracer = trace::active();
    let mut spans = tracer.local();
    let run_span = spans.begin();
    let units = work_list(baseline, current, plan);
    assert!(
        start <= units.len() && len <= units.len() - start,
        "slice {start}+{len} out of range for {} stream units",
        units.len()
    );
    let units = &units[start..start + len];
    let records: usize = units.iter().map(|u| u.len).sum();

    let outs = fold_list(units, plan.thread_count(), &tracer);
    let mut outs = outs.into_iter();
    let first = outs.next().expect("at least one worker ran");
    let mut set = first.set;
    let mut generate_nanos = first.generate_nanos;
    let mut observe_nanos = first.observe_nanos;
    let merge_span = spans.begin();
    let merge_start = Instant::now();
    for out in outs {
        generate_nanos += out.generate_nanos;
        observe_nanos += out.observe_nanos;
        set.merge(out.set);
    }
    let merge = merge_start.elapsed();
    spans.end(merge_span, run_span.id, "stream.merge", "stream");

    let timings = StreamTimings {
        generate: Duration::from_nanos(generate_nanos),
        observe: Duration::from_nanos(observe_nanos),
        merge,
        finish: Duration::ZERO,
        finish_cpu: Duration::ZERO,
        wall: wall_start.elapsed(),
        records,
    };
    if run_span.id != 0 {
        spans.end_with(
            run_span,
            0,
            "stream.partial",
            "stream",
            vec![
                ("start", ArgValue::from(start)),
                ("units", ArgValue::from(len)),
                ("records", ArgValue::from(records)),
            ],
        );
    }
    (set, timings)
}

/// Run the streaming fused engine and report per-stage timings.
///
/// `plan.thread_count()` sets the worker count for both the streaming
/// fold *and* the finish work pool; `plan.shard_size()` fixes the
/// output (the default is [`mbw_dataset::DEFAULT_SHARD_SIZE`]). The
/// optional GMM fit cache is consulted (and fed) by the finish stage:
/// cached fits reproduce the uncached figures byte-for-byte — the cache
/// only skips converged EM reruns.
pub fn stream_figures_cached(
    baseline: DatasetConfig,
    current: DatasetConfig,
    plan: ShardPlan,
    cache: Option<&FitCache>,
) -> (MeasurementFigures, StreamTimings) {
    let wall_start = Instant::now();
    let tracer = trace::active();
    let mut spans = tracer.local();
    let run_span = spans.begin();
    let units = work_list(baseline, current, plan);
    let threads = plan.thread_count();

    let outs = fold_list(&units, threads, &tracer);
    let mut outs = outs.into_iter();
    let first = outs.next().expect("at least one worker ran");
    let mut set = first.set;
    let mut generate_nanos = first.generate_nanos;
    let mut observe_nanos = first.observe_nanos;
    let merge_span = spans.begin();
    let merge_start = Instant::now();
    for out in outs {
        generate_nanos += out.generate_nanos;
        observe_nanos += out.observe_nanos;
        set.merge(out.set);
    }
    let merge = merge_start.elapsed();
    spans.end(merge_span, run_span.id, "stream.merge", "stream");

    let finish_span = spans.begin();
    let finish_start = Instant::now();
    let (mut figures, fstats) = set.finish_with(FinishOptions { threads, cache });
    // Figures for any ecosystem other than the paper's own carry the
    // profile name; paper-china stays untagged so its rendered output
    // is byte-identical to the pre-profile pipeline.
    if current.profile.name != EcosystemProfile::paper_china().name {
        figures = figures.with_profile_tag(current.profile.name);
    }
    let finish = finish_start.elapsed();
    spans.end(finish_span, run_span.id, "stream.finish", "stream");

    let timings = StreamTimings {
        generate: Duration::from_nanos(generate_nanos),
        observe: Duration::from_nanos(observe_nanos),
        merge,
        finish,
        finish_cpu: fstats.cpu,
        wall: wall_start.elapsed(),
        records: baseline.tests + current.tests,
    };
    if run_span.id != 0 {
        spans.end_with(
            run_span,
            0,
            "stream.run",
            "stream",
            vec![
                ("records", ArgValue::from(timings.records)),
                ("threads", ArgValue::from(threads)),
            ],
        );
    }
    (figures, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SWEEP_IDS;
    use mbw_dataset::{generate_sharded, Year};

    /// The reference: both whole populations folded into one set, in
    /// order, on this thread.
    fn sequential_fold(b: DatasetConfig, c: DatasetConfig, plan: ShardPlan) -> MeasurementFigures {
        let mut set = FigureSet::new();
        set.observe_baseline_records(&generate_sharded(b, plan));
        set.observe_records(&generate_sharded(c, plan));
        set.finish()
    }

    fn configs(tests: usize, seed: u64) -> (DatasetConfig, DatasetConfig) {
        let cfg = |year| DatasetConfig {
            seed,
            tests,
            year,
            ..Default::default()
        };
        (cfg(Year::Y2020), cfg(Year::Y2021))
    }

    #[test]
    fn streaming_matches_a_sequential_fold_and_is_thread_count_independent() {
        let (b, c) = configs(20_000, 0x57AB);
        let reference = sequential_fold(b, c, ShardPlan::new(1_024, 1));
        for threads in [1usize, 2, 8] {
            let (figs, _) = stream_figures_cached(b, c, ShardPlan::new(1_024, threads), None);
            for id in SWEEP_IDS {
                assert_eq!(
                    reference.render(id),
                    figs.render(id),
                    "{id} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn timings_cover_the_run() {
        let (b, c) = configs(5_000, 7);
        let (figs, t) = stream_figures_cached(b, c, ShardPlan::new(512, 4), None);
        assert_eq!(t.records, 10_000);
        assert!(t.records_per_second() > 0.0);
        assert!(t.wall >= t.merge + t.finish);
        assert_eq!(t.parallel_wall(), t.wall - t.merge - t.finish);
        assert!(t.parallel_records_per_second() >= t.records_per_second());
        assert!(figs.summary.is_ok());
    }

    #[test]
    fn trace_attributes_the_finish_tail_per_figure() {
        use mbw_telemetry::{Tracer, WallClock};
        use std::sync::Arc;

        let tracer = Tracer::new(Arc::new(WallClock::new()), 0xF1);
        let (b, c) = configs(20_000, 0xBEEF);
        let (figs, t) = trace::scope(&tracer, || {
            stream_figures_cached(b, c, ShardPlan::new(1_024, 4), None)
        });
        assert!(figs.summary.is_ok());

        let spans = tracer.spans();
        let count = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert!(count("stream.shard") > 0, "worker shards were not traced");
        assert_eq!(count("stream.merge"), 1);
        assert_eq!(count("stream.finish"), 1);
        assert_eq!(count("stream.run"), 1);
        assert_eq!(count("sweep.finish"), 1);

        let root = spans.iter().find(|s| s.name == "sweep.finish").unwrap();
        let per_figure: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("finish."))
            .collect();
        assert_eq!(per_figure.len(), 24, "one finish span per figure field");
        for s in &per_figure {
            assert_eq!(s.parent, root.id, "{} not parented to sweep.finish", s.name);
        }

        // With the finish pool the per-figure spans may overlap, so
        // their summed duration can exceed the root's wall time (that
        // gap *is* the parallel speedup) — but each child must still
        // nest inside the root's window, and together they still
        // account for (essentially) the whole measured finish stage:
        // the only untimed work is struct assembly, nanoseconds of it.
        let root_end = root.start_ns + root.dur_ns;
        for s in &per_figure {
            assert!(
                s.start_ns >= root.start_ns && s.start_ns + s.dur_ns <= root_end,
                "{} [{}, {}) escapes the sweep.finish window [{}, {})",
                s.name,
                s.start_ns,
                s.start_ns + s.dur_ns,
                root.start_ns,
                root_end
            );
        }
        let sum: u64 = per_figure.iter().map(|s| s.dur_ns).sum();
        let stage = t.finish.as_nanos() as u64;
        assert!(
            sum as f64 >= stage as f64 * 0.95 - 2e6,
            "finish spans ({sum} ns) attribute too little of the finish stage ({stage} ns)"
        );
    }

    #[test]
    fn parallel_finish_is_byte_identical_to_serial() {
        use crate::sweep::FinishOptions;
        use mbw_frame::Codec;

        let (b, c) = configs(20_000, 0xF00D);
        let plan = ShardPlan::new(1_024, 1);
        let n = stream_unit_count(b, c, plan);
        let (set, _) = stream_partial(b, c, plan, 0, n);
        let bytes = set.to_bytes();
        let finish_at = |threads: usize| {
            let set = FigureSet::from_bytes(&bytes).expect("state decodes");
            set.finish_with(FinishOptions::threads(threads)).0
        };
        let serial = finish_at(1);
        for threads in [2usize, 8] {
            let multi = finish_at(threads);
            for id in SWEEP_IDS {
                assert_eq!(
                    serial.render(id),
                    multi.render(id),
                    "{id} differs at {threads} finish threads"
                );
            }
        }
    }

    #[test]
    fn warm_fit_cache_reproduces_cold_figures() {
        use crate::fitcache::FitCache;

        let (b, c) = configs(20_000, 0xCACE);
        let plan = ShardPlan::new(1_024, 2);
        let (cold, _) = stream_figures_cached(b, c, plan, None);
        let cache = FitCache::new();
        let (first, _) = stream_figures_cached(b, c, plan, Some(&cache));
        let misses_after_cold = cache.misses();
        assert!(misses_after_cold >= 3, "three GMM figures should miss");
        assert!(!cache.is_empty());
        let (warm, _) = stream_figures_cached(b, c, plan, Some(&cache));
        assert_eq!(cache.misses(), misses_after_cold, "warm run refit a figure");
        assert!(cache.hits() >= 3, "warm run should hit every GMM figure");
        for id in SWEEP_IDS {
            assert_eq!(cold.render(id), first.render(id), "{id} differs cold");
            assert_eq!(
                cold.render(id),
                warm.render(id),
                "{id} differs under a warm cache"
            );
        }
    }

    #[test]
    fn non_paper_profiles_stream_tagged_figures() {
        let profile = EcosystemProfile::europe_ran();
        let cfg = |year| DatasetConfig {
            seed: 0xE0,
            tests: 4_000,
            year,
            profile,
        };
        let plan = ShardPlan::new(512, 2);
        let (figs, _) = stream_figures_cached(cfg(Year::Y2020), cfg(Year::Y2021), plan, None);
        for id in SWEEP_IDS {
            assert!(
                figs.render(id)
                    .unwrap()
                    .starts_with("profile: europe-ran\n"),
                "{id} untagged"
            );
        }
        // The paper's own profile stays untagged.
        let (china, _) = configs(2_000, 5);
        let (figs, _) = stream_figures_cached(china, china, ShardPlan::new(512, 1), None);
        assert!(figs.profile_tag.is_none());
        assert!(!figs.render("fig01").unwrap().starts_with("profile:"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let (b, c) = configs(2_000, 3);
        let (figs, _) = stream_figures_cached(b, c, ShardPlan::new(512, 2), None);
        assert!(figs.summary.is_ok());
        let ambient = trace::active();
        assert!(!ambient.enabled());
        assert!(ambient.spans().is_empty());
    }

    #[test]
    fn empty_populations_stream_cleanly() {
        let (b, c) = configs(0, 1);
        let (figs, t) = stream_figures_cached(b, c, ShardPlan::threads(4), None);
        assert_eq!(t.records, 0);
        assert!(figs.summary.is_err());
        assert!(figs.render("table1").is_some());
    }

    #[test]
    fn unit_count_matches_the_work_list() {
        let (b, c) = configs(3_000, 11);
        let plan = ShardPlan::new(256, 1);
        assert_eq!(stream_unit_count(b, c, plan), work_list(b, c, plan).len());
    }

    #[test]
    fn partial_slices_merge_to_the_full_set() {
        use crate::sweep::FigureSet;
        use mbw_frame::Codec;

        let (b, c) = configs(3_000, 0xD157);
        let plan = ShardPlan::new(256, 2);
        let n = stream_unit_count(b, c, plan);
        assert!(n >= 4, "want a few units, got {n}");

        let (whole, t) = stream_partial(b, c, plan, 0, n);
        assert_eq!(t.records, 6_000);
        assert_eq!(t.finish, Duration::ZERO);
        let whole_bytes = whole.to_bytes();

        for bounds in [vec![0, n / 2, n], vec![0, n / 3, 2 * n / 3, n]] {
            let mut merged: Option<FigureSet> = None;
            for w in bounds.windows(2) {
                let (part, pt) = stream_partial(b, c, plan, w[0], w[1] - w[0]);
                assert_eq!(pt.finish, Duration::ZERO);
                merged = Some(match merged {
                    None => part,
                    Some(mut m) => {
                        m.merge(part);
                        m
                    }
                });
            }
            assert_eq!(
                merged.unwrap().to_bytes(),
                whole_bytes,
                "split {bounds:?} is not byte-identical"
            );
        }

        // Finishing the rebuilt set reproduces the one-process figures.
        let (figs, _) = stream_figures_cached(b, c, plan, None);
        let rebuilt = whole.finish();
        for id in SWEEP_IDS {
            assert_eq!(figs.render(id), rebuilt.render(id), "{id} differs");
        }
    }

    #[test]
    fn figure_set_codec_roundtrips_mid_stream_state() {
        use mbw_frame::Codec;

        let (b, c) = configs(2_000, 0x0DEC);
        let plan = ShardPlan::new(256, 1);
        let n = stream_unit_count(b, c, plan);
        let (set, _) = stream_partial(b, c, plan, 0, n.div_ceil(2));
        let bytes = set.to_bytes();
        let back = crate::sweep::FigureSet::from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(back.to_bytes(), bytes);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Any 2-way split point over the unit range reduces
        /// byte-identically to the unsplit fold.
        #[test]
        fn any_split_point_is_byte_identical(raw in 0usize..1_000) {
            use mbw_frame::Codec;

            let (b, c) = configs(1_500, 0x5117);
            let plan = ShardPlan::new(256, 2);
            let n = stream_unit_count(b, c, plan);
            let cut = raw % (n + 1);
            let (whole, _) = stream_partial(b, c, plan, 0, n);
            let (mut left, _) = stream_partial(b, c, plan, 0, cut);
            let (right, _) = stream_partial(b, c, plan, cut, n - cut);
            left.merge(right);
            proptest::prop_assert_eq!(left.to_bytes(), whole.to_bytes());
        }

        /// The finish pool never changes a figure: for any population
        /// seed, finishing the same encoded state at 1 and 4 threads
        /// renders identically.
        #[test]
        fn parallel_finish_matches_serial_for_any_seed(seed in 0u64..1_000_000) {
            use crate::sweep::FinishOptions;
            use mbw_frame::Codec;

            let (b, c) = configs(1_500, seed);
            let plan = ShardPlan::new(256, 1);
            let n = stream_unit_count(b, c, plan);
            let (set, _) = stream_partial(b, c, plan, 0, n);
            let bytes = set.to_bytes();
            let serial = FigureSet::from_bytes(&bytes)
                .expect("state decodes")
                .finish_with(FinishOptions::threads(1))
                .0;
            let multi = FigureSet::from_bytes(&bytes)
                .expect("state decodes")
                .finish_with(FinishOptions::threads(4))
                .0;
            for id in SWEEP_IDS {
                proptest::prop_assert_eq!(serial.render(id), multi.render(id), "{} differs", id);
            }
        }
    }
}
