//! Thread-scaling smoke tests — ignored by default, run by the CI
//! `scaling` job on a ≥4-core runner:
//!
//! ```text
//! cargo test -p mbw-bench --release --test scaling -- --ignored
//! ```
//!
//! Two kinds of assertion:
//!
//! - *scaling*: multi-thread throughput must beat single-thread by a
//!   sane margin on a multi-core machine. For the streaming engine the
//!   comparison is made on the thread-parallel phase (generate +
//!   observe, `StreamTimings::parallel_records_per_second`) rather
//!   than end-to-end wall, which mixes phases with different scaling
//!   behaviour. The finish stage — once a single-threaded tail — now
//!   fans its per-figure jobs and GMM candidate fits over the same
//!   thread count and gets its own scaling gate on
//!   `StreamTimings::finish` wall time.
//! - *regression*: current throughput must stay within 20% of a
//!   baseline measured on the *same runner class*. Cross-machine
//!   wall-clock comparison is inherently unstable, and the benchmark of
//!   record (`benchmark/`) times one thread only, so this job is the
//!   gate on threads > 1 and its baseline lives in a file under
//!   `$MBW_SCALING_BASELINE_DIR` — in CI that directory is carried
//!   between runs by the actions cache, so every comparison is
//!   runner-against-same-runner. The first run on a fresh cache seeds
//!   the baseline and skips the assertion; later runs gate against it
//!   and ratchet it up to the best throughput seen.
//!
//! On a machine with fewer than 4 cores the scaling assertions are
//! vacuous, and without `MBW_SCALING_BASELINE_DIR` there is no
//! same-machine baseline to gate against — in both cases the tests
//! skip with a notice instead of failing.

use mbw_analysis::{stream_figures_cached, StreamTimings};
use mbw_bench::eval_sweep::{plan_for, reduce, EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_core::{run_campaign, EvalCounts};
use mbw_dataset::{DatasetConfig, ShardPlan, Year};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Margin a multi-thread run must clear over single-thread.
const SCALING_MARGIN: f64 = 1.3;
/// Fraction of the same-runner baseline throughput we must retain.
const REGRESSION_FLOOR: f64 = 0.8;
const ITERS: usize = 2;

/// Workload sizes for the smoke runs (fixed so that a stored baseline
/// and a later measurement always describe the same work).
const SMOKE_RECORDS: usize = 120_000;
const SMOKE_TRIALS: usize = 40;

fn detected_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The scaling assertions need real cores; skip (don't fail) without them.
fn multicore_or_skip(test: &str) -> Option<usize> {
    let threads = detected_threads();
    if threads < 4 {
        eprintln!("{test}: skipping — only {threads} core(s) detected, need >= 4");
        return None;
    }
    Some(threads)
}

/// Where the same-runner-class baseline for `metric` lives, if a
/// baseline directory was configured at all.
fn baseline_path(test: &str, metric: &str) -> Option<PathBuf> {
    match std::env::var_os("MBW_SCALING_BASELINE_DIR") {
        Some(dir) => Some(PathBuf::from(dir).join(format!("{metric}.txt"))),
        None => {
            eprintln!(
                "{test}: skipping — MBW_SCALING_BASELINE_DIR not set, no same-machine \
                 baseline to gate against"
            );
            None
        }
    }
}

/// Gate `current` against the stored same-runner baseline for `metric`
/// (`unit` is only for messages). Seeds the baseline on first run, then
/// asserts the [`REGRESSION_FLOOR`] and ratchets the stored value up to
/// the best throughput seen so regressions can't creep in a few percent
/// at a time.
fn gate_against_baseline(test: &str, metric: &str, unit: &str, current: f64) {
    let Some(path) = baseline_path(test, metric) else {
        return;
    };
    let stored: Option<f64> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let write = |value: f64| {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir:?}: {e}"));
        }
        std::fs::write(&path, format!("{value}\n"))
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    };
    match stored {
        None => {
            write(current);
            eprintln!("{test}: seeded baseline {current:.0} {unit} at {path:?} (no assertion)");
        }
        Some(base) => {
            eprintln!(
                "{test}: {current:.0} {unit} now vs {base:.0} baseline \
                 ({:.2}x, floor {REGRESSION_FLOOR})",
                current / base
            );
            write(base.max(current));
            assert!(
                current >= REGRESSION_FLOOR * base,
                "{metric} regressed >20%: {current:.0} {unit} vs same-runner baseline {base:.0}"
            );
        }
    }
}

/// One streaming run of `records` per year at `threads` workers.
fn stream_timings(records: usize, threads: usize) -> StreamTimings {
    let cfg = |year| DatasetConfig {
        seed: 0xBE7C,
        tests: records,
        year,
        ..Default::default()
    };
    let plan = ShardPlan::threads(threads);
    let (figs, t) = stream_figures_cached(cfg(Year::Y2020), cfg(Year::Y2021), plan, None);
    black_box(figs);
    t
}

/// Best-of-`ITERS` streaming timings at `threads` workers. Returns
/// `(end_to_end_rps, parallel_phase_rps)`, each the max over the
/// iterations.
fn stream_rps(records: usize, threads: usize) -> (f64, f64) {
    (0..ITERS)
        .map(|_| {
            let t = stream_timings(records, threads);
            (t.records_per_second(), t.parallel_records_per_second())
        })
        .fold((0.0, 0.0), |(e, p), (e2, p2)| (e.max(e2), p.max(p2)))
}

/// Best-of-`ITERS` finish-stage wall seconds at `threads` workers (the
/// finish pool inherits the shard plan's thread count).
fn finish_secs(records: usize, threads: usize) -> f64 {
    (0..ITERS)
        .map(|_| stream_timings(records, threads).finish.as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-`ITERS` campaign trials/s (plan → execute → reduce) at
/// `threads` workers.
fn campaign_tps(trials: usize, threads: usize) -> f64 {
    let counts = EvalCounts::uniform(trials);
    (0..ITERS)
        .map(|_| {
            let t0 = Instant::now();
            let plan = plan_for(&EVAL_SWEEP_IDS, &counts, 0xBE57);
            let planned = plan.len();
            let pool = run_campaign(&plan, threads);
            black_box(reduce(EvalFigureSet::new(0xC0), &pool));
            planned as f64 / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
        })
        .fold(0.0, f64::max)
}

#[test]
#[ignore = "perf smoke: needs a quiet >=4-core machine (CI scaling job)"]
fn streaming_multithread_beats_single_thread() {
    let Some(threads) = multicore_or_skip("streaming_multithread_beats_single_thread") else {
        return;
    };
    let (single_e2e, single) = stream_rps(SMOKE_RECORDS, 1);
    let (multi_e2e, multi) = stream_rps(SMOKE_RECORDS, threads);
    eprintln!(
        "streaming parallel phase: {single:.0} rec/s at 1 thread, {multi:.0} rec/s at \
         {threads} ({:.2}x); end-to-end: {single_e2e:.0} \
         -> {multi_e2e:.0} rec/s ({:.2}x, informational)",
        multi / single,
        multi_e2e / single_e2e
    );
    assert!(
        multi > SCALING_MARGIN * single,
        "streaming engine's parallel phase does not scale: {multi:.0} rec/s at \
         {threads} threads vs {single:.0} at 1 (need > {SCALING_MARGIN}x)"
    );
}

#[test]
#[ignore = "perf smoke: needs a quiet >=4-core machine (CI scaling job)"]
fn finish_stage_multithread_beats_single_thread() {
    let Some(threads) = multicore_or_skip("finish_stage_multithread_beats_single_thread") else {
        return;
    };
    let single = finish_secs(SMOKE_RECORDS, 1);
    let multi = finish_secs(SMOKE_RECORDS, threads);
    eprintln!(
        "finish stage: {:.1} ms at 1 thread, {:.1} ms at {threads} ({:.2}x)",
        single * 1e3,
        multi * 1e3,
        single / multi.max(f64::MIN_POSITIVE)
    );
    assert!(
        single > SCALING_MARGIN * multi,
        "finish stage does not scale: {:.1} ms at {threads} threads vs {:.1} ms at 1 \
         (need > {SCALING_MARGIN}x)",
        multi * 1e3,
        single * 1e3
    );
}

#[test]
#[ignore = "perf smoke: needs a quiet >=4-core machine (CI scaling job)"]
fn campaign_multithread_beats_single_thread() {
    let Some(threads) = multicore_or_skip("campaign_multithread_beats_single_thread") else {
        return;
    };
    let single = campaign_tps(SMOKE_TRIALS, 1);
    let multi = campaign_tps(SMOKE_TRIALS, threads);
    eprintln!(
        "campaign: {single:.0} trials/s at 1 thread, {multi:.0} trials/s at {threads} \
         ({:.2}x)",
        multi / single
    );
    assert!(
        multi > SCALING_MARGIN * single,
        "campaign executor does not scale: {multi:.0} trials/s at {threads} threads vs \
         {single:.0} at 1 (need > {SCALING_MARGIN}x)"
    );
}

#[test]
#[ignore = "perf smoke: regression gate against the same-runner baseline cache"]
fn streaming_throughput_has_not_regressed() {
    let (rps, _) = stream_rps(SMOKE_RECORDS, detected_threads());
    gate_against_baseline(
        "streaming_throughput_has_not_regressed",
        "streaming_records_per_second",
        "rec/s",
        rps,
    );
}

#[test]
#[ignore = "perf smoke: regression gate against the same-runner baseline cache"]
fn campaign_throughput_has_not_regressed() {
    let tps = campaign_tps(SMOKE_TRIALS, detected_threads());
    gate_against_baseline(
        "campaign_throughput_has_not_regressed",
        "campaign_trials_per_second",
        "trials/s",
        tps,
    );
}
