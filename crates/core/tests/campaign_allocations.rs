//! What one campaign trial asks of the allocator. Campaign trials keep
//! a fixed-size `DecisionRecord` instead of a timeline, and the
//! estimators and the flow simulator size their sample buffers once, so
//! a trial's bytes are set by the services it runs, not by how many
//! samples or rounds they take. Exact counts, no timing.

use mbw_congestion::{CcAlgorithm, MultiFlowConfig, MultiFlowSim};
use mbw_core::campaign::{BANDWIDTH_BINS, RAMP_SCENARIO};
use mbw_core::probe::{speedtest_thresholds, FloodingConfig};
use mbw_core::{
    run_campaign, AccessScenario, BtsKind, CampaignPlan, DecisionRecord, FluctuationClass,
    ScenarioId, TechClass, TestHarness, TrialKind, TrialSpec, VariantId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the test harness's own threads do not count; const
    // initialised and without a destructor, so reading it never allocates.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    REQUESTED.with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` call on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator (that is, from
        // `System`) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn requested<T>(f: impl FnOnce() -> T) -> u64 {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    let after = REQUESTED.with(Cell::get);
    drop(out);
    after - before
}

/// Bytes `run_campaign` requests for a one-trial plan, less what it
/// requests for an empty one (the scenario harnesses and the server
/// fleets every campaign builds once).
fn trial_bytes(kind: TrialKind, scenario: ScenarioId) -> u64 {
    let mut plan = CampaignPlan::new(0xA110C);
    plan.push(TrialSpec {
        kind,
        scenario,
        index: 3,
    });
    let empty = CampaignPlan::new(0xA110C);
    requested(|| run_campaign(&plan, 1)) - requested(|| run_campaign(&empty, 1))
}

/// What one trial of each kind requests through `run_campaign`, in
/// bytes. A trial may request up to 10 % more before the test fails.
const MEASURED: [(&str, TrialKind, ScenarioId, u64); 8] = [
    (
        "single BTS-APP",
        TrialKind::Single(BtsKind::BtsApp),
        LTE,
        3_997,
    ),
    ("single FAST", TrialKind::Single(BtsKind::Fast), LTE, 4_893),
    (
        "single FastBTS",
        TrialKind::Single(BtsKind::FastBts),
        LTE,
        6_237,
    ),
    (
        "single Swiftest",
        TrialKind::Single(BtsKind::Swiftest),
        LTE,
        301,
    ),
    (
        "pair",
        TrialKind::Pair(BtsKind::Swiftest, BtsKind::BtsApp),
        LTE,
        5_334,
    ),
    ("group", TrialKind::Group, LTE, 14_312),
    (
        "ramp",
        TrialKind::Ramp(CcAlgorithm::Cubic, BANDWIDTH_BINS.len() as u8 - 1),
        RAMP_SCENARIO,
        4_453,
    ),
    (
        "variant",
        TrialKind::Variant(VariantId::PaperDefault),
        RAMP_SCENARIO,
        373,
    ),
];

const LTE: ScenarioId = ScenarioId::Tech(TechClass::Lte);

/// What `run_campaign` requests for an empty plan, in bytes: one pair of
/// server fleets shared by the four scenario harnesses (372 servers of
/// 32 B, and their candidate order, 8 domains × 372 indices of 4 B:
/// 23 808 B), the `Arc` that holds them (112 B) and the campaign's own
/// 340 B. Fleets built per harness again would request four times
/// the fleet bytes.
const EMPTY_CAMPAIGN: u64 = 24_260;

#[test]
fn an_empty_campaign_builds_one_fleet_pair() {
    speedtest_thresholds();
    let bytes = requested(|| run_campaign(&CampaignPlan::new(0xA110C), 1));
    assert!(
        bytes <= EMPTY_CAMPAIGN,
        "an empty campaign requested {bytes} B (ceiling {EMPTY_CAMPAIGN} B)"
    );
}

#[test]
fn each_trial_kind_stays_under_its_frozen_ceiling() {
    // The connection ladder is built once per process, on first use.
    speedtest_thresholds();
    let mut over = String::new();
    for (name, kind, scenario, measured) in MEASURED {
        let bytes = trial_bytes(kind, scenario);
        if bytes > measured + measured / 10 {
            over.push_str(&format!("{name}: {bytes} B (measured {measured} B)\n"));
        }
    }
    assert!(over.is_empty(), "trials over their ceiling:\n{over}");
}

/// Bytes each trial adds to a campaign of [`RUN`] trials of one series:
/// what `run_campaign` requests for the whole series, less what it
/// requests for its first trial, per further trial.
fn added_trial_bytes(kind: TrialKind) -> u64 {
    let plan = |n| {
        let mut plan = CampaignPlan::new(0xA110C);
        plan.push_series(kind, LTE, n);
        plan
    };
    let (one, run) = (plan(1), plan(RUN));
    (requested(|| run_campaign(&run, 1)) - requested(|| run_campaign(&one, 1))) / (RUN as u64 - 1)
}

/// Trials in the campaigns of [`ADDED`].
const RUN: usize = 41;

/// What each further trial of a series costs, in bytes. A worker runs
/// every trial on one test scratch, so past the first trial a test
/// requests no sample bins, no estimator buffers and no flow list; its
/// controllers and its link's capacity process are held by value, and
/// the variant setups are resolved once per campaign. What is left is
/// its row of the pool (53 B, all a Swiftest, ramp or variant trial
/// requests) and, spread over the series, the scratch growing when a
/// test needs more bins or connections than every test before it. A
/// trial may request up to 10 % more before the test fails; a boxed
/// `Cubic` flow or `OuCapacity` link costs 88 B more each, the group
/// means of a BTS-APP estimate collected and sorted in new buffers
/// 320 B, and a simulator or an estimator buffer built per test again
/// 1.6 KB to 5 KB.
const ADDED: [(&str, TrialKind, u64); 7] = [
    ("BTS-APP", TrialKind::Single(BtsKind::BtsApp), 93),
    ("FAST", TrialKind::Single(BtsKind::Fast), 241),
    ("FastBTS", TrialKind::Single(BtsKind::FastBts), 226),
    ("Swiftest", TrialKind::Single(BtsKind::Swiftest), 53),
    ("group", TrialKind::Group, 323),
    (
        "ramp",
        TrialKind::Ramp(CcAlgorithm::Cubic, BANDWIDTH_BINS.len() as u8 - 1),
        53,
    ),
    ("variant", TrialKind::Variant(VariantId::PopulationMean), 53),
];

#[test]
fn further_trials_reuse_the_workers_scratch() {
    speedtest_thresholds();
    let mut over = String::new();
    for (name, kind, measured) in ADDED {
        let bytes = added_trial_bytes(kind);
        if bytes > measured + measured / 10 {
            over.push_str(&format!(
                "{name}: {bytes} B a trial (measured {measured} B)\n"
            ));
        }
    }
    assert!(over.is_empty(), "trials over their ceiling:\n{over}");
}

/// Bytes one BTS-APP test requests on the campaign's path over a
/// constant link at a fixed base RTT, and the bytes of the sample bins
/// the flow simulator reserves for that test up front.
fn bts_app_bytes(rtt_s: f64) -> (u64, u64) {
    let scenario = AccessScenario {
        rtt_range: (rtt_s, rtt_s),
        class_mix: (0.0, 0.0, 0.0),
        ..AccessScenario::default_for(TechClass::Wifi)
    };
    let drawn = scenario.draw(5);
    assert_eq!(drawn.class, FluctuationClass::Constant);
    let path = drawn.build();
    let bins = requested(|| {
        let mut sim = MultiFlowSim::new(path, MultiFlowConfig::default());
        sim.reserve_horizon(FloodingConfig::bts_app().max_duration);
        sim
    });
    let harness = TestHarness::with_scenario(scenario);
    let test = requested(|| {
        let o = harness.run_logged::<DecisionRecord>(BtsKind::BtsApp, 5);
        assert_eq!(o.timeline.stop_sample, 200);
    });
    (test, bins)
}

#[test]
fn rtt_moves_a_bts_app_trial_only_by_its_reserved_bins() {
    speedtest_thresholds();
    // The bins cover the 10 s cap plus the longest round, which is
    // longer at a longer RTT; nothing else may follow the 4x rounds.
    let (slow_rounds, slow_bins) = bts_app_bytes(0.040);
    let (fast_rounds, fast_bins) = bts_app_bytes(0.010);
    assert!(slow_bins > 0 && slow_bins < slow_rounds);
    assert_eq!(
        slow_rounds - slow_bins,
        fast_rounds - fast_bins,
        "4x the rounds moved the request from {slow_rounds} B to {fast_rounds} B \
         (bins {slow_bins} B and {fast_bins} B)"
    );
}
