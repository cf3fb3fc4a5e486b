//! `measure_stream`: the §2–§4 measurement sweep through the streaming
//! engine.
//!
//! Why: it is the paper's measurement half with the paper-scale layer
//! mix — generate + observe are 85–90 % of a pass, and the finish
//! stage's O(1) GMM tail is served from a warm `FitCache`, as it would
//! be negligible next to 23.6 M records. `dataset`, the `stats`
//! samplers and `analysis` observe do the work; `core`, `netsim`,
//! `wire` and `frame` do none.

use super::{measurement_text, PassOut, Workload};
use crate::span::{Layer, Recorder};
use mbw_analysis::stream::BATCH;
use mbw_analysis::sweep::{FigureSet, FinishOptions};
use mbw_analysis::{stream_figures_cached, FitCache};
use mbw_dataset::{DatasetConfig, EcosystemProfile, Generator, ShardPlan, TestRecord, Year};

/// Records per year: four whole shard units, so a pass is 0.2 s on the
/// 2-vCPU runner and a 28 s window holds over 100 of them.
pub const RECORDS_PER_YEAR: usize = 4 * mbw_dataset::DEFAULT_SHARD_SIZE;

/// The two populations of a measurement sweep under the paper's own
/// ecosystem profile.
pub fn populations(seed: u64, records: usize) -> (DatasetConfig, DatasetConfig) {
    let cfg = |year| DatasetConfig {
        seed,
        tests: records,
        year,
        profile: EcosystemProfile::paper_china(),
    };
    (cfg(Year::Y2020), cfg(Year::Y2021))
}

/// Generate and observe one contiguous slice of the streaming engine's
/// unit list (baseline shards, then current shards) into `set`, batch
/// by batch, exactly as the engine's single worker does.
pub fn fold_units(
    rec: &mut Recorder,
    set: &mut FigureSet,
    baseline: DatasetConfig,
    current: DatasetConfig,
    plan: ShardPlan,
    units: std::ops::Range<usize>,
) {
    let mut buf: Vec<TestRecord> = Vec::with_capacity(BATCH);
    let list = [(baseline, true), (current, false)]
        .into_iter()
        .flat_map(|(cfg, is_baseline)| {
            plan.shard_specs(cfg.tests)
                .into_iter()
                .map(move |spec| (cfg, is_baseline, spec))
        });
    for (cfg, is_baseline, spec) in list.skip(units.start).take(units.len()) {
        let mut gen = rec.span(Layer::Dataset, "generator.for_shard", |_| {
            Generator::for_shard(cfg, spec.shard)
        });
        let mut remaining = spec.len;
        while remaining > 0 {
            let take = remaining.min(BATCH);
            rec.span(Layer::Dataset, "generate_batch", |_| {
                buf.clear();
                buf.extend((0..take).map(|_| gen.generate_one()));
            });
            rec.span(Layer::Analysis, "observe_batch", |_| {
                if is_baseline {
                    set.observe_baseline_records(&buf);
                } else {
                    set.observe_records(&buf);
                }
            });
            remaining -= take;
        }
    }
}

pub struct MeasureStream {
    baseline: DatasetConfig,
    current: DatasetConfig,
    plan: ShardPlan,
    cache: FitCache,
}

impl MeasureStream {
    pub fn new(seed: u64) -> Self {
        let (baseline, current) = populations(seed, RECORDS_PER_YEAR);
        MeasureStream {
            baseline,
            current,
            plan: ShardPlan::threads(1),
            cache: FitCache::new(),
        }
    }

    fn requested(&self) -> u64 {
        (self.baseline.tests + self.current.tests) as u64
    }
}

impl Workload for MeasureStream {
    fn setup(&mut self) -> PassOut {
        self.cache = FitCache::new();
        self.pass()
    }

    fn pass(&mut self) -> PassOut {
        let (figures, timings) =
            stream_figures_cached(self.baseline, self.current, self.plan, Some(&self.cache));
        let text = measurement_text(&figures);
        let analysed = timings.records as u64;
        let check = if analysed == self.requested() {
            Ok(())
        } else {
            Err(format!(
                "analysed {analysed} records, requested {}",
                self.requested()
            ))
        };
        PassOut::new(&text, analysed, check)
    }

    fn composed(&mut self, rec: &mut Recorder) -> PassOut {
        let (baseline, current, plan) = (self.baseline, self.current, self.plan);
        let cache = &self.cache;
        let units = plan.shard_count(baseline.tests) + plan.shard_count(current.tests);
        let requested = self.requested();
        rec.span(Layer::Harness, "pass", |rec| {
            let mut set = FigureSet::new();
            fold_units(rec, &mut set, baseline, current, plan, 0..units);
            let (figures, _) = rec.span(Layer::Analysis, "finish_warm", |_| {
                set.finish_with(FinishOptions {
                    threads: 1,
                    cache: Some(cache),
                })
            });
            let text = rec.span(Layer::Analysis, "render", |_| measurement_text(&figures));
            rec.span(Layer::Harness, "digest", |_| {
                PassOut::new(&text, requested, Ok(()))
            })
        })
    }

    fn verify(&mut self) -> Vec<(String, bool)> {
        // A cold cache must reproduce the warm figures byte for byte.
        let warm = self.pass();
        let cold = self.setup();
        vec![(
            "figures from a cold fit cache equal figures from a warm one".to_string(),
            warm.digest == cold.digest,
        )]
    }
}
