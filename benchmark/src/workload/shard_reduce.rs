//! `shard_reduce`: the distributed plan → execute → reduce pipeline.
//! Set-up is the runners' half (four plans, four shards executed,
//! encoded and written durably); a pass is the reducer's half (read,
//! decode, merge, cold finish, render all 36 figures).
//!
//! Why: the same accumulators used the other way — as bytes. `Codec`
//! decode, CRC, snapshot read, `merge` and the *cold* binned-GMM finish
//! that `measure_stream` serves from cache run in every pass; encode
//! and the snapshot's write+fsync+rename run in every set-up. It is
//! where O(records) state (~43 B/record) costs. Bounded-state
//! accumulators (ROADMAP item 2) must move this workload and must not
//! move `eval_campaign`.
//!
//! The shard execution is kept out of the timed pass because it ends in
//! an `fsync`: on the runner's disk that is 17–40 ms of a 0.15 s pass
//! and doubled the run-to-run spread of the minimum (18 % against 8 %
//! with the same files on tmpfs).
//!
//! The distributed API pins its seeds (they are part of the plan hash),
//! so `--seed` can only trim the record count, by under 0.4 %.

use super::measure_stream::populations;
use super::{eval_text, measurement_text, PassOut, Workload};
use crate::span::{Layer, Recorder};
use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::stream_figures_cached;
use mbw_analysis::sweep::{FigureSet, FinishOptions};
use mbw_bench::distributed::{
    collect_parts, full_eval_plan, reduce_parts, run_shard_file, write_plans, DistConfig,
    ShardPart, ShardRun, COST_SEED, MEASUREMENT_SEED,
};
use mbw_bench::eval_sweep::{reduce_with, EvalFigureSet};
use mbw_core::{run_campaign, EvalCounts};
use mbw_dataset::{EcosystemProfile, ShardPlan};
use mbw_frame::{read_snapshot, Codec};
use std::path::{Path, PathBuf};

/// Shards the run is split into.
const SHARDS: u32 = 4;

/// Records per year before the seed's trim: two whole shard units, one
/// stream unit per shard. (Four units per year make a set-up 1.1 s on
/// disk, which leaves 15 set-up samples in a 28 s window; it must hold
/// 20.)
const RECORDS_PER_YEAR: usize = 2 * mbw_dataset::DEFAULT_SHARD_SIZE;

/// A run's configuration for a benchmark seed.
pub fn config(seed: u64, records: usize, counts: EvalCounts, shards: u32) -> DistConfig {
    DistConfig {
        profile: EcosystemProfile::paper_china(),
        records: records - (seed % 512) as usize,
        counts,
        shards,
    }
}

/// Every figure of a run, measurement then evaluation, as one text.
fn all_text(
    figures: &mbw_analysis::MeasurementFigures,
    eval: &mbw_bench::eval_sweep::EvalFigures,
) -> String {
    let mut text = measurement_text(figures);
    text.push_str(&eval_text(eval));
    text
}

/// The figures one process computes without sharding: what every
/// reduction must reproduce byte for byte.
pub fn single_process_text(cfg: &DistConfig) -> String {
    let (baseline, current) = populations(MEASUREMENT_SEED, cfg.records);
    let (figures, _) = stream_figures_cached(baseline, current, ShardPlan::threads(1), None);
    let pool = run_campaign(&full_eval_plan(&cfg.counts, cfg.profile), 1);
    let eval = reduce_with(EvalFigureSet::new(COST_SEED), &pool, 1);
    all_text(&figures, &eval)
}

pub struct ShardReduce {
    cfg: DistConfig,
    dir: PathBuf,
    plans: Vec<PathBuf>,
    reference: Option<u64>,
}

impl ShardReduce {
    pub fn new(seed: u64, scratch: &Path) -> Self {
        Self::with_config(
            config(seed, RECORDS_PER_YEAR, EvalCounts::quick(), SHARDS),
            scratch,
        )
    }

    /// A pipeline over an explicit configuration (the layer kernels use
    /// a smaller one).
    pub fn with_config(cfg: DistConfig, scratch: &Path) -> Self {
        ShardReduce {
            cfg,
            dir: scratch.join("shards"),
            plans: Vec::new(),
            reference: None,
        }
    }

    /// Digest of the single-process figures, computed once per run.
    fn reference(&mut self) -> u64 {
        let cfg = self.cfg;
        *self
            .reference
            .get_or_insert_with(|| mbw_frame::fnv1a64(single_process_text(&cfg).as_bytes()))
    }

    /// A pass output from the reduced text (or what went wrong), held
    /// against the single-process digest.
    fn checked(&mut self, reduced: Result<String, String>) -> PassOut {
        let reference = self.reference();
        let (text, error) = match reduced {
            Ok(text) => (text, Ok(())),
            Err(e) => (String::new(), Err(e)),
        };
        let mut out = PassOut::new(&text, 2 * self.cfg.records as u64, error);
        if out.broken.is_none() && out.digest != reference {
            out.broken = Some(format!(
                "reduced digest {:#018x} differs from the single-process digest {reference:#018x}",
                out.digest
            ));
        }
        out
    }

    /// Total size of the part snapshots on disk.
    pub fn snapshot_bytes(&self) -> u64 {
        collect_parts(&self.dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Delete the last shard's part and execute the shard again through
    /// the public runner, as a resumed fan-out does.
    pub fn rerun_last_shard(&mut self) -> Result<(), String> {
        let last = collect_parts(&self.dir)
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("no part files")?;
        std::fs::remove_file(&last).map_err(|e| format!("{}: {e}", last.display()))?;
        let plan = self.plans.last().ok_or("set-up wrote no plans")?;
        match run_shard_file(plan, &self.dir, 1).map_err(|e| e.to_string())? {
            ShardRun::Ran(_) => Ok(()),
            ShardRun::Skipped(p) => Err(format!("{} was not re-executed", p.display())),
        }
    }

    /// Reduce every part through the public reducer and render.
    pub fn reduce(&self) -> Result<String, String> {
        let parts = collect_parts(&self.dir).map_err(|e| e.to_string())?;
        let reduced = reduce_parts(&parts, 1).map_err(|e| e.to_string())?;
        Ok(all_text(&reduced.figures, &reduced.eval))
    }

    /// Set-up without the cold pass: plans and all four parts on disk.
    pub fn write_all_parts(&mut self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        self.plans = write_plans(&self.cfg, &self.dir).map_err(|e| e.to_string())?;
        for plan in &self.plans {
            run_shard_file(plan, &self.dir, 1).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Read, decode, merge, finish and render composed from the layers'
    /// public calls (the reducer's provenance checks are left out; the
    /// digest check covers what they protect).
    fn composed_reduce(&self, rec: &mut Recorder) -> Result<String, String> {
        let paths = rec
            .span(Layer::Bench, "collect_parts", |_| collect_parts(&self.dir))
            .map_err(|e| e.to_string())?;
        let mut sets: Option<(FigureSet, EvalFigureSet)> = None;
        for path in &paths {
            let (_, body) = rec
                .span(Layer::Frame, "snapshot.read", |_| read_snapshot(path))
                .map_err(|e| e.to_string())?;
            let part = rec
                .span(Layer::Frame, "decode", |_| ShardPart::from_bytes(&body))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            match sets.as_mut() {
                None => sets = Some((part.figures, part.eval)),
                Some((figures, eval)) => {
                    rec.span(Layer::Analysis, "merge", |_| figures.merge(part.figures));
                    rec.span(Layer::Bench, "merge", |_| eval.merge(part.eval));
                }
            }
        }
        let (figures, eval) = sets.ok_or("no parts to reduce")?;
        let (figures, _) = rec.span(Layer::Analysis, "finish_cold", |_| {
            figures.finish_with(FinishOptions::threads(1))
        });
        let eval = rec.span(Layer::Bench, "finish", |_| eval.finish_with(1));
        let mut text = rec.span(Layer::Analysis, "render", |_| measurement_text(&figures));
        text.push_str(&rec.span(Layer::Bench, "render", |_| eval_text(&eval)));
        Ok(text)
    }
}

impl Workload for ShardReduce {
    fn setup(&mut self) -> PassOut {
        let reduced = self.write_all_parts().and_then(|()| self.reduce());
        self.checked(reduced)
    }

    fn pass(&mut self) -> PassOut {
        let reduced = self.reduce();
        self.checked(reduced)
    }

    fn composed(&mut self, rec: &mut Recorder) -> PassOut {
        let reduced = rec.span(Layer::Harness, "pass", |rec| self.composed_reduce(rec));
        self.checked(reduced)
    }

    fn verify(&mut self) -> Vec<(String, bool)> {
        // A shard whose part exists must be skipped, not re-executed;
        // one whose part was lost must be re-executed to the same bytes.
        let skipped = self.plans.last().is_some_and(|plan| {
            matches!(run_shard_file(plan, &self.dir, 1), Ok(ShardRun::Skipped(_)))
        });
        let resumed = self.rerun_last_shard().is_ok() && self.pass().broken.is_none();
        vec![
            ("re-running a completed shard skips it".to_string(), skipped),
            (
                "re-executing a lost shard reduces to the same figures".to_string(),
                resumed,
            ),
        ]
    }
}
