//! Distributed plan → execute → reduce over the whole figure pipeline.
//!
//! One `figures` run produces every measurement figure (streaming fused
//! engine) and every evaluation figure (shared trial campaign) on one
//! machine. This module splits that run across `k` independent
//! processes — or machines — without giving up a byte of determinism:
//!
//! 1. **Plan** ([`write_plans`]): split both work domains — the
//!    streaming engine's unit list and the evaluation campaign's trial
//!    specs — into `k` contiguous [`SliceAssignment`]s, and write one
//!    plan snapshot per shard carrying seed / profile / plan-hash
//!    provenance.
//! 2. **Execute** ([`run_shard_file`]): each shard-runner process folds
//!    its measurement slice into a partial
//!    [`FigureSet`] (no finish) and
//!    runs its trial slice as a sub-campaign into a partial
//!    [`EvalFigureSet`], then writes both as one atomic part snapshot.
//!    A runner killed at any instant leaves either no part file or a
//!    fully valid one; re-running a shard whose part already exists
//!    skips the work (checkpoint/resume).
//! 3. **Reduce** ([`reduce_parts`]): validate that the parts form an
//!    exact partition under one plan hash, merge them in shard order,
//!    and finish. Both work domains are pure functions of their seeds;
//!    the measurement accumulators merge by integer addition (any
//!    order would do — a part is ~1 MB of bounded summaries whatever
//!    its record count) and the evaluation accumulators by
//!    concatenation in shard order, so the reduced figures are
//!    **byte-identical** to the single-process run for any `k` and any
//!    split points.
//!
//! Mismatched partials — different records, counts, profile, or split —
//! are rejected at merge time with a typed [`DistError`], never folded
//! into silently corrupt figures.

use crate::eval_sweep::{self, EvalFigureSet, EvalFigures, EVAL_SWEEP_IDS};
use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::sweep::FigureSet;
use mbw_analysis::{stream_partial, stream_unit_count, MeasurementFigures};
use mbw_core::{run_campaign, CampaignPlan, EvalCounts, ProfileDim};
use mbw_dataset::{
    validate_partition, DatasetConfig, EcosystemProfile, PartitionError, ShardPlan,
    SliceAssignment, Year,
};
use mbw_frame::{
    fnv1a64, read_snapshot, write_snapshot, Codec, CodecError, Dec, Enc, SnapshotError,
    SnapshotHeader,
};
use mbw_telemetry::trace::{self, ArgValue};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Dataset seed of the measurement populations (both years).
pub const MEASUREMENT_SEED: u64 = 0xDA7A;
/// Campaign seed of the shared evaluation pool.
pub const EVAL_SEED: u64 = 0x5EED;
/// Server-catalog seed of the cost report.
pub const COST_SEED: u64 = 0xC0;

/// Snapshot kind of a shard plan file.
pub const PLAN_KIND: &str = "mbw.shard-plan";
/// Snapshot kind of a shard's partial-state file.
pub const PART_KIND: &str = "mbw.figures-partial";

/// Parameters of one distributed figure run. Everything that shapes the
/// output is here (and hashed into the plan hash); worker thread counts
/// are deliberately *not* — they change wall time, never bytes.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Ecosystem profile both pipeline halves run under.
    pub profile: &'static EcosystemProfile,
    /// Measurement records per year.
    pub records: usize,
    /// Evaluation campaign trial counts.
    pub counts: EvalCounts,
    /// How many shards the run splits into.
    pub shards: u32,
}

/// The full evaluation plan a distributed run slices: the union of
/// every evaluation figure's trials under the run's profile dimension.
pub fn full_eval_plan(counts: &EvalCounts, profile: &'static EcosystemProfile) -> CampaignPlan {
    let mut plan = eval_sweep::plan_for(&EVAL_SWEEP_IDS, counts, EVAL_SEED);
    plan.set_profile(ProfileDim::by_name(profile.name).unwrap_or_default());
    plan
}

fn dataset_config(profile: &'static EcosystemProfile, records: usize, year: Year) -> DatasetConfig {
    DatasetConfig {
        seed: MEASUREMENT_SEED,
        tests: records,
        year,
        profile,
    }
}

/// FNV-1a hash over every parameter that shapes a run's output, and
/// over the layout of the state a part carries. Two partials merge only
/// if they agree on this hash, so a part produced from different
/// records, counts, seeds, profile, or split width — or written by a
/// binary whose accumulators encode differently
/// ([`mbw_analysis::sweep::STATE_LAYOUT`]) — can never be folded into
/// the wrong reduction, decoded as something it is not, or resumed.
pub fn plan_hash(cfg: &DistConfig) -> u64 {
    let mut enc = Enc::new();
    enc.put_u32(mbw_analysis::sweep::STATE_LAYOUT);
    enc.put_u64(MEASUREMENT_SEED);
    enc.put_u64(EVAL_SEED);
    enc.put_u64(COST_SEED);
    enc.put_str(cfg.profile.name);
    enc.put_usize(cfg.records);
    enc.put_usize(ShardPlan::threads(1).shard_size());
    enc.put_usize(cfg.counts.tests);
    enc.put_usize(cfg.counts.groups);
    enc.put_usize(cfg.counts.ramp_paths);
    enc.put_usize(cfg.counts.ablation);
    enc.put_usize(cfg.counts.mmwave);
    enc.put_u32(cfg.shards);
    fnv1a64(&enc.into_bytes())
}

/// One shard's assignment: the run parameters it must reproduce plus
/// its contiguous slice of each work domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardJob {
    /// Measurement records per year (whole run, not this shard).
    pub records: usize,
    /// Evaluation trial counts (whole run).
    pub counts: EvalCounts,
    /// This shard's slice of the streaming engine's unit list.
    pub measure: SliceAssignment,
    /// This shard's slice of the evaluation plan's trial specs.
    pub eval: SliceAssignment,
}

impl Codec for ShardJob {
    fn encode(&self, enc: &mut Enc) {
        enc.put_usize(self.records);
        enc.put_usize(self.counts.tests);
        enc.put_usize(self.counts.groups);
        enc.put_usize(self.counts.ramp_paths);
        enc.put_usize(self.counts.ablation);
        enc.put_usize(self.counts.mmwave);
        self.measure.encode(enc);
        self.eval.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            records: dec.usize_()?,
            counts: EvalCounts {
                tests: dec.usize_()?,
                groups: dec.usize_()?,
                ramp_paths: dec.usize_()?,
                ablation: dec.usize_()?,
                mmwave: dec.usize_()?,
            },
            measure: Codec::decode(dec)?,
            eval: Codec::decode(dec)?,
        })
    }
}

/// A shard's emitted partial state: its job echoed for partition
/// validation, the unfinished accumulators of both pipeline halves, and
/// the execute wall time for reduce-side reporting.
#[derive(Debug)]
pub struct ShardPart {
    /// The assignment this part was produced from.
    pub job: ShardJob,
    /// Partial measurement figure state (merge-ready, unfinished).
    pub figures: FigureSet,
    /// Partial evaluation figure state (merge-ready, unfinished).
    pub eval: EvalFigureSet,
    /// Wall seconds the shard's execute took.
    pub execute_seconds: f64,
}

impl Codec for ShardPart {
    fn encode(&self, enc: &mut Enc) {
        self.job.encode(enc);
        self.figures.encode(enc);
        self.eval.encode(enc);
        enc.put_f64(self.execute_seconds);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            job: Codec::decode(dec)?,
            figures: Codec::decode(dec)?,
            eval: Codec::decode(dec)?,
            execute_seconds: dec.f64()?,
        })
    }
}

/// Why a distributed-pipeline step failed.
#[derive(Debug)]
pub enum DistError {
    /// A plan or part snapshot could not be read, written, or decoded.
    Snapshot(SnapshotError),
    /// A snapshot of the wrong kind was offered to a step.
    WrongKind {
        /// The offending file.
        path: PathBuf,
        /// The kind its header declared.
        found: String,
        /// The kind the step needed.
        expected: &'static str,
    },
    /// A snapshot's body payload was malformed.
    Body {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with the bytes.
        error: CodecError,
    },
    /// A file's provenance does not match the reduction it was offered
    /// to — wrong plan hash, seed, profile, or split width.
    Provenance {
        /// The offending file.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
    /// The parts do not form an exact k-way partition of a work domain.
    Partition {
        /// Which work domain ("measurement units" or "campaign trials").
        domain: &'static str,
        /// How the partition is broken.
        error: PartitionError,
    },
    /// No part files were found where the reducer looked.
    NoParts {
        /// The directory searched.
        dir: PathBuf,
    },
    /// Directory or file I/O outside the snapshot format failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Snapshot(e) => e.fmt(f),
            DistError::WrongKind {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: snapshot kind {found:?} where {expected:?} was expected",
                path.display()
            ),
            DistError::Body { path, error } => {
                write!(f, "{}: malformed snapshot body: {error}", path.display())
            }
            DistError::Provenance { path, detail } => {
                write!(f, "{}: provenance mismatch: {detail}", path.display())
            }
            DistError::Partition { domain, error } => {
                write!(f, "parts do not partition the {domain}: {error}")
            }
            DistError::NoParts { dir } => {
                write!(f, "no .part snapshots found in {}", dir.display())
            }
            DistError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Snapshot(e) => Some(e),
            DistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SnapshotError> for DistError {
    fn from(e: SnapshotError) -> Self {
        DistError::Snapshot(e)
    }
}

/// Split both work domains of `cfg` into `cfg.shards` contiguous
/// slices. A pure function of the config: every process that computes
/// it — planner, runners, reducer — sees the same partition.
pub fn shard_jobs(cfg: &DistConfig) -> Vec<ShardJob> {
    let units = stream_unit_count(
        dataset_config(cfg.profile, cfg.records, Year::Y2020),
        dataset_config(cfg.profile, cfg.records, Year::Y2021),
        ShardPlan::threads(1),
    ) as u64;
    let trials = full_eval_plan(&cfg.counts, cfg.profile).len() as u64;
    SliceAssignment::split(units, cfg.shards)
        .into_iter()
        .zip(SliceAssignment::split(trials, cfg.shards))
        .map(|(measure, eval)| ShardJob {
            records: cfg.records,
            counts: cfg.counts,
            measure,
            eval,
        })
        .collect()
}

fn header(cfg: &DistConfig, kind: &str, index: u32) -> SnapshotHeader {
    SnapshotHeader {
        kind: kind.to_string(),
        seed: MEASUREMENT_SEED,
        profile: cfg.profile.name.to_string(),
        plan_hash: plan_hash(cfg),
        shard_index: index,
        shard_count: cfg.shards,
    }
}

fn shard_file_name(index: u32, count: u32, ext: &str) -> String {
    format!("shard-{index:02}-of-{count:02}.{ext}")
}

/// Write one plan snapshot per shard into `dir`, returning the paths in
/// shard order.
pub fn write_plans(cfg: &DistConfig, dir: &Path) -> Result<Vec<PathBuf>, DistError> {
    std::fs::create_dir_all(dir).map_err(|source| DistError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    shard_jobs(cfg)
        .into_iter()
        .map(|job| {
            let path = dir.join(shard_file_name(job.measure.index, cfg.shards, "plan"));
            write_snapshot(
                &path,
                &header(cfg, PLAN_KIND, job.measure.index),
                &job.to_bytes(),
            )?;
            Ok(path)
        })
        .collect()
}

/// Execute one shard's assignment in-process: fold its measurement
/// slice through the streaming engine and run its trial slice as a
/// sub-campaign (structural per-trial seeds make the sub-pool identical
/// to the corresponding rows of the full pool). Both accumulators come
/// back merge-ready and unfinished.
pub fn execute_shard(
    profile: &'static EcosystemProfile,
    job: &ShardJob,
    threads: usize,
) -> ShardPart {
    let started = Instant::now();
    let tracer = trace::active();
    let mut spans = tracer.local();
    let span = spans.begin();

    let (figures, _) = stream_partial(
        dataset_config(profile, job.records, Year::Y2020),
        dataset_config(profile, job.records, Year::Y2021),
        ShardPlan::threads(threads),
        job.measure.start as usize,
        job.measure.len as usize,
    );

    let full = full_eval_plan(&job.counts, profile);
    let mut sub = CampaignPlan::new(EVAL_SEED);
    sub.set_profile(full.profile());
    for spec in &full.specs()[job.eval.start as usize..job.eval.end() as usize] {
        sub.push(*spec);
    }
    let pool = run_campaign(&sub, threads.max(1));
    let mut eval = EvalFigureSet::new(COST_SEED);
    for view in pool.iter() {
        eval.observe(&view);
    }

    if span.id != 0 {
        spans.end_with(
            span,
            0,
            "dist.execute",
            "dist",
            vec![
                ("shard", ArgValue::U64(u64::from(job.measure.index))),
                ("units", ArgValue::U64(job.measure.len)),
                ("trials", ArgValue::U64(job.eval.len)),
            ],
        );
    }
    ShardPart {
        job: *job,
        figures,
        eval,
        execute_seconds: started.elapsed().as_secs_f64(),
    }
}

/// What [`run_shard_file`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRun {
    /// The shard executed and its part was written to this path.
    Ran(PathBuf),
    /// A valid part for this plan already existed at this path; the
    /// shard was skipped (checkpoint/resume).
    Skipped(PathBuf),
}

impl ShardRun {
    /// The part file's path either way.
    pub fn path(&self) -> &Path {
        match self {
            ShardRun::Ran(p) | ShardRun::Skipped(p) => p,
        }
    }
}

/// The shard-runner: read a plan snapshot, execute its assignment, and
/// atomically write the part snapshot into `out_dir`. If a valid part
/// for the same plan hash already sits at the target path the shard is
/// skipped, so re-running an interrupted fan-out only executes the
/// shards that never completed.
pub fn run_shard_file(
    plan_path: &Path,
    out_dir: &Path,
    threads: usize,
) -> Result<ShardRun, DistError> {
    let (head, body) = read_snapshot(plan_path)?;
    if head.kind != PLAN_KIND {
        return Err(DistError::WrongKind {
            path: plan_path.to_path_buf(),
            found: head.kind,
            expected: PLAN_KIND,
        });
    }
    let job = ShardJob::from_bytes(&body).map_err(|error| DistError::Body {
        path: plan_path.to_path_buf(),
        error,
    })?;
    let profile = EcosystemProfile::by_name(&head.profile).map_err(|e| DistError::Provenance {
        path: plan_path.to_path_buf(),
        detail: e.to_string(),
    })?;
    let cfg = DistConfig {
        profile,
        records: job.records,
        counts: job.counts,
        shards: head.shard_count,
    };
    let expected = plan_hash(&cfg);
    if head.plan_hash != expected {
        return Err(DistError::Provenance {
            path: plan_path.to_path_buf(),
            detail: format!(
                "plan hash {:#018x} does not match its own parameters ({expected:#018x})",
                head.plan_hash
            ),
        });
    }
    if job.measure.index != head.shard_index || job.eval.index != head.shard_index {
        return Err(DistError::Provenance {
            path: plan_path.to_path_buf(),
            detail: format!(
                "header says shard {} but the body assigns slices {} and {}",
                head.shard_index, job.measure.index, job.eval.index
            ),
        });
    }

    let part_path = out_dir.join(shard_file_name(head.shard_index, head.shard_count, "part"));
    if let Ok((existing, _)) = read_snapshot(&part_path) {
        if existing.kind == PART_KIND
            && existing.plan_hash == head.plan_hash
            && existing.shard_index == head.shard_index
        {
            return Ok(ShardRun::Skipped(part_path));
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|source| DistError::Io {
        path: out_dir.to_path_buf(),
        source,
    })?;
    let part = execute_shard(profile, &job, threads);
    write_snapshot(
        &part_path,
        &header(&cfg, PART_KIND, head.shard_index),
        &part.to_bytes(),
    )?;
    Ok(ShardRun::Ran(part_path))
}

/// Every `*.part` snapshot in `dir`, sorted by file name (which orders
/// them by shard index). Dot-prefixed temp files are ignored.
pub fn collect_parts(dir: &Path) -> Result<Vec<PathBuf>, DistError> {
    let entries = std::fs::read_dir(dir).map_err(|source| DistError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut parts = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| DistError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let hidden = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with('.'));
        if !hidden && path.extension().is_some_and(|e| e == "part") {
            parts.push(path);
        }
    }
    if parts.is_empty() {
        return Err(DistError::NoParts {
            dir: dir.to_path_buf(),
        });
    }
    parts.sort();
    Ok(parts)
}

/// Per-part numbers the reducer reports.
#[derive(Debug, Clone, Copy)]
pub struct PartStat {
    /// The part's shard index.
    pub shard_index: u32,
    /// Wall seconds the shard's execute took (from the part itself).
    pub execute_seconds: f64,
    /// Size of the part snapshot on disk.
    pub snapshot_bytes: u64,
}

/// Everything a reduction produces.
pub struct Reduced {
    /// The finished measurement figures (profile-tagged exactly like a
    /// single-process run).
    pub figures: MeasurementFigures,
    /// The finished evaluation figures.
    pub eval: EvalFigures,
    /// The profile the run was produced under.
    pub profile: &'static EcosystemProfile,
    /// Per-part execute / size numbers, in shard order.
    pub parts: Vec<PartStat>,
    /// Wall seconds of the merge stage.
    pub merge_seconds: f64,
    /// Wall seconds of the finish stage (GMM fits live here).
    pub finish_seconds: f64,
}

impl std::fmt::Debug for Reduced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // EcosystemProfile is table-heavy and deliberately not Debug;
        // its name is the useful identity here.
        f.debug_struct("Reduced")
            .field("profile", &self.profile.name)
            .field("parts", &self.parts)
            .field("merge_seconds", &self.merge_seconds)
            .field("finish_seconds", &self.finish_seconds)
            .finish_non_exhaustive()
    }
}

/// Merge `k` part snapshots into the finished figures, byte-identical
/// to the single-process run that the parts partition. The finish
/// stage fans out on a work pool of `threads` (1 = serial; the output
/// is identical either way).
///
/// Validation happens before any merging: each body's parameters must
/// re-hash to its header's plan hash (checked before the accumulators
/// behind them are decoded); every part must carry the same plan hash,
/// seed, profile, and shard count; and the slices must form an exact
/// partition of both work domains. Any mismatch is a typed
/// [`DistError`] naming the offending file.
pub fn reduce_parts(paths: &[PathBuf], threads: usize) -> Result<Reduced, DistError> {
    let tracer = trace::active();
    let mut spans = tracer.local();
    let span = spans.begin();

    let mut loaded: Vec<(PathBuf, SnapshotHeader, ShardPart, u64)> = Vec::new();
    for path in paths {
        let bytes = std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|source| DistError::Io {
                path: path.clone(),
                source,
            })?;
        let (head, body) = read_snapshot(path)?;
        if head.kind != PART_KIND {
            return Err(DistError::WrongKind {
                path: path.clone(),
                found: head.kind,
                expected: PART_KIND,
            });
        }
        // The job leads the body. Its parameters must hash to the
        // header's plan hash before the accumulators behind it are
        // decoded: the hash covers their layout, so state written under
        // another layout is refused here and never mis-decoded.
        let body_error = |error| DistError::Body {
            path: path.clone(),
            error,
        };
        let job = ShardJob::decode(&mut Dec::new(&body)).map_err(body_error)?;
        let profile =
            EcosystemProfile::by_name(&head.profile).map_err(|e| DistError::Provenance {
                path: path.clone(),
                detail: e.to_string(),
            })?;
        let rehash = plan_hash(&DistConfig {
            profile,
            records: job.records,
            counts: job.counts,
            shards: head.shard_count,
        });
        if rehash != head.plan_hash {
            return Err(DistError::Provenance {
                path: path.clone(),
                detail: format!(
                    "body parameters hash to {rehash:#018x} but the header claims {:#018x} \
                     (other parameters, or a part written under another state layout)",
                    head.plan_hash
                ),
            });
        }
        let part = ShardPart::from_bytes(&body).map_err(body_error)?;
        loaded.push((path.clone(), head, part, bytes));
    }
    loaded.sort_by_key(|(_, head, ..)| head.shard_index);

    let reference = loaded[0].1.clone();
    let profile =
        EcosystemProfile::by_name(&reference.profile).map_err(|e| DistError::Provenance {
            path: loaded[0].0.clone(),
            detail: e.to_string(),
        })?;
    for (path, head, ..) in &loaded {
        if head.plan_hash != reference.plan_hash
            || head.seed != reference.seed
            || head.profile != reference.profile
            || head.shard_count != reference.shard_count
        {
            return Err(DistError::Provenance {
                path: path.clone(),
                detail: format!(
                    "part belongs to a different run (hash {:#018x}, profile {:?}, {} shards) \
                     than shard {} (hash {:#018x}, profile {:?}, {} shards)",
                    head.plan_hash,
                    head.profile,
                    head.shard_count,
                    reference.shard_index,
                    reference.plan_hash,
                    reference.profile,
                    reference.shard_count,
                ),
            });
        }
    }
    let measure_slices: Vec<SliceAssignment> = loaded
        .iter()
        .map(|(.., part, _)| part.job.measure)
        .collect();
    validate_partition(&measure_slices).map_err(|error| DistError::Partition {
        domain: "measurement units",
        error,
    })?;
    let eval_slices: Vec<SliceAssignment> =
        loaded.iter().map(|(.., part, _)| part.job.eval).collect();
    validate_partition(&eval_slices).map_err(|error| DistError::Partition {
        domain: "campaign trials",
        error,
    })?;

    let parts: Vec<PartStat> = loaded
        .iter()
        .map(|(_, head, part, bytes)| PartStat {
            shard_index: head.shard_index,
            execute_seconds: part.execute_seconds,
            snapshot_bytes: *bytes,
        })
        .collect();

    let merge_start = Instant::now();
    let mut iter = loaded.into_iter();
    let (_, _, first, _) = iter.next().expect("collect_parts rejects empty sets");
    let mut figure_set = first.figures;
    let mut eval_set = first.eval;
    for (_, _, part, _) in iter {
        figure_set.merge(part.figures);
        eval_set.merge(part.eval);
    }
    let merge_seconds = merge_start.elapsed().as_secs_f64();

    let finish_start = Instant::now();
    let (mut figures, _) =
        figure_set.finish_with(mbw_analysis::sweep::FinishOptions::threads(threads));
    // Exactly the tagging rule of the single-process streaming run:
    // every ecosystem but the paper's own renders self-describing.
    if profile.name != EcosystemProfile::paper_china().name {
        figures = figures.with_profile_tag(profile.name);
    }
    let eval = eval_set.finish_with(threads);
    let finish_seconds = finish_start.elapsed().as_secs_f64();

    if span.id != 0 {
        spans.end_with(
            span,
            0,
            "dist.reduce",
            "dist",
            vec![
                ("parts", ArgValue::from(parts.len())),
                ("shards", ArgValue::U64(u64::from(reference.shard_count))),
            ],
        );
    }
    Ok(Reduced {
        figures,
        eval,
        profile,
        parts,
        merge_seconds,
        finish_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_analysis::sweep::SWEEP_IDS;

    fn quick_cfg(shards: u32) -> DistConfig {
        DistConfig {
            profile: EcosystemProfile::paper_china(),
            records: 2_000,
            counts: EvalCounts::uniform(2),
            shards,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbw-dist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Reference single-process figures under the same parameters.
    fn single_process(cfg: &DistConfig) -> (MeasurementFigures, EvalFigures) {
        let (figures, _) = mbw_analysis::stream_figures_cached(
            dataset_config(cfg.profile, cfg.records, Year::Y2020),
            dataset_config(cfg.profile, cfg.records, Year::Y2021),
            ShardPlan::threads(1),
            None,
        );
        let plan = full_eval_plan(&cfg.counts, cfg.profile);
        let pool = run_campaign(&plan, 1);
        let eval = eval_sweep::reduce(EvalFigureSet::new(COST_SEED), &pool);
        (figures, eval)
    }

    #[test]
    fn jobs_partition_both_domains_exactly() {
        for shards in [1u32, 2, 3, 7] {
            let cfg = quick_cfg(shards);
            let jobs = shard_jobs(&cfg);
            assert_eq!(jobs.len(), shards as usize);
            let measure: Vec<_> = jobs.iter().map(|j| j.measure).collect();
            let eval: Vec<_> = jobs.iter().map(|j| j.eval).collect();
            validate_partition(&measure).unwrap();
            validate_partition(&eval).unwrap();
            assert_eq!(
                eval[0].total,
                full_eval_plan(&cfg.counts, cfg.profile).len() as u64
            );
        }
    }

    #[test]
    fn plan_hash_pins_every_output_shaping_parameter() {
        let base = quick_cfg(2);
        let hash = plan_hash(&base);
        let mut other = base;
        other.records += 1;
        assert_ne!(plan_hash(&other), hash);
        let mut other = base;
        other.counts.tests += 1;
        assert_ne!(plan_hash(&other), hash);
        let mut other = base;
        other.shards = 3;
        assert_ne!(plan_hash(&other), hash);
        let mut other = base;
        other.profile = EcosystemProfile::europe_ran();
        assert_ne!(plan_hash(&other), hash);
        assert_eq!(plan_hash(&base), hash);
    }

    #[test]
    fn split_runs_reduce_byte_identically_and_resume_skips() {
        let cfg = quick_cfg(2);
        let dir = temp_dir("roundtrip");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        assert_eq!(plans.len(), 2);

        let parts_dir = dir.join("parts");
        for plan in &plans {
            match run_shard_file(plan, &parts_dir, 1).unwrap() {
                ShardRun::Ran(_) => {}
                ShardRun::Skipped(p) => panic!("fresh shard skipped: {}", p.display()),
            }
        }
        // Re-running every shard resumes: nothing executes again.
        for plan in &plans {
            assert!(matches!(
                run_shard_file(plan, &parts_dir, 1).unwrap(),
                ShardRun::Skipped(_)
            ));
        }

        let parts = collect_parts(&parts_dir).unwrap();
        assert_eq!(parts.len(), 2);
        let reduced = reduce_parts(&parts, 2).unwrap();
        let (figures, eval) = single_process(&cfg);
        for id in SWEEP_IDS {
            assert_eq!(figures.render(id), reduced.figures.render(id), "{id}");
        }
        for id in EVAL_SWEEP_IDS {
            assert_eq!(eval.render(id), reduced.eval.render(id), "{id}");
        }
        assert_eq!(reduced.parts.len(), 2);
        assert!(reduced.parts.iter().all(|p| p.snapshot_bytes > 0));

        // A strict subset of the parts is not a partition.
        let err = reduce_parts(&parts[..1], 1).unwrap_err();
        assert!(
            matches!(
                err,
                DistError::Partition {
                    domain: "measurement units",
                    ..
                }
            ),
            "{err}"
        );

        // A tampered body (different records than the header's hash
        // covers) is rejected by provenance, not silently merged.
        let (head, body) = read_snapshot(&parts[1]).unwrap();
        let mut part = ShardPart::from_bytes(&body).unwrap();
        part.job.records += 1;
        let forged = parts_dir.join("shard-01-of-02-forged.part");
        write_snapshot(&forged, &head, &part.to_bytes()).unwrap();
        let err = reduce_parts(&[parts[0].clone(), forged], 1).unwrap_err();
        assert!(matches!(err, DistError::Provenance { .. }), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `plan_hash` as the parent of the bounded-state change computed
    /// it: the same parameters, no state-layout constant.
    fn layout_1_plan_hash(cfg: &DistConfig) -> u64 {
        let mut enc = Enc::new();
        enc.put_u64(MEASUREMENT_SEED);
        enc.put_u64(EVAL_SEED);
        enc.put_u64(COST_SEED);
        enc.put_str(cfg.profile.name);
        enc.put_usize(cfg.records);
        enc.put_usize(ShardPlan::threads(1).shard_size());
        enc.put_usize(cfg.counts.tests);
        enc.put_usize(cfg.counts.groups);
        enc.put_usize(cfg.counts.ramp_paths);
        enc.put_usize(cfg.counts.ablation);
        enc.put_usize(cfg.counts.mmwave);
        enc.put_u32(cfg.shards);
        fnv1a64(&enc.into_bytes())
    }

    #[test]
    fn files_written_under_another_state_layout_are_refused_by_name() {
        let cfg = quick_cfg(2);
        let dir = temp_dir("layout");
        let old_hash = layout_1_plan_hash(&cfg);
        assert_ne!(old_hash, plan_hash(&cfg), "the layout is not in the hash");
        let job = shard_jobs(&cfg)[0];
        let old_header = |kind: &str| SnapshotHeader {
            plan_hash: old_hash,
            ..header(&cfg, kind, 0)
        };

        // A plan the parent binary wrote: same parameters, old hash.
        let old_plan = dir.join("shard-00-of-02.plan");
        write_snapshot(&old_plan, &old_header(PLAN_KIND), &job.to_bytes()).unwrap();
        match run_shard_file(&old_plan, &dir.join("parts"), 1).unwrap_err() {
            DistError::Provenance { path, .. } => assert_eq!(path, old_plan),
            other => panic!("old plan: {other}"),
        }

        // A part the parent binary wrote: the job, then accumulators in
        // a layout this binary cannot read. Refused by its hash, naming
        // the file, before a byte of that state is decoded.
        let parts = dir.join("parts");
        std::fs::create_dir_all(&parts).unwrap();
        let old_part = parts.join("shard-00-of-02.part");
        let mut body = job.to_bytes();
        body.extend_from_slice(&[0xAB; 4096]);
        write_snapshot(&old_part, &old_header(PART_KIND), &body).unwrap();
        match reduce_parts(std::slice::from_ref(&old_part), 1).unwrap_err() {
            DistError::Provenance { path, detail } => {
                assert_eq!(path, old_part);
                assert!(detail.contains("layout"), "{detail}");
            }
            other => panic!("old part: {other}"),
        }

        // Nor is it resumed: a runner finding it where its own part
        // goes executes the shard and replaces it.
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        match run_shard_file(&plans[0], &parts, 1).unwrap() {
            ShardRun::Ran(path) => {
                assert_eq!(path, old_part);
                let (head, _) = read_snapshot(&path).unwrap();
                assert_eq!(head.plan_hash, plan_hash(&cfg));
            }
            ShardRun::Skipped(p) => panic!("resumed from an old-layout part {}", p.display()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measurement_parts_merge_in_reverse_shard_order_to_the_same_figures() {
        let cfg = quick_cfg(4);
        let dir = temp_dir("reverse");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let decoded = |reverse: bool| {
            let mut sets: Vec<FigureSet> = plans
                .iter()
                .map(|plan| {
                    let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                    let (_, body) = read_snapshot(run.path()).unwrap();
                    ShardPart::from_bytes(&body).unwrap().figures
                })
                .collect();
            if reverse {
                sets.reverse();
            }
            let mut sets = sets.into_iter();
            let mut merged = sets.next().unwrap();
            for set in sets {
                merged.merge(set);
            }
            merged
        };
        let forward = decoded(false);
        let backward = decoded(true);
        assert_eq!(forward.to_bytes(), backward.to_bytes());
        let (figures, _) = single_process(&cfg);
        let backward = backward.finish();
        for id in SWEEP_IDS {
            assert_eq!(figures.render(id), backward.render(id), "{id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parts_from_different_runs_do_not_merge() {
        let dir = temp_dir("foreign");
        let small = quick_cfg(2);
        let mut bigger = small;
        bigger.records += 500;

        let small_plans = write_plans(&small, &dir.join("plans-a")).unwrap();
        let bigger_plans = write_plans(&bigger, &dir.join("plans-b")).unwrap();
        let a = run_shard_file(&small_plans[0], &dir.join("parts-a"), 1).unwrap();
        let b = run_shard_file(&bigger_plans[1], &dir.join("parts-b"), 1).unwrap();

        let err = reduce_parts(&[a.path().to_path_buf(), b.path().to_path_buf()], 1).unwrap_err();
        assert!(matches!(err, DistError::Provenance { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_rejects_a_part_offered_as_a_plan() {
        let dir = temp_dir("wrongkind");
        let cfg = quick_cfg(1);
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let run = run_shard_file(&plans[0], &dir.join("parts"), 1).unwrap();
        let err = run_shard_file(run.path(), &dir.join("parts2"), 1).unwrap_err();
        assert!(matches!(err, DistError::WrongKind { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
