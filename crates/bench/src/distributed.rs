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
//!    exact partition under one plan hash, merge them, and finish. Both
//!    work domains are pure functions of their seeds, and every
//!    accumulator of both halves merges commutatively and associatively
//!    (see [`mbw_analysis::accum`]), so the reduced figures are
//!    **byte-identical** to the single-process run for any `k`, any
//!    split points and any merge order.
//!
//! Mismatched partials — different records, counts, profile, or split —
//! are rejected at merge time with a typed [`DistError`], never folded
//! into silently corrupt figures. Outside tests this module denies
//! `unwrap`, `expect` and `panic!`: it decodes plan and part bytes read
//! back from disk, and a malformed file must come back as a typed error.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::eval_sweep::{self, EvalFigureSet, EvalFigures, EVAL_SWEEP_IDS};
use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::summary::Mergeable;
use mbw_analysis::sweep::FigureSet;
use mbw_analysis::{stream_partial, stream_unit_count, MeasurementFigures};
use mbw_core::{run_campaign, CampaignPlan, EvalCounts, ProfileDim};
use mbw_dataset::{
    validate_partition, DatasetConfig, EcosystemProfile, PartitionError, ShardPlan,
    SliceAssignment, Year,
};
use mbw_frame::{
    fnv1a64, read_snapshot, read_snapshot_with, write_snapshot, Codec, CodecError, Dec, Enc,
    SnapshotError, SnapshotHeader,
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
    plan_hash_under(mbw_analysis::sweep::STATE_LAYOUT, cfg)
}

/// [`plan_hash`] as a binary whose accumulators encode under `layout`
/// computes it.
fn plan_hash_under(layout: u32, cfg: &DistConfig) -> u64 {
    let mut enc = Enc::new();
    enc.put_u32(layout);
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
/// validation and the unfinished accumulators of both pipeline halves.
/// A pure function of the job: two executions of one plan write the
/// same bytes.
#[derive(Debug)]
pub struct ShardPart {
    /// The assignment this part was produced from.
    pub job: ShardJob,
    /// Partial measurement figure state (merge-ready, unfinished).
    pub figures: FigureSet,
    /// Partial evaluation figure state (merge-ready, unfinished).
    pub eval: EvalFigureSet,
}

impl Codec for ShardPart {
    fn encode(&self, enc: &mut Enc) {
        self.job.encode(enc);
        self.figures.encode(enc);
        self.eval.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            job: Codec::decode(dec)?,
            figures: Codec::decode(dec)?,
            eval: Codec::decode(dec)?,
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
    // The whole file is checked, but only its header is kept.
    let existing = read_snapshot_with(&part_path, &mut Vec::new(), |head, _| {
        Ok::<_, SnapshotError>(head)
    });
    if let Ok(existing) = existing {
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
/// Every part is folded the same way, into sets that start empty: its
/// body streams through one fixed window ([`mbw_frame::WINDOW`]) and
/// the checksum, and its state is merged into the running sets as it
/// passes ([`Mergeable::merge_decoded`] of both sets; a part whose
/// evaluation state carries another cost seed is refused there), so the
/// reducer holds the running sets plus one window, whatever `k` is and
/// however large a part, and never a part's body or a decoded copy of
/// it. The one
/// window is lent to every part in turn, so it is allocated once per
/// reduction, not once per part. The sets' CDF strata hold only the
/// bins the parts occupy. Every merge
/// is order-free, so the read order does not reach the output. Each
/// file's header and provenance are checked before its state is
/// merged: its body's parameters must re-hash to its header's plan hash
/// (checked before the accumulators behind them are read), and it must
/// carry the plan hash, seed, profile and shard count of the first part
/// read. Its checksum, the rest of its body and that nothing follows it
/// are checked after, and a fault there outranks any other error in the
/// file, as in [`read_snapshot`]. Both partitions of the work domains
/// are checked, in shard order, before anything is finished. Any
/// mismatch, any malformed body — or an empty `paths` — is a typed
/// [`DistError`], naming the offending file where there is one, and the
/// partly merged sets are dropped: a bad part fails the reduce before
/// any figure exists.
pub fn reduce_parts(paths: &[PathBuf], threads: usize) -> Result<Reduced, DistError> {
    let tracer = trace::active();
    let mut spans = tracer.local();
    let span = spans.begin();

    let mut sets = (FigureSet::new(), EvalFigureSet::new(COST_SEED));
    let mut window = Vec::new();
    let mut reference: Option<(SnapshotHeader, &'static EcosystemProfile)> = None;
    let mut read = Vec::with_capacity(paths.len());
    let mut merge_seconds = 0.0;
    for path in paths {
        let part = fold_part(path, &mut window, reference.as_ref(), &mut sets)?;
        read.push((part.job.measure, part.job.eval, part.stat));
        merge_seconds += part.merge_seconds;
        reference.get_or_insert((part.head, part.profile));
    }
    drop(window);
    let (figure_set, eval_set) = sets;
    let Some((reference, profile)) = reference else {
        return Err(DistError::Partition {
            domain: "measurement units",
            error: PartitionError::WrongCount {
                declared: 0,
                got: 0,
            },
        });
    };

    read.sort_by_key(|(.., stat)| stat.shard_index);
    let measure_slices: Vec<SliceAssignment> = read.iter().map(|(measure, ..)| *measure).collect();
    validate_partition(&measure_slices).map_err(|error| DistError::Partition {
        domain: "measurement units",
        error,
    })?;
    let eval_slices: Vec<SliceAssignment> = read.iter().map(|(_, eval, _)| *eval).collect();
    validate_partition(&eval_slices).map_err(|error| DistError::Partition {
        domain: "campaign trials",
        error,
    })?;
    let parts: Vec<PartStat> = read.into_iter().map(|(.., stat)| stat).collect();

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

/// What folding one part file into the running sets learned about it.
struct FoldedPart {
    head: SnapshotHeader,
    profile: &'static EcosystemProfile,
    job: ShardJob,
    stat: PartStat,
    /// Wall seconds spent merging its state (its decode, and the reads
    /// and checksum of the body under it, included).
    merge_seconds: f64,
}

/// Fold one part file's state into `sets`, reading its body through
/// `window` ([`read_snapshot_with`]), never whole. See [`fold_body`]
/// for the checks; a snapshot error anywhere in the file outranks them.
fn fold_part(
    path: &Path,
    window: &mut Vec<u8>,
    reference: Option<&(SnapshotHeader, &'static EcosystemProfile)>,
    sets: &mut (FigureSet, EvalFigureSet),
) -> Result<FoldedPart, DistError> {
    let snapshot_bytes = file_len(path)?;
    read_snapshot_with(path, window, |head, dec| {
        fold_body(path, head, dec, snapshot_bytes, reference, sets)
    })
}

/// Size of the file at `path`.
fn file_len(path: &Path) -> Result<u64, DistError> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|source| DistError::Io {
            path: path.to_path_buf(),
            source,
        })
}

/// Fold the body of the part at `path` (header `head`, `snapshot_bytes`
/// on disk) into `sets` from `dec`, checking on the way, in this order:
/// its kind, that its job re-hashes to its header's plan hash (before
/// the accumulators behind the job are read: the hash covers their
/// layout, so state written under another layout is refused here and
/// never mis-read), that it belongs to the run of `reference`, when
/// there is one, and then, as they are merged, every accumulator's
/// bytes and that nothing follows them. On an error `sets` may hold
/// part of this part's state.
fn fold_body(
    path: &Path,
    head: SnapshotHeader,
    dec: &mut Dec<'_>,
    snapshot_bytes: u64,
    reference: Option<&(SnapshotHeader, &'static EcosystemProfile)>,
    (figures, eval): &mut (FigureSet, EvalFigureSet),
) -> Result<FoldedPart, DistError> {
    if head.kind != PART_KIND {
        return Err(DistError::WrongKind {
            path: path.to_path_buf(),
            found: head.kind,
            expected: PART_KIND,
        });
    }
    let body_error = |error| DistError::Body {
        path: path.to_path_buf(),
        error,
    };
    let job = ShardJob::decode(dec).map_err(body_error)?;
    let profile = EcosystemProfile::by_name(&head.profile).map_err(|e| DistError::Provenance {
        path: path.to_path_buf(),
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
            path: path.to_path_buf(),
            detail: format!(
                "body parameters hash to {rehash:#018x} but the header claims {:#018x} \
                 (other parameters, or a part written under another state layout)",
                head.plan_hash
            ),
        });
    }
    if let Some((reference, _)) = reference {
        if head.plan_hash != reference.plan_hash
            || head.seed != reference.seed
            || head.profile != reference.profile
            || head.shard_count != reference.shard_count
        {
            return Err(DistError::Provenance {
                path: path.to_path_buf(),
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
    let merge_start = Instant::now();
    figures.merge_decoded(dec).map_err(body_error)?;
    eval.merge_decoded(dec).map_err(body_error)?;
    if !dec.is_done() {
        return Err(body_error(CodecError::Trailing {
            bytes: dec.remaining(),
        }));
    }
    let merge_seconds = merge_start.elapsed().as_secs_f64();
    let stat = PartStat {
        shard_index: head.shard_index,
        snapshot_bytes,
    };
    Ok(FoldedPart {
        head,
        profile,
        job,
        stat,
        merge_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_analysis::sweep::SWEEP_IDS;
    use mbw_frame::SNAPSHOT_VERSION;

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

    /// A part that passes its checksum and its provenance checks but
    /// whose state is malformed — cut short inside the measurement
    /// state, or with a byte after its last field — fails the reduce
    /// as a body error naming it, though the parts before it merged.
    #[test]
    fn a_bad_body_in_the_last_part_fails_the_reduce() {
        let cfg = quick_cfg(2);
        let dir = temp_dir("badbody");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let parts: Vec<PathBuf> = plans
            .iter()
            .map(|plan| {
                let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                run.path().to_path_buf()
            })
            .collect();
        let (head, body) = read_snapshot(&parts[1]).unwrap();
        // The job leads the body; the measurement state is most of the
        // rest, so its middle lies inside that state.
        let job = shard_jobs(&cfg)[1].to_bytes().len();
        let cut = body[..job + (body.len() - job) / 2].to_vec();
        let mut extended = body.clone();
        extended.push(0);
        for (name, forged) in [("cut", cut), ("extended", extended)] {
            let bad = dir.join(format!("shard-01-of-02-{name}.part"));
            write_snapshot(&bad, &head, &forged).unwrap();
            match reduce_parts(&[parts[0].clone(), bad.clone()], 1) {
                Err(DistError::Body { path, .. }) => assert_eq!(path, bad),
                Err(other) => panic!("{name}: failed with {other}"),
                Ok(_) => panic!("{name}: a malformed part reduced"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A part whose 4G and 5G device accumulators trade places passes
    /// its checksum and its provenance checks, but each accumulator is
    /// refused by its technology: the reduce fails as a body error
    /// naming the part instead of folding 4G strata into the 5G figure.
    #[test]
    fn swapped_device_accumulators_fail_the_reduce() {
        use mbw_analysis::devices::HardwareIllusionAcc;
        use mbw_analysis::robustness::OutcomeRatesAcc;
        use mbw_dataset::AccessTech;

        let cfg = quick_cfg(2);
        let dir = temp_dir("devices");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let parts: Vec<PathBuf> = plans
            .iter()
            .map(|plan| {
                let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                run.path().to_path_buf()
            })
            .collect();
        let (head, body) = read_snapshot(&parts[1]).unwrap();
        let part = ShardPart::from_bytes(&body).unwrap();
        // The body ends with the three device accumulators (4G, 5G,
        // WiFi; each of one fixed size), the outcome tallies (fixed
        // size) and the evaluation state.
        let device = HardwareIllusionAcc::new(AccessTech::Cellular4g)
            .to_bytes()
            .len();
        let tail = OutcomeRatesAcc::new().to_bytes().len() + part.eval.to_bytes().len();
        let d4 = body.len() - tail - 3 * device;
        let tag = |at: usize| AccessTech::from_bytes(&body[at..at + 1]).unwrap();
        assert_eq!(tag(d4), AccessTech::Cellular4g);
        assert_eq!(tag(d4 + device), AccessTech::Cellular5g);
        assert_ne!(
            body[d4 + 1..d4 + device],
            body[d4 + device + 1..d4 + 2 * device]
        );
        let mut swapped = body.clone();
        swapped[d4..d4 + 2 * device].rotate_left(device);

        let bad = dir.join("shard-01-of-02-swapped.part");
        write_snapshot(&bad, &head, &swapped).unwrap();
        match reduce_parts(&[parts[0].clone(), bad.clone()], 1) {
            Err(DistError::Body { path, error }) => {
                assert_eq!(path, bad);
                assert!(
                    matches!(
                        error,
                        CodecError::BadTag {
                            what: "device figure technology",
                            tag: 2
                        }
                    ),
                    "{error}"
                );
            }
            Err(other) => panic!("failed with {other}"),
            Ok(_) => panic!("a part with swapped device state reduced"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A part whose evaluation state was built under another cost seed
    /// passes its checksum and its provenance checks (the seed is not
    /// part of the job), but its evaluation set is refused by that seed:
    /// it would finish to another cost report.
    #[test]
    fn a_part_under_another_cost_seed_fails_the_reduce() {
        let cfg = quick_cfg(2);
        let dir = temp_dir("cost-seed");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let parts: Vec<PathBuf> = plans
            .iter()
            .map(|plan| {
                let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                run.path().to_path_buf()
            })
            .collect();
        let (head, body) = read_snapshot(&parts[1]).unwrap();
        let part = ShardPart {
            eval: EvalFigureSet::new(COST_SEED ^ 1),
            ..ShardPart::from_bytes(&body).unwrap()
        };
        let bad = dir.join("shard-01-of-02-reseeded.part");
        write_snapshot(&bad, &head, &part.to_bytes()).unwrap();
        match reduce_parts(&[parts[0].clone(), bad.clone()], 1) {
            Err(DistError::Body { path, error }) => {
                assert_eq!(path, bad);
                assert!(
                    matches!(
                        error,
                        CodecError::BadTag {
                            what: "evaluation cost seed",
                            tag,
                        } if tag == COST_SEED ^ 1
                    ),
                    "{error}"
                );
            }
            Err(other) => panic!("failed with {other}"),
            Ok(_) => panic!("a part under another cost seed reduced"),
        }
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
    fn two_executions_of_one_plan_write_the_same_part_bytes() {
        let cfg = quick_cfg(2);
        let dir = temp_dir("pure");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let bytes: Vec<Vec<u8>> = ["a", "b"]
            .iter()
            .map(
                |out| match run_shard_file(&plans[1], &dir.join(out), 1).unwrap() {
                    ShardRun::Ran(path) => std::fs::read(path).unwrap(),
                    ShardRun::Skipped(p) => panic!("{} was not executed", p.display()),
                },
            )
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(bytes[0] == bytes[1], "two executions wrote different parts");
    }

    #[test]
    fn files_written_under_another_state_layout_are_refused_by_name() {
        let cfg = quick_cfg(2);
        // Layout 1 hashed no layout word; layout 2 kept every trial of
        // the evaluation figures; layout 3 ended a part with the
        // shard's wall time.
        for old_hash in [
            layout_1_plan_hash(&cfg),
            plan_hash_under(2, &cfg),
            plan_hash_under(3, &cfg),
        ] {
            assert_ne!(old_hash, plan_hash(&cfg), "the layout is not in the hash");
            let dir = temp_dir("layout");
            let job = shard_jobs(&cfg)[0];
            let old_header = |kind: &str| SnapshotHeader {
                plan_hash: old_hash,
                ..header(&cfg, kind, 0)
            };

            // A plan an older binary wrote: same parameters, old hash.
            let old_plan = dir.join("shard-00-of-02.plan");
            write_snapshot(&old_plan, &old_header(PLAN_KIND), &job.to_bytes()).unwrap();
            match run_shard_file(&old_plan, &dir.join("parts"), 1).unwrap_err() {
                DistError::Provenance { path, .. } => assert_eq!(path, old_plan),
                other => panic!("old plan: {other}"),
            }

            // A part an older binary wrote: the job, then accumulators
            // in a layout this binary cannot read. Refused by its hash,
            // naming the file, before a byte of that state is decoded.
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
    }

    #[test]
    fn measurement_parts_merge_in_reverse_shard_order_to_the_same_figures() {
        let cfg = quick_cfg(4);
        let dir = temp_dir("reverse");
        let plans = write_plans(&cfg, &dir.join("plans")).unwrap();
        let decoded = |reverse: bool| {
            let mut parts: Vec<ShardPart> = plans
                .iter()
                .map(|plan| {
                    let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                    let (_, body) = read_snapshot(run.path()).unwrap();
                    ShardPart::from_bytes(&body).unwrap()
                })
                .collect();
            if reverse {
                parts.reverse();
            }
            let mut parts = parts.into_iter();
            let first = parts.next().unwrap();
            let (mut figures, mut eval) = (first.figures, first.eval);
            for part in parts {
                figures.merge(part.figures);
                eval.merge(part.eval);
            }
            (figures, eval)
        };
        let (forward, forward_eval) = decoded(false);
        let (backward, backward_eval) = decoded(true);
        assert_eq!(forward.to_bytes(), backward.to_bytes());
        let (figures, eval) = single_process(&cfg);
        let backward = backward.finish();
        for id in SWEEP_IDS {
            assert_eq!(figures.render(id), backward.render(id), "{id}");
        }
        let (forward_eval, backward_eval) = (forward_eval.finish(), backward_eval.finish());
        // `Debug` prints every finished f64 in full, so this compares
        // bits, not only the rounded renders.
        assert_eq!(format!("{forward_eval:?}"), format!("{backward_eval:?}"));
        for id in EVAL_SWEEP_IDS {
            assert_eq!(forward_eval.render(id), backward_eval.render(id), "{id}");
            assert_eq!(eval.render(id), backward_eval.render(id), "{id}");
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

    /// The fold [`fold_part`] replaced: the whole file read into one
    /// buffer ([`read_snapshot`]) and decoded from a slice. The oracle
    /// the streamed fold's sets and errors are held to.
    fn fold_whole(
        path: &Path,
        _window: &mut Vec<u8>,
        reference: Option<&(SnapshotHeader, &'static EcosystemProfile)>,
        sets: &mut (FigureSet, EvalFigureSet),
    ) -> Result<FoldedPart, DistError> {
        let snapshot_bytes = file_len(path)?;
        let (head, body) = read_snapshot(path)?;
        fold_body(
            path,
            head,
            &mut Dec::new(&body),
            snapshot_bytes,
            reference,
            sets,
        )
    }

    type Fold = fn(
        &Path,
        &mut Vec<u8>,
        Option<&(SnapshotHeader, &'static EcosystemProfile)>,
        &mut (FigureSet, EvalFigureSet),
    ) -> Result<FoldedPart, DistError>;

    /// `paths` folded in order by `fold`, as `reduce_parts` folds them:
    /// the sets, or the first error's text.
    fn fold_all(paths: &[PathBuf], fold: Fold) -> Result<(FigureSet, EvalFigureSet), String> {
        let mut sets = (FigureSet::new(), EvalFigureSet::new(COST_SEED));
        let mut window = Vec::new();
        let mut reference = None;
        for path in paths {
            let part = fold(path, &mut window, reference.as_ref(), &mut sets)
                .map_err(|e| e.to_string())?;
            reference.get_or_insert((part.head, part.profile));
        }
        Ok(sets)
    }

    /// Plan and run a `shards`-way split of the quick config; the part
    /// files in shard order.
    fn quick_parts(dir: &Path, shards: u32) -> Vec<PathBuf> {
        let plans = write_plans(&quick_cfg(shards), &dir.join("plans")).unwrap();
        plans
            .iter()
            .map(|plan| {
                let run = run_shard_file(plan, &dir.join("parts"), 1).unwrap();
                run.path().to_path_buf()
            })
            .collect()
    }

    #[test]
    fn streamed_parts_fold_to_the_whole_buffer_sets() {
        let dir = temp_dir("oracle");
        let parts = quick_parts(&dir, 3);
        let (figures, eval) = fold_all(&parts, fold_part).unwrap();
        let (want_figures, want_eval) = fold_all(&parts, fold_whole).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(figures.to_bytes() == want_figures.to_bytes());
        assert!(eval.to_bytes() == want_eval.to_bytes());
    }

    /// A snapshot's bytes with a header of `version`, frames intact.
    fn with_version(head: &SnapshotHeader, body: &[u8], version: u16) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u16(version);
        head.encode(&mut enc);
        let mut bytes = mbw_frame::Framing::SNAPSHOT.frame(&enc.into_bytes());
        mbw_frame::Framing::SNAPSHOT.append_frame(&mut bytes, body);
        bytes
    }

    /// Every mutation of a real part fails `reduce_parts` with the error
    /// the whole-buffer fold gives, text for text: single-bit flips in
    /// the header frame (all of them) and the body (its frame header and
    /// a spread of its payload), cuts at and around every frame
    /// boundary, an empty file, garbage or a valid frame appended, a
    /// wrong version, and a CRC-valid part whose body, kind or
    /// provenance is wrong and whose file is also torn or followed by a
    /// frame, where the snapshot's fault must win.
    #[test]
    fn a_mutated_part_fails_the_reduce_as_the_whole_buffer_fold_does() {
        use mbw_frame::Framing;
        let dir = temp_dir("mutants");
        let parts = quick_parts(&dir, 2);
        let bytes = std::fs::read(&parts[1]).unwrap();
        let (head, body) = read_snapshot(&parts[1]).unwrap();
        let frame = Framing::SNAPSHOT.header_len();
        let head_end = bytes.len() - frame - body.len();

        let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
        let mut flip = |at: usize, bit: u8| {
            let mut b = bytes.clone();
            b[at] ^= 1 << bit;
            corpus.push((format!("bit {bit} of byte {at}"), b));
        };
        for at in 0..head_end + frame {
            for bit in 0..8 {
                flip(at, bit);
            }
        }
        for i in 0..97 {
            let at = head_end + frame + i * (body.len() - 1) / 96;
            flip(at, (i % 8) as u8);
        }
        for boundary in [0, frame, head_end, head_end + frame, bytes.len()] {
            for cut in boundary.saturating_sub(2)..(boundary + 3).min(bytes.len()) {
                corpus.push((format!("cut at {cut}"), bytes[..cut].to_vec()));
            }
        }
        let appended = |tail: &[u8]| [&bytes[..], tail].concat();
        corpus.push(("garbage appended".into(), appended(b"\x01garbage")));
        let mut framed = Vec::new();
        Framing::SNAPSHOT.append_frame(&mut framed, b"extra");
        corpus.push(("frame appended".into(), appended(&framed)));
        corpus.push((
            "empty frame appended".into(),
            appended(&Framing::SNAPSHOT.frame(&[])),
        ));
        let wrong = with_version(&head, &body, SNAPSHOT_VERSION + 1);
        corpus.push(("wrong version".into(), wrong.clone()));
        corpus.push((
            "wrong version, torn body".into(),
            wrong[..wrong.len() - 1].to_vec(),
        ));
        let cut_body = with_version(&head, &body[..body.len() / 2], SNAPSHOT_VERSION);
        corpus.push(("cut body".into(), cut_body.clone()));
        corpus.push((
            "cut body, frame appended".into(),
            [&cut_body[..], &framed].concat(),
        ));
        corpus.push((
            "cut body, garbage appended".into(),
            [&cut_body[..], b"\x00"].concat(),
        ));
        let foreign = SnapshotHeader {
            seed: head.seed + 1,
            ..head.clone()
        };
        let foreign = with_version(&foreign, &body, SNAPSHOT_VERSION);
        corpus.push(("foreign seed".into(), foreign.clone()));
        corpus.push((
            "foreign seed, frame appended".into(),
            [&foreign[..], &framed].concat(),
        ));
        let plan = SnapshotHeader {
            kind: PLAN_KIND.into(),
            ..head.clone()
        };
        let plan = with_version(&plan, &body, SNAPSHOT_VERSION);
        corpus.push(("plan kind".into(), plan.clone()));
        corpus.push(("plan kind, torn".into(), plan[..plan.len() - 3].to_vec()));

        let mut differ = String::new();
        for (label, mutant) in &corpus {
            std::fs::write(&parts[1], mutant).unwrap();
            let want = fold_all(&parts, fold_whole).map(|_| ()).unwrap_err();
            let got = match reduce_parts(&parts, 1) {
                Ok(_) => "reduced".to_string(),
                Err(e) => e.to_string(),
            };
            if got != want {
                differ.push_str(&format!("{label}: {got}\n  whole buffer: {want}\n"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            differ.is_empty(),
            "{} mutants, these failed otherwise:\n{differ}",
            corpus.len()
        );
    }
}
