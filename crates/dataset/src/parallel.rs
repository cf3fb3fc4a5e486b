//! Sharded, deterministic parallel generation.
//!
//! The record stream is partitioned into fixed-size logical *shards*.
//! Each shard owns an independent RNG stream derived from
//! `(master seed, shard index)` (see [`Generator::for_shard`]), and
//! shard outputs are concatenated in shard order. The partition is a
//! pure function of `(tests, shard_size)`, so the generated population
//! is **byte-identical for any worker thread count** — threads only
//! decide which core runs which shard, never what the shard contains.
//!
//! Two drivers share the same shard plan: [`generate_sharded`]
//! collects rows and [`for_each_record`] streams records through a
//! callback without materialising them.

use crate::generator::{DatasetConfig, Generator};
use crate::types::TestRecord;
use mbw_frame::{Codec, CodecError, Dec, Enc};

/// Default records per logical shard. Large enough to amortise the
/// per-shard sampler construction, small enough to load-balance a
/// multi-million-record run across any realistic core count.
pub const DEFAULT_SHARD_SIZE: usize = 65_536;

/// How a generation run is split into shards and spread over threads.
///
/// `shard_size` determines the *content* of the output (it fixes the
/// shard partition and therefore the per-shard RNG streams);
/// `threads` determines only how fast it is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shard_size: usize,
    threads: usize,
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self {
            shard_size: DEFAULT_SHARD_SIZE,
            threads: 1,
        }
    }
}

impl ShardPlan {
    /// A plan with the default shard size and the given worker count.
    pub fn threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// A fully explicit plan. Small shard sizes are allowed (tests use
    /// them to exercise many shards cheaply).
    ///
    /// # Panics
    /// Panics if `shard_size` is zero.
    pub fn new(shard_size: usize, threads: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        Self {
            shard_size,
            threads: threads.max(1),
        }
    }

    /// Records per logical shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Worker threads the drivers will use (at least 1).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Number of logical shards a run of `tests` records splits into.
    pub fn shard_count(&self, tests: usize) -> usize {
        tests.div_ceil(self.shard_size)
    }

    /// The shard partition for a run of `tests` records, in shard
    /// order. A pure function of `(tests, shard_size)` — thread count
    /// never appears, which is what makes every driver's output
    /// thread-count independent.
    pub fn shard_specs(&self, tests: usize) -> Vec<ShardSpec> {
        (0..self.shard_count(tests))
            .map(|s| {
                let start = s * self.shard_size;
                let len = self.shard_size.min(tests - start);
                ShardSpec {
                    shard: s as u64,
                    start,
                    len,
                }
            })
            .collect()
    }

    fn shards(&self, tests: usize) -> Vec<(u64, usize, usize)> {
        self.shard_specs(tests)
            .into_iter()
            .map(|s| (s.shard, s.start, s.len))
            .collect()
    }
}

/// One logical shard of a generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index — selects the per-shard RNG streams.
    pub shard: u64,
    /// Global index of the shard's first record.
    pub start: usize,
    /// Records in the shard.
    pub len: usize,
}

impl Codec for ShardPlan {
    fn encode(&self, enc: &mut Enc) {
        enc.put_usize(self.shard_size);
        enc.put_usize(self.threads);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let shard_size = dec.usize_()?;
        let threads = dec.usize_()?;
        if shard_size == 0 {
            return Err(CodecError::BadLen {
                what: "shard size",
                len: 0,
            });
        }
        Ok(ShardPlan::new(shard_size, threads.max(1)))
    }
}

impl Codec for ShardSpec {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.shard);
        enc.put_usize(self.start);
        enc.put_usize(self.len);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ShardSpec {
            shard: dec.u64()?,
            start: dec.usize_()?,
            len: dec.usize_()?,
        })
    }
}

/// One shard-runner's contiguous slice of a distributed run's work
/// list.
///
/// A k-way split of `total` work units produces `of == k` assignments
/// whose slices partition `0..total` exactly. Each assignment travels
/// inside a snapshot (plan files and partial-state files both embed
/// one), so a reducer can verify that the partial files it was handed
/// reassemble the whole run — no gaps, no overlaps, no strays from a
/// different split — before any merging happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceAssignment {
    /// This slice's position in the split, `0..of`.
    pub index: u32,
    /// How many slices the run was split into.
    pub of: u32,
    /// First work unit of the slice.
    pub start: u64,
    /// Work units in the slice (may be zero when `total < of`).
    pub len: u64,
    /// Total work units in the whole run.
    pub total: u64,
}

impl SliceAssignment {
    /// Split `total` work units into `parts` contiguous, near-even
    /// slices (sizes differ by at most one; earlier slices get the
    /// remainder). A pure function of `(total, parts)`.
    pub fn split(total: u64, parts: u32) -> Vec<SliceAssignment> {
        let parts = parts.max(1);
        let base = total / u64::from(parts);
        let extra = total % u64::from(parts);
        let mut start = 0u64;
        (0..parts)
            .map(|index| {
                let len = base + u64::from(u64::from(index) < extra);
                let slice = SliceAssignment {
                    index,
                    of: parts,
                    start,
                    len,
                    total,
                };
                start += len;
                slice
            })
            .collect()
    }

    /// One past the slice's last work unit.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

impl Codec for SliceAssignment {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u32(self.index);
        enc.put_u32(self.of);
        enc.put_u64(self.start);
        enc.put_u64(self.len);
        enc.put_u64(self.total);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let slice = SliceAssignment {
            index: dec.u32()?,
            of: dec.u32()?,
            start: dec.u64()?,
            len: dec.u64()?,
            total: dec.u64()?,
        };
        if slice.of == 0 || slice.index >= slice.of || slice.end() > slice.total {
            return Err(CodecError::BadLen {
                what: "slice assignment",
                len: slice.len,
            });
        }
        Ok(slice)
    }
}

/// Why a set of slice assignments is not an exact k-way partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Fewer or more slices than the split declared.
    WrongCount {
        /// Slices the split declared (`of`).
        declared: u32,
        /// Slices actually present.
        got: usize,
    },
    /// Two slices declare different split widths or run totals.
    MixedSplit {
        /// The offending slice's `index`.
        index: u32,
    },
    /// A slice index appears twice or out of `0..of`.
    BadIndex {
        /// The offending index.
        index: u32,
    },
    /// A slice does not start where the previous one ended.
    Gap {
        /// The offending slice's `index`.
        index: u32,
        /// Where it should have started.
        expected_start: u64,
    },
    /// The slices do not end exactly at the run total.
    BadTotal {
        /// Work units the slices cover.
        covered: u64,
        /// Work units the run declares.
        total: u64,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::WrongCount { declared, got } => {
                write!(f, "split declares {declared} slices but {got} were given")
            }
            PartitionError::MixedSplit { index } => {
                write!(f, "slice {index} belongs to a different split")
            }
            PartitionError::BadIndex { index } => write!(f, "bad or duplicate slice index {index}"),
            PartitionError::Gap {
                index,
                expected_start,
            } => write!(f, "slice {index} does not start at {expected_start}"),
            PartitionError::BadTotal { covered, total } => {
                write!(f, "slices cover {covered} of {total} work units")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Check that `slices` (sorted by caller in `index` order) exactly
/// partition `0..total` of one `of`-way split: indexes are `0..of` in
/// order, every slice agrees on `of` and `total`, consecutive slices
/// are contiguous, and the last slice ends at `total`.
pub fn validate_partition(slices: &[SliceAssignment]) -> Result<(), PartitionError> {
    let first = match slices.first() {
        Some(first) => first,
        None => {
            return Err(PartitionError::WrongCount {
                declared: 0,
                got: 0,
            })
        }
    };
    if slices.len() != first.of as usize {
        return Err(PartitionError::WrongCount {
            declared: first.of,
            got: slices.len(),
        });
    }
    let mut expected_start = 0u64;
    for (i, slice) in slices.iter().enumerate() {
        if slice.of != first.of || slice.total != first.total {
            return Err(PartitionError::MixedSplit { index: slice.index });
        }
        if slice.index as usize != i {
            return Err(PartitionError::BadIndex { index: slice.index });
        }
        if slice.start != expected_start {
            return Err(PartitionError::Gap {
                index: slice.index,
                expected_start,
            });
        }
        expected_start = slice.end();
    }
    if expected_start != first.total {
        return Err(PartitionError::BadTotal {
            covered: expected_start,
            total: first.total,
        });
    }
    Ok(())
}

/// Run `work` once per shard and return the results in shard order.
/// With more than one thread, shards are assigned to workers in
/// contiguous chunks on scoped threads; the output order is
/// the shard order regardless.
fn run_shards<T, F>(config: DatasetConfig, plan: ShardPlan, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize, usize) -> T + Sync,
{
    let specs = plan.shards(config.tests);
    if plan.threads <= 1 || specs.len() <= 1 {
        return specs
            .into_iter()
            .map(|(shard, start, len)| work(shard, start, len))
            .collect();
    }

    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(specs.len(), || None);
    let workers = plan.threads.min(specs.len());
    let per_worker = specs.len().div_ceil(workers);
    let work = &work;

    std::thread::scope(|scope| {
        for (chunk, slots) in specs.chunks(per_worker).zip(out.chunks_mut(per_worker)) {
            scope.spawn(move || {
                for (&(shard, start, len), slot) in chunk.iter().zip(slots.iter_mut()) {
                    *slot = Some(work(shard, start, len));
                }
            });
        }
    });

    out.into_iter()
        .map(|slot| slot.expect("every shard produced output"))
        .collect()
}

/// Generate `config.tests` records as owned rows, sharded per `plan`.
///
/// The output depends on `(config, plan.shard_size())` only — never on
/// `plan.thread_count()`.
pub fn generate_sharded(config: DatasetConfig, plan: ShardPlan) -> Vec<TestRecord> {
    let chunks = run_shards(config, plan, |shard, _start, len| {
        let mut gen = Generator::for_shard(config, shard);
        (0..len).map(|_| gen.generate_one()).collect::<Vec<_>>()
    });
    let mut all = Vec::with_capacity(config.tests);
    for chunk in chunks {
        all.extend(chunk);
    }
    all
}

/// Stream every record through `f` without materialising the
/// population; `f` receives the record's global index.
///
/// The record at a given index is identical to [`generate_sharded`]'s.
/// With one thread, calls arrive strictly in index order; with more,
/// order is only guaranteed *within* a shard, so `f` must be safe to
/// call concurrently (it is `Sync` and taken by `&self`-style ref).
pub fn for_each_record<F>(config: DatasetConfig, plan: ShardPlan, f: F)
where
    F: Fn(usize, &TestRecord) + Sync,
{
    run_shards(config, plan, |shard, start, len| {
        let mut gen = Generator::for_shard(config, shard);
        for i in 0..len {
            f(start + i, &gen.generate_one());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn config(tests: usize) -> DatasetConfig {
        DatasetConfig {
            seed: 0x51AD,
            tests,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn thread_count_never_changes_output() {
        let cfg = config(5_000);
        let baseline = generate_sharded(cfg, ShardPlan::new(1_024, 1));
        assert_eq!(baseline.len(), cfg.tests);
        assert!(baseline.iter().all(|r| r.year == cfg.year));
        for threads in [2, 3, 8] {
            let run = generate_sharded(cfg, ShardPlan::new(1_024, threads));
            assert_eq!(run, baseline, "threads={threads} diverged");
        }
    }

    #[test]
    fn streaming_driver_yields_same_records() {
        let cfg = config(2_000);
        let plan = ShardPlan::new(512, 4);
        let rows = generate_sharded(cfg, plan);
        let seen = Mutex::new(vec![None; cfg.tests]);
        for_each_record(cfg, plan, |i, r| {
            seen.lock().unwrap()[i] = Some(*r);
        });
        let seen: Vec<TestRecord> = seen
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every index visited"))
            .collect();
        assert_eq!(seen, rows);
    }

    #[test]
    fn shards_match_standalone_shard_generators() {
        let cfg = config(2_300);
        let plan = ShardPlan::new(1_000, 1);
        let rows = generate_sharded(cfg, plan);
        let mut manual = Vec::new();
        for (shard, start, len) in plan.shards(cfg.tests) {
            assert_eq!(start, manual.len());
            let mut gen = Generator::for_shard(cfg, shard);
            manual.extend((0..len).map(|_| gen.generate_one()));
        }
        assert_eq!(manual, rows);
    }

    #[test]
    fn shard_plan_partition_is_exact() {
        let plan = ShardPlan::new(1_000, 2);
        assert_eq!(plan.shard_count(0), 0);
        assert_eq!(plan.shard_count(999), 1);
        assert_eq!(plan.shard_count(1_000), 1);
        assert_eq!(plan.shard_count(1_001), 2);
        let total: usize = plan.shards(2_300).iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 2_300);
    }

    #[test]
    fn slice_split_partitions_exactly() {
        for (total, parts) in [(10u64, 4u32), (0, 3), (7, 7), (100, 1), (5, 8)] {
            let slices = SliceAssignment::split(total, parts);
            assert_eq!(slices.len(), parts as usize);
            validate_partition(&slices).unwrap();
            let max = slices.iter().map(|s| s.len).max().unwrap();
            let min = slices.iter().map(|s| s.len).min().unwrap();
            assert!(max - min <= 1, "near-even: {total}/{parts}");
        }
    }

    #[test]
    fn partition_validation_rejects_mismatches() {
        let mut slices = SliceAssignment::split(100, 4);
        slices.remove(2);
        assert!(matches!(
            validate_partition(&slices),
            Err(PartitionError::WrongCount {
                declared: 4,
                got: 3
            })
        ));

        let mut slices = SliceAssignment::split(100, 4);
        slices[1].total = 99;
        assert!(matches!(
            validate_partition(&slices),
            Err(PartitionError::MixedSplit { index: 1 })
        ));

        let mut slices = SliceAssignment::split(100, 4);
        slices[2].start += 1;
        assert!(matches!(
            validate_partition(&slices),
            Err(PartitionError::Gap { index: 2, .. })
        ));

        let mut slices = SliceAssignment::split(100, 4);
        slices[3].len -= 1;
        assert!(matches!(
            validate_partition(&slices),
            Err(PartitionError::BadTotal {
                covered: 99,
                total: 100
            })
        ));
    }

    #[test]
    fn plan_and_slice_codecs_roundtrip() {
        let plan = ShardPlan::new(1_024, 6);
        assert_eq!(ShardPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);

        let spec = ShardSpec {
            shard: 9,
            start: 9_216,
            len: 1_024,
        };
        assert_eq!(ShardSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);

        for slice in SliceAssignment::split(1_000_003, 4) {
            assert_eq!(
                SliceAssignment::from_bytes(&slice.to_bytes()).unwrap(),
                slice
            );
        }

        // Decoding enforces the structural invariants.
        let mut zero_shard = Enc::new();
        zero_shard.put_usize(0);
        zero_shard.put_usize(4);
        assert!(ShardPlan::from_bytes(&zero_shard.into_bytes()).is_err());

        let bad_slice = SliceAssignment {
            index: 5,
            of: 4,
            start: 0,
            len: 10,
            total: 40,
        };
        assert!(SliceAssignment::from_bytes(&bad_slice.to_bytes()).is_err());
    }
}
