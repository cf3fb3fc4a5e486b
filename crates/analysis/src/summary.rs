//! Bounded, mergeable, integer-exact summaries: what a figure keeps of
//! the samples it saw.
//!
//! A figure prints a few hundred means, medians, CDF points and counts,
//! so its state is a few hundred numbers — a function of the *figure*,
//! never of the population. Every accumulator in this crate is built
//! from the small family here (plus `mbw_stats`' [`LogBins`] and
//! [`Histogram`], whose edges feed the GMM and stay as they are):
//!
//! | a figure needs | it keeps | state |
//! |---|---|---|
//! | a mean | [`Mean`]: count + exact fixed-point sum | 32 B |
//! | a median or a CDF | [`BinnedCdf`]: a [`Mean`], exact min/max, log-linear bin counts | 17 KB |
//! | a Pearson r against an integer level | [`Pearson`]: count and the five power sums | 80 B |
//! | a distinct-id count | [`IdBitmap`]: one bit per id | O(largest id) |
//! | a per-city table | [`Dense`]: rows indexed by id | O(largest id) |
//!
//! Every `merge` is integer addition, `min`, `max` or bitwise OR, so it
//! is commutative and associative: any split of a population, merged in
//! any order on any number of threads, gives the same state bit for bit.
//!
//! # Accuracy contract
//!
//! **Exact:** counts, minima, maxima, shares, threshold fractions and
//! distinct-id counts. **Exact sum, rounded when read:** a mean is the
//! real sum of its samples (see [`Sample`]) divided once in `f64`.
//! **Binned:** a median or CDF value read out of a [`BinnedCdf`] — the
//! only approximation in the family, bounded by one bin (see
//! [`BinnedCdf`]).
//!
//! # Decoding bytes we did not write
//!
//! Every count decoded from a snapshot is bounded by [`COUNT_MAX`], so
//! tens of thousands of parts merge before a `u64` could overflow, and
//! each summary rejects at decode what its invariants forbid. Fixed-point
//! sums merge with wrapping adds: real data never comes near the wrap
//! (the widest sample, 1 231 Mbps · 2^64, times 2^25 records is under
//! 2^100 of the 2^127 available), two's-complement addition is still a
//! commutative group, and a forged sum is then a wrong mean in a forged
//! figure, never a panic.
//!
//! [`LogBins`]: mbw_stats::LogBins
//! [`Histogram`]: mbw_stats::Histogram

use mbw_frame::{Codec, CodecError, Dec, Enc};

/// Largest value a count decoded from a snapshot may claim: far above
/// the paper's 23.6 M records times any shard count, and small enough
/// that 65 536 maximal parts merge without overflowing a `u64`.
pub const COUNT_MAX: u64 = 1 << 48;

/// Decode one `u64` count, rejecting values above [`COUNT_MAX`].
pub fn decode_count(dec: &mut Dec<'_>, what: &'static str) -> Result<u64, CodecError> {
    let n = dec.u64()?;
    if n > COUNT_MAX {
        return Err(CodecError::BadLen { what, len: n });
    }
    Ok(n)
}

/// [`decode_count`] for the accumulators whose counters are `usize`.
pub fn decode_count_usize(dec: &mut Dec<'_>, what: &'static str) -> Result<usize, CodecError> {
    let n = decode_count(dec, what)?;
    usize::try_from(n).map_err(|_| CodecError::BadLen { what, len: n })
}

/// The sum of decoded bin counts, rejected once it passes [`COUNT_MAX`]
/// (so no single bin can exceed it either).
pub fn bounded_total(counts: &[u64], what: &'static str) -> Result<u64, CodecError> {
    let mut total = 0u64;
    for &c in counts {
        total = total.saturating_add(c);
        if total > COUNT_MAX {
            return Err(CodecError::BadLen { what, len: total });
        }
    }
    Ok(total)
}

fn put_i128(enc: &mut Enc, v: i128) {
    enc.put_bytes(&v.to_be_bytes());
}

fn take_i128(dec: &mut Dec<'_>) -> Result<i128, CodecError> {
    let bytes = dec.take(16)?;
    Ok(i128::from_be_bytes(
        bytes.try_into().expect("took 16 bytes"),
    ))
}

/// `2^64`, the fixed-point scale of every sum.
const SCALE: f64 = 18_446_744_073_709_551_616.0;

/// One observation, converted to fixed point once so that every stratum
/// it lands in adds an integer.
///
/// The fixed-point form is `value · 2^64` truncated toward zero. Scaling
/// by a power of two is exact in `f64`, and the lowest mantissa bit of
/// any `|value| ≥ 2^-12` is at least `2^-64`, so such a sample converts
/// with no bit lost: the integer sum of a stratum *is* the real-number
/// sum of its samples. Smaller magnitudes lose only what lies below
/// `2^-64`; NaN converts to zero and infinities saturate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    value: f64,
    fixed: i128,
}

impl Sample {
    /// Convert one observation.
    #[inline]
    pub fn new(value: f64) -> Self {
        const MANTISSA: u64 = (1 << 52) - 1;
        let bits = value.to_bits();
        // The unbiased exponent plus the 64 bits of scale, less the 52
        // the mantissa already occupies.
        let shift = ((bits >> 52) & 0x7ff) as i32 - 1011;
        let fixed = if (0..64).contains(&shift) {
            // 2^-12 <= |value| < 2^52: the 53-bit mantissa shifts left,
            // which is the cast below without the soft-float call.
            let magnitude = i128::from((bits & MANTISSA) | (1 << 52)) << shift;
            if value < 0.0 {
                -magnitude
            } else {
                magnitude
            }
        } else {
            (value * SCALE) as i128
        };
        Self { value, fixed }
    }
}

/// A stratum that feeds a mean: its count and the exact sum of its
/// samples. The same three verbs as the `Vec<f64>` it replaces — `push`,
/// `merge`, `len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mean {
    n: u64,
    sum: i128,
}

impl Mean {
    /// Fold one sample in.
    #[inline]
    pub fn push(&mut self, x: Sample) {
        self.n += 1;
        self.sum = self.sum.wrapping_add(x.fixed);
    }

    /// Fold a sibling stratum in.
    pub fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Samples seen.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no sample was seen.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean; 0 for an empty stratum (an empty bar).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64 / SCALE
        }
    }
}

impl Codec for Mean {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.n);
        put_i128(enc, self.sum);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = decode_count(dec, "mean count")?;
        let sum = take_i128(dec)?;
        if n == 0 && sum != 0 {
            return Err(CodecError::BadLen {
                what: "sum of an empty stratum",
                len: 0,
            });
        }
        Ok(Self { n, sum })
    }
}

/// Sub-bins per octave of the [`BinnedCdf`] grid, as a bit count: the
/// one grid constant of the family. 2^7 = 128 sub-bins make a bin at
/// most 1/128 = 0.78 % of the values in it.
pub const SUB_BITS: u32 = 7;
/// The grid's log-linear bins start at `2^GRID_MIN_EXP` Mbps …
const GRID_MIN_EXP: i32 = -4;
/// … and end below `2^GRID_MAX_EXP` Mbps (the mmWave profile reaches
/// 4 200 Mbps).
const GRID_MAX_EXP: i32 = 13;
/// Log-linear bins on the grid.
const LOG_BINS: usize = ((GRID_MAX_EXP - GRID_MIN_EXP) as usize) << SUB_BITS;
/// All bins: `<= 0`, `(0, 2^-4)`, the log-linear ones, `>= 2^13`.
const BINS: usize = LOG_BINS + 3;
/// The top `11 + SUB_BITS` bits of the smallest value on the log grid.
const GRID_BASE: i64 = ((1023 + GRID_MIN_EXP) as i64) << SUB_BITS;

/// The bin a value falls in, read off its exponent and top mantissa
/// bits — no logarithm. NaN counts as `<= 0`.
#[inline]
fn bin_of(value: f64) -> usize {
    if value > 0.0 {
        let key = (value.to_bits() >> (52 - SUB_BITS)) as i64 - GRID_BASE;
        (key.clamp(-1, LOG_BINS as i64) + 2) as usize
    } else {
        0
    }
}

/// Lower edge of log-linear bin `k` (`k == LOG_BINS` gives the grid's
/// upper end): the smallest `f64` that [`bin_of`] maps there.
fn log_edge(k: usize) -> f64 {
    f64::from_bits(((k as i64 + GRID_BASE) as u64) << (52 - SUB_BITS))
}

/// A stratum that feeds a median or a CDF: its [`Mean`], its exact
/// minimum and maximum, and how many samples fell in each bin of a fixed
/// log-linear grid.
///
/// # The grid and the bound
///
/// Each octave from 2^-4 to 2^13 Mbps is cut into 2^[`SUB_BITS`] = 128
/// equal bins, so a bin spans at most 1/128 of any value in it; one bin
/// holds everything `<= 0` (failed tests: the CDF's floor stays exact),
/// one holds `(0, 2^-4)` and one `>= 2^13`: 2 179 counts, 17 KB in
/// memory; on the wire only the run between the outermost occupied
/// positive bins. An order statistic is placed inside its bin as if the
/// bin's samples were evenly spread, the bin clipped to `[min, max]`; the
/// smallest and largest are `min` and `max` themselves. So a quantile is
/// off by at most the width of one bin — **0.78 % of its value** between
/// 2^-4 and 2^13 Mbps — a CDF value by at most the mass of one bin, and
/// an empty, single-valued or all-zero stratum reads exactly as the
/// sorted samples would.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedCdf {
    mean: Mean,
    min: f64,
    max: f64,
    bins: Vec<u64>,
}

impl Default for BinnedCdf {
    fn default() -> Self {
        Self::new()
    }
}

impl BinnedCdf {
    /// An empty stratum.
    pub fn new() -> Self {
        Self {
            mean: Mean::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: vec![0; BINS],
        }
    }

    /// Fold one sample in.
    #[inline]
    pub fn push(&mut self, x: Sample) {
        // NaN carries no order; it counts as a zero (as its fixed-point
        // form already does) so min <= max holds whatever arrives.
        let value = if x.value.is_nan() { 0.0 } else { x.value };
        self.mean.push(x);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.bins[bin_of(value)] += 1;
    }

    /// Fold a sibling stratum in.
    pub fn merge(&mut self, other: &Self) {
        self.mean.merge(&other.mean);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Samples seen.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Whether no sample was seen.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Exact mean (0 for an empty stratum).
    pub fn mean(&self) -> f64 {
        self.mean.mean()
    }

    /// Exact maximum (0 for an empty stratum).
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// The interval bin `i`'s samples lie in, clipped to `[min, max]`.
    fn span(&self, i: usize) -> (f64, f64) {
        let (lo, hi) = match i {
            0 => (self.min, 0.0),
            1 => (0.0, log_edge(0)),
            _ if i == BINS - 1 => (log_edge(LOG_BINS), self.max),
            _ => (log_edge(i - 2), log_edge(i - 1)),
        };
        (lo.max(self.min), hi.min(self.max))
    }

    /// Estimate of the `k`-th smallest sample (0-based, `k < len`).
    fn order_statistic(&self, k: u64) -> f64 {
        if k == 0 {
            return self.min;
        }
        if k + 1 >= self.mean.n {
            return self.max;
        }
        let mut before = 0u64;
        for (i, &count) in self.bins.iter().enumerate() {
            if k < before + count {
                let (lo, hi) = self.span(i);
                return lo + (hi - lo) * ((k - before) as f64 + 0.5) / count as f64;
            }
            before += count;
        }
        self.max
    }

    /// Quantile `q` in `[0, 1]` with the interpolation between order
    /// statistics that `mbw_stats::descriptive::percentile` uses; 0 for
    /// an empty stratum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.mean.n - 1) as f64;
        let below = self.order_statistic(rank.floor() as u64);
        let frac = rank - rank.floor();
        if frac == 0.0 {
            below
        } else {
            below * (1.0 - frac) + self.order_statistic(rank.ceil() as u64) * frac
        }
    }

    /// Median (0 for an empty stratum).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `P(X <= x)`: the bins below the one `x` falls in, plus the share of
    /// that bin `x` covers.
    pub fn eval(&self, x: f64) -> f64 {
        if self.is_empty() || x < self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let bin = bin_of(x);
        let below: u64 = self.bins[..bin].iter().sum();
        let (lo, hi) = self.span(bin);
        let covered = if x >= hi {
            1.0
        } else if x > lo {
            (x - lo) / (hi - lo)
        } else {
            0.0
        };
        (below as f64 + self.bins[bin] as f64 * covered) / self.mean.n as f64
    }

    /// Evenly spaced `(x, F(x))` series with `points` samples spanning
    /// `[min, max]` — what a plotting frontend would consume. Both ends
    /// are exact, so the x-grid is that of the sorted samples.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || points == 0 {
            return Vec::new();
        }
        let (lo, hi) = (self.min, self.max);
        if lo == hi {
            return vec![(lo, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

impl Codec for BinnedCdf {
    /// The mean, min and max, the count of the `<= 0` bin, then the
    /// positive bins from the first occupied one to the last: a run
    /// whose length follows the range of the samples, not their number
    /// (and that one failed test among them does not stretch to zero).
    fn encode(&self, enc: &mut Enc) {
        self.mean.encode(enc);
        enc.put_f64(self.min);
        enc.put_f64(self.max);
        enc.put_u64(self.bins[0]);
        let positive = &self.bins[1..];
        let first = positive.iter().position(|&c| c > 0).unwrap_or(0);
        let end = positive.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        enc.put_u16(first as u16);
        enc.put_u16((end - first) as u16);
        for &count in &positive[first..end] {
            enc.put_u64(count);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = Self::new();
        out.mean = Codec::decode(dec)?;
        out.min = dec.f64()?;
        out.max = dec.f64()?;
        out.bins[0] = dec.u64()?;
        let first = dec.u16()? as usize;
        let len = dec.u16()? as usize;
        // `encode` writes an empty run at 0 and never a run with an
        // empty bin at either end.
        if 1 + first + len > BINS || (len == 0 && first != 0) {
            return Err(CodecError::BadLen {
                what: "cdf bin run",
                len: (first + len) as u64,
            });
        }
        let run = &mut out.bins[1 + first..1 + first + len];
        for count in run.iter_mut() {
            *count = dec.u64()?;
        }
        if run.first() == Some(&0) || run.last() == Some(&0) {
            return Err(CodecError::BadLen {
                what: "cdf bin run with an empty end",
                len: len as u64,
            });
        }
        let total = bounded_total(&out.bins, "cdf bin total")?;
        if total != out.mean.n {
            return Err(CodecError::BadLen {
                what: "cdf bin counts do not sum to the sample count",
                len: total,
            });
        }
        // An empty stratum is the one `new` builds; an occupied one has
        // min <= max (so neither is NaN), each in the outermost occupied
        // bin on its side.
        let first = out.bins.iter().position(|&c| c > 0);
        let last = out.bins.iter().rposition(|&c| c > 0);
        let consistent = match (first, last) {
            (Some(first), Some(last)) => {
                out.min <= out.max && bin_of(out.min) == first && bin_of(out.max) == last
            }
            _ => out.min == f64::INFINITY && out.max == f64::NEG_INFINITY,
        };
        if !consistent {
            return Err(CodecError::BadLen {
                what: "cdf min/max outside the occupied bins",
                len: out.mean.n,
            });
        }
        Ok(out)
    }
}

/// `2^32`, the scale the `y` side of a [`Pearson`] is quantised to.
const Y_SCALE: f64 = 4_294_967_296.0;

/// The power sums behind a Pearson correlation between an integer level
/// `x` (an RSS level) and a real `y`, with `y` quantised to `2^-32` so
/// that every sum — the squares included — is an integer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pearson {
    n: u64,
    sx: u64,
    sxx: u64,
    sy: i128,
    syy: i128,
    sxy: i128,
}

impl Pearson {
    /// Fold one `(x, y)` pair in.
    pub fn push(&mut self, x: u8, y: f64) {
        let level = u64::from(x);
        let y = i128::from((y * Y_SCALE).round() as i64);
        self.n += 1;
        self.sx = self.sx.wrapping_add(level);
        self.sxx = self.sxx.wrapping_add(level * level);
        self.sy = self.sy.wrapping_add(y);
        self.syy = self.syy.wrapping_add(y * y);
        self.sxy = self.sxy.wrapping_add(y * i128::from(x));
    }

    /// Fold a sibling's pairs in.
    pub fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sx = self.sx.wrapping_add(other.sx);
        self.sxx = self.sxx.wrapping_add(other.sxx);
        self.sy = self.sy.wrapping_add(other.sy);
        self.syy = self.syy.wrapping_add(other.syy);
        self.sxy = self.sxy.wrapping_add(other.sxy);
    }

    /// Pearson r from the moments; `None` where it is undefined (fewer
    /// than two pairs, or no variance on either side).
    pub fn r(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let (mx, my) = (self.sx as f64 / n, self.sy as f64 / n);
        let vx = self.sxx as f64 / n - mx * mx;
        let vy = self.syy as f64 / n - my * my;
        let cov = self.sxy as f64 / n - mx * my;
        // `!(v > 0)` also turns away the NaN a forged sum can produce.
        if !(vx > 0.0 && vy > 0.0) {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

impl Codec for Pearson {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.n);
        enc.put_u64(self.sx);
        enc.put_u64(self.sxx);
        put_i128(enc, self.sy);
        put_i128(enc, self.syy);
        put_i128(enc, self.sxy);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let out = Self {
            n: decode_count(dec, "pearson count")?,
            sx: dec.u64()?,
            sxx: dec.u64()?,
            sy: take_i128(dec)?,
            syy: take_i128(dec)?,
            sxy: take_i128(dec)?,
        };
        // x is a u8, so its sums are bounded by the count; a sum of
        // squares is never negative; no pairs, no sums.
        let level_max = u64::from(u8::MAX);
        if out.sx > out.n * level_max || out.sxx > out.n * level_max * level_max {
            return Err(CodecError::BadLen {
                what: "pearson level sums",
                len: out.sx.max(out.sxx),
            });
        }
        if out.syy < 0 {
            return Err(CodecError::BadLen {
                what: "negative sum of squares",
                len: out.n,
            });
        }
        if out.n == 0 && (out.sy, out.syy, out.sxy) != (0, 0, 0) {
            return Err(CodecError::BadLen {
                what: "sums of an empty pearson",
                len: 0,
            });
        }
        Ok(out)
    }
}

/// Bytes a [`Dense`] table grows by at a time.
const STEP_BYTES: usize = 8 << 10;

/// A table indexed by a small dense id — a city — grown to the highest
/// id seen. Memory is **O(largest id)**, not O(ids seen): it is for ids
/// that are dense by construction.
///
/// It grows in fixed steps with `reserve_exact`, so its heap footprint
/// is a function of the largest id and not of the order ids arrived in,
/// and it encodes without its trailing empty rows, so its bytes are a
/// function of its content alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dense<T> {
    rows: Vec<T>,
}

impl<T: Default + Clone + PartialEq> Dense<T> {
    /// Rows added per growth step.
    const STEP: usize = {
        let rows = STEP_BYTES / std::mem::size_of::<T>();
        if rows == 0 {
            1
        } else {
            rows
        }
    };

    /// An empty table.
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    fn grow(&mut self, len: usize) {
        let len = len.div_ceil(Self::STEP) * Self::STEP;
        if len > self.rows.len() {
            self.rows.reserve_exact(len - self.rows.len());
            self.rows.resize(len, T::default());
        }
    }

    /// The row for `id`, growing the table to hold it.
    #[inline]
    pub fn slot(&mut self, id: usize) -> &mut T {
        if id >= self.rows.len() {
            self.grow(id + 1);
        }
        &mut self.rows[id]
    }

    /// The row for `id`, if the table reaches that far.
    pub fn get(&self, id: usize) -> Option<&T> {
        self.rows.get(id)
    }

    /// Every row, indexed by id (trailing rows may be empty).
    pub fn rows(&self) -> &[T] {
        &self.rows
    }

    /// Fold a sibling table in, row by row.
    pub fn merge_with(&mut self, other: &Self, mut merge: impl FnMut(&mut T, &T)) {
        self.grow(other.rows.len());
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            merge(mine, theirs);
        }
    }
}

impl<T: Default + Clone + PartialEq + Codec> Dense<T> {
    /// Append the rows up to the last non-empty one.
    pub fn encode(&self, enc: &mut Enc) {
        let empty = T::default();
        let used = self
            .rows
            .iter()
            .rposition(|r| *r != empty)
            .map_or(0, |i| i + 1);
        enc.put_u32(used as u32);
        for row in &self.rows[..used] {
            row.encode(enc);
        }
    }

    /// Decode a table of at most `cap` rows. A longer claim, a claim the
    /// remaining bytes cannot hold, or a trailing empty row (which
    /// `encode` never writes) is rejected before anything is allocated
    /// for it.
    pub fn decode_capped(
        dec: &mut Dec<'_>,
        cap: usize,
        what: &'static str,
    ) -> Result<Self, CodecError> {
        let len = dec.u32()? as usize;
        if len > cap || len > dec.remaining() {
            return Err(CodecError::BadLen {
                what,
                len: len as u64,
            });
        }
        let mut out = Self::new();
        out.grow(len);
        for row in &mut out.rows[..len] {
            *row = T::decode(dec)?;
        }
        if len > 0 && out.rows[len - 1] == T::default() {
            return Err(CodecError::BadLen {
                what,
                len: len as u64,
            });
        }
        Ok(out)
    }
}

/// Words per page of an [`IdBitmap`]: 8 KB, 65 536 ids.
const PAGE_WORDS: usize = 1 << 10;
/// Words a decoded [`IdBitmap`] may claim: the whole `u32` id range.
const BITMAP_WORDS_CAP: usize = 1 << 26;
/// What a page nobody wrote to reads as.
static EMPTY_PAGE: [u64; PAGE_WORDS] = [0; PAGE_WORDS];

/// An exact set of small integer ids, one bit each: insert, OR on
/// merge, `count_ones` to finish.
///
/// The bits live in 8 KB pages, each allocated exactly once, when its
/// first id arrives: nothing is ever copied to grow, and the heap
/// footprint is a function of the ids seen, not of the order they came
/// in. Memory is **O(largest id)** for the ids it is used for — base
/// stations, APs and cities are drawn densely below their population
/// size, so every page up to the largest id fills: 1 MB per 8.4 M of id
/// range, whatever the number of ids seen (559 KB + 255 KB under
/// paper-china).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdBitmap {
    /// Never `Some` of an all-zero page, never ending in `None`.
    pages: Vec<Option<Box<[u64; PAGE_WORDS]>>>,
}

impl IdBitmap {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page with this index, allocated on first use.
    fn page(&mut self, index: usize) -> &mut [u64; PAGE_WORDS] {
        if index >= self.pages.len() {
            self.pages.reserve_exact(index + 1 - self.pages.len());
            self.pages.resize(index + 1, None);
        }
        self.pages[index].get_or_insert_with(|| Box::new(EMPTY_PAGE))
    }

    /// Every word up to the last page, in order.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages
            .iter()
            .flat_map(|page| page.as_deref().unwrap_or(&EMPTY_PAGE))
            .copied()
    }

    /// Add one id.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        let word = (id / 64) as usize;
        self.page(word / PAGE_WORDS)[word % PAGE_WORDS] |= 1 << (id % 64);
    }

    /// Fold a sibling set in.
    pub fn merge(&mut self, other: &Self) {
        for (index, theirs) in other.pages.iter().enumerate() {
            if let Some(theirs) = theirs {
                for (a, b) in self.page(index).iter_mut().zip(theirs.iter()) {
                    *a |= b;
                }
            }
        }
    }

    /// Distinct ids seen.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no id was seen.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The ids seen, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().enumerate().flat_map(|(i, word)| {
            (0..64u32)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| i as u32 * 64 + bit)
        })
    }
}

impl Codec for IdBitmap {
    /// The words up to the last non-zero one: bytes are a function of
    /// the set alone.
    fn encode(&self, enc: &mut Enc) {
        let used = self
            .words()
            .enumerate()
            .fold(0, |used, (i, word)| if word != 0 { i + 1 } else { used });
        enc.put_u32(used as u32);
        for word in self.words().take(used) {
            enc.put_u64(word);
        }
    }

    /// A claim past the id range, a claim the remaining bytes cannot
    /// hold, or a trailing zero word (which `encode` never writes) is
    /// rejected; pages are allocated only for words that hold a bit.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let len = dec.u32()? as usize;
        let bad = CodecError::BadLen {
            what: "id bitmap words",
            len: len as u64,
        };
        if len > BITMAP_WORDS_CAP || len > dec.remaining() / 8 {
            return Err(bad);
        }
        let mut out = Self::new();
        let mut last = 1;
        for i in 0..len {
            last = dec.u64()?;
            if last != 0 {
                out.page(i / PAGE_WORDS)[i % PAGE_WORDS] = last;
            }
        }
        if last == 0 {
            return Err(bad);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_stats::descriptive;

    fn cdf_of(values: &[f64]) -> BinnedCdf {
        let mut cdf = BinnedCdf::new();
        for &v in values {
            cdf.push(Sample::new(v));
        }
        cdf
    }

    fn mean_of(values: &[f64]) -> Mean {
        let mut mean = Mean::default();
        for &v in values {
            mean.push(Sample::new(v));
        }
        mean
    }

    /// Deterministic values spread over the grid's whole range.
    fn spread(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.618_034).fract() * 14.0 - 3.5).exp2())
            .collect()
    }

    #[test]
    fn the_shifted_mantissa_is_the_truncating_cast() {
        let mut values = spread(2_000);
        values.extend(values.clone().iter().map(|v| -v));
        values.extend([
            0.0,
            -0.0,
            2f64.powi(-12),
            2f64.powi(-12) * (1.0 - f64::EPSILON),
            2f64.powi(-13),
            1e-300,
            f64::MIN_POSITIVE / 4.0,
            2f64.powi(52) - 0.5,
            2f64.powi(52),
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        for v in values {
            assert_eq!(Sample::new(v).fixed, (v * SCALE) as i128, "{v:e}");
        }
    }

    #[test]
    fn a_sum_is_exact_where_the_f64_fold_is_not() {
        // 2^-12 and 2^11 are 23 binary digits apart: a float sum of many
        // of each rounds, the integer sum cannot.
        let mut values = vec![2f64.powi(11) + 2f64.powi(-12); 1 << 16];
        values.extend(vec![2f64.powi(-12); 1 << 16]);
        let mean = mean_of(&values);
        let exact = (2f64.powi(11) + 2f64.powi(-11)) / 2.0;
        assert_eq!(mean.mean(), exact);
        assert_eq!(mean.len(), 1 << 17);
        assert_eq!(Mean::default().mean(), 0.0);
    }

    #[test]
    fn bins_tile_the_positive_axis_in_order() {
        assert_eq!(bin_of(0.0), 0);
        assert_eq!(bin_of(-3.0), 0);
        assert_eq!(bin_of(f64::NAN), 0);
        assert_eq!(bin_of(f64::MIN_POSITIVE), 1);
        assert_eq!(bin_of(0.0624), 1);
        assert_eq!(bin_of(0.0625), 2);
        assert_eq!(bin_of(8191.999), BINS - 2);
        assert_eq!(bin_of(8192.0), BINS - 1);
        assert_eq!(bin_of(f64::INFINITY), BINS - 1);
        for k in 0..LOG_BINS {
            let (lo, hi) = (log_edge(k), log_edge(k + 1));
            assert_eq!(bin_of(lo), k + 2);
            assert_eq!(bin_of(hi), k + 3);
            assert_eq!(bin_of(f64::from_bits(hi.to_bits() - 1)), k + 2);
            assert!((hi - lo) / lo <= 1.0 / 128.0, "bin {k} is too wide");
        }
    }

    #[test]
    fn quantiles_are_within_one_bin_of_the_sorted_sample() {
        for n in [3usize, 10, 257, 5_000] {
            let values = spread(n);
            let cdf = cdf_of(&values);
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
                let exact = descriptive::percentile(&values, p);
                let got = cdf.quantile(p / 100.0);
                assert!(
                    (got - exact).abs() <= exact / 128.0,
                    "n={n} p={p}: {got} vs {exact}"
                );
            }
            assert_eq!(cdf.quantile(0.0), descriptive::percentile(&values, 0.0));
            assert_eq!(cdf.quantile(1.0), descriptive::percentile(&values, 100.0));
        }
    }

    #[test]
    fn cdf_values_are_within_the_mass_of_one_bin() {
        let values = spread(5_000);
        let cdf = cdf_of(&values);
        let exact = mbw_stats::Ecdf::new(&values);
        let heaviest = *cdf.bins.iter().max().unwrap() as f64 / values.len() as f64;
        let series = cdf.series(50);
        assert_eq!(series.len(), 50);
        for (i, &(x, f)) in series.iter().enumerate() {
            assert!((f - exact.eval(x)).abs() <= heaviest, "x={x}: {f}");
            assert_eq!(x, exact.series(50)[i].0, "the x-grid must not move");
        }
        assert_eq!(series.last().unwrap().1, 1.0);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn degenerate_strata_read_as_the_sorted_samples_would() {
        let empty = BinnedCdf::new();
        assert_eq!(
            (empty.len(), empty.mean(), empty.median(), empty.max()),
            (0, 0.0, 0.0, 0.0)
        );
        assert!(empty.series(20).is_empty());
        assert_eq!(empty.eval(5.0), 0.0);

        let single = cdf_of(&[37.25]);
        assert_eq!(
            (single.mean(), single.median(), single.max()),
            (37.25, 37.25, 37.25)
        );
        assert_eq!(single.series(20), vec![(37.25, 1.0)]);

        let pair = cdf_of(&[3.0, 900.0]);
        assert_eq!(pair.median(), 451.5);

        let zeros = cdf_of(&[0.0; 9]);
        assert_eq!((zeros.median(), zeros.max()), (0.0, 0.0));
        assert_eq!(zeros.series(20), vec![(0.0, 1.0)]);

        let same = cdf_of(&[118.4; 40]);
        assert_eq!((same.median(), same.quantile(0.9)), (118.4, 118.4));
        assert_eq!(same.series(20), vec![(118.4, 1.0)]);

        // Failed tests (zeros) keep their exact floor under the CDF.
        let mut values = vec![0.0; 25];
        values.extend(spread(75));
        let floor = cdf_of(&values);
        assert_eq!(floor.eval(0.0), 0.25);
        assert_eq!(floor.series(20)[0], (0.0, 0.25));

        // NaN counts as a zero: min <= max survives, and so does decode.
        let nan = cdf_of(&[f64::NAN, 5.0]);
        assert_eq!((nan.len(), nan.min, nan.max), (2, 0.0, 5.0));
        assert_eq!(BinnedCdf::from_bytes(&nan.to_bytes()).unwrap(), nan);
    }

    #[test]
    fn merge_is_commutative_and_matches_one_pass() {
        let values = spread(999);
        let whole = cdf_of(&values);
        let (a, b) = (cdf_of(&values[..400]), cdf_of(&values[400..]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(ab.to_bytes(), whole.to_bytes());
    }

    #[test]
    fn pearson_matches_the_two_pass_formula() {
        let xs: Vec<u8> = (0..4_000).map(|i| (i * 7 % 5 + 1) as u8).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| f64::from(x) * 40.0 + (i as f64 * 0.37).sin() * 90.0 - 20.0)
            .collect();
        let mut acc = Pearson::default();
        for (&x, &y) in xs.iter().zip(&ys) {
            acc.push(x, y);
        }
        let xf: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        let exact = descriptive::pearson(&xf, &ys).unwrap();
        assert!((acc.r().unwrap() - exact).abs() < 1e-9);

        let mut flat = Pearson::default();
        flat.push(3, 1.0);
        assert_eq!(flat.r(), None, "one pair");
        flat.push(3, 2.0);
        assert_eq!(flat.r(), None, "no variance in x");
        assert_eq!(Pearson::default().r(), None);
    }

    #[test]
    fn bitmap_counts_distinct_ids_and_lists_them_in_order() {
        let mut set = IdBitmap::new();
        for id in [70_000u32, 3, 64, 3, 4_473_361, 63] {
            set.insert(id);
        }
        assert_eq!(set.len(), 5);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [3, 63, 64, 70_000, 4_473_361]
        );
        assert!(IdBitmap::new().is_empty());

        let mut other = IdBitmap::new();
        other.insert(3);
        other.insert(9_000_000);
        let mut merged = other.clone();
        merged.merge(&set);
        set.merge(&other);
        assert_eq!(merged, set);
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn bitmaps_and_tables_hold_the_same_memory_whatever_the_order() {
        let ids: Vec<u32> = (0..40).map(|i| i * 99_991).collect();
        let (mut up, mut down) = (IdBitmap::new(), IdBitmap::new());
        let (mut table_up, mut table_down) = (Dense::<Mean>::new(), Dense::<Mean>::new());
        for &id in &ids {
            up.insert(id);
            table_up.slot(id as usize / 1_000).push(Sample::new(1.0));
        }
        for &id in ids.iter().rev() {
            down.insert(id);
            table_down.slot(id as usize / 1_000).push(Sample::new(1.0));
        }
        assert_eq!(up, down);
        assert_eq!(up.to_bytes(), down.to_bytes());
        for set in [&up, &down] {
            // One page per 65 536 ids that hold a bit, none for the gaps.
            let pages = set.pages.iter().flatten().count();
            assert_eq!(pages, 40);
            assert_eq!(set.pages.len(), 39 * 99_991 / 65_536 + 1);
            assert_eq!(set.pages.capacity(), set.pages.len());
        }
        // On the wire the trailing empty words are gone.
        let words = (39 * 99_991) / 64 + 1;
        assert_eq!(up.to_bytes().len(), 4 + 8 * words);
        assert_eq!(IdBitmap::from_bytes(&up.to_bytes()).unwrap(), up);

        assert_eq!(table_up, table_down);
        let step = STEP_BYTES / std::mem::size_of::<Mean>();
        for table in [&table_up, &table_down] {
            assert_eq!(table.rows.len() % step, 0);
            assert_eq!(table.rows.capacity(), table.rows.len());
        }
        let mut enc = Enc::new();
        table_up.encode(&mut enc);
        let rows = 39 * 99_991 / 1_000 + 1;
        assert_eq!(enc.len(), 4 + 24 * rows, "trailing empty rows stay home");
        let back = Dense::<Mean>::decode_capped(&mut Dec::new(&enc.into_bytes()), rows, "rows");
        assert_eq!(back.unwrap(), table_up);
    }

    #[test]
    fn summaries_roundtrip() {
        let mean = mean_of(&[1.5, -2.25, 900.0]);
        assert_eq!(Mean::from_bytes(&mean.to_bytes()).unwrap(), mean);
        let cdf = cdf_of(&spread(300));
        let bytes = cdf.to_bytes();
        assert!(bytes.len() < 8 * BINS, "only the occupied run travels");
        assert_eq!(BinnedCdf::new().to_bytes().len(), 24 + 16 + 8 + 4);
        assert_eq!(BinnedCdf::from_bytes(&bytes).unwrap(), cdf);
        let empty = BinnedCdf::new();
        assert_eq!(BinnedCdf::from_bytes(&empty.to_bytes()).unwrap(), empty);
        let mut pearson = Pearson::default();
        pearson.push(2, -7.5);
        pearson.push(5, 31.0);
        assert_eq!(Pearson::from_bytes(&pearson.to_bytes()).unwrap(), pearson);
    }

    fn bad_len<T: std::fmt::Debug>(result: Result<T, CodecError>, why: &str) {
        assert!(
            matches!(result, Err(CodecError::BadLen { .. })),
            "{why}: {result:?}"
        );
    }

    /// The encoding of a `BinnedCdf`, as its fields.
    struct RawCdf {
        n: u64,
        sum: i128,
        min: f64,
        max: f64,
        zeros: u64,
        first: u16,
        run: Vec<u64>,
    }

    impl RawCdf {
        /// Two samples, 1.0 and 1.02, two bins apart.
        fn valid() -> Self {
            assert_eq!(bin_of(1.02), bin_of(1.0) + 2);
            Self {
                n: 2,
                sum: Sample::new(1.0).fixed + Sample::new(1.02).fixed,
                min: 1.0,
                max: 1.02,
                zeros: 0,
                first: bin_of(1.0) as u16 - 1,
                run: vec![1, 0, 1],
            }
        }

        fn decode(&self) -> Result<BinnedCdf, CodecError> {
            let mut enc = Enc::new();
            enc.put_u64(self.n);
            put_i128(&mut enc, self.sum);
            enc.put_f64(self.min);
            enc.put_f64(self.max);
            enc.put_u64(self.zeros);
            enc.put_u16(self.first);
            enc.put_u16(self.run.len() as u16);
            for &count in &self.run {
                enc.put_u64(count);
            }
            BinnedCdf::from_bytes(&enc.into_bytes())
        }
    }

    #[test]
    fn decode_rejects_a_count_above_the_bound() {
        let mut enc = Enc::new();
        enc.put_u64(COUNT_MAX + 1);
        put_i128(&mut enc, 0);
        bad_len(Mean::from_bytes(&enc.into_bytes()), "count");
        assert_eq!(
            decode_count(&mut Dec::new(&COUNT_MAX.to_bytes()), "c").unwrap(),
            COUNT_MAX
        );
        bad_len(
            bounded_total(&[COUNT_MAX, 1], "bins"),
            "a total past the bound",
        );
        bad_len(
            bounded_total(&[u64::MAX, u64::MAX], "bins"),
            "a wrapping total",
        );
        assert_eq!(bounded_total(&[1, 2, 3], "bins").unwrap(), 6);
    }

    #[test]
    fn decode_rejects_a_sum_without_samples() {
        let mut enc = Enc::new();
        enc.put_u64(0);
        put_i128(&mut enc, 1);
        bad_len(Mean::from_bytes(&enc.into_bytes()), "sum with n = 0");
    }

    #[test]
    fn decode_rejects_bins_that_do_not_sum_to_n() {
        assert!(RawCdf::valid().decode().is_ok());
        let mut raw = RawCdf::valid();
        raw.run[1] = 1;
        bad_len(raw.decode(), "sum of bins != n");
        let mut raw = RawCdf::valid();
        (raw.zeros, raw.min) = (1, 0.0);
        bad_len(raw.decode(), "a zero nobody counted in n");
        raw.n = 3;
        assert!(raw.decode().is_ok(), "two samples and a failed test");
        let mut raw = RawCdf::valid();
        (raw.run[0], raw.run[2]) = (u64::MAX, 3);
        bad_len(raw.decode(), "bins that wrap around to n");
    }

    #[test]
    fn decode_rejects_a_bin_run_out_of_range() {
        let mut raw = RawCdf::valid();
        raw.first = (BINS - 3) as u16;
        bad_len(raw.decode(), "a run past the last bin");
        let mut raw = RawCdf::valid();
        (raw.n, raw.sum, raw.run, raw.first) = (0, 0, Vec::new(), 0);
        (raw.min, raw.max) = (f64::INFINITY, f64::NEG_INFINITY);
        assert!(raw.decode().is_ok(), "the empty stratum");
        raw.first = 7;
        bad_len(raw.decode(), "an empty run that does not start at 0");
    }

    #[test]
    fn decode_rejects_a_bin_run_with_an_empty_end() {
        let mut raw = RawCdf::valid();
        raw.run = vec![1, 0, 1, 0];
        bad_len(raw.decode(), "trailing empty bin");
        let mut raw = RawCdf::valid();
        raw.first -= 1;
        raw.run = vec![0, 1, 0, 1];
        bad_len(raw.decode(), "leading empty bin");
    }

    #[test]
    fn decode_rejects_min_above_max_and_strays_from_the_bins() {
        let mut raw = RawCdf::valid();
        (raw.min, raw.max) = (1.02, 1.0);
        bad_len(raw.decode(), "min > max");
        let mut raw = RawCdf::valid();
        raw.max = f64::NAN;
        bad_len(raw.decode(), "NaN max");
        let mut raw = RawCdf::valid();
        raw.max = 900.0;
        bad_len(raw.decode(), "max outside the last occupied bin");
        let mut raw = RawCdf::valid();
        (raw.n, raw.sum, raw.run, raw.first) = (0, 0, Vec::new(), 0);
        bad_len(raw.decode(), "an empty stratum with a min and a max");
    }

    #[test]
    fn decode_rejects_a_negative_sum_of_squares_and_wild_level_sums() {
        let raw = |n: u64, sx: u64, sxx: u64, syy: i128| {
            let mut enc = Enc::new();
            enc.put_u64(n);
            enc.put_u64(sx);
            enc.put_u64(sxx);
            put_i128(&mut enc, 0);
            put_i128(&mut enc, syy);
            put_i128(&mut enc, 0);
            Pearson::from_bytes(&enc.into_bytes())
        };
        assert!(raw(2, 6, 18, 50).is_ok());
        bad_len(raw(2, 6, 18, -1), "negative sum of squares");
        bad_len(raw(2, 511, 18, 50), "sum of levels above 255 n");
        bad_len(raw(2, 6, 2 * 255 * 255 + 1, 50), "sum of squared levels");
        bad_len(raw(0, 0, 0, 9), "sums with n = 0");
    }

    #[test]
    fn decode_rejects_a_bitmap_past_its_cap_or_ending_in_a_zero_word() {
        let mut enc = Enc::new();
        enc.put_u32(BITMAP_WORDS_CAP as u32 + 1);
        bad_len(IdBitmap::from_bytes(&enc.into_bytes()), "past the cap");

        let mut enc = Enc::new();
        enc.put_u32(2);
        enc.put_u64(0b101);
        enc.put_u64(0);
        bad_len(
            IdBitmap::from_bytes(&enc.into_bytes()),
            "trailing zero word",
        );

        // A length the remaining bytes cannot hold sizes no allocation.
        let mut enc = Enc::new();
        enc.put_u32(3);
        enc.put_u64(1);
        enc.put_u64(1);
        bad_len(
            IdBitmap::from_bytes(&enc.into_bytes()),
            "longer than the input",
        );

        // Zero words inside allocate nothing: one page for one bit.
        let mut enc = Enc::new();
        enc.put_u32(5 * PAGE_WORDS as u32);
        for i in 0..5 * PAGE_WORDS {
            enc.put_u64(u64::from(i + 1 == 5 * PAGE_WORDS));
        }
        let sparse = IdBitmap::from_bytes(&enc.into_bytes()).unwrap();
        assert_eq!(sparse.pages.iter().flatten().count(), 1);
        assert_eq!(sparse.len(), 1);
    }

    #[test]
    fn decode_rejects_a_table_past_its_cap_or_ending_in_an_empty_row() {
        let rows = |rows: &[Mean], cap: usize| {
            let mut enc = Enc::new();
            enc.put_u32(rows.len() as u32);
            for row in rows {
                row.encode(&mut enc);
            }
            Dense::<Mean>::decode_capped(&mut Dec::new(&enc.into_bytes()), cap, "rows")
        };
        let one = mean_of(&[2.5]);
        assert!(rows(&[Mean::default(), one], 2).is_ok());
        bad_len(rows(&[one, one, one], 2), "past its cap");
        bad_len(rows(&[one, Mean::default()], 2), "trailing empty row");
        let mut enc = Enc::new();
        enc.put_u32(1 << 20);
        bad_len(
            Dense::<Mean>::decode_capped(&mut Dec::new(&enc.into_bytes()), 1 << 24, "rows"),
            "longer than the input",
        );
    }
}
