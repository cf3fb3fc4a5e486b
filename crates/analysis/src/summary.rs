//! Bounded, mergeable, integer-exact summaries: what a figure keeps of
//! the samples it saw.
//!
//! A figure prints a few hundred means, medians, CDF points and counts,
//! so its state is a few hundred numbers — a function of the *figure*,
//! never of the population. Every accumulator in this crate is built
//! from the small family here (plus `mbw_stats`' [`LogBins`], whose
//! edges feed the GMM and stay as they are):
//!
//! | a figure needs | it keeps | state |
//! |---|---|---|
//! | a mean | [`Mean`]: count + exact fixed-point sum | 32 B |
//! | a median or a CDF | [`BinnedCdf`]: a [`Mean`], exact min/max, log-linear bin counts | the run of bins seen, ≤ 17 KB |
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
//! A reducer folds many parts into one running set, so every summary
//! is [`Mergeable`]: besides `merge`, it merges a sibling straight from
//! its bytes (`merge_decoded`), with the same checks as its `decode` and
//! the same integer operations as its `merge`, and no decoded copy of
//! the sibling in between. An accumulator built from these summaries
//! names its fields once, in encode order, in a [`mergeable!`]
//! declaration, which generates its `encode`, its `decode`, its `merge`
//! and its `merge_decoded` field by field: the four cannot drift apart,
//! and a field left out of the declaration does not compile.
//!
//! Outside tests this module denies `unwrap`, `expect` and `panic!`: it
//! decodes bytes read back from disk, and a malformed part must come
//! back as a typed error.
//!
//! [`LogBins`]: mbw_stats::LogBins
//! [`mergeable!`]: crate::mergeable

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mbw_frame::{Codec, CodecError, Dec, Enc};
use mbw_stats::LogBins;

/// State that folds in a sibling which observed another part of the
/// input: in memory (`merge`), or straight from the sibling's encoding
/// (`merge_decoded`), without building the sibling.
///
/// `merge` is commutative and associative. `merge_decoded` runs the
/// checks the type's `decode` runs, on the incoming state alone and with
/// the same typed errors, then adds it in with the operations of
/// `merge`: `a.merge_decoded(bytes of b)` leaves `a` bit for bit as
/// `a.merge(decode(bytes of b))` does. The summaries here check a
/// stratum whole before they touch `self`, but for an [`IdBitmap`],
/// which reads its words a page at a time; an array, a [`Dense`] table
/// or a declared accumulator may fail after merging some of its fields,
/// so on an error the caller drops `self`.
pub trait Mergeable: Sized {
    /// Fold `other` in.
    fn merge(&mut self, other: Self);

    /// Check the encoded sibling at the cursor and fold it in.
    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError>;
}

impl<T: Mergeable, const N: usize> Mergeable for [T; N] {
    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        for row in self {
            row.merge_decoded(dec)?;
        }
        Ok(())
    }
}

/// Samples kept whole, for an order statistic over a few hundred trials
/// (sorted before they are read): merged by concatenation, encoded as a
/// `Vec<f64>`.
impl Mergeable for Vec<f64> {
    fn merge(&mut self, other: Self) {
        self.extend(other);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let len = dec.seq_len("sequence")?;
        self.reserve_exact(len);
        for _ in 0..len {
            self.push(dec.f64()?);
        }
        Ok(())
    }
}

/// A count, or a fixed array of counts: added on merge. Where it is
/// decoded, the counts of the field sum to at most [`COUNT_MAX`] (an
/// array of counts here splits one population), or the error names the
/// field `what`.
pub trait Count: Sized {
    /// Add `other` in.
    fn merge_count(&mut self, other: Self);

    /// Add in the encoded counts at the cursor; `total` sums the
    /// field's counts read so far.
    fn merge_decoded_count(
        &mut self,
        dec: &mut Dec<'_>,
        what: &'static str,
        total: &mut u64,
    ) -> Result<(), CodecError>;
}

impl Count for u64 {
    fn merge_count(&mut self, other: Self) {
        *self += other;
    }

    fn merge_decoded_count(
        &mut self,
        dec: &mut Dec<'_>,
        what: &'static str,
        total: &mut u64,
    ) -> Result<(), CodecError> {
        let count = dec.u64()?;
        *total = total.saturating_add(count);
        if *total > COUNT_MAX {
            return Err(CodecError::BadLen { what, len: *total });
        }
        *self += count;
        Ok(())
    }
}

impl Count for usize {
    fn merge_count(&mut self, other: Self) {
        *self += other;
    }

    fn merge_decoded_count(
        &mut self,
        dec: &mut Dec<'_>,
        what: &'static str,
        total: &mut u64,
    ) -> Result<(), CodecError> {
        let mut count = 0u64;
        count.merge_decoded_count(dec, what, total)?;
        *self += usize::try_from(count).map_err(|_| CodecError::BadLen { what, len: count })?;
        Ok(())
    }
}

impl<T: Count, const N: usize> Count for [T; N] {
    fn merge_count(&mut self, other: Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge_count(theirs);
        }
    }

    fn merge_decoded_count(
        &mut self,
        dec: &mut Dec<'_>,
        what: &'static str,
        total: &mut u64,
    ) -> Result<(), CodecError> {
        for count in self {
            count.merge_decoded_count(dec, what, total)?;
        }
        Ok(())
    }
}

/// A histogram of a fixed number of bins, encoded as its counts (a
/// `Vec<u64>`) and merged bin by bin. Decoded counts must number
/// exactly the bins this histogram has, their sum bounded by
/// [`COUNT_MAX`].
pub trait Bins {
    /// The counts, in bin order.
    fn counts(&self) -> &[u64];

    /// Add `counts` in, bin by bin; there are as many as [`Self::counts`].
    fn add_counts(&mut self, counts: impl ExactSizeIterator<Item = u64>);

    /// Append the counts as a `Vec<u64>` encodes them.
    fn encode_bins(&self, enc: &mut Enc) {
        let counts = self.counts();
        enc.put_u32(counts.len() as u32);
        for &count in counts {
            enc.put_u64(count);
        }
    }

    /// Fold a sibling histogram's counts in.
    fn merge_bins(&mut self, other: &Self) {
        self.add_counts(other.counts().iter().copied());
    }

    /// Fold in the encoded counts at the cursor: `what` names their
    /// number in an error, `total_what` their sum.
    fn merge_decoded_bins(
        &mut self,
        dec: &mut Dec<'_>,
        what: &'static str,
        total_what: &'static str,
    ) -> Result<(), CodecError> {
        let counts = decode_counts(dec, self.counts().len(), what, total_what)?;
        self.add_counts(counts);
        Ok(())
    }
}

impl Bins for Vec<u64> {
    fn counts(&self) -> &[u64] {
        self
    }

    fn add_counts(&mut self, counts: impl ExactSizeIterator<Item = u64>) {
        for (mine, theirs) in self.iter_mut().zip(counts) {
            *mine += theirs;
        }
    }
}

impl Bins for LogBins {
    fn counts(&self) -> &[u64] {
        LogBins::counts(self)
    }

    fn add_counts(&mut self, counts: impl ExactSizeIterator<Item = u64>) {
        self.merge_counts(counts);
    }
}

/// Refuse the tag at the cursor unless it is `mine`: a sibling that is
/// another accumulator is a [`CodecError::BadTag`] naming `what` and
/// carrying the sibling's tag, its encoding read as a big-endian integer.
pub fn check_tag<T: Codec + PartialEq>(
    mine: &T,
    dec: &mut Dec<'_>,
    what: &'static str,
) -> Result<(), CodecError> {
    let theirs = T::decode(dec)?;
    if theirs == *mine {
        return Ok(());
    }
    let tag = (theirs.to_bytes().iter()).fold(0, |tag, &byte| tag << 8 | u64::from(byte));
    Err(CodecError::BadTag { what, tag })
}

/// Declare an accumulator's state: its fields, once, in encode order.
///
/// ```text
/// mergeable! {
///     Fig04Acc {
///         bw,
///         below_10: count("fig04 tests below 10 Mbps"),
///         above_300,
///     }
/// }
/// ```
///
/// implements [`mbw_frame::Codec`] and [`Mergeable`] for the struct
/// named, field by field in the order listed: `encode` appends each
/// field's encoding, `merge` folds each field of the sibling into its
/// own, `merge_decoded` folds each encoded field in with that field's
/// checks, and `decode` is `merge_decoded` into an empty value
/// (`Self::default()`, or the expression after a trailing `from`) that
/// adopts the tags it reads instead of checking them. `merge`
/// destructures the sibling, so a field left out does not compile.
///
/// What follows a field's name is its kind:
/// - nothing: a [`Mergeable`] `Codec` value — a summary, an array of
///   them, samples (`Vec<f64>`) or another declared accumulator;
/// - `count(what)`: a [`Count`];
/// - `bins(what, total_what)`: a [`Bins`] histogram;
/// - `dense(cap, what)`: a [`Dense`] table of at most `cap` rows;
/// - `tag(what)`: which accumulator this is, not what it saw. A sibling
///   of another tag is refused ([`check_tag`]) by `merge_decoded`, and
///   by a debug assertion in `merge`, which sees only our own values;
///   `decode` assigns it;
/// - `tag(what) => ctor`, first and only first: a tag the rest of the
///   state is shaped by, so `decode` starts from `ctor(tag)?` instead;
/// - `skip`: structure that is not encoded, such as a title, which a
///   `tag(what) => ctor` rebuilds.
#[macro_export]
macro_rules! mergeable {
    (@merge $mine:expr, $theirs:ident, skip) => {
        let _ = $theirs;
    };
    (@merge $mine:expr, $theirs:ident, count($($arg:expr),*)) => {
        $crate::summary::Count::merge_count(&mut $mine, $theirs)
    };
    (@merge $mine:expr, $theirs:ident, bins($($arg:expr),*)) => {
        $crate::summary::Bins::merge_bins(&mut $mine, &$theirs)
    };
    (@merge $mine:expr, $theirs:ident, dense($($arg:expr),*)) => {
        $crate::summary::Dense::merge(&mut $mine, $theirs)
    };
    (@merge $mine:expr, $theirs:ident, tag($what:expr)) => {
        debug_assert!($mine == $theirs, "merged a {} of another tag", $what)
    };
    (@merge $mine:expr, $theirs:ident) => {
        $crate::summary::Mergeable::merge(&mut $mine, $theirs)
    };
    (@check $mine:expr, $dec:ident, skip) => {};
    (@check $mine:expr, $dec:ident, count($what:expr)) => {
        $crate::summary::Count::merge_decoded_count(&mut $mine, $dec, $what, &mut 0)?
    };
    (@check $mine:expr, $dec:ident, bins($what:expr, $total:expr)) => {
        $crate::summary::Bins::merge_decoded_bins(&mut $mine, $dec, $what, $total)?
    };
    (@check $mine:expr, $dec:ident, dense($cap:expr, $what:expr)) => {
        $crate::summary::Dense::merge_decoded_capped(&mut $mine, $dec, $cap, $what)?
    };
    (@check $mine:expr, $dec:ident, tag($what:expr)) => {
        $crate::summary::check_tag(&$mine, $dec, $what)?
    };
    (@check $mine:expr, $dec:ident) => {
        $crate::summary::Mergeable::merge_decoded(&mut $mine, $dec)?
    };
    (@encode $mine:expr, $enc:ident, skip) => {};
    (@encode $mine:expr, $enc:ident, bins($($arg:expr),*)) => {
        $crate::summary::Bins::encode_bins(&$mine, $enc)
    };
    (@encode $mine:expr, $enc:ident, dense($($arg:expr),*)) => {
        $crate::summary::Dense::encode(&$mine, $enc)
    };
    (@encode $mine:expr, $enc:ident $(, $kind:ident $(($($arg:expr),*))?)?) => {
        ::mbw_frame::Codec::encode(&$mine, $enc)
    };
    (@adopt $out:ident, $field:ident, $dec:ident, tag($what:expr)) => {
        $out.$field = ::mbw_frame::Codec::decode($dec)?
    };
    (@adopt $out:ident, $field:ident, $dec:ident $(, $kind:ident $(($($arg:expr),*))?)?) => {
        $crate::mergeable!(@check $out.$field, $dec $(, $kind $(($($arg),*))?)?)
    };
    (@empty) => {
        <Self as ::core::default::Default>::default()
    };
    (@empty $empty:expr) => {
        $empty
    };
    (@impls $ty:ident ($dec:ident) {
        $($field:ident $(: $kind:ident $(($($arg:expr),*))?)?),*
    } $decode:block) => {
        impl $crate::summary::Mergeable for $ty {
            fn merge(&mut self, other: Self) {
                let Self { $($field),* } = other;
                $($crate::mergeable!(@merge self.$field, $field $(, $kind $(($($arg),*))?)?);)*
            }

            fn merge_decoded(
                &mut self,
                $dec: &mut ::mbw_frame::Dec<'_>,
            ) -> ::core::result::Result<(), ::mbw_frame::CodecError> {
                $($crate::mergeable!(@check self.$field, $dec $(, $kind $(($($arg),*))?)?);)*
                Ok(())
            }
        }

        impl ::mbw_frame::Codec for $ty {
            fn encode(&self, enc: &mut ::mbw_frame::Enc) {
                $($crate::mergeable!(@encode self.$field, enc $(, $kind $(($($arg),*))?)?);)*
            }

            fn decode(
                $dec: &mut ::mbw_frame::Dec<'_>,
            ) -> ::core::result::Result<Self, ::mbw_frame::CodecError> $decode
        }
    };
    (
        $ty:ident {
            $lead:ident: tag($what:expr) => $ctor:expr,
            $($field:ident $(: $kind:ident $(($($arg:expr),*))?)?),* $(,)?
        }
    ) => {
        $crate::mergeable!(@impls $ty (dec) {
            $lead: tag($what), $($field $(: $kind $(($($arg),*))?)?),*
        } {
            let mut out: Self = ($ctor)(::mbw_frame::Codec::decode(dec)?)?;
            $($crate::mergeable!(@adopt out, $field, dec $(, $kind $(($($arg),*))?)?);)*
            Ok(out)
        });
    };
    (
        $ty:ident {
            $($field:ident $(: $kind:ident $(($($arg:expr),*))?)?),* $(,)?
        } $(from $empty:expr)?
    ) => {
        $crate::mergeable!(@impls $ty (dec) {
            $($field $(: $kind $(($($arg),*))?)?),*
        } {
            let mut out: Self = $crate::mergeable!(@empty $($empty)?);
            $($crate::mergeable!(@adopt out, $field, dec $(, $kind $(($($arg),*))?)?);)*
            Ok(out)
        });
    };
}

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

/// The sum of decoded counts as they are read, rejected once it passes
/// [`COUNT_MAX`] (so no single count can exceed it either).
fn bounded_sum(counts: impl Iterator<Item = u64>, what: &'static str) -> Result<u64, CodecError> {
    let mut total = 0u64;
    for c in counts {
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
    let (&head, _) = bytes.split_first_chunk::<16>().ok_or(CodecError::Eof {
        wanted: 16,
        have: bytes.len(),
    })?;
    Ok(i128::from_be_bytes(head))
}

/// `len` big-endian `u64`s at the cursor, still as bytes, lent until the
/// cursor moves again: a decoder checks them all before it adds any.
fn take_words<'d>(dec: &'d mut Dec<'_>, len: usize) -> Result<&'d [[u8; 8]], CodecError> {
    Ok(dec.take(len.saturating_mul(8))?.as_chunks::<8>().0)
}

/// One word of [`take_words`].
fn word(bytes: &[u8; 8]) -> u64 {
    u64::from_be_bytes(*bytes)
}

/// The counts of a `Vec<u64>` encoding that must hold exactly `len` of
/// them, their sum bounded by [`COUNT_MAX`]: `what` names the length in
/// an error, `total_what` the sum.
pub(crate) fn decode_counts<'d>(
    dec: &'d mut Dec<'_>,
    len: usize,
    what: &'static str,
    total_what: &'static str,
) -> Result<impl ExactSizeIterator<Item = u64> + 'd, CodecError> {
    let claimed = dec.seq_len("sequence")?;
    let words = take_words(dec, claimed)?;
    if claimed != len {
        return Err(CodecError::BadLen {
            what,
            len: claimed as u64,
        });
    }
    bounded_sum(words.iter().map(word), total_what)?;
    Ok(words.iter().map(word))
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

impl Mergeable for Mean {
    fn merge(&mut self, other: Self) {
        Mean::merge(self, &other);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        Mean::merge(self, &Self::decode(dec)?);
        Ok(())
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
/// Positive bins: `(0, 2^-4)`, the log-linear ones, `>= 2^13`.
const POSITIVE: usize = LOG_BINS + 2;
/// All bins: `<= 0` and the positive ones.
const BINS: usize = POSITIVE + 1;
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

/// The positive bins `lo..hi` a push into positive bin `p` grows a run
/// to cover: the whole octave `p` lies in, or `p` alone off the log
/// grid.
fn octave_of(p: usize) -> (usize, usize) {
    if p == 0 || p > LOG_BINS {
        return (p, p + 1);
    }
    let lo = ((p - 1) >> SUB_BITS << SUB_BITS) + 1;
    (lo, lo + (1 << SUB_BITS))
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
/// one holds `(0, 2^-4)` and one `>= 2^13`: 2 179 bins. An order
/// statistic is placed inside its bin as if the bin's samples were
/// evenly spread, the bin clipped to `[min, max]`; the smallest and
/// largest are `min` and `max` themselves. So a quantile is off by at
/// most the width of one bin — **0.78 % of its value** between 2^-4
/// and 2^13 Mbps — a CDF value by at most the mass of one bin, and an
/// empty, single-valued or all-zero stratum reads exactly as the sorted
/// samples would.
///
/// # What it holds
///
/// The `<= 0` count, and the positive bins as a run from a start bin,
/// as its encoding writes them: bins outside the run hold nothing. A
/// stratum from [`BinnedCdf::new`] or from a decode holds no run until
/// it sees a positive sample; a push outside the run grows it by whole
/// octaves (at most 19 times), and a merge grows it to exactly the union
/// of its run and the occupied bins merged in. One from `full_grid`
/// (what a [`crate::sweep::FigureSet::sized_for`] set holds) holds all
/// 2 178 positive counts (17 KB) from the start and never grows, so what
/// observing allocates depends on neither the samples nor their order. Equality, the encoding and every
/// read depend on the counts alone, never on how far a run reaches.
#[derive(Debug, Clone)]
pub struct BinnedCdf {
    mean: Mean,
    min: f64,
    max: f64,
    /// Samples in the `<= 0` bin.
    zeros: u64,
    /// The positive bin `run[0]` counts (grid bin `1 + start`).
    start: usize,
    run: Vec<u64>,
}

impl Default for BinnedCdf {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for BinnedCdf {
    fn eq(&self, other: &Self) -> bool {
        self.mean == other.mean
            && self.min == other.min
            && self.max == other.max
            && self.zeros == other.zeros
            && self.occupied() == other.occupied()
    }
}

impl BinnedCdf {
    /// An empty stratum, holding no run.
    pub fn new() -> Self {
        Self {
            mean: Mean::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zeros: 0,
            start: 0,
            run: Vec::new(),
        }
    }

    /// An empty stratum whose run spans every positive bin, allocated
    /// once: no push or merge grows it.
    pub(crate) fn full_grid() -> Self {
        Self {
            run: vec![0; POSITIVE],
            ..Self::new()
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
        match bin_of(value).checked_sub(1) {
            None => self.zeros += 1,
            Some(p) => match self.run.get_mut(p.wrapping_sub(self.start)) {
                Some(count) => *count += 1,
                None => self.push_outside(p),
            },
        }
    }

    /// Count a sample in positive bin `p`, which lies outside the run:
    /// grow the run by the octave `p` lies in first.
    #[cold]
    fn push_outside(&mut self, p: usize) {
        let (lo, hi) = octave_of(p);
        self.add_run(lo, (lo..hi).map(|bin| u64::from(bin == p)));
    }

    /// Fold a sibling stratum in.
    pub fn merge(&mut self, other: &Self) {
        self.mean.merge(&other.mean);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.zeros += other.zeros;
        let (first, counts) = other.occupied();
        self.add_run(first, counts.iter().copied());
    }

    /// Add `counts` to the positive bins from `first` on, growing the run
    /// to cover them first.
    fn add_run(&mut self, first: usize, counts: impl ExactSizeIterator<Item = u64>) {
        if counts.len() == 0 {
            return;
        }
        self.cover(first, first + counts.len());
        for (bin, count) in self.run[first - self.start..].iter_mut().zip(counts) {
            *bin += count;
        }
    }

    /// Grow the run to exactly the union of itself and the positive bins
    /// `lo..hi` (`lo < hi`). It grows in place (one `reserve_exact`, then
    /// a shift when it starts lower), so the old run is never held beside
    /// a copy of it.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.run.is_empty() {
            self.start = lo;
        }
        let len = self.run.len();
        let start = self.start.min(lo);
        let end = (self.start + len).max(hi);
        if end - start == len {
            return;
        }
        let front = self.start - start;
        self.run.reserve_exact(end - start - len);
        self.run.resize(end - start, 0);
        if front > 0 {
            self.run.copy_within(..len, front);
            self.run[..front].fill(0);
        }
        self.start = start;
    }

    /// The first occupied positive bin and the counts from it to the
    /// last occupied one; `(0, [])` when no positive bin is occupied.
    fn occupied(&self) -> (usize, &[u64]) {
        let Some(first) = self.run.iter().position(|&c| c > 0) else {
            return (0, &[]);
        };
        let end = self.run.iter().rposition(|&c| c > 0).map_or(first, |i| i) + 1;
        (self.start + first, &self.run[first..end])
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
        // The `k`-th smallest placed in bin `i`, which holds `count`
        // samples after the `before` in the bins below it.
        let place = |i: usize, before: u64, count: u64| {
            let (lo, hi) = self.span(i);
            lo + (hi - lo) * ((k - before) as f64 + 0.5) / count as f64
        };
        if k < self.zeros {
            return place(0, 0, self.zeros);
        }
        let mut before = self.zeros;
        for (i, &count) in self.run.iter().enumerate() {
            if k < before + count {
                return place(1 + self.start + i, before, count);
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
        let (below, count) = match bin.checked_sub(1) {
            None => (0, self.zeros),
            Some(p) => {
                let inside = p.saturating_sub(self.start).min(self.run.len());
                let run_below: u64 = self.run[..inside].iter().sum();
                let count = self.run.get(p.wrapping_sub(self.start)).copied();
                (self.zeros + run_below, count.unwrap_or(0))
            }
        };
        let (lo, hi) = self.span(bin);
        let covered = if x >= hi {
            1.0
        } else if x > lo {
            (x - lo) / (hi - lo)
        } else {
            0.0
        };
        (below as f64 + count as f64 * covered) / self.mean.n as f64
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
        enc.put_u64(self.zeros);
        let (first, counts) = self.occupied();
        enc.put_u16(first as u16);
        enc.put_u16(counts.len() as u16);
        for &count in counts {
            enc.put_u64(count);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = Self::new();
        out.merge_decoded(dec)?;
        Ok(out)
    }
}

impl Mergeable for BinnedCdf {
    fn merge(&mut self, other: Self) {
        BinnedCdf::merge(self, &other);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let mean = Mean::decode(dec)?;
        let min = dec.f64()?;
        let max = dec.f64()?;
        let zeros = dec.u64()?;
        let first = dec.u16()? as usize;
        let len = dec.u16()? as usize;
        // `encode` writes an empty run at 0 and never a run with an
        // empty bin at either end.
        if first + len > POSITIVE || (len == 0 && first != 0) {
            return Err(CodecError::BadLen {
                what: "cdf bin run",
                len: (first + len) as u64,
            });
        }
        let run = take_words(dec, len)?;
        if run.first().map(word) == Some(0) || run.last().map(word) == Some(0) {
            return Err(CodecError::BadLen {
                what: "cdf bin run with an empty end",
                len: len as u64,
            });
        }
        let counts = || std::iter::once(zeros).chain(run.iter().map(word));
        let total = bounded_sum(counts(), "cdf bin total")?;
        if total != mean.n {
            return Err(CodecError::BadLen {
                what: "cdf bin counts do not sum to the sample count",
                len: total,
            });
        }
        // An empty stratum is the one `new` builds; an occupied one has
        // min <= max (so neither is NaN), each in the outermost occupied
        // bin on its side (the run's ends are occupied).
        let consistent = match (zeros > 0, len > 0) {
            (false, false) => min == f64::INFINITY && max == f64::NEG_INFINITY,
            (any_zeros, any_run) => {
                let lowest = if any_zeros { 0 } else { 1 + first };
                let highest = if any_run { first + len } else { 0 };
                min <= max && bin_of(min) == lowest && bin_of(max) == highest
            }
        };
        if !consistent {
            return Err(CodecError::BadLen {
                what: "cdf min/max outside the occupied bins",
                len: mean.n,
            });
        }
        self.mean.merge(&mean);
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        self.zeros += zeros;
        self.add_run(first, run.iter().map(word));
        Ok(())
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

impl Mergeable for Pearson {
    fn merge(&mut self, other: Self) {
        Pearson::merge(self, &other);
    }

    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        Pearson::merge(self, &Self::decode(dec)?);
        Ok(())
    }
}

/// Bytes a [`Dense`] table grows by at a time.
const STEP_BYTES: usize = 8 << 10;

/// A table indexed by a small dense id — a city — grown to the highest
/// id seen. Memory is **O(largest id)**, not O(ids seen): it is for ids
/// that are dense by construction.
///
/// It grows in fixed steps with `reserve_exact`, so its final size is a
/// function of the largest id, and it encodes without its trailing
/// empty rows, so its bytes are a function of its content alone. What
/// the growth steps allocate on the way depends on the order ids arrive
/// in; a table sized once with `Dense::with_rows` allocates once.
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

    /// A table of `rows` empty rows, allocated once: ids below `rows`
    /// never grow it.
    pub(crate) fn with_rows(rows: usize) -> Self {
        Self {
            rows: vec![T::default(); rows],
        }
    }

    fn grow(&mut self, len: usize) {
        if len > self.rows.len() {
            let len = len.div_ceil(Self::STEP) * Self::STEP;
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
}

impl<T: Default + Clone + PartialEq + Codec + Mergeable> Dense<T> {
    /// Fold a sibling table in, row by row.
    pub fn merge(&mut self, other: Self) {
        self.grow(other.rows.len());
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows) {
            mine.merge(theirs);
        }
    }

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

    /// Fold in the encoding of a table of at most `cap` rows, row by row
    /// (see [`Mergeable`]). A longer claim, or a claim the remaining
    /// bytes cannot hold, is rejected before anything is allocated for
    /// it; a trailing empty row (which `encode` never writes) after the
    /// rows before it are merged, so on an error the table is dropped.
    pub fn merge_decoded_capped(
        &mut self,
        dec: &mut Dec<'_>,
        cap: usize,
        what: &'static str,
    ) -> Result<(), CodecError> {
        let len = dec.u32()? as usize;
        let bad = CodecError::BadLen {
            what,
            len: len as u64,
        };
        if len > cap || len > dec.remaining() {
            return Err(bad);
        }
        self.grow(len);
        let Some((last, rows)) = self.rows[..len].split_last_mut() else {
            return Ok(());
        };
        for row in rows {
            row.merge_decoded(dec)?;
        }
        // Encodings are canonical: the last row's bytes are the empty
        // row's exactly when it decodes to the empty row.
        let theirs = T::decode(dec)?;
        if theirs == T::default() {
            return Err(bad);
        }
        last.merge(theirs);
        Ok(())
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
/// in (the small page index grows with the largest id so far, unless
/// `IdBitmap::for_ids` sized it). Memory is **O(largest id)** for the
/// ids it is used for — base stations, APs and cities are drawn densely
/// below their population size, so every page up to the largest id
/// fills: 1 MB per 8.4 M of id range, whatever the number of ids seen
/// (559 KB + 255 KB under paper-china).
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

    /// An empty set whose page index is allocated once for ids
    /// `0..ids`: inserting them never grows it.
    pub(crate) fn for_ids(ids: u32) -> Self {
        Self {
            pages: Vec::with_capacity((ids as usize).div_ceil(PAGE_WORDS * 64)),
        }
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

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = Self::new();
        out.merge_decoded(dec)?;
        Ok(out)
    }
}

impl Mergeable for IdBitmap {
    /// Fold a sibling set in: pages both sets hold are OR-ed, pages
    /// only `other` holds move over as they are, without a copy.
    fn merge(&mut self, other: Self) {
        if other.pages.len() > self.pages.len() {
            self.pages
                .reserve_exact(other.pages.len() - self.pages.len());
            self.pages.resize(other.pages.len(), None);
        }
        for (mine, theirs) in self.pages.iter_mut().zip(other.pages) {
            match (mine, theirs) {
                (Some(mine), Some(theirs)) => {
                    for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                        *a |= b;
                    }
                }
                (mine @ None, theirs) => *mine = theirs,
                (Some(_), None) => {}
            }
        }
    }

    /// A claim past the id range, a claim the remaining bytes cannot
    /// hold, or a trailing zero word (which `encode` never writes) is
    /// rejected; pages are allocated only for words that hold a bit and
    /// land on a page this set does not have yet. The words are read a
    /// page at a time, so the last word is checked after the pages
    /// before it are ORed in.
    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let len = dec.u32()? as usize;
        let bad = CodecError::BadLen {
            what: "id bitmap words",
            len: len as u64,
        };
        if len > BITMAP_WORDS_CAP || len > dec.remaining() / 8 {
            return Err(bad);
        }
        let pages = len.div_ceil(PAGE_WORDS);
        if pages > self.pages.len() {
            self.pages.reserve_exact(pages - self.pages.len());
            self.pages.resize(pages, None);
        }
        for (i, page) in self.pages[..pages].iter_mut().enumerate() {
            let theirs = take_words(dec, PAGE_WORDS.min(len - i * PAGE_WORDS))?;
            if i + 1 == pages && theirs.last().map(word) == Some(0) {
                return Err(bad);
            }
            if theirs.iter().all(|w| word(w) == 0) {
                continue;
            }
            let page = page.get_or_insert_with(|| Box::new(EMPTY_PAGE));
            for (mine, theirs) in page.iter_mut().zip(theirs) {
                *mine |= word(theirs);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_stats::descriptive;
    use proptest::prelude::*;

    fn cdf_of(values: &[f64]) -> BinnedCdf {
        let mut cdf = BinnedCdf::new();
        for &v in values {
            cdf.push(Sample::new(v));
        }
        cdf
    }

    /// A table of at most `cap` rows, decoded from `bytes`.
    fn table_from(bytes: &[u8], cap: usize) -> Result<Dense<Mean>, CodecError> {
        let mut table = Dense::new();
        table.merge_decoded_capped(&mut Dec::new(bytes), cap, "rows")?;
        Ok(table)
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
        let heaviest =
            *cdf.run.iter().chain([&cdf.zeros]).max().unwrap() as f64 / values.len() as f64;
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
        merged.merge(set.clone());
        set.merge(other);
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
        let back = table_from(&enc.into_bytes(), rows);
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
            bounded_sum([COUNT_MAX, 1].into_iter(), "bins"),
            "a total past the bound",
        );
        bad_len(
            bounded_sum([u64::MAX, u64::MAX].into_iter(), "bins"),
            "a wrapping total",
        );
        assert_eq!(bounded_sum([1, 2, 3].into_iter(), "bins").unwrap(), 6);
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
    fn a_bitmap_read_a_page_at_a_time_rejects_a_zero_last_word() {
        // The last word sits on a later page than the bits, on a page
        // part full and on one exactly full.
        for len in [PAGE_WORDS + 3, 2 * PAGE_WORDS] {
            let mut enc = Enc::new();
            enc.put_u32(len as u32);
            for i in 0..len {
                enc.put_u64(u64::from(i == 7));
            }
            bad_len(IdBitmap::from_bytes(&enc.into_bytes()), "zero last word");
        }
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
            table_from(&enc.into_bytes(), cap)
        };
        let one = mean_of(&[2.5]);
        assert!(rows(&[Mean::default(), one], 2).is_ok());
        bad_len(rows(&[one, one, one], 2), "past its cap");
        bad_len(rows(&[one, Mean::default()], 2), "trailing empty row");
        let mut enc = Enc::new();
        enc.put_u32(1 << 20);
        bad_len(
            table_from(&enc.into_bytes(), 1 << 24),
            "longer than the input",
        );
    }

    /// A value in any bin: `<= 0` (NaN among them), `(0, 2^-4)`, the log
    /// grid and `>= 2^13`, its edges included.
    fn any_bin_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-10.0f64..16.0).prop_map(f64::exp2),
            -50.0f64..0.0,
            Just(0.0),
            Just(f64::NAN),
            Just(log_edge(0)),
            Just(log_edge(LOG_BINS)),
            Just(f64::MIN_POSITIVE),
        ]
    }

    /// A stratum's samples: any, a few octaves of the grid as a
    /// bandwidth stratum spans them, one value repeated, or zeros only;
    /// empty among each.
    fn population() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec(any_bin_value(), 0..300),
            proptest::collection::vec((0.0f64..5.0).prop_map(|e| 20.0 * e.exp2()), 0..300),
            (any_bin_value(), 0..40usize).prop_map(|(v, n)| vec![v; n]),
            (0..40usize).prop_map(|n| vec![0.0; n]),
        ]
    }

    /// `values` shuffled by `seed`.
    fn shuffled(values: &[f64], mut seed: u64) -> Vec<f64> {
        let mut out = values.to_vec();
        for i in (1..out.len()).rev() {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            out.swap(i, (seed >> 33) as usize % (i + 1));
        }
        out
    }

    /// `into` with `values` pushed.
    fn pushed(mut into: BinnedCdf, values: &[f64]) -> BinnedCdf {
        for &v in values {
            into.push(Sample::new(v));
        }
        into
    }

    /// Everything a stratum of `values` reads out, as bits: the CDF is
    /// probed at fixed points and at and either side of every sample, so
    /// the bins next to each occupied one are read too.
    fn reads(cdf: &BinnedCdf, values: &[f64]) -> Vec<u64> {
        let mut out = vec![
            cdf.len() as u64,
            cdf.mean().to_bits(),
            cdf.min.to_bits(),
            cdf.max().to_bits(),
            cdf.median().to_bits(),
        ];
        for i in 0..=40 {
            out.push(cdf.quantile(f64::from(i) / 40.0).to_bits());
        }
        let probes = [-1.0, 0.0, 1e-3, log_edge(0), 0.5, 10.0, 300.0, 8192.0, 1e5];
        let near = values.iter().flat_map(|&v| [v, v * 0.995, v * 1.005]);
        for x in probes.into_iter().chain([cdf.min, cdf.max]).chain(near) {
            out.push(cdf.eval(x).to_bits());
        }
        for (x, f) in cdf.series(20) {
            out.extend([x.to_bits(), f.to_bits()]);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A stratum that grows its run as samples arrive and one that
        /// holds the full grid from the start, fed the same samples in
        /// any order and split and merged either way, are one stratum:
        /// equal, the same bytes and the same reads, bit for bit.
        #[test]
        fn a_lazy_and_a_full_grid_stratum_are_one_stratum(
            values in population(),
            seed in any::<u64>(),
            at in any::<proptest::sample::Index>(),
        ) {
            let whole = pushed(BinnedCdf::full_grid(), &values);
            let order = shuffled(&values, seed);
            let (left, right) = order.split_at(at.index(order.len() + 1));
            let mut strata = Vec::new();
            for (into, from) in [
                (BinnedCdf::new(), BinnedCdf::new()),
                (BinnedCdf::new(), BinnedCdf::full_grid()),
                (BinnedCdf::full_grid(), BinnedCdf::new()),
                (BinnedCdf::full_grid(), BinnedCdf::full_grid()),
            ] {
                let (into, from) = (pushed(into, left), pushed(from, right));
                let mut merged = into.clone();
                merged.merge(&from);
                let mut decoded = into;
                let bytes = from.to_bytes();
                let mut dec = Dec::new(&bytes);
                decoded.merge_decoded(&mut dec).unwrap();
                prop_assert!(dec.is_done());
                strata.extend([merged, decoded]);
            }
            strata.push(pushed(BinnedCdf::new(), &order));
            strata.push(BinnedCdf::from_bytes(&whole.to_bytes()).unwrap());
            for stratum in &strata {
                prop_assert!(*stratum == whole);
                prop_assert_eq!(stratum.to_bytes(), whole.to_bytes());
                prop_assert_eq!(reads(stratum, &values), reads(&whole, &values));
            }
        }
    }

    #[test]
    fn a_pushed_run_grows_by_whole_octaves_and_a_merged_one_exactly() {
        let mut cdf = BinnedCdf::new();
        assert_eq!(cdf.run.capacity(), 0);
        cdf.push(Sample::new(0.0));
        assert_eq!(cdf.run.capacity(), 0, "a zero grows no run");
        cdf.push(Sample::new(1.5));
        assert_eq!(
            (cdf.start, cdf.run.len()),
            (1 + (4 << SUB_BITS), 1 << SUB_BITS)
        );
        cdf.push(Sample::new(1.9));
        assert_eq!(cdf.run.len(), 1 << SUB_BITS, "the octave already holds it");
        cdf.push(Sample::new(9000.0));
        assert_eq!(cdf.start + cdf.run.len(), POSITIVE);

        let mut merged = BinnedCdf::new();
        merged.merge(&pushed(BinnedCdf::full_grid(), &[3.0, 7.0]));
        let (first, len) = (merged.occupied().0, merged.occupied().1.len());
        assert_eq!((merged.start, merged.run.len()), (first, len));
        assert_eq!(merged.run.capacity(), len);
        merged.merge(&pushed(BinnedCdf::new(), &[0.01]));
        assert_eq!((merged.start, merged.run.capacity()), (0, first + len));
    }
}
