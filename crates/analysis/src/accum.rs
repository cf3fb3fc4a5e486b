//! The single-pass figure-accumulator framework.
//!
//! Every figure in this crate is expressed as a [`FigureAccumulator`]:
//! a small state machine that folds one [`RecordView`] at a time
//! (`observe`), combines with a sibling that consumed a later shard of
//! the population (`merge`), and produces the finished figure
//! (`finish`). [`crate::sweep::FigureSet`] holds one of each and the
//! streaming engine ([`mod@crate::stream`]) folds them all in one pass;
//! [`run`] folds a single accumulator over a slice, which is how a
//! figure is computed (and tested) on its own.
//!
//! ## Determinism contract
//!
//! `merge` must behave as if `other`'s records had been observed after
//! `self`'s, in order. Accumulators therefore collect per-stratum
//! sample vectors (concatenated on merge) and defer every
//! floating-point reduction to `finish`, which sees the same samples in
//! the same order however the population was split. Counters and hash
//! sets are order-independent and may fold eagerly.

use mbw_dataset::{AccessTech, Isp, RecordView, TestRecord};

/// A mergeable single-pass figure computation over records of type `R`.
///
/// The measurement figures in this crate consume [`RecordView`]s; the
/// evaluation figures in `mbw-bench` implement the same contract over
/// campaign trial views, so both halves of the paper share one
/// plan → execute → reduce shape.
pub trait FigureAccumulator<R: ?Sized>: Sized + Send {
    /// The finished figure produced by [`FigureAccumulator::finish`].
    type Output;

    /// Fold one record into the accumulator.
    fn observe(&mut self, r: &R);

    /// Fold in a sibling accumulator whose records come *after* this
    /// accumulator's records in population order.
    fn merge(&mut self, other: Self);

    /// Produce the finished figure.
    fn finish(self) -> Self::Output;
}

/// Fold one accumulator over a row-major population and finish it.
pub fn run<A, O>(mut acc: A, records: &[TestRecord]) -> O
where
    A: for<'a> FigureAccumulator<RecordView<'a>, Output = O>,
{
    for r in records {
        acc.observe(&RecordView::from(r));
    }
    acc.finish()
}

/// Decode a `Vec<Vec<f64>>` whose outer length is an accumulator
/// invariant (one inner vector per band/stratum/variant), rejecting any
/// other outer length — a merge that zips slots would silently drop
/// samples otherwise.
pub fn decode_fixed_outer(
    dec: &mut mbw_frame::Dec<'_>,
    expected: usize,
    what: &'static str,
) -> Result<Vec<Vec<f64>>, mbw_frame::CodecError> {
    let outer: Vec<Vec<f64>> = mbw_frame::Codec::decode(dec)?;
    if outer.len() != expected {
        return Err(mbw_frame::CodecError::BadLen {
            what,
            len: outer.len() as u64,
        });
    }
    Ok(outer)
}

/// Stable index of a technology among the figure triplet 4G/5G/WiFi,
/// or `None` for 3G (which most figures exclude).
pub fn tech3_index(tech: AccessTech) -> Option<usize> {
    match tech {
        AccessTech::Cellular4g => Some(0),
        AccessTech::Cellular5g => Some(1),
        AccessTech::Wifi => Some(2),
        AccessTech::Cellular3g => None,
    }
}

/// The triplet order used by [`tech3_index`].
pub const TECH3: [AccessTech; 3] = [
    AccessTech::Cellular4g,
    AccessTech::Cellular5g,
    AccessTech::Wifi,
];

/// Stable index of an ISP in [`Isp::ALL`] order.
pub fn isp_index(isp: Isp) -> usize {
    match isp {
        Isp::Isp1 => 0,
        Isp::Isp2 => 1,
        Isp::Isp3 => 2,
        Isp::Isp4 => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech3_index_matches_order() {
        for (i, &t) in TECH3.iter().enumerate() {
            assert_eq!(tech3_index(t), Some(i));
        }
        assert_eq!(tech3_index(AccessTech::Cellular3g), None);
    }

    #[test]
    fn isp_index_matches_all_order() {
        for (i, &isp) in Isp::ALL.iter().enumerate() {
            assert_eq!(isp_index(isp), i);
        }
    }
}
