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
//! `merge` must be commutative and associative, and merging the
//! accumulators of any split of a population must give the state one
//! accumulator reaches observing all of it. Accumulators therefore keep
//! no sample and no floating-point partial result: their state is built
//! from the integer-exact summaries of [`crate::summary`] (counts,
//! fixed-point sums, min/max, bin counts, id bitmaps), whose merges are
//! integer addition, `min`, `max` and OR. Floating point enters only in
//! `finish`, which reads the same integers however the population was
//! split, in whatever order the parts were merged.

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

    /// Fold in a sibling accumulator that observed another part of the
    /// population. The measurement accumulators of this crate merge in
    /// any order; the evaluation accumulators in `mbw-bench` still
    /// require `other`'s records to come *after* this accumulator's.
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
