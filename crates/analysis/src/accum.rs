//! The single-pass figure-accumulator framework.
//!
//! Every figure in this crate is expressed as a [`FigureAccumulator`]:
//! a small state machine that folds one [`TestRecord`] at a time
//! (`observe`) and produces the finished figure (`finish`).
//! [`crate::sweep::FigureSet`] holds one of each and the streaming
//! engine ([`mod@crate::stream`]) folds them all in one pass; [`run`]
//! folds a single accumulator over a slice, which is how a figure is
//! computed (and tested) on its own.
//!
//! An accumulator's state is [`Mergeable`]: it combines with a sibling
//! that consumed another shard of the population, in memory or straight
//! from the sibling's encoding. Nobody writes that by hand. Each
//! accumulator names its fields once, in encode order, in a
//! [`mergeable!`](crate::mergeable) declaration, and the declaration
//! generates its `encode`, `decode`, `merge` and `merge_decoded` field
//! by field, from the summaries of [`crate::summary`]. A field left out
//! of the declaration does not compile, and the fields that say which
//! figure an accumulator is (its tags) are compared on every merge.
//!
//! ## Determinism contract
//!
//! One merge rule holds for every accumulator, measurement and
//! evaluation alike: `merge` is commutative and associative, and merging
//! the accumulators of any split of the input, in any order, finishes to
//! the same bits as one accumulator that observed all of it. So neither
//! a thread count nor a distributed split can move a figure. What an
//! accumulator keeps follows from what its figure prints:
//!
//! | a figure prints | it keeps | its merge |
//! |---|---|---|
//! | a mean | [`crate::summary::Mean`] | integer addition |
//! | a fraction | an integer count | integer addition |
//! | a measurement median or CDF | [`crate::summary::BinnedCdf`] | integer addition, `min`, `max` |
//! | a distinct-id count | [`crate::summary::IdBitmap`] | OR |
//! | an order statistic over a few hundred trials | the samples, sorted before they are read | concatenation |
//!
//! No accumulator keeps a floating-point partial result: floating point
//! enters only in `finish`, which reads the same integers (or the same
//! sorted samples) however the input was split.

use crate::summary::Mergeable;
use mbw_dataset::{AccessTech, Isp, TestRecord};

/// A mergeable single-pass figure computation over records of type `R`.
///
/// The measurement figures in this crate consume [`TestRecord`]s; the
/// evaluation figures in `mbw-bench` implement the same contract over
/// campaign trial views, so both halves of the paper share one
/// plan → execute → reduce shape. Its [`Mergeable`] state merges a
/// sibling that observed another part of the input, commutatively and
/// associatively: any split, merged in any order, finishes to the same
/// bits. `merge_decoded` merges the sibling from its encoding, field by
/// field and with each field's checks, so no decoded copy of it is ever
/// built; on an error `self` may be partly merged, and the caller drops
/// it.
pub trait FigureAccumulator<R: ?Sized>: Mergeable + Send {
    /// The finished figure produced by [`FigureAccumulator::finish`].
    type Output;

    /// Fold one record into the accumulator.
    fn observe(&mut self, r: &R);

    /// Produce the finished figure.
    fn finish(self) -> Self::Output;
}

/// Fold one accumulator over a row-major population and finish it.
pub fn run<A, O>(mut acc: A, records: &[TestRecord]) -> O
where
    A: FigureAccumulator<TestRecord, Output = O>,
{
    for r in records {
        acc.observe(r);
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
