#![warn(missing_docs)]
//! Analysis pipeline: every measurement figure and table of the paper.
//!
//! Each figure is a [`accum::FigureAccumulator`]: it folds one
//! [`mbw_dataset::RecordView`] at a time, merges with a sibling that saw
//! a later part of the population, and finishes into a typed figure
//! struct that implements [`Render`]. [`sweep::FigureSet`] holds one
//! accumulator per figure, and [`stream::stream_figures_cached`] is the
//! one measurement pipeline: per-shard generation feeds per-worker
//! figure sets, merged by integer addition — deterministic results,
//! independent of thread count, split and merge order, with no
//! materialised population and no stored sample: a set's state is about
//! 1 MB whatever the record count.
//! The module names follow the paper's figure numbers:
//!
//! | module | contents |
//! |---|---|
//! | [`overview`] | Fig 1 (year-over-year means), Fig 2 (Android version), Fig 3 (ISP) |
//! | [`cellular`] | Fig 4–6 (4G CDF + LTE bands), Fig 7–9 (5G CDF + NR bands), Fig 10 (diurnal), Fig 11–12 (RSS) |
//! | [`wifi`] | Fig 13–15 (WiFi CDFs by standard and radio band) |
//! | [`pdfs`] | Fig 16 / 18 / 19 (multi-modal PDFs + GMM fits) |
//! | [`general`] | §3.1 prose statistics (spatial disparity, urban/rural gaps) |
//! | [`tables`] | Tables 1–2 rendering |
//! | [`robustness`] | test-outcome (complete/degraded/failed) rates per technology |
//! | [`accum`] | the [`accum::FigureAccumulator`] trait behind every figure |
//! | [`summary`] | the bounded, integer-exact summaries every accumulator's state is built from |
//! | [`mod@sweep`] | [`sweep::FigureSet`]: every figure's accumulator, folded, merged and finished together |
//! | [`mod@stream`] | the streaming generate→analyze engine: no materialised population |
//! | [`compare`] | cross-ecosystem comparison reports over multiple profiles |
//! | [`fitcache`] | memoized GMM fits keyed by accumulator content |

pub mod accum;
pub mod cellular;
pub mod compare;
pub mod devices;
pub mod fitcache;
pub mod general;
pub mod overview;
pub mod pdfs;
pub mod robustness;
pub mod stream;
pub mod summary;
pub mod sweep;
pub mod tables;
pub mod wifi;

pub use accum::FigureAccumulator;
pub use compare::{comparison_report, comparison_section, ProfileFigures};
pub use fitcache::{FitCache, FitCacheError};
pub use stream::{stream_figures_cached, stream_partial, stream_unit_count, StreamTimings};
pub use sweep::{FigureSet, FinishOptions, FinishStats, MeasurementFigures};

/// A rendered text table: the common output shape of every figure.
pub trait Render {
    /// Human-readable rows, in the paper's plotting order.
    fn render(&self) -> String;
}
