#![warn(missing_docs)]
//! Experiment drivers behind the `figures` binary.
//!
//! The paper implies two runs, and each has one implementation. The
//! measurement figures (Tables 1–2, Figs 1–16, 18–19) come from
//! `mbw_analysis::stream_figures_cached`, which the binary calls
//! directly. The evaluation figures come from one plan → execute →
//! reduce campaign ([`eval_sweep`]); the modules below hold the trial
//! series each figure plans (`plan_*`) and the accumulator that reduces
//! it. The per-experiment index in DESIGN.md maps figure ids to them.
//!
//! - [`fig17`] — the TCP slow-start/saturation sweep (Cubic/Reno/BBR).
//! - [`bts_eval`] — Figs 20–25: Swiftest vs BTS-APP / FAST / FastBTS.
//! - [`deploy_eval`] — Fig 26 and the §5.3 infrastructure-cost result.
//! - [`ablation`] — the design-choice ablations listed in DESIGN.md.
//! - [`eval_sweep`] — the fused plan → execute → reduce campaign that
//!   produces every evaluation figure in one pass over a shared
//!   [`mbw_core::TrialPool`].
//! - [`distributed`] — the multi-process form of the same pipeline:
//!   shard plans, serializable partial-state snapshots, and a reducer
//!   that merges k part files byte-identically to a single-process run.
//! - [`load`] — the Swiftest-as-a-service load harness: tens of
//!   thousands of virtual clients through the real admission
//!   controller, plus a real-socket chaos soak, reported as
//!   `BENCH_service.json`.

pub mod ablation;
pub mod bts_eval;
pub mod collection;
pub mod deploy_eval;
pub mod distributed;
pub mod eval_sweep;
pub mod fig17;
pub mod load;
