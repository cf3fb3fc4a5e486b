//! The modules of `crates/bench` that build without tokio and criterion
//! (the eval sweep, the distributed plan/execute/reduce pipeline and
//! the figure accumulators they use), compiled from the repository's
//! own files. `build.rs` derives the list from
//! `crates/bench/src/lib.rs`; see `../modlist.rs`. The socket load
//! harness (`load`) is the module left out.

include!(concat!(env!("OUT_DIR"), "/modules.rs"));
