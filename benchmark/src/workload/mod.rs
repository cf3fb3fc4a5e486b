//! The four workloads. Each one is a [`Workload`]: a from-scratch
//! set-up, an opaque pass through the repository's public entry points,
//! and the same pass composed from the public calls of each layer with
//! a span around every call.

use crate::span::Recorder;
use mbw_analysis::sweep::SWEEP_IDS;
use mbw_analysis::MeasurementFigures;
use mbw_bench::eval_sweep::{EvalFigures, EVAL_SWEEP_IDS};
use std::path::Path;

pub mod eval_campaign;
pub mod measure_stream;
pub mod service_load;
pub mod shard_reduce;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "measure_stream",
    "eval_campaign",
    "shard_reduce",
    "service_load",
];

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// FNV-1a over everything the pass rendered or replayed. Every pass
    /// of a run must produce the digest of pass 0.
    pub digest: u64,
    /// Records, trials or sessions the pass processed.
    pub items: u64,
    /// The first invariant the pass broke, if any.
    pub broken: Option<String>,
}

impl PassOut {
    /// A pass output from rendered text and an invariant check.
    pub fn new(text: &str, items: u64, check: Result<(), String>) -> Self {
        PassOut {
            digest: mbw_frame::fnv1a64(text.as_bytes()),
            items,
            broken: check.err(),
        }
    }
}

/// One benchmark workload. Every pass of one instance uses the same
/// seed and therefore does the same work.
pub trait Workload {
    /// Everything a fresh process does before its first warm pass,
    /// ending with one cold pass (whose output is returned). Called
    /// again throughout the window to sample set-up time; it must drop
    /// whatever the previous call built.
    fn setup(&mut self) -> PassOut;

    /// One warm pass through the public entry points.
    fn pass(&mut self) -> PassOut;

    /// The same pass composed from each layer's public calls, a span
    /// around each. Must produce [`Workload::pass`]'s digest.
    fn composed(&mut self, rec: &mut Recorder) -> PassOut;

    /// Run-level invariants checked once after the window, each with a
    /// description.
    fn verify(&mut self) -> Vec<(String, bool)>;
}

/// Build a workload by name. `scratch` is a directory of the run's own
/// (inside the checkout) for the workloads that write files.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "measure_stream" => Box::new(measure_stream::MeasureStream::new(seed)),
        "eval_campaign" => Box::new(eval_campaign::EvalCampaign::new(seed)),
        "shard_reduce" => Box::new(shard_reduce::ShardReduce::new(seed, scratch)),
        "service_load" => Box::new(service_load::ServiceLoad::new(
            seed,
            scratch,
            service_load::SESSIONS,
        )),
        _ => return None,
    })
}

/// All 24 measurement figures as one text.
pub fn measurement_text(figures: &MeasurementFigures) -> String {
    let mut text = String::new();
    for id in SWEEP_IDS {
        text.push_str(&figures.render(id).expect("SWEEP_IDS are all served"));
    }
    text
}

/// All 12 evaluation figures as one text; a figure the pool planned no
/// trials for renders as its typed error.
pub fn eval_text(figures: &EvalFigures) -> String {
    let mut text = String::new();
    for id in EVAL_SWEEP_IDS {
        match figures.render(id).expect("EVAL_SWEEP_IDS are all served") {
            Ok(body) => text.push_str(&body),
            Err(e) => text.push_str(&format!("{id}: {e}\n")),
        }
    }
    text
}
