//! The two kinds of run.
//!
//! **Gated run** (`--trace 0`): one set-up, then timed passes for the
//! whole window with a from-scratch set-up before every fourth, then
//! one untimed pass under the counting allocator. Noise on a shared
//! vCPU is additive, so the statistic that repeats is the *minimum*
//! pass wall; median and the high percentile are reported beside it as
//! `harness.*` rows with the sample count.
//!
//! **Traced run** (`--trace 1`): the layer kernels, then the window
//! alternates the opaque pass with the composed pass under the span
//! recorder. Each composed pass is compared with the opaque pass just
//! before it, which saw the same machine: the median of those ratios is
//! the tracing overhead. The fastest composed pass gives self time per
//! layer and is written out as Chrome trace JSON.

use crate::alloc;
use crate::report::Row;
use crate::span::{self, Layer, Recorder, Span};
use crate::sys;
use crate::workload::{PassOut, Workload};
use std::time::{Duration, Instant};

/// A from-scratch set-up is sampled before every this-many passes.
const SETUP_EVERY: usize = 4;
/// Whatever the arguments ask, a run stops measuring after this long,
/// so it always ends well inside the driver's 180 s.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Spans one composed pass may record without growing the buffer.
const SPAN_CAPACITY: usize = 1 << 16;

/// Passes attempted, passes failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    reference: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Judge one pass: it fails if it broke an invariant or its digest
    /// differs from the first pass's.
    fn judge(&mut self, what: &str, out: &PassOut) {
        self.attempted += 1;
        let reference = *self.reference.get_or_insert(out.digest);
        if let Some(broken) = &out.broken {
            self.fail(format!("{what}: {broken}"));
        } else if out.digest != reference {
            self.fail(format!(
                "{what}: digest {:#018x} differs from pass 0's {reference:#018x}",
                out.digest
            ));
        }
    }

    /// Judge one run-level invariant.
    fn check(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("invariant broken: {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(median, high)` of the samples: `high` is the highest percentile
/// that still has ten samples beyond it (the maximum under 11 samples).
fn median_and_high(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[n / 2], sorted[if n > 10 { n - 11 } else { n - 1 }])
}

/// Timed passes of one window and the readings taken around them.
#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    items: u64,
}

impl Passes {
    fn run(&mut self, tally: &mut Tally, workload: &mut dyn Workload) {
        let cpu = sys::cpu_ns();
        let (out, wall) = timed(|| workload.pass());
        self.cpu_s.push((sys::cpu_ns() - cpu) as f64 * 1e-9);
        self.wall_s.push(wall);
        self.items = out.items;
        tally.judge(&format!("pass {}", self.wall_s.len()), &out);
    }

    /// The `harness.*` rows: how quiet the run was.
    fn rows(&self, heap: alloc::HeapCounts, steal_pct: f64) -> Vec<Row> {
        let min = minimum(&self.wall_s);
        let (p50, high) = median_and_high(&self.wall_s);
        let (cpu_p50, _) = median_and_high(&self.cpu_s);
        vec![
            Row::new("harness.passes", "count", self.wall_s.len() as f64),
            Row::new("harness.pass_s_p50", "s", p50),
            Row::new("harness.pass_s_hi", "s", high),
            Row::new("harness.cpu_s_per_pass", "s", cpu_p50),
            Row::new(
                "harness.peak_rss_mb",
                "MB",
                sys::peak_rss_bytes() as f64 / 1e6,
            ),
            Row::new("harness.allocs_per_pass", "count", heap.requests as f64),
            Row::new("harness.steal_pct", "%", steal_pct),
            Row::new("harness.noise_ratio", "ratio", p50 / min),
        ]
    }
}

/// What a run hands back to `main`.
pub struct RunReport {
    pub tally: Tally,
    /// The rows the JSON line carries.
    pub metrics: Vec<Row>,
    /// Further rows printed for people only.
    pub context: Vec<Row>,
    /// Chrome trace JSON, for the traced run.
    pub trace_json: Option<String>,
    /// One line on what the traced pass showed.
    pub summary: String,
}

fn window_open(started: Instant, seconds: f64, passes: usize, min_passes: usize) -> bool {
    let elapsed = started.elapsed();
    elapsed < HARD_CAP && (elapsed.as_secs_f64() < seconds || passes < min_passes)
}

fn account_and_verify(tally: &mut Tally, workload: &mut dyn Workload) -> alloc::HeapCounts {
    let (out, heap) = alloc::account(|| workload.pass());
    tally.judge("accounting pass", &out);
    for (what, ok) in workload.verify() {
        tally.check(what, ok);
    }
    heap
}

/// The gated run.
pub fn gated(workload: &mut dyn Workload, seconds: f64, min_passes: usize) -> RunReport {
    let steal = sys::steal_jiffies();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut passes = Passes::default();

    let (cold, wall) = timed(|| workload.setup());
    setup_s.push(wall);
    tally.judge("set-up", &cold);

    let started = Instant::now();
    while window_open(started, seconds, passes.wall_s.len(), min_passes) {
        let n = passes.wall_s.len();
        if n > 0 && n % SETUP_EVERY == 0 {
            let (cold, wall) = timed(|| workload.setup());
            setup_s.push(wall);
            tally.judge("set-up", &cold);
        }
        passes.run(&mut tally, workload);
    }
    let heap = account_and_verify(&mut tally, workload);

    let min = minimum(&passes.wall_s);
    let mut context = passes.rows(heap, sys::steal_pct(steal, sys::steal_jiffies()));
    context.push(Row::new("harness.setups", "count", setup_s.len() as f64));
    context.push(Row::new(
        "harness.items_per_s",
        "1/s",
        passes.items as f64 / min,
    ));
    RunReport {
        tally,
        metrics: vec![
            Row::new("pass_s_min", "s", min),
            Row::new("setup_s", "s", minimum(&setup_s)),
            Row::new("peak_heap_mb", "MB", heap.peak_bytes as f64 / 1e6),
            Row::new("alloc_mb_per_pass", "MB", heap.requested_bytes as f64 / 1e6),
        ],
        context,
        trace_json: None,
        summary: String::new(),
    }
}

/// The traced run. `kernels` produces the layer rows and records its
/// repetitions on the recorder it is given.
pub fn traced(
    workload: &mut dyn Workload,
    seconds: f64,
    min_passes: usize,
    kernels: impl FnOnce(&mut Recorder) -> Vec<Row>,
) -> RunReport {
    let run_started = Instant::now();
    let steal = sys::steal_jiffies();
    let mut tally = Tally::default();

    let mut kernel_rec = Recorder::on(1 << 10);
    let mut metrics = kernels(&mut kernel_rec);
    let kernel_spans = kernel_rec.take();
    let kernels_s = run_started.elapsed().as_secs_f64();

    let cold = workload.setup();
    tally.judge("set-up", &cold);

    let mut passes = Passes::default();
    let mut rec = Recorder::on(SPAN_CAPACITY);
    let mut composed_s = Vec::new();
    let mut best: Option<(f64, Vec<Span>)> = None;
    // The kernels have used part of the run's seconds already.
    let seconds = (seconds - run_started.elapsed().as_secs_f64()).max(1.0);
    let started = Instant::now();
    while window_open(started, seconds, composed_s.len(), min_passes.div_ceil(2)) {
        passes.run(&mut tally, workload);
        rec.set_pass(composed_s.len() as u32);
        let (out, wall) = timed(|| workload.composed(&mut rec));
        tally.judge(&format!("composed pass {}", composed_s.len() + 1), &out);
        composed_s.push(wall);
        let spans = rec.take();
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, spans));
        }
    }
    let heap = account_and_verify(&mut tally, workload);

    let (_, best_spans) = best.unwrap_or_default();
    let profile = span::profile(&best_spans);
    let (dominant, dominant_s) = profile.dominant();
    let ratios: Vec<f64> = composed_s
        .iter()
        .zip(&passes.wall_s)
        .map(|(composed, opaque)| composed / opaque)
        .collect();
    let overhead_pct = 100.0 * (median_and_high(&ratios).0 - 1.0);

    metrics.extend(passes.rows(heap, sys::steal_pct(steal, sys::steal_jiffies())));
    metrics.push(Row::new("trace.coverage", "ratio", profile.coverage));
    metrics.push(Row::new("trace.overhead_pct", "%", overhead_pct));
    for (layer, self_s) in Layer::ALL.iter().zip(profile.self_s) {
        metrics.push(Row::new(
            &format!("trace.self_s.{}", layer.name()),
            "s",
            self_s,
        ));
    }
    let summary = format!(
        "layer kernels took {kernels_s:.1} s; traced pass: {:.4} s, coverage {:.3}, overhead {overhead_pct:+.2} %, dominant layer {} ({:.1} % of the pass)",
        profile.root_s,
        profile.coverage,
        dominant.name(),
        100.0 * dominant_s / profile.root_s.max(1e-12),
    );
    RunReport {
        tally,
        metrics,
        context: Vec::new(),
        trace_json: Some(span::chrome_json(&[
            ("fastest composed pass", &best_spans),
            ("layer kernels", &kernel_spans),
        ])),
        summary,
    }
}
