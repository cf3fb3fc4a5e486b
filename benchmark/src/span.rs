//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each crate's public functions (spans inside the program are a later
//! change). A span has a layer (the crate it calls into), a name, start
//! and end, its parent and the pass it belongs to. They are kept in
//! memory and written as Chrome trace-event JSON when the run ends.
//!
//! A layer's *self time* is its spans' duration minus the part their
//! child spans cover. Per-event calls that would cost more to time than
//! to run (one admission decision is ~100 ns) are *sampled*: every
//! [`SAMPLE_EVERY`]th event is recorded with that weight, and self time
//! scales the sampled spans back up.

use std::fmt::Write as _;
use std::time::Instant;

/// The crates of the repository (the layers), plus the benchmark's own
/// code (`Harness`). The discriminants index [`Layer::ALL`] and
/// [`Profile::self_s`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Dataset,
    Stats,
    Analysis,
    Frame,
    Core,
    Netsim,
    Congestion,
    Deploy,
    Bench,
    Wire,
    Telemetry,
    Harness,
}

impl Layer {
    /// Every layer, in the order the report lists them.
    pub const ALL: [Layer; 12] = [
        Layer::Dataset,
        Layer::Stats,
        Layer::Analysis,
        Layer::Frame,
        Layer::Core,
        Layer::Netsim,
        Layer::Congestion,
        Layer::Deploy,
        Layer::Bench,
        Layer::Wire,
        Layer::Telemetry,
        Layer::Harness,
    ];

    /// The crate's short name (`mbw-<name>`), as metric names spell it.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dataset => "dataset",
            Layer::Stats => "stats",
            Layer::Analysis => "analysis",
            Layer::Frame => "frame",
            Layer::Core => "core",
            Layer::Netsim => "netsim",
            Layer::Congestion => "congestion",
            Layer::Deploy => "deploy",
            Layer::Bench => "bench",
            Layer::Wire => "wire",
            Layer::Telemetry => "telemetry",
            Layer::Harness => "harness",
        }
    }
}

/// One in this many per-event calls is recorded by
/// [`Recorder::sampled`].
pub const SAMPLE_EVERY: u32 = 16;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span plus one; 0 for a root.
    pub parent: u32,
    /// The pass (or kernel repetition) the span belongs to.
    pub pass: u32,
    /// How many calls this span stands for (1, or [`SAMPLE_EVERY`]).
    pub weight: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time per layer and coverage of one recorded tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Wall seconds of the root span.
    pub root_s: f64,
    /// Self seconds per layer, indexed like [`Layer::ALL`]. The root's
    /// own self time (glue between layer calls) counts as `Harness`.
    pub self_s: [f64; 12],
    /// Share of the root span covered by its child spans.
    pub coverage: f64,
}

impl Profile {
    /// The layer with the most self time, and that time.
    pub fn dominant(&self) -> (Layer, f64) {
        Layer::ALL
            .into_iter()
            .zip(self.self_s)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("twelve layers")
    }
}

/// Records spans while switched on; a switched-off recorder runs the
/// closures and nothing else, so one code path serves the timed and the
/// traced pass.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
    tick: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            tick: 0,
        }
    }

    /// A recording recorder with room for `capacity` spans, so a pass
    /// does not pay for growing the buffer.
    pub fn on(capacity: usize) -> Self {
        Recorder {
            on: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            ..Recorder::off()
        }
    }

    /// Label the spans that follow with this pass id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.weighted(layer, name, 1, f)
    }

    /// Count one per-event call site visit; every [`SAMPLE_EVERY`]th
    /// visit makes the [`Recorder::sampled`] calls that follow record.
    pub fn next_event(&mut self) {
        self.tick = self.tick.wrapping_add(1);
    }

    /// Run `f`, inside a span of weight [`SAMPLE_EVERY`] if the current
    /// event is a sampled one.
    pub fn sampled<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if self.on && self.tick.is_multiple_of(SAMPLE_EVERY) {
            self.weighted(layer, name, SAMPLE_EVERY, f)
        } else {
            f(self)
        }
    }

    fn weighted<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        weight: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map_or(0, |p| p + 1),
            pass: self.pass,
            weight,
        });
        self.open.push(index);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Take the recorded spans, leaving an empty buffer of the same
    /// capacity behind.
    pub fn take(&mut self) -> Vec<Span> {
        let capacity = self.spans.capacity();
        std::mem::replace(&mut self.spans, Vec::with_capacity(capacity))
    }
}

/// Self time and coverage of a span list whose first span is the root
/// of everything after it.
pub fn profile(spans: &[Span]) -> Profile {
    let Some(root) = spans.first() else {
        return Profile::default();
    };
    // Time covered by each span's direct children, in the parent's own
    // units: a sampled child under an unsampled parent stands for
    // `weight` calls, a child under a sampled parent for one.
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            let parent = s.parent as usize - 1;
            covered[parent] += s.dur_ns() * u64::from(s.weight / spans[parent].weight);
        }
    }
    let mut out = Profile {
        root_s: root.dur_ns() as f64 * 1e-9,
        ..Profile::default()
    };
    for (s, kids) in spans.iter().zip(&covered) {
        let own = s.dur_ns().saturating_sub(*kids) * u64::from(s.weight);
        out.self_s[s.layer as usize] += own as f64 * 1e-9;
    }
    let root_self = root.dur_ns().saturating_sub(covered[0]);
    out.coverage = 1.0 - root_self as f64 / root.dur_ns().max(1) as f64;
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the given
/// span lists, one track per list.
pub fn chrome_json(tracks: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (track, spans)) in tracks.iter().enumerate() {
        let tid = tid + 1;
        let _ = write!(
            out,
            "{}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{track}\"}}}}",
            if first { "" } else { ",\n" }
        );
        first = false;
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"pass\":{},\"weight\":{}}}}}",
                s.layer.name(),
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i + 1,
                s.parent,
                s.pass,
                s.weight
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
