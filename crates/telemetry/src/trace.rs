//! Causal span tracing: where the time *inside* a run goes.
//!
//! Counters and histograms say how much; spans say *which part*. A
//! [`Tracer`] collects [`SpanRecord`]s — named, timed intervals with
//! parent links and a trace id — from any number of threads and exports
//! them three ways:
//!
//! - [`export_chrome_json`]: Chrome trace-event JSON, loadable directly
//!   in [Perfetto](https://ui.perfetto.dev) (`figures --trace-out`,
//!   `swiftest {serve,measure,load} --trace-out`);
//! - [`self_profile`]: a text report — per-name aggregation, the top-k
//!   individual spans, and a slow-span log against [`SpanBudgets`];
//! - [`publish_spans`]: span-duration histograms and slow-span counters
//!   in the crate's [`Registry`].
//!
//! # Recording model
//!
//! Recording is two-level. The shared [`Tracer`] owns a lock-free
//! collector (a Treiber stack of drained chunks — no locks, no
//! dependencies); each recording thread holds a [`LocalTracer`] whose
//! fixed-capacity ring buffer batches records and drains into the
//! collector when full or on drop. The hot path is therefore a clock
//! read plus a `Vec` push; the contended path is one CAS per
//! [`RING_CAPACITY`] spans.
//!
//! A disabled tracer ([`Tracer::disabled`]) records nothing and costs
//! one branch per span — instrumentation can stay unconditionally in
//! place on hot loops (per-EM-iteration spans in `mbw-stats`) without a
//! measurable tax.
//!
//! # Determinism
//!
//! Timestamps come from a caller-supplied [`Clock`]: wall time for real
//! profiles, [`ManualClock`](crate::ManualClock) for tests, where a
//! fixed event sequence exports byte-identical JSON. Export order is
//! canonical — `(tid, start, −duration, id)` — so a fixed set of
//! records renders identically no matter which thread drained first.
//!
//! # Cross-process traces
//!
//! Every record carries a `trace` id. The wire layer propagates the
//! client's trace id inside the HELLO handshake, and the server records
//! its admission/session/results-log spans under that id — exporting
//! both sides yields one joined session trace.

use crate::clock::Clock;
use crate::histogram::Histogram;
use crate::registry::Registry;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Spans a [`LocalTracer`] buffers before draining into the shared
/// collector.
pub const RING_CAPACITY: usize = 256;

/// Default cap on retained spans (records past it are counted, not
/// stored) — the same runaway-recorder guard the probe timeline uses.
pub const DEFAULT_SPAN_LIMIT: u64 = 1 << 20;

/// One argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (iteration counts, shard indices…).
    U64(u64),
    /// A float (rates, fractions…).
    F64(f64),
    /// Free text (figure ids, phase names…).
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Text(v.to_string())
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to (propagated across the wire).
    pub trace: u64,
    /// Span id, unique within the tracer (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Low-cardinality name — the aggregation key (`gmm.fit`,
    /// `finish.fig04`, `server.session`…).
    pub name: Cow<'static, str>,
    /// Category (`sweep`, `gmm`, `campaign`, `wire`, `service`…).
    pub cat: &'static str,
    /// Start, nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Recording-thread id, allocated per [`LocalTracer`].
    pub tid: u64,
    /// Attached arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A chunk of drained records, linked into the collector stack.
struct Chunk {
    records: Vec<SpanRecord>,
    next: *mut Chunk,
}

struct TracerInner {
    clock: Arc<dyn Clock>,
    trace_id: u64,
    next_span: AtomicU64,
    next_tid: AtomicU64,
    /// Treiber stack of drained chunks: push is a CAS loop, snapshot is
    /// an acquire-walk. Never popped while the tracer lives.
    head: AtomicPtr<Chunk>,
    stored: AtomicU64,
    dropped: AtomicU64,
    limit: u64,
}

// SAFETY: `head` is only mutated via atomic CAS; chunks are immutable
// once pushed and freed only in `Drop` (exclusive access).
unsafe impl Send for TracerInner {}
unsafe impl Sync for TracerInner {}

impl TracerInner {
    fn push_chunk(&self, records: Vec<SpanRecord>) {
        let node = Box::into_raw(Box::new(Chunk {
            records,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    fn collect(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        let mut node = self.head.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: chunks are immutable after publication and outlive
            // this borrow (freed only when the tracer drops).
            let chunk = unsafe { &*node };
            out.extend(chunk.records.iter().cloned());
            node = chunk.next;
        }
        out
    }
}

impl Drop for TracerInner {
    fn drop(&mut self) {
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: drop has exclusive access; each node was created by
            // `Box::into_raw` in `push_chunk` and is freed exactly once.
            let chunk = unsafe { Box::from_raw(node) };
            node = chunk.next;
        }
    }
}

/// A cheap-to-clone handle to a shared span collector; `None` inside
/// means disabled (every recording call is a no-op branch).
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(f, "Tracer(trace_id={:#x})", i.trace_id),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A no-op tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer on `clock` under `trace_id`, with the default
    /// span cap.
    pub fn new(clock: Arc<dyn Clock>, trace_id: u64) -> Self {
        Self::with_span_limit(clock, trace_id, DEFAULT_SPAN_LIMIT)
    }

    /// An enabled tracer retaining at most `limit` spans (further spans
    /// are counted in [`dropped`](Self::dropped), not stored).
    pub fn with_span_limit(clock: Arc<dyn Clock>, trace_id: u64, limit: u64) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                clock,
                trace_id,
                next_span: AtomicU64::new(1),
                next_tid: AtomicU64::new(1),
                head: AtomicPtr::new(std::ptr::null_mut()),
                stored: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                limit,
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id new spans are recorded under (0 when disabled).
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace_id)
    }

    /// Current time on the tracer's clock (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// A recording handle for the current thread. Dropping it flushes
    /// its ring buffer into the shared collector.
    pub fn local(&self) -> LocalTracer {
        let tid = self
            .inner
            .as_ref()
            .map_or(0, |i| i.next_tid.fetch_add(1, Ordering::Relaxed));
        LocalTracer {
            inner: self.inner.clone(),
            tid,
            buf: Vec::new(),
        }
    }

    /// Spans dropped by the retention cap.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Snapshot every drained span, in canonical order. Spans still
    /// buffered in live [`LocalTracer`]s are not included — drop or
    /// [`flush`](LocalTracer::flush) them first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = self.inner.as_ref().map_or_else(Vec::new, |i| i.collect());
        canonical_order(&mut out);
        out
    }
}

/// An in-flight span: its pre-allocated id and start timestamp.
///
/// `id == 0` means the span was begun on a disabled tracer and ending
/// it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan {
    /// The span's id (0 when disabled).
    pub id: u64,
    /// Start, nanoseconds on the tracer's clock.
    pub start_ns: u64,
}

impl OpenSpan {
    /// The open span of a disabled tracer.
    pub const NONE: OpenSpan = OpenSpan { id: 0, start_ns: 0 };
}

/// A per-thread recording handle (see [`Tracer::local`]).
pub struct LocalTracer {
    inner: Option<Arc<TracerInner>>,
    tid: u64,
    buf: Vec<SpanRecord>,
}

impl LocalTracer {
    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recording-thread id this handle stamps on its spans.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Current time on the tracer's clock (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Open a span: allocate its id and read the clock. On a disabled
    /// tracer this is a branch and returns [`OpenSpan::NONE`].
    pub fn begin(&mut self) -> OpenSpan {
        match &self.inner {
            None => OpenSpan::NONE,
            Some(i) => OpenSpan {
                id: i.next_span.fetch_add(1, Ordering::Relaxed),
                start_ns: i.clock.now_ns(),
            },
        }
    }

    /// Close `open` as `name` under `parent` (0 for a root span).
    pub fn end(
        &mut self,
        open: OpenSpan,
        parent: u64,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
    ) {
        self.end_with(open, parent, name, cat, Vec::new());
    }

    /// [`end`](Self::end) with attached arguments.
    pub fn end_with(
        &mut self,
        open: OpenSpan,
        parent: u64,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if open.id == 0 {
            return;
        }
        let Some(inner) = &self.inner else { return };
        let end_ns = inner.clock.now_ns();
        let record = SpanRecord {
            trace: inner.trace_id,
            id: open.id,
            parent,
            name: name.into(),
            cat,
            start_ns: open.start_ns,
            dur_ns: end_ns.saturating_sub(open.start_ns),
            tid: self.tid,
            args,
        };
        self.push(record);
    }

    /// Record a fully-specified span (for intervals assembled across
    /// threads, e.g. a server session opened on one task and closed on
    /// another). A zero `id` allocates one; a zero `trace` uses the
    /// tracer's own; a zero `tid` uses this handle's.
    pub fn record(&mut self, mut record: SpanRecord) {
        let Some(inner) = &self.inner else { return };
        if record.id == 0 {
            record.id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        }
        if record.trace == 0 {
            record.trace = inner.trace_id;
        }
        if record.tid == 0 {
            record.tid = self.tid;
        }
        self.push(record);
    }

    fn push(&mut self, record: SpanRecord) {
        self.buf.push(record);
        if self.buf.len() >= RING_CAPACITY {
            self.flush();
        }
    }

    /// Drain the ring buffer into the shared collector.
    pub fn flush(&mut self) {
        let Some(inner) = &self.inner else { return };
        if self.buf.is_empty() {
            return;
        }
        let n = self.buf.len() as u64;
        let prev = inner.stored.fetch_add(n, Ordering::Relaxed);
        let keep = inner.limit.saturating_sub(prev).min(n);
        if keep < n {
            inner.stored.fetch_sub(n - keep, Ordering::Relaxed);
            inner.dropped.fetch_add(n - keep, Ordering::Relaxed);
            self.buf.truncate(keep as usize);
        }
        if !self.buf.is_empty() {
            inner.push_chunk(std::mem::take(&mut self.buf));
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for LocalTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static ACTIVE: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// Run `f` with `tracer` installed as the thread's active tracer (see
/// [`active`]); the previous tracer is restored afterwards, panic or
/// not. Spawned threads do *not* inherit the scope — capture the tracer
/// and re-`scope` inside each worker.
pub fn scope<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Tracer>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                ACTIVE.with(|a| *a.borrow_mut() = prev);
            }
        }
    }
    let prev = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), tracer.clone()));
    let _restore = Restore(Some(prev));
    f()
}

/// The thread's active tracer ([`Tracer::disabled`] outside any
/// [`scope`]). Lets deep library code (EM loops, accumulators) record
/// spans without threading a handle through every signature.
pub fn active() -> Tracer {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Sort records into canonical export order: `(tid, start, −duration,
/// id)` — parents precede children that start the same nanosecond, and
/// a fixed record set renders identically whatever the drain order was.
pub fn canonical_order(records: &mut [SpanRecord]) {
    records.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns), a.id).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            b.id,
        ))
    });
}

/// Microseconds with fixed 3-digit nanosecond remainder — the `ts`/
/// `dur` unit of the Chrome trace-event format, formatted
/// deterministically (no float rounding).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render records as Chrome trace-event JSON (complete `"X"` events),
/// loadable directly in Perfetto or `chrome://tracing`.
///
/// The export is deterministic for a fixed record set: events are
/// emitted in [`canonical_order`], timestamps are integer-derived, and
/// args render in recording order. The trace id rides in every event's
/// `args.trace` so joined client/server exports correlate.
pub fn export_chrome_json(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns), a.id).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            b.id,
        ))
    });
    let mut out = String::with_capacity(64 + records.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{:#x}\",\"span\":{}",
            json_escape(&r.name),
            json_escape(r.cat),
            micros(r.start_ns),
            micros(r.dur_ns),
            r.tid,
            r.trace,
            r.id,
        );
        if r.parent != 0 {
            let _ = write!(out, ",\"parent\":{}", r.parent);
        }
        for (k, v) in &r.args {
            let _ = write!(out, ",\"{}\":", json_escape(k));
            match v {
                ArgValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                ArgValue::F64(f) => {
                    let _ = write!(out, "{}", json_f64(*f));
                }
                ArgValue::Text(t) => {
                    let _ = write!(out, "\"{}\"", json_escape(t));
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Per-span-name duration budgets driving the slow-span log.
///
/// Lookup order: exact name, then the longest matching registered
/// prefix, then the default (if any). A span with no applicable budget
/// is never slow.
#[derive(Debug, Clone, Default)]
pub struct SpanBudgets {
    default_ns: Option<u64>,
    exact: BTreeMap<String, u64>,
    prefixes: Vec<(String, u64)>,
}

impl SpanBudgets {
    /// No budgets: nothing is ever slow.
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the fallback budget for spans with no specific entry.
    pub fn default_ns(mut self, ns: u64) -> Self {
        self.default_ns = Some(ns);
        self
    }

    /// Budget spans named exactly `name`.
    pub fn exact(mut self, name: &str, ns: u64) -> Self {
        self.exact.insert(name.to_string(), ns);
        self
    }

    /// Budget spans whose name starts with `prefix`.
    pub fn prefix(mut self, prefix: &str, ns: u64) -> Self {
        self.prefixes.push((prefix.to_string(), ns));
        self.prefixes
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        self
    }

    /// The budget applying to `name`, if any.
    pub fn for_name(&self, name: &str) -> Option<u64> {
        if let Some(&ns) = self.exact.get(name) {
            return Some(ns);
        }
        for (prefix, ns) in &self.prefixes {
            if name.starts_with(prefix.as_str()) {
                return Some(*ns);
            }
        }
        self.default_ns
    }

    /// The budgets the `figures` and `swiftest` binaries apply by
    /// default: generous per-stage ceilings that a healthy smoke-scale
    /// run never hits, so a non-empty slow-span log is a CI failure.
    pub fn default_profile() -> Self {
        Self::none()
            .prefix("finish.", 10_000_000_000)
            .exact("gmm.fit", 5_000_000_000)
            // Binned EM iterates over ≤513 weighted bins, not records:
            // iterations are microseconds and a whole binned fit (all
            // EM restarts for one candidate k) stays well under a
            // second even on a loaded CI runner.
            .exact("gmm.em_iter", 100_000_000)
            .exact("gmm.fit_binned", 1_000_000_000)
            .exact("gmm.fit_auto", 5_000_000_000)
            .prefix("stream.", 120_000_000_000)
            .prefix("campaign.", 120_000_000_000)
            .exact("client.admit", 5_000_000_000)
            .exact("server.hello", 1_000_000_000)
            .exact("server.resultslog.append", 1_000_000_000)
    }
}

/// Records exceeding their budget, slowest-overrun first.
pub fn slow_spans<'a>(records: &'a [SpanRecord], budgets: &SpanBudgets) -> Vec<&'a SpanRecord> {
    let mut out: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| budgets.for_name(&r.name).is_some_and(|b| r.dur_ns > b))
        .collect();
    out.sort_by(|a, b| {
        let over_a = a.dur_ns - budgets.for_name(&a.name).unwrap_or(0);
        let over_b = b.dur_ns - budgets.for_name(&b.name).unwrap_or(0);
        over_b
            .cmp(&over_a)
            .then_with(|| (a.tid, a.start_ns, a.id).cmp(&(b.tid, b.start_ns, b.id)))
    });
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render a text self-profile: per-name aggregation (count / total /
/// mean / max, sorted by total time), the `top_k` longest individual
/// spans, and the slow-span log (lines prefixed `SLOW `, which CI greps
/// for). Deterministic for a fixed record set.
pub fn self_profile(records: &[SpanRecord], budgets: &SpanBudgets, top_k: usize) -> String {
    let mut out = String::new();
    let total_ns: u64 = records.iter().map(|r| r.dur_ns).sum();
    let _ = writeln!(
        out,
        "== span profile: {} spans, {:.3} ms total span time ==",
        records.len(),
        ms(total_ns)
    );

    struct Agg {
        count: u64,
        total_ns: u64,
        max_ns: u64,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for r in records {
        let a = by_name.entry(r.name.as_ref()).or_insert(Agg {
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        a.count += 1;
        a.total_ns += r.dur_ns;
        a.max_ns = a.max_ns.max(r.dur_ns);
    }
    let mut names: Vec<(&str, &Agg)> = by_name.iter().map(|(k, v)| (*k, v)).collect();
    names.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(out, "-- by name --");
    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>10} {:>10}",
        "name", "count", "total_ms", "mean_ms", "max_ms"
    );
    for (name, a) in &names {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.3} {:>10.3} {:>10.3}",
            name,
            a.count,
            ms(a.total_ns),
            ms(a.total_ns) / a.count as f64,
            ms(a.max_ns)
        );
    }

    let mut top: Vec<&SpanRecord> = records.iter().collect();
    top.sort_by(|a, b| {
        b.dur_ns
            .cmp(&a.dur_ns)
            .then_with(|| (a.tid, a.start_ns, a.id).cmp(&(b.tid, b.start_ns, b.id)))
    });
    top.truncate(top_k);
    let _ = writeln!(out, "-- top {} spans --", top.len());
    for r in &top {
        let _ = writeln!(
            out,
            "{:<32} {:>12.3} ms  start {:>14.3} ms  tid {}",
            r.name,
            ms(r.dur_ns),
            ms(r.start_ns),
            r.tid
        );
    }

    let slow = slow_spans(records, budgets);
    if slow.is_empty() {
        let _ = writeln!(out, "-- slow spans: none --");
    } else {
        let _ = writeln!(out, "-- slow spans ({}) --", slow.len());
        for r in &slow {
            let budget = budgets.for_name(&r.name).unwrap_or(0);
            let _ = writeln!(
                out,
                "SLOW {:<27} {:>12.3} ms over budget {:>10.3} ms  tid {}",
                r.name,
                ms(r.dur_ns),
                ms(budget),
                r.tid
            );
        }
    }
    out
}

/// Publish span durations and slow-span counts into `registry`:
/// `trace_span_seconds{name=…}` histograms plus
/// `trace_slow_spans_total{name=…}` counters (only names that exceeded
/// their budget get a counter series).
pub fn publish_spans(registry: &Registry, records: &[SpanRecord], budgets: &SpanBudgets) {
    let mut hists: BTreeMap<&str, Histogram> = BTreeMap::new();
    for r in records {
        let h = hists.entry(r.name.as_ref()).or_insert_with(|| {
            registry.histogram_with(
                "trace_span_seconds",
                "Traced span durations by span name",
                &[("name", r.name.as_ref())],
                Histogram::seconds_default(),
            )
        });
        h.observe(r.dur_ns as f64 / 1e9);
    }
    for r in slow_spans(records, budgets) {
        registry
            .counter_with(
                "trace_slow_spans_total",
                "Spans that exceeded their duration budget, by span name",
                &[("name", r.name.as_ref())],
            )
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_tracer(trace_id: u64) -> (Tracer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Tracer::new(clock.clone(), trace_id), clock)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut local = t.local();
        let open = local.begin();
        assert_eq!(open, OpenSpan::NONE);
        local.end(open, 0, "x", "test");
        drop(local);
        assert!(t.spans().is_empty());
        assert_eq!(t.trace_id(), 0);
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let (t, clock) = manual_tracer(0xAB);
        {
            let mut local = t.local();
            let outer = local.begin();
            clock.advance(std::time::Duration::from_micros(10));
            let inner = local.begin();
            clock.advance(std::time::Duration::from_micros(5));
            local.end_with(
                inner,
                outer.id,
                "inner",
                "test",
                vec![("k", ArgValue::U64(3))],
            );
            local.end(outer, 0, "outer", "test");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.dur_ns, 5_000);
        assert_eq!(outer.dur_ns, 15_000);
        assert_eq!(inner.args, vec![("k", ArgValue::U64(3))]);
        assert_eq!(outer.trace, 0xAB);
    }

    #[test]
    fn ring_buffers_drain_from_many_threads() {
        let (t, _clock) = manual_tracer(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    let mut local = t.local();
                    for _ in 0..RING_CAPACITY + 17 {
                        let open = local.begin();
                        local.end(open, 0, "work", "test");
                    }
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4 * (RING_CAPACITY + 17));
        // Span ids are unique across threads.
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn span_cap_counts_overflow() {
        let clock = Arc::new(ManualClock::new());
        let t = Tracer::with_span_limit(clock, 1, 10);
        {
            let mut local = t.local();
            for _ in 0..25 {
                let open = local.begin();
                local.end(open, 0, "x", "test");
            }
        }
        assert_eq!(t.spans().len(), 10);
        assert_eq!(t.dropped(), 15);
    }

    #[test]
    fn scoped_tracer_is_thread_local_and_restored() {
        assert!(!active().enabled());
        let (t, _clock) = manual_tracer(7);
        scope(&t, || {
            assert!(active().enabled());
            assert_eq!(active().trace_id(), 7);
            // Nested scope shadows and restores.
            scope(&Tracer::disabled(), || assert!(!active().enabled()));
            assert_eq!(active().trace_id(), 7);
        });
        assert!(!active().enabled());
    }

    #[test]
    fn scope_restores_after_panic() {
        let (t, _clock) = manual_tracer(9);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(&t, || panic!("boom"))
        }));
        assert!(result.is_err());
        assert!(!active().enabled());
    }

    #[test]
    fn chrome_export_is_deterministic_and_well_formed() {
        let (t, clock) = manual_tracer(0xC0FFEE);
        {
            let mut local = t.local();
            let a = local.begin();
            clock.advance(std::time::Duration::from_micros(3));
            local.end_with(
                a,
                0,
                "alpha \"quoted\"",
                "test",
                vec![
                    ("n", ArgValue::U64(2)),
                    ("f", ArgValue::F64(1.5)),
                    ("s", ArgValue::Text("x\ny".into())),
                ],
            );
        }
        let spans = t.spans();
        let json = export_chrome_json(&spans);
        assert_eq!(json, export_chrome_json(&spans), "export must be stable");
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":0.000"), "{json}");
        assert!(json.contains("\"dur\":3.000"), "{json}");
        assert!(json.contains("\"trace\":\"0xc0ffee\""), "{json}");
        assert!(json.contains("alpha \\\"quoted\\\""), "{json}");
        assert!(json.contains("\"s\":\"x\\ny\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn export_order_is_canonical_whatever_the_drain_order() {
        // The same record set, drained in two different orders, must
        // export byte-identically.
        let make = |reverse: bool| {
            let clock = Arc::new(ManualClock::new());
            let t = Tracer::new(clock.clone(), 5);
            let mut records = {
                let mut local = t.local();
                for i in 0..10u64 {
                    clock.set_ns(i * 1000);
                    let open = local.begin();
                    clock.set_ns(i * 1000 + 100);
                    local.end(open, 0, format!("s{i}"), "test");
                }
                // Steal the buffered records so we control drain order.
                std::mem::take(&mut local.buf)
            };
            if reverse {
                records.reverse();
            }
            let t2 = Tracer::new(Arc::new(ManualClock::new()), 5);
            {
                let mut local = t2.local();
                for r in records {
                    local.record(r);
                    local.flush(); // one chunk per record
                }
            }
            export_chrome_json(&t2.spans())
        };
        assert_eq!(make(false), make(true));
    }

    #[test]
    fn budgets_resolve_exact_then_prefix_then_default() {
        let b = SpanBudgets::none()
            .default_ns(100)
            .prefix("finish.", 50)
            .prefix("finish.fig0", 25)
            .exact("finish.fig01", 10);
        assert_eq!(b.for_name("finish.fig01"), Some(10));
        assert_eq!(b.for_name("finish.fig04"), Some(25));
        assert_eq!(b.for_name("finish.summary"), Some(50));
        assert_eq!(b.for_name("anything"), Some(100));
        assert_eq!(SpanBudgets::none().for_name("x"), None);
    }

    #[test]
    fn self_profile_flags_slow_spans() {
        let (t, clock) = manual_tracer(1);
        {
            let mut local = t.local();
            let fast = local.begin();
            clock.advance(std::time::Duration::from_micros(1));
            local.end(fast, 0, "fast", "test");
            let slow = local.begin();
            clock.advance(std::time::Duration::from_millis(10));
            local.end(slow, 0, "slow", "test");
        }
        let spans = t.spans();
        let budgets = SpanBudgets::none().exact("slow", 1_000_000);
        let report = self_profile(&spans, &budgets, 5);
        assert!(report.contains("-- by name --"), "{report}");
        assert!(report.contains("SLOW slow"), "{report}");
        assert!(!report.contains("SLOW fast"), "{report}");
        let clean = self_profile(&spans, &SpanBudgets::none(), 5);
        assert!(clean.contains("slow spans: none"), "{clean}");
        assert!(!clean.contains("\nSLOW "), "{clean}");
    }

    #[test]
    fn publish_feeds_the_registry() {
        let (t, clock) = manual_tracer(1);
        {
            let mut local = t.local();
            for _ in 0..3 {
                let open = local.begin();
                clock.advance(std::time::Duration::from_millis(2));
                local.end(open, 0, "stage.a", "test");
            }
            let open = local.begin();
            clock.advance(std::time::Duration::from_millis(50));
            local.end(open, 0, "stage.b", "test");
        }
        let registry = Registry::new();
        let budgets = SpanBudgets::none().exact("stage.b", 10_000_000);
        publish_spans(&registry, &t.spans(), &budgets);
        let text = registry.render_prometheus();
        assert!(
            text.contains("trace_span_seconds_count{name=\"stage.a\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("trace_slow_spans_total{name=\"stage.b\"} 1"),
            "{text}"
        );
        assert!(!text.contains("trace_slow_spans_total{name=\"stage.a\"}"));
    }

    #[test]
    fn cross_thread_record_assembly() {
        // A span opened logically on one thread and recorded by another
        // (the server-session pattern) keeps its explicit trace id.
        let (t, clock) = manual_tracer(0x11);
        let start = t.now_ns();
        clock.advance(std::time::Duration::from_millis(3));
        {
            let mut local = t.local();
            local.record(SpanRecord {
                trace: 0x99, // the client's trace id, not ours
                id: 0,
                parent: 0,
                name: "server.session".into(),
                cat: "service",
                start_ns: start,
                dur_ns: local.now_ns() - start,
                tid: 0,
                args: vec![("session", ArgValue::U64(42))],
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace, 0x99);
        assert_ne!(spans[0].id, 0);
        assert_eq!(spans[0].dur_ns, 3_000_000);
    }
}
