//! `swiftest` — the bandwidth-testing CLI.
//!
//! ```text
//! swiftest serve [--capacity <mbps>] [--port <port>] [--metrics-addr <addr>]
//!                [--max-sessions <n>] [--token <tenant>:<token>]...
//!                [--results-log <path>] [--drain-secs <s>] [--trace-out <path>]
//!                                                      run a UDP test server
//! swiftest measure [--json] [--trace-json <path>] [--trace-out <path>]
//!                  [--auth <tenant>:<token>]
//!                  <host:port> [<host:port>...]        run a real test against servers
//! swiftest simulate [--json] [--trace-json <path>] [4g|5g|wifi] [seed]
//!                                                      run a simulated test
//! swiftest bench [4g|5g|wifi] [n]                      simulated Swiftest-vs-BTS-APP summary
//! swiftest load [--clients <n>] [--sockets <n>] [--no-chaos] [--out <dir>]
//!               [--trace-out <path>]                   the service load harness
//! ```
//!
//! `--json` switches the final report from the human table to one JSON
//! object on stdout; `--trace-json <path>` writes the test's full
//! [`ProbeTimeline`](mobile_bandwidth::telemetry::ProbeTimeline) (every
//! sample, rate change, stall, and the convergence point) to `path`.
//! `--metrics-addr` exposes the server's registry at
//! `http://<addr>/metrics` in Prometheus text format.
//!
//! `--trace-out <path>` (on `serve`, `measure`, and `load`) records
//! causal spans — client phases, retries, failovers; server admission,
//! sessions, results-log appends — and writes them to `path` as Chrome
//! trace-event JSON (open it at <https://ui.perfetto.dev>) plus a text
//! self-profile at `path.profile.txt`. A tracing `measure` sends its
//! trace id in the HELLO, so a tracing server attributes its own spans
//! to the client's trace and the two files join into one tree.
//!
//! Service hardening (`serve`): `--max-sessions` enables the admission
//! controller (HELLO/ADMIT handshake, bounded queue, overload
//! shedding); `--token tenant:token` (repeatable) restricts admission
//! to those tenants; `--results-log` appends every finished session to
//! a crash-safe checksummed log (recovered, tail-truncated, and
//! replayed on restart). On SIGTERM or Ctrl-C the server drains
//! gracefully: new sessions are rejected `Draining` while in-flight
//! tests run to completion, bounded by `--drain-secs`. (The drain hooks
//! the unix signals; on other targets the server runs until the
//! process is killed, without a drain.)

use mobile_bandwidth::core::{BtsKind, TechClass, TestHarness};
use mobile_bandwidth::stats::descriptive;
use mobile_bandwidth::telemetry::{trace, Registry, Tracer, WallClock};
use mobile_bandwidth::wire::admission::{AdmissionConfig, TenantConfig};
use mobile_bandwidth::wire::client::SessionAuth;
use mobile_bandwidth::wire::load::{run_load, LoadConfig};
use mobile_bandwidth::wire::server::{ServerConfig, UdpTestServer};
use mobile_bandwidth::wire::{SwiftestClient, WireTestConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  swiftest serve [--capacity <mbps>] [--port <port>] [--metrics-addr <addr>]\n    \
         [--max-sessions <n>] [--token <tenant>:<token>]... [--results-log <path>] [--drain-secs <s>]\n    \
         [--trace-out <path>]\n  \
         swiftest measure [--json] [--trace-json <path>] [--trace-out <path>] [--auth <tenant>:<token>]\n    \
         <host:port> [<host:port>...]\n  \
         swiftest simulate [--json] [--trace-json <path>] [4g|5g|wifi] [seed]\n  \
         swiftest bench [4g|5g|wifi] [n]\n  \
         swiftest load [--clients <n>] [--sockets <n>] [--no-chaos] [--out <dir>] [--trace-out <path>]"
    );
    std::process::exit(2);
}

/// Parse a `tenant:token` pair (`token` decimal or `0x…` hex).
fn parse_tenant_pair(s: &str) -> (u64, u64) {
    let parse_u64 = |v: &str| {
        if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            v.parse().ok()
        }
    };
    let Some((tenant, token)) = s.split_once(':') else {
        usage();
    };
    match (parse_u64(tenant), parse_u64(token)) {
        (Some(a), Some(b)) => (a, b),
        _ => usage(),
    }
}

fn parse_tech(s: Option<&String>) -> TechClass {
    match s.map(String::as_str) {
        Some("4g") => TechClass::Lte,
        Some("5g") | None => TechClass::Nr,
        Some("wifi") => TechClass::Wifi,
        Some(_) => usage(),
    }
}

/// Output options shared by `measure` and `simulate`, split off the
/// front of the argument list.
struct OutputOpts {
    json: bool,
    trace_path: Option<String>,
}

fn split_output_opts(args: &[String]) -> (OutputOpts, Vec<String>) {
    let mut opts = OutputOpts {
        json: false,
        trace_path: None,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--trace-json" => {
                opts.trace_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            _ => rest.push(a.clone()),
        }
    }
    (opts, rest)
}

fn write_trace(path: &str, timeline: &mobile_bandwidth::telemetry::ProbeTimeline) {
    if let Err(e) = std::fs::write(path, timeline.to_json()) {
        eprintln!("failed to write trace to {path}: {e}");
        std::process::exit(1);
    }
}

/// The `--trace-out` span tracer: wall clock, enabled only when a path
/// was given (disabled tracers are all no-ops on the hot path).
fn span_tracer(trace_out: Option<&String>, trace_id: u64) -> Tracer {
    if trace_out.is_some() {
        Tracer::new(Arc::new(WallClock::new()), trace_id)
    } else {
        Tracer::disabled()
    }
}

/// Write the recorded spans as Chrome trace-event JSON to `path` and
/// the text self-profile (slow spans first) to `path.profile.txt`.
fn export_span_trace(tracer: &Tracer, path: &str) {
    let spans = tracer.spans();
    if let Err(e) = std::fs::write(path, trace::export_chrome_json(&spans)) {
        eprintln!("failed to write span trace to {path}: {e}");
        std::process::exit(1);
    }
    let budgets = trace::SpanBudgets::default_profile();
    let profile_path = format!("{path}.profile.txt");
    if let Err(e) = std::fs::write(&profile_path, trace::self_profile(&spans, &budgets, 20)) {
        eprintln!("failed to write span profile to {profile_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "span trace: {} spans -> {path} (profile: {profile_path})",
        spans.len()
    );
}

/// Minimal JSON string escaping for the report values we print.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("measure") => measure(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("load") => load(&args[1..]),
        _ => usage(),
    }
}

fn serve(args: &[String]) {
    let mut capacity: Option<u64> = None;
    let mut port: u16 = 7777;
    let mut metrics_addr: Option<SocketAddr> = None;
    let mut max_sessions: Option<usize> = None;
    let mut tenants: Vec<TenantConfig> = Vec::new();
    let mut results_log: Option<PathBuf> = None;
    let mut drain_secs: u64 = 10;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--capacity" => {
                let v: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                capacity = Some((v * 1e6) as u64);
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-sessions" => {
                max_sessions = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--token" => {
                let (tenant, token) =
                    parse_tenant_pair(it.next().map(String::as_str).unwrap_or_else(|| usage()));
                tenants.push(TenantConfig::new(tenant, token));
            }
            "--results-log" => {
                results_log = Some(PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())));
            }
            "--drain-secs" => {
                drain_secs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace-out" => {
                trace_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    // Any admission knob turns the handshake on; tokens without an
    // explicit cap get a sane default.
    let admission = if max_sessions.is_some() || !tenants.is_empty() {
        Some(AdmissionConfig::open(max_sessions.unwrap_or(256)).with_tenants(tenants))
    } else {
        None
    };
    // Server spans are attributed to the trace ids clients send in
    // their HELLOs, so a traced serve only fills up when traced
    // measures run against it.
    let tracer = span_tracer(trace_out.as_ref(), 0x5E17_0000);
    #[cfg(unix)]
    shutdown_signal::install();
    let server = UdpTestServer::start(ServerConfig {
        bind: format!("0.0.0.0:{port}").parse().expect("valid bind"),
        emulated_capacity_bps: capacity,
        session_timeout: std::time::Duration::from_secs(30),
        metrics_addr,
        admission: admission.clone(),
        results_log,
        drain_deadline: std::time::Duration::from_secs(drain_secs),
        tracer: tracer.clone(),
        ..Default::default()
    })
    .expect("bind server");
    println!("swiftest server on {}", server.local_addr());
    if let Some(cap) = capacity {
        println!("emulated access capacity: {:.0} Mbps", cap as f64 / 1e6);
    }
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on http://{addr}/metrics");
    }
    if let Some(cfg) = &admission {
        println!(
            "admission: max {} sessions, {} tenant token(s)",
            cfg.max_sessions,
            cfg.tenants.len()
        );
    }
    if let Some(rec) = server.log_recovery() {
        println!(
            "results log: {} record(s) replayed{}",
            rec.records.len(),
            if rec.clean() {
                String::new()
            } else {
                format!(", {} torn byte(s) truncated", rec.truncated_bytes)
            }
        );
    }
    println!("SIGTERM or Ctrl-C drains gracefully ({drain_secs} s deadline)");

    // Graceful shutdown: reject new sessions `Draining`, let in-flight
    // tests finish, close stragglers at the deadline.
    while !shutdown_signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let inflight = server.active_sessions();
    if inflight > 0 {
        println!("draining {inflight} in-flight session(s)...");
    }
    server.begin_drain();
    // `drain` ends in `shutdown`, which joins the receive thread and so
    // flushes its span buffer; the export below sees every span.
    if server.drain() {
        println!("drained cleanly");
    } else {
        eprintln!("drain deadline hit; stragglers logged incomplete");
    }
    if let Some(path) = &trace_out {
        export_span_trace(&tracer, path);
    }
}

/// SIGTERM and Ctrl-C (SIGINT) as a flag the serve loop polls (an
/// atomic store is async-signal-safe). Without unix signals nothing
/// sets it: the server runs until the process is killed.
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        extern "C" fn on_signal(_: i32) {
            REQUESTED.store(true, Ordering::SeqCst);
        }
        // SAFETY: `on_signal` is an `extern "C" fn(i32)`, the handler
        // type `signal` expects, and does nothing but an atomic store.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn load(args: &[String]) {
    let mut out_dir = PathBuf::from("results");
    let mut clients: Option<usize> = None;
    let mut sockets: Option<usize> = None;
    let mut no_chaos = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => {
                clients = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--sockets" => {
                sockets = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--no-chaos" => no_chaos = true,
            "--out" => out_dir = PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())),
            "--trace-out" => {
                trace_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut cfg = LoadConfig::full(out_dir.join("service.reslog"));
    if let Some(n) = clients {
        cfg = cfg.with_clients(n);
    }
    if let Some(n) = sockets {
        cfg.sockets = n;
    }
    if no_chaos {
        cfg.chaos = false;
    }
    let registry = Registry::new();
    // The socket soak picks the scoped tracer up ambiently, joining
    // client and server spans of the loopback sessions in one trace.
    let tracer = span_tracer(trace_out.as_ref(), 0x10AD_0000);
    let report = trace::scope(&tracer, || run_load(&cfg, &registry)).unwrap_or_else(|e| {
        eprintln!("load harness failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &trace_out {
        export_span_trace(&tracer, path);
    }
    let json_path = out_dir.join("BENCH_service.json");
    std::fs::write(&json_path, report.to_json())
        .unwrap_or_else(|e| panic!("write {json_path:?}: {e}"));
    print!("{}", report.render());
    println!("report written to {json_path:?}");
    if !report.zero_loss() {
        eprintln!("accepted-session loss detected");
        std::process::exit(1);
    }
}

fn measure(args: &[String]) {
    let (opts, rest) = split_output_opts(args);
    let mut auth: Option<SessionAuth> = None;
    let mut trace_out: Option<String> = None;
    let mut addrs_raw: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--auth" {
            let (tenant, token) =
                parse_tenant_pair(it.next().map(String::as_str).unwrap_or_else(|| usage()));
            auth = Some(SessionAuth { tenant, token });
        } else if a == "--trace-out" {
            trace_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
        } else {
            addrs_raw.push(a);
        }
    }
    if addrs_raw.is_empty() {
        usage();
    }
    let addrs: Vec<SocketAddr> = addrs_raw
        .iter()
        .map(|a| a.parse().unwrap_or_else(|_| usage()))
        .collect();
    let model = TechClass::Wifi.default_model();
    // The trace id rides the HELLO to the server, so a tracing server
    // joins its admission/session spans to this measure's trace.
    let tracer = span_tracer(
        trace_out.as_ref(),
        0xC11E_0000 | u64::from(std::process::id()),
    );
    let client = SwiftestClient::new(
        model,
        WireTestConfig {
            auth,
            tracer: tracer.clone(),
            ..WireTestConfig::default()
        },
    );
    match client.measure(&addrs) {
        Ok(report) => {
            if let Some(path) = &opts.trace_path {
                write_trace(path, &report.timeline);
            }
            if opts.json {
                println!(
                    "{{\"estimate_mbps\":{},\"duration_s\":{},\"ping_s\":{},\
                     \"data_bytes\":{},\"server\":{},\"status\":{},\"failovers\":{}}}",
                    report.estimate_mbps,
                    report.duration.as_secs_f64(),
                    report.ping_time.as_secs_f64(),
                    report.data_bytes,
                    json_str(&report.server.to_string()),
                    json_str(&report.status.to_string()),
                    report.failovers
                );
            } else {
                println!("bandwidth   {:>8.1} Mbps", report.estimate_mbps);
                println!(
                    "test time   {:>8.2} s (+{:.2} s server selection)",
                    report.duration.as_secs_f64(),
                    report.ping_time.as_secs_f64()
                );
                println!("data usage  {:>8.2} MB", report.data_bytes as f64 / 1e6);
                println!("server      {}", report.server);
                println!("status      {}", report.status);
                if report.failovers > 0 {
                    println!("failovers   {:>8}", report.failovers);
                }
            }
        }
        Err(e) => {
            eprintln!("test failed: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &trace_out {
        export_span_trace(&tracer, path);
    }
}

fn simulate(args: &[String]) {
    let (opts, rest) = split_output_opts(args);
    let tech = parse_tech(rest.first());
    let seed: u64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let harness = TestHarness::new(tech);
    let o = harness.run(BtsKind::Swiftest, seed);
    if let Some(path) = &opts.trace_path {
        write_trace(path, &o.timeline);
    }
    if opts.json {
        println!(
            "{{\"kind\":{},\"tech\":{},\"seed\":{seed},\"estimate_mbps\":{},\
             \"truth_mbps\":{},\"duration_s\":{},\"data_bytes\":{},\"status\":{}}}",
            json_str(o.kind.name()),
            json_str(tech.name()),
            o.estimate_mbps,
            o.truth_mbps,
            o.total_duration().as_secs_f64(),
            o.data_bytes,
            json_str(&o.status.to_string())
        );
    } else {
        println!("{} link (simulated, seed {seed})", tech.name());
        println!(
            "bandwidth   {:>8.1} Mbps (ground truth {:.1})",
            o.estimate_mbps, o.truth_mbps
        );
        println!("test time   {:>8.2} s", o.total_duration().as_secs_f64());
        println!("data usage  {:>8.2} MB", o.data_bytes / 1e6);
    }
}

fn bench(args: &[String]) {
    let tech = parse_tech(args.first());
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let harness = TestHarness::new(tech);
    let mut durations = Vec::new();
    let mut ratios = Vec::new();
    let mut deviations = Vec::new();
    for i in 0..n {
        let pair = harness.back_to_back(BtsKind::Swiftest, BtsKind::BtsApp, i as u64);
        durations.push(pair.first.total_duration().as_secs_f64());
        ratios.push(pair.second.data_bytes / pair.first.data_bytes.max(1.0));
        deviations.push(pair.deviation());
    }
    println!(
        "{} × {n} back-to-back pairs (Swiftest vs BTS-APP)",
        tech.name()
    );
    println!(
        "mean test time      {:.2} s (BTS-APP: ~10.2 s)",
        descriptive::mean(&durations)
    );
    println!("mean data reduction {:.1}x", descriptive::mean(&ratios));
    println!(
        "deviation           mean {:.1}%  median {:.1}%",
        descriptive::mean(&deviations) * 100.0,
        descriptive::median(&deviations) * 100.0
    );
}
