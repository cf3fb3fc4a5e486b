//! The Swiftest-as-a-service load harness.
//!
//! Drives the service-hardening stack (admission control, overload
//! shedding, the crash-safe results log) at scales a loopback socket
//! cannot reach, in three phases:
//!
//! 1. **Sample pool** — a modest number of *real* `run_swiftest`
//!    simulations over `mbw-netsim` paths, run across threads. These
//!    provide the empirical service-time / estimate / data-usage
//!    distribution the virtual phase draws from, so virtual sessions
//!    have the latency profile of actual Swiftest tests rather than a
//!    made-up constant.
//! 2. **Virtual service loop** — tens of thousands of simulated clients
//!    pushed through the *real* [`AdmissionController`] in virtual time
//!    (the controller is time-parameterized for exactly this). Poisson
//!    arrivals sized by Little's law deliberately overshoot capacity,
//!    so the run exercises admission grants, typed rejections, the
//!    shedding hysteresis, drain, and one results-log append per
//!    completed session — the same policy code that gates real sockets,
//!    at 10⁴ concurrent sessions, in milliseconds of wall time.
//! 3. **Socket soak** — a handful of real loopback [`SwiftestClient`]s
//!    with token auth against a real [`UdpTestServer`] running the same
//!    admission policy and results log, optionally behind a
//!    [`FaultyLink`] that blacks out mid-soak. Ends with a graceful
//!    drain and the zero-accepted-session-loss check
//!    (`admitted_total == log_records_total`).
//!
//! [`FaultyLink`]: crate::faulty::FaultyLink
//! [`AdmissionController`]: crate::admission::AdmissionController
//! [`SwiftestClient`]: crate::client::SwiftestClient
//! [`UdpTestServer`]: crate::server::UdpTestServer

use crate::admission::{Admission, AdmissionConfig, AdmissionController, ShedState, TenantConfig};
use crate::client::{SessionAuth, SwiftestClient, WireTestConfig};
use crate::error::WireError;
use crate::faulty::{FaultyLink, FaultyLinkConfig};
use crate::resultslog::{ResultRecord, ResultsLog};
use crate::server::{ServerConfig, UdpTestServer};
use mbw_core::estimator::ConvergenceEstimator;
use mbw_core::probe::{run_swiftest, SwiftestConfig};
use mbw_core::{AccessScenario, TechClass};
use mbw_stats::{Gmm, SeededRng};
use mbw_telemetry::trace;
use mbw_telemetry::{Registry, ServiceMetrics};
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shared-secret token every harness tenant presents.
pub const LOAD_TOKEN: u64 = 0x5EC12E7;

/// Load-harness knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total virtual sessions offered to admission.
    pub clients: usize,
    /// Concurrency the arrival rate is sized to sustain (Little's law);
    /// also the admission controller's `max_sessions`.
    pub target_inflight: usize,
    /// Real `run_swiftest` simulations building the service-time pool.
    pub sample_tests: usize,
    /// Threads for the sample pool.
    pub threads: usize,
    /// Real loopback socket clients in the soak phase (0 skips it).
    pub sockets: usize,
    /// Black out the socket phase's link mid-soak.
    pub chaos: bool,
    /// Seed for arrivals, path draws, and service-time picks.
    pub seed: u64,
    /// Results-log path for the virtual phase; the socket phase appends
    /// `.sock` to it.
    pub results_log: PathBuf,
}

impl LoadConfig {
    /// The full-size service figure: 40 k offered sessions targeting
    /// 12 k concurrent (peak crosses the 10 k bar before shedding).
    pub fn full(results_log: PathBuf) -> Self {
        LoadConfig {
            clients: 40_000,
            target_inflight: 12_000,
            sample_tests: 48,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            sockets: 8,
            chaos: true,
            seed: 7,
            results_log,
        }
    }

    /// This config with `clients` offered sessions and the target the
    /// full-size run gives that many (12 000 of 40 000). A higher target
    /// per client ends the offered load about as inflight first reaches
    /// the shed-enter mark, before shedding can recover.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self.target_inflight = (clients * 3 / 10).max(4);
        self
    }

    /// A seconds-scale variant for CI smoke and unit tests.
    pub fn smoke(results_log: PathBuf) -> Self {
        LoadConfig {
            clients: 2_000,
            target_inflight: 400,
            sample_tests: 8,
            threads: 2,
            sockets: 0,
            chaos: false,
            seed: 7,
            results_log,
        }
    }
}

/// One entry of the empirical service-time pool: a real simulated
/// Swiftest test reduced to what the service layer observes.
#[derive(Debug, Clone, Copy)]
struct SessionSample {
    duration_s: f64,
    ping_s: f64,
    data_bytes: f64,
    estimate_mbps: f64,
    truth_mbps: f64,
    complete: bool,
    usable: bool,
}

/// What the harness measured, phase by phase.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Virtual sessions offered to admission.
    pub offered: u64,
    /// Virtual sessions granted and claimed.
    pub admitted: u64,
    /// Virtual sessions finished (all of them, after the drain).
    pub completed: u64,
    /// Typed rejections, indexed like `REJECT_REASON_LABELS`.
    pub rejected: [u64; 5],
    /// High-water concurrent virtual sessions.
    pub peak_inflight: u64,
    /// Times the shedding state machine engaged.
    pub shed_engagements: u64,
    /// Times it recovered to Normal.
    pub shed_recoveries: u64,
    /// Median completion latency, seconds (admission to estimate).
    pub p50_completion_s: f64,
    /// Tail completion latency, seconds.
    pub p99_completion_s: f64,
    /// Mean |estimate − truth| / truth over completed virtual sessions.
    pub mean_abs_rel_err: f64,
    /// Results-log records appended by the virtual phase.
    pub log_records: u64,
    /// Records recovered when re-opening the virtual phase's log.
    pub log_replayed: u64,
    /// Socket-phase clients that finished with a usable estimate.
    pub socket_ok: u64,
    /// Socket-phase clients rejected at admission.
    pub socket_rejected: u64,
    /// Socket-phase clients that failed outright.
    pub socket_failed: u64,
    /// Socket-phase server: sessions admitted.
    pub socket_admitted: u64,
    /// Socket-phase server: results-log records appended.
    pub socket_log_records: u64,
    /// Whether the socket-phase drain finished inside its deadline.
    pub socket_drain_clean: bool,
    /// Wall-clock time of the whole harness run.
    pub wall: Duration,
}

impl LoadReport {
    /// The zero-accepted-session-loss invariant, checked per phase:
    /// every admitted session left exactly one results-log record.
    pub fn zero_loss(&self) -> bool {
        self.admitted == self.log_records
            && self.log_records == self.log_replayed
            && self.socket_admitted == self.socket_log_records
    }

    /// Render the human-readable experiment report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Swiftest as a service: admission, shedding, drain\n");
        s.push_str(&format!(
            "  offered {} sessions; admitted {} ({:.1}%), rejected {}\n",
            self.offered,
            self.admitted,
            100.0 * self.admitted as f64 / (self.offered.max(1)) as f64,
            self.rejected.iter().sum::<u64>(),
        ));
        s.push_str(&format!(
            "  rejections: bad_token {} | capacity {} | rate_limited {} | overloaded {} | draining {}\n",
            self.rejected[0], self.rejected[1], self.rejected[2], self.rejected[3], self.rejected[4],
        ));
        s.push_str(&format!(
            "  peak inflight {}; shed engaged {}x, recovered {}x\n",
            self.peak_inflight, self.shed_engagements, self.shed_recoveries,
        ));
        s.push_str(&format!(
            "  completion latency p50 {:.2} s, p99 {:.2} s; mean |err| {:.1}%\n",
            self.p50_completion_s,
            self.p99_completion_s,
            100.0 * self.mean_abs_rel_err,
        ));
        s.push_str(&format!(
            "  results log: {} appended, {} replayed on re-open\n",
            self.log_records, self.log_replayed,
        ));
        if self.socket_ok + self.socket_rejected + self.socket_failed > 0 {
            s.push_str(&format!(
                "  socket soak: {} ok, {} rejected, {} failed; server admitted {}, logged {}, drain {}\n",
                self.socket_ok,
                self.socket_rejected,
                self.socket_failed,
                self.socket_admitted,
                self.socket_log_records,
                if self.socket_drain_clean { "clean" } else { "dirty" },
            ));
        }
        s.push_str(&format!(
            "  zero accepted-session loss: {}   ({:.2?} wall)\n",
            if self.zero_loss() { "PASS" } else { "FAIL" },
            self.wall,
        ));
        s
    }

    /// Render the report as the `BENCH_service.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut field = |key: &str, value: String| {
            s.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("offered", self.offered.to_string());
        field("admitted", self.admitted.to_string());
        field("completed", self.completed.to_string());
        field(
            "rejected",
            format!(
                "{{\"bad_token\": {}, \"capacity\": {}, \"rate_limited\": {}, \"overloaded\": {}, \"draining\": {}}}",
                self.rejected[0], self.rejected[1], self.rejected[2], self.rejected[3], self.rejected[4]
            ),
        );
        field("peak_inflight", self.peak_inflight.to_string());
        field("shed_engagements", self.shed_engagements.to_string());
        field("shed_recoveries", self.shed_recoveries.to_string());
        field("p50_completion_s", format!("{:.6}", self.p50_completion_s));
        field("p99_completion_s", format!("{:.6}", self.p99_completion_s));
        field("mean_abs_rel_err", format!("{:.6}", self.mean_abs_rel_err));
        field("log_records", self.log_records.to_string());
        field("log_replayed", self.log_replayed.to_string());
        field("socket_ok", self.socket_ok.to_string());
        field("socket_rejected", self.socket_rejected.to_string());
        field("socket_failed", self.socket_failed.to_string());
        field("socket_admitted", self.socket_admitted.to_string());
        field("socket_log_records", self.socket_log_records.to_string());
        field("socket_drain_clean", self.socket_drain_clean.to_string());
        field("zero_loss", self.zero_loss().to_string());
        s.push_str(&format!(
            "  \"wall_s\": {:.3}\n}}\n",
            self.wall.as_secs_f64()
        ));
        s
    }
}

/// Run every real simulation once, across `threads`, and reduce each to
/// the numbers the service layer sees.
fn build_sample_pool(cfg: &LoadConfig) -> Vec<SessionSample> {
    let scenarios = [
        AccessScenario::default_for(TechClass::Wifi),
        AccessScenario::default_for(TechClass::Lte),
        AccessScenario::default_for(TechClass::Nr),
    ];
    mbw_stats::pool::map(cfg.threads, cfg.sample_tests.max(1), |idx| {
        let scenario = &scenarios[idx % scenarios.len()];
        let drawn = scenario.draw(cfg.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9));
        let result = run_swiftest(
            drawn.build(),
            &scenario.model,
            &mut ConvergenceEstimator::swiftest(),
            &SwiftestConfig::default(),
            drawn.seed,
        );
        SessionSample {
            duration_s: result.duration.as_secs_f64(),
            ping_s: drawn.rtt,
            data_bytes: result.data_bytes,
            estimate_mbps: result.estimate_mbps,
            truth_mbps: drawn.truth_mbps,
            complete: result.status.is_complete(),
            usable: result.status.is_usable(),
        }
    })
}

/// Virtual-time event: arrival of a new session, or completion of a
/// claimed one. Ordered by time (then sequence, for determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrive { session: u64, tenant: u64 },
    Finish { session: u64, sample: usize },
}

/// The arrival rate, spread evenly over `tenants`, at which their
/// buckets let `through` sessions per second pass: a tenant whose share
/// is above its bucket's rate passes only that rate, and the others
/// carry the rest.
fn offered_rate(tenants: &[TenantConfig], through: f64) -> f64 {
    let mut rates: Vec<f64> = tenants.iter().map(|t| t.sessions_per_sec).collect();
    rates.sort_by(f64::total_cmp);
    let (mut rest, mut open) = (through, rates.len());
    for rate in rates {
        if rate * open as f64 >= rest {
            break;
        }
        rest -= rate;
        open -= 1;
    }
    rest / open.max(1) as f64 * tenants.len() as f64
}

/// The virtual service loop: the real controller + real log, fed
/// virtual time. Returns the partially-filled report.
fn run_virtual_phase(
    cfg: &LoadConfig,
    pool: &[SessionSample],
    metrics: &ServiceMetrics,
) -> std::io::Result<LoadReport> {
    let tenants: Vec<TenantConfig> = (0..4)
        .map(|t| {
            let mut tc = TenantConfig::new(t, LOAD_TOKEN);
            // Tenant 3 is the misbehaving one: a tight budget it will
            // blow through, so RateLimited rejections actually occur.
            if t == 3 {
                tc.sessions_per_sec = 20.0;
                tc.burst = 30.0;
            } else {
                tc.sessions_per_sec = 1e6;
                tc.burst = 1e6;
            }
            tc
        })
        .collect();
    let mean_service_s =
        (pool.iter().map(|s| s.duration_s).sum::<f64>() / pool.len() as f64).max(1e-3);
    // Little's law (N = λ·S) sized 1.4× over capacity for the sessions
    // the tenant buckets let through (tenant 3's bucket turns most of
    // its share away before it counts against capacity): the overshoot
    // is what pushes inflight across the shed-enter mark.
    let lambda = offered_rate(&tenants, 1.4 * cfg.target_inflight as f64 / mean_service_s);
    let admission_cfg = AdmissionConfig::open(cfg.target_inflight.max(4)).with_tenants(tenants);
    let mut controller = AdmissionController::new(admission_cfg, metrics.clone());
    let (mut log, recovery) = ResultsLog::open(&cfg.results_log)?;
    let replay_base = recovery.records.len() as u64;
    let mut rng = SeededRng::new(cfg.seed ^ 0x10AD);

    // (nanos, sequence, event) in a min-heap; sequence breaks ties
    // deterministically.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut t_ns = 0u64;
    for session in 0..cfg.clients as u64 {
        t_ns += (rng.exponential(lambda) * 1e9) as u64;
        let tenant = rng.index(4) as u64;
        seq += 1;
        heap.push(std::cmp::Reverse((
            t_ns,
            seq,
            Event::Arrive { session, tenant },
        )));
    }

    let mut rejected = [0u64; 5];
    let mut inflight = 0u64;
    let mut peak_inflight = 0u64;
    let mut shed_engagements = 0u64;
    let mut shed_recoveries = 0u64;
    let mut completed = 0u64;
    let mut log_records = 0u64;
    let mut err_sum = 0.0f64;
    let mut err_n = 0u64;
    let mut arrivals_left = cfg.clients as u64;

    while let Some(std::cmp::Reverse((at_ns, _, ev))) = heap.pop() {
        let now = Duration::from_nanos(at_ns);
        let state_before = controller.state();
        match ev {
            Event::Arrive { session, tenant } => {
                arrivals_left -= 1;
                match controller.request(tenant, LOAD_TOKEN, session, now) {
                    Admission::Granted => {
                        // The virtual client claims its ticket with the
                        // RateRequest immediately (zero think time).
                        assert_eq!(controller.claim(session, now), Some(tenant));
                        inflight += 1;
                        peak_inflight = peak_inflight.max(inflight);
                        let sample = rng.index(pool.len());
                        let end = at_ns + (pool[sample].duration_s * 1e9) as u64;
                        seq += 1;
                        heap.push(std::cmp::Reverse((
                            end,
                            seq,
                            Event::Finish { session, sample },
                        )));
                    }
                    Admission::Rejected(reason) => {
                        rejected[reason.label_index()] += 1;
                    }
                }
                if arrivals_left == 0 {
                    // Offered load exhausted: begin the graceful drain,
                    // exactly as SIGTERM does on the real server.
                    controller.begin_drain();
                }
            }
            Event::Finish { session, sample } => {
                let s = pool[sample];
                controller.release(session);
                inflight -= 1;
                completed += 1;
                metrics.observe_session_end(
                    Duration::from_secs_f64(s.duration_s),
                    s.complete,
                    s.usable,
                );
                log.append(&ResultRecord {
                    tenant: session % 4,
                    session,
                    started_ms: (at_ns / 1_000_000).saturating_sub((s.duration_s * 1e3) as u64),
                    duration_s: s.duration_s,
                    ping_s: s.ping_s,
                    data_bytes: s.data_bytes,
                    estimate_mbps: s.estimate_mbps,
                    truth_mbps: s.truth_mbps,
                    complete: s.complete,
                })?;
                metrics.observe_log_records(1);
                log_records += 1;
                if s.truth_mbps > 0.0 {
                    err_sum += (s.estimate_mbps - s.truth_mbps).abs() / s.truth_mbps;
                    err_n += 1;
                }
            }
        }
        match (state_before, controller.state()) {
            (ShedState::Normal, ShedState::Shedding) => shed_engagements += 1,
            (ShedState::Shedding, ShedState::Normal) => shed_recoveries += 1,
            _ => {}
        }
    }
    log.sync()?;
    assert!(controller.drained(), "drain left sessions in flight");
    assert_eq!(inflight, 0, "event loop leaked inflight sessions");

    // Crash-safety spot check: re-open the log and count what replays.
    let (_, recovery) = ResultsLog::open(&cfg.results_log)?;
    let log_replayed = (recovery.records.len() as u64).saturating_sub(replay_base);

    let hist = metrics.completion_seconds();
    Ok(LoadReport {
        offered: cfg.clients as u64,
        admitted: metrics.admitted_total(),
        completed,
        rejected,
        peak_inflight,
        shed_engagements,
        shed_recoveries,
        p50_completion_s: hist.quantile(0.50).unwrap_or(0.0),
        p99_completion_s: hist.quantile(0.99).unwrap_or(0.0),
        mean_abs_rel_err: if err_n > 0 {
            err_sum / err_n as f64
        } else {
            0.0
        },
        log_records,
        log_replayed,
        socket_ok: 0,
        socket_rejected: 0,
        socket_failed: 0,
        socket_admitted: 0,
        socket_log_records: 0,
        socket_drain_clean: true,
        wall: Duration::ZERO,
    })
}

/// The socket soak: real clients, real server, same policy code. The
/// clients run one after another; the optional chaos blackout is
/// scheduled on the link, so it lands mid-soak without a thread here.
fn run_socket_phase(cfg: &LoadConfig, report: &mut LoadReport) -> std::io::Result<()> {
    let sock_log = cfg.results_log.with_extension("sock");
    // Under an active trace scope the soak's server and clients share
    // the ambient tracer, so client probe spans and server session
    // spans land in one joined trace.
    let tracer = trace::active();
    let server = UdpTestServer::start(ServerConfig {
        emulated_capacity_bps: Some(10_000_000),
        admission: Some(
            AdmissionConfig::open(64).with_tenants(vec![TenantConfig::new(1, LOAD_TOKEN)]),
        ),
        results_log: Some(sock_log),
        drain_deadline: Duration::from_secs(5),
        tracer: tracer.clone(),
        ..Default::default()
    })?;
    let upstream = server.local_addr();
    let link = if cfg.chaos {
        let link = FaultyLink::start(upstream, FaultyLinkConfig::default())?;
        // One mid-soak blackout: long enough to force retries and
        // failbacks, short enough that jittered backoff rides it out.
        link.schedule_blackout(Duration::from_millis(400), Duration::from_millis(250));
        Some(link)
    } else {
        None
    };
    let target = link.as_ref().map_or(upstream, FaultyLink::local_addr);

    let model =
        Gmm::from_triples(&[(0.6, 8.0, 2.0), (0.4, 20.0, 4.0)]).expect("static model valid");
    for i in 0..cfg.sockets {
        let client = SwiftestClient::new(
            model.clone(),
            WireTestConfig {
                auth: Some(SessionAuth {
                    tenant: 1,
                    // One gate-crasher per soak proves rejects flow end
                    // to end.
                    token: if i == 0 { 0xBAD } else { LOAD_TOKEN },
                }),
                tracer: tracer.clone(),
                ..WireTestConfig::default()
            },
        );
        match client.measure(&[target]) {
            Ok(_) => report.socket_ok += 1,
            Err(WireError::Rejected { .. }) => report.socket_rejected += 1,
            Err(_) => report.socket_failed += 1,
        }
    }
    drop(link);
    let metrics = server.service_metrics();
    report.socket_admitted = metrics.admitted_total();
    server.begin_drain();
    report.socket_drain_clean = server.drain();
    report.socket_log_records = metrics.log_records_total();
    Ok(())
}

/// Run the whole harness: sample pool → virtual service loop → socket
/// soak. `registry` receives the `swiftest_service_*` series for the
/// virtual phase (scrape or render it for the soak report).
pub fn run_load(cfg: &LoadConfig, registry: &Registry) -> std::io::Result<LoadReport> {
    let t0 = Instant::now();
    let pool = build_sample_pool(cfg);
    let metrics = ServiceMetrics::register(registry);
    let mut report = run_virtual_phase(cfg, &pool, &metrics)?;
    if cfg.sockets > 0 {
        run_socket_phase(cfg, &mut report)?;
    }
    report.wall = t0.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbw-load-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn the_arrival_rate_makes_up_for_what_a_tight_bucket_turns_away() {
        let tenant = |rate: f64| {
            let mut t = TenantConfig::new(0, LOAD_TOKEN);
            t.sessions_per_sec = rate;
            t
        };
        let open = [tenant(1e6), tenant(1e6)];
        assert_eq!(offered_rate(&open, 900.0), 900.0);
        // Tenant 3 passes 20/s of its quarter; the other three carry the
        // remaining 980/s, a third each.
        let tight = [tenant(1e6), tenant(1e6), tenant(1e6), tenant(20.0)];
        let lambda = offered_rate(&tight, 1_000.0);
        assert!((lambda - 4.0 * 980.0 / 3.0).abs() < 1e-9, "{lambda}");
        let passed: f64 = tight
            .iter()
            .map(|t| (lambda / 4.0).min(t.sessions_per_sec))
            .sum();
        assert!((passed - 1_000.0).abs() < 1e-9, "{passed}");
    }

    #[test]
    fn smoke_run_is_zero_loss_and_sheds() {
        let path = tmp("smoke.log");
        let cfg = LoadConfig::smoke(path.clone());
        let registry = Registry::new();
        let report = run_load(&cfg, &registry).unwrap();
        assert_eq!(report.offered, cfg.clients as u64);
        assert_eq!(report.admitted, report.completed, "drain finished everyone");
        assert!(report.zero_loss(), "{report:?}");
        // The 1.4× overload must actually push the controller into
        // shedding (and back out at least once).
        assert!(report.shed_engagements >= 1, "{report:?}");
        assert!(report.shed_recoveries >= 1, "{report:?}");
        assert!(
            report.rejected[3] > 0,
            "no Overloaded rejections despite overload: {report:?}"
        );
        assert!(
            report.peak_inflight as usize >= cfg.target_inflight * 8 / 10,
            "peak {} never approached target {}",
            report.peak_inflight,
            cfg.target_inflight
        );
        assert!(report.p99_completion_s >= report.p50_completion_s);
        let text = registry.render_prometheus();
        assert!(text.contains("swiftest_service_admitted_total"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_renders_every_field_as_json() {
        let path = tmp("json.log");
        let cfg = LoadConfig {
            clients: 200,
            target_inflight: 50,
            sample_tests: 4,
            threads: 2,
            sockets: 0,
            chaos: false,
            seed: 11,
            results_log: path.clone(),
        };
        let registry = Registry::new();
        let report = run_load(&cfg, &registry).unwrap();
        let json = report.to_json();
        for key in [
            "offered",
            "admitted",
            "rejected",
            "peak_inflight",
            "p50_completion_s",
            "p99_completion_s",
            "log_records",
            "zero_loss",
            "wall_s",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let (path_a, path_b) = (tmp("det-a.log"), tmp("det-b.log"));
        let mut cfg = LoadConfig::smoke(path_a.clone());
        cfg.clients = 500;
        cfg.target_inflight = 100;
        let a = run_load(&cfg, &Registry::new()).unwrap();
        cfg.results_log = path_b.clone();
        let b = run_load(&cfg, &Registry::new()).unwrap();
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.peak_inflight, b.peak_inflight);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap(),
            "results logs differ across identical runs"
        );
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }
}
