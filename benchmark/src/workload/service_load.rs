//! `service_load`: an open loop, in virtual time, through the real
//! admission controller and results log.
//!
//! Why: the only workload where `wire`'s admission, shedding/drain
//! hysteresis and log appends do the work. It drives `frame`'s CRC
//! framing with tens of thousands of tiny 65-byte records where
//! `shard_reduce` drives it with four huge snapshots, so a framing
//! change that helps one and hurts the other shows.
//!
//! The loop is open: sessions arrive on a seed-fixed Poisson schedule
//! at 1.4 × the sustainable rate (Little's law on a pool of real
//! `run_swiftest` durations) whether or not earlier ones were served,
//! and each is timed from when it was due. The schedule is virtual, so
//! the generator is never late. `mbw_bench::load` has the repository's
//! own version of this loop, but it pulls tokio; this one drives the
//! same `AdmissionController` and `ResultsLog` from a min-heap.

use super::{PassOut, Workload};
use crate::span::{Layer, Recorder};
use mbw_core::estimator::ConvergenceEstimator;
use mbw_core::probe::{run_swiftest, SwiftestConfig};
use mbw_core::{AccessScenario, TechClass};
use mbw_stats::SeededRng;
use mbw_telemetry::{Registry, ServiceMetrics};
use mbw_wire::admission::{
    Admission, AdmissionConfig, AdmissionController, ShedState, TenantConfig,
};
use mbw_wire::proto::RejectReason;
use mbw_wire::resultslog::{ResultRecord, ResultsLog};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Sessions offered per pass.
pub const SESSIONS: usize = 80_000;
/// Real `run_swiftest` simulations behind the service-time pool.
pub const POOL_TESTS: usize = 256;
/// Concurrent sessions the controller allows.
const MAX_SESSIONS: usize = 2_000;
/// Offered load relative to the sustainable rate.
const OVERLOAD: f64 = 1.4;
/// Arrivals at the end of the schedule that meet a draining server.
const DRAIN_TAIL: usize = 400;
/// Completed sessions between two `ResultsLog::sync` calls.
const SYNC_EVERY: u64 = 4_096;
const TOKEN: u64 = 0x05EC_12E7;
/// The well-behaved tenant and the one that outruns its token bucket.
const TENANTS: [u64; 2] = [1, 2];

/// One real simulated Swiftest test, reduced to what the service sees.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub duration_s: f64,
    pub rtt_s: f64,
    pub data_bytes: f64,
    pub estimate_mbps: f64,
    pub truth_mbps: f64,
    pub complete: bool,
}

/// Run `n` real Swiftest simulations over the three access scenarios.
pub fn sample_pool(seed: u64, n: usize) -> Vec<Sample> {
    let scenarios = TechClass::ALL.map(AccessScenario::default_for);
    (0..n)
        .map(|i| {
            let scenario = &scenarios[i % scenarios.len()];
            let drawn = scenario.draw(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let result = run_swiftest(
                drawn.build(),
                &scenario.model,
                &mut ConvergenceEstimator::swiftest(),
                &SwiftestConfig::default(),
                drawn.seed,
            );
            Sample {
                duration_s: result.duration.as_secs_f64(),
                rtt_s: drawn.rtt,
                data_bytes: result.data_bytes,
                estimate_mbps: result.estimate_mbps,
                truth_mbps: drawn.truth_mbps,
                complete: result.status.is_complete(),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    at_ns: u64,
    tenant: u64,
    token: u64,
    /// Which pool sample the session runs as, if admitted.
    sample: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The client's `RateRequest` reaches the server one RTT after its
    /// `Hello` was granted.
    Claim {
        session: u64,
    },
    Finish {
        session: u64,
    },
}

/// What one pass of the loop observed; all of it is virtual-time and
/// therefore exact for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub offered: u64,
    pub admitted: u64,
    pub completed: u64,
    pub replayed: u64,
    /// Indexed like `REJECT_REASON_LABELS`.
    pub rejected: [u64; 5],
    pub shed_transitions: u64,
    pub peak_inflight: u64,
    /// 99th percentile of the wait from a session's due time to its
    /// claim, milliseconds.
    pub queue_wait_ms_p99: f64,
}

impl Outcome {
    pub fn admit_ratio(&self) -> f64 {
        self.admitted as f64 / self.offered.max(1) as f64
    }

    fn check(&self) -> Result<(), String> {
        let rejected: u64 = self.rejected.iter().sum();
        if self.offered != self.admitted + rejected {
            return Err(format!(
                "offered {} != admitted {} + rejected {rejected}",
                self.offered, self.admitted
            ));
        }
        if self.admitted != self.completed || self.completed != self.replayed {
            return Err(format!(
                "admitted {} / completed {} / replayed {} differ",
                self.admitted, self.completed, self.replayed
            ));
        }
        if let Some(unseen) = self.rejected.iter().position(|&n| n == 0) {
            return Err(format!("reject reason #{unseen} never occurred"));
        }
        Ok(())
    }
}

pub struct ServiceLoad {
    seed: u64,
    sessions: usize,
    log_path: PathBuf,
    pool: Vec<Sample>,
    arrivals: Vec<Arrival>,
    admission: AdmissionConfig,
    metrics: ServiceMetrics,
    /// The last pass's outcome, for the layer report.
    pub last: Outcome,
}

impl ServiceLoad {
    pub fn new(seed: u64, scratch: &Path, sessions: usize) -> Self {
        ServiceLoad {
            seed,
            sessions,
            log_path: scratch.join("results.mbwl"),
            pool: Vec::new(),
            arrivals: Vec::new(),
            admission: AdmissionConfig::open(MAX_SESSIONS),
            metrics: ServiceMetrics::register(&Registry::new()),
            last: Outcome::default(),
        }
    }

    /// Pool, arrival schedule and admission policy: set-up without its
    /// cold pass.
    pub fn prepare(&mut self) {
        self.pool = sample_pool(self.seed, POOL_TESTS);
        let n = self.pool.len() as f64;
        let mean_service_s = (self.pool.iter().map(|s| s.duration_s).sum::<f64>() / n).max(1e-3);
        let mean_rtt_s = self.pool.iter().map(|s| s.rtt_s).sum::<f64>() / n;
        // Little's law, N = λ·S, sized over capacity: the overshoot is
        // what pushes inflight across the shed-enter mark.
        let lambda = OVERLOAD * MAX_SESSIONS as f64 / mean_service_s;

        let mut rng = SeededRng::new(self.seed ^ 0x10AD);
        let mut at_ns = 0u64;
        self.arrivals = (0..self.sessions)
            .map(|_| {
                at_ns += (rng.exponential(lambda) * 1e9) as u64;
                Arrival {
                    at_ns,
                    // A quarter of the sessions belong to the tenant
                    // with the tight bucket; one in a hundred presents
                    // a wrong token.
                    tenant: TENANTS[usize::from(rng.chance(0.25))],
                    token: if rng.chance(0.01) { !TOKEN } else { TOKEN },
                    sample: rng.index(self.pool.len()) as u32,
                }
            })
            .collect();

        let mut generous = TenantConfig::new(TENANTS[0], TOKEN);
        generous.sessions_per_sec = 1e6;
        generous.burst = 1e6;
        let mut tight = TenantConfig::new(TENANTS[1], TOKEN);
        tight.sessions_per_sec = 0.15 * lambda;
        tight.burst = 50.0;
        self.admission = AdmissionConfig::open(MAX_SESSIONS).with_tenants(vec![generous, tight]);
        // Granted tickets wait one RTT for their claim; a queue as deep
        // as the mean demand is full about half the time, so the
        // bounded-queue path (`Capacity`) is exercised on every seed.
        self.admission.queue_depth = ((lambda * mean_rtt_s) as usize).max(8);
    }

    fn run(&mut self, rec: &mut Recorder) -> PassOut {
        let result = rec.span(Layer::Harness, "pass", |rec| self.serve(rec));
        match result {
            Ok((outcome, digest)) => {
                let check = outcome.check();
                self.last = outcome;
                PassOut {
                    digest,
                    items: self.sessions as u64,
                    broken: check.err(),
                }
            }
            Err(e) => PassOut {
                digest: 0,
                items: 0,
                broken: Some(format!("{}: {e}", self.log_path.display())),
            },
        }
    }

    fn serve(&self, rec: &mut Recorder) -> std::io::Result<(Outcome, u64)> {
        let _ = std::fs::remove_file(&self.log_path);
        let (mut log, _) = rec.span(Layer::Wire, "resultslog.open", |_| {
            ResultsLog::open(&self.log_path)
        })?;
        let mut controller = AdmissionController::new(self.admission.clone(), self.metrics.clone());
        let mut out = Outcome::default();
        let mut waits_ns: Vec<u64> = Vec::with_capacity(self.arrivals.len());
        let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut inflight = 0u64;
        let mut state = ShedState::Normal;
        let drain_from = self.arrivals.len().saturating_sub(DRAIN_TAIL);

        rec.span(Layer::Harness, "event_loop", |rec| -> std::io::Result<()> {
            let mut next = 0usize;
            loop {
                let due = self.arrivals.get(next).map(|a| a.at_ns);
                let queued = heap.peek().map(|Reverse((at, ..))| *at);
                rec.next_event();
                match (due, queued) {
                    (None, None) => break,
                    // Arrivals win ties, so the order is a function of
                    // the schedule alone.
                    (Some(at), q) if q.is_none_or(|q| at <= q) => {
                        let arrival = self.arrivals[next];
                        let session = next as u64;
                        next += 1;
                        out.offered += 1;
                        if session as usize == drain_from {
                            // Offered load is nearly exhausted: drain
                            // as SIGTERM does on the real server.
                            controller.begin_drain();
                        }
                        let now = Duration::from_nanos(at);
                        let decision = rec.sampled(Layer::Wire, "admission.request", |_| {
                            controller.request(arrival.tenant, arrival.token, session, now)
                        });
                        match decision {
                            Admission::Granted => {
                                let rtt = self.pool[arrival.sample as usize].rtt_s;
                                seq += 1;
                                heap.push(Reverse((
                                    at + (rtt * 1e9) as u64,
                                    seq,
                                    Event::Claim { session },
                                )));
                            }
                            Admission::Rejected(reason) => {
                                out.rejected[reason.label_index()] += 1;
                            }
                        }
                    }
                    _ => {
                        let Reverse((at, _, event)) = heap.pop().expect("peeked");
                        let now = Duration::from_nanos(at);
                        match event {
                            Event::Claim { session } => {
                                let arrival = self.arrivals[session as usize];
                                let claimed = rec.sampled(Layer::Wire, "admission.claim", |_| {
                                    controller.claim(session, now)
                                });
                                if claimed.is_some() {
                                    out.admitted += 1;
                                    inflight += 1;
                                    out.peak_inflight = out.peak_inflight.max(inflight);
                                    waits_ns.push(at - arrival.at_ns);
                                    let service = self.pool[arrival.sample as usize].duration_s;
                                    seq += 1;
                                    heap.push(Reverse((
                                        at + (service * 1e9) as u64,
                                        seq,
                                        Event::Finish { session },
                                    )));
                                } else {
                                    // The drain cleared the ticket: the
                                    // server refuses the session.
                                    out.rejected[RejectReason::Draining.label_index()] += 1;
                                }
                            }
                            Event::Finish { session } => {
                                let arrival = self.arrivals[session as usize];
                                let s = self.pool[arrival.sample as usize];
                                rec.sampled(Layer::Wire, "admission.release", |_| {
                                    controller.release(session)
                                });
                                inflight -= 1;
                                out.completed += 1;
                                let record = ResultRecord {
                                    tenant: arrival.tenant,
                                    session,
                                    started_ms: (at / 1_000_000)
                                        .saturating_sub((s.duration_s * 1e3) as u64),
                                    duration_s: s.duration_s,
                                    ping_s: s.rtt_s,
                                    data_bytes: s.data_bytes,
                                    estimate_mbps: s.estimate_mbps,
                                    truth_mbps: s.truth_mbps,
                                    complete: s.complete,
                                };
                                rec.sampled(Layer::Wire, "resultslog.append", |_| {
                                    log.append(&record)
                                })?;
                                if out.completed % SYNC_EVERY == 0 {
                                    rec.span(Layer::Wire, "resultslog.sync", |_| log.sync())?;
                                }
                            }
                        }
                    }
                }
                if controller.state() != state {
                    state = controller.state();
                    out.shed_transitions += 1;
                }
            }
            Ok(())
        })?;
        rec.span(Layer::Wire, "resultslog.sync", |_| log.sync())?;
        drop(log);

        let replay = rec.span(Layer::Wire, "resultslog.read_all", |_| {
            ResultsLog::read_all(&self.log_path)
        })?;
        out.replayed = replay.records.len() as u64;
        rec.span(Layer::Harness, "digest", |_| {
            waits_ns.sort_unstable();
            let p99 = waits_ns
                .get((waits_ns.len() * 99 / 100).min(waits_ns.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0);
            out.queue_wait_ms_p99 = p99 as f64 / 1e6;
            let mut hash = mbw_frame::Crc32::new();
            for record in &replay.records {
                hash.update(&record.encode_payload());
            }
            let text = format!("{out:?} clean={} crc={:08x}", replay.clean(), hash.finish());
            Ok((out, mbw_frame::fnv1a64(text.as_bytes())))
        })
    }
}

impl Workload for ServiceLoad {
    fn setup(&mut self) -> PassOut {
        self.prepare();
        self.pass()
    }

    fn pass(&mut self) -> PassOut {
        // The repository has no tokio-free entry point for this loop,
        // so the opaque pass is the composed one with spans off.
        self.run(&mut Recorder::off())
    }

    fn composed(&mut self, rec: &mut Recorder) -> PassOut {
        self.run(rec)
    }

    fn verify(&mut self) -> Vec<(String, bool)> {
        // Re-opening the log must recover exactly what was appended and
        // leave it ready for more.
        let reopened = ResultsLog::open(&self.log_path).map(|(_, recovery)| {
            recovery.clean() && recovery.records.len() as u64 == self.last.replayed
        });
        vec![(
            "re-opening the results log recovers every record, cleanly".to_string(),
            reopened.unwrap_or(false),
        )]
    }
}
