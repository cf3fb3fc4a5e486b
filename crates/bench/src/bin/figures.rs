//! Regenerate every table and figure of the paper.
//!
//! ```text
//! figures                          # every figure and report (not service)
//! figures fig04 fig17              # selected experiments
//! figures --quick                  # everything, small populations (CI-sized)
//! figures --records 2000000 \
//!         --threads 8              # paper-scale dataset, 8 workers
//! figures --trials 40 fig20        # 40 campaign trials per series
//! figures --out smoke-t4 ...       # write reports somewhere else
//! figures --metrics-addr 127.0.0.1:9091 ...  # expose /metrics
//! figures --trace-out trace.json ...         # Perfetto-ready span trace
//! figures service                  # the service load harness
//! figures --clients 40000 --sockets 8 service   # sized explicitly
//! figures --no-chaos service       # skip the blackout in the soak
//! figures --profile europe-ran     # everything under one ecosystem
//! figures --profiles all           # cross-ecosystem comparison report
//!
//! # the distributed pipeline (see DESIGN.md, "Distributed reduction"):
//! figures shard-plan --shards 4 --out plans/       # write 4 plan files
//! figures shard-runner --plan plans/shard-00-of-04.plan --out parts/
//! figures reduce --parts parts/ --out results/     # merge + finish
//! ```
//!
//! Each experiment's text report is printed and written to
//! `<out>/<id>.txt` (default `results/`). The measurement figures are
//! produced by the *streaming* fused engine (`mbw_analysis::stream`):
//! per-shard generation feeds straight into the figure accumulators, so
//! the populations are never materialised, generation overlaps analysis
//! across `--threads` workers, and the output is byte-identical for
//! every thread count. The evaluation figures (17, 20–25, ablations,
//! mmWave, cost) are produced the same way from one shared trial
//! campaign: the union of trials the requested figures need is planned
//! once, executed over `--threads` workers, and reduced in a single
//! pass — byte-identical for every thread count. With `--metrics-addr`
//! the per-stage timings (generate / observe / merge / finish and plan
//! / execute / reduce) are scrapable at `/metrics` while the run is in
//! flight. With `--trace-out PATH` the whole run is span-traced: the
//! causal tree (streaming shards, merge, per-figure finish, GMM fits,
//! campaign batches) is written to `PATH` as Chrome trace-event JSON
//! (load it at <https://ui.perfetto.dev>), a text self-profile with
//! slow-span budget violations lands next to it at
//! `PATH.profile.txt`, and per-span-name duration histograms join the
//! registry as `trace_span_seconds`.
//!
//! The `shard-plan` / `shard-runner` / `reduce` subcommands split the
//! same pipeline across independent processes: each runner executes a
//! contiguous slice of both work domains and writes its unfinished
//! accumulator state as an atomic snapshot; the reducer validates the
//! parts' provenance and merges them byte-identically to what one
//! process would have produced. A killed runner leaves no torn part
//! behind, and re-running it skips shards whose parts already exist.

use mbw_analysis::{MeasurementFigures, ProfileFigures, StreamTimings};
use mbw_bench::distributed::{self, ShardRun, COST_SEED, EVAL_SEED, MEASUREMENT_SEED};
use mbw_bench::{bts_eval, deploy_eval, eval_sweep};
use mbw_core::{run_campaign_metered, EvalCounts, ProfileDim};
use mbw_dataset::csv::CsvWriter;
use mbw_dataset::{generate_sharded, DatasetConfig, EcosystemProfile, ShardPlan, Year};
use mbw_telemetry::trace;
use mbw_telemetry::{CampaignMetrics, MetricsServer, PipelineMetrics, Registry, Tracer, WallClock};
use mbw_wire::load;
use std::fs;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Sizes {
    dataset: usize,
    fig17_paths: usize,
    bts_tests: usize,
    replay_days: u32,
}

const FULL: Sizes = Sizes {
    dataset: 400_000,
    fig17_paths: 24,
    bts_tests: 150,
    replay_days: 30,
};
const QUICK: Sizes = Sizes {
    dataset: 60_000,
    fig17_paths: 6,
    bts_tests: 30,
    replay_days: 5,
};

/// Every experiment id, in paper order.
const ALL_IDS: [&str; 28] = [
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
];

/// Extra (non-figure) reports. `service`, the load harness, is not one:
/// it writes a wall-clock `BENCH_service.json`, its results logs and
/// its own report, none of which `results/` holds, so it runs only when
/// named.
const EXTRA_IDS: [&str; 11] = [
    "general",
    "summary",
    "devices",
    "robustness",
    "cost",
    "ablation_init",
    "ablation_converge",
    "ablation_escalate",
    "tcp_variant",
    "mmwave",
    "export_csv",
];

/// What a bare `figures` run produces: every figure, then every extra
/// report — exactly the files `results/` commits.
fn default_ids() -> impl Iterator<Item = &'static str> {
    ALL_IDS.into_iter().chain(EXTRA_IDS)
}

/// The file an id's report is written to in the output directory.
fn report_file(id: &str) -> String {
    match id {
        "export_csv" => "export_csv.csv".to_string(),
        _ => format!("{id}.txt"),
    }
}

/// How many rows `export_csv` writes (streamed, never materialised).
const EXPORT_ROWS: usize = 10_000;

/// A file or directory the binary could not produce. Every I/O failure
/// on an output path surfaces as one of these — naming the operation
/// and the offending path — instead of a panic.
struct OutputError {
    op: &'static str,
    path: PathBuf,
    source: std::io::Error,
}

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot {} {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

/// Why a run failed (printed as `figures: <error>`, exit code 1).
enum CliError {
    Output(OutputError),
    Dist(distributed::DistError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Output(e) => e.fmt(f),
            CliError::Dist(e) => e.fmt(f),
        }
    }
}

impl From<OutputError> for CliError {
    fn from(e: OutputError) -> Self {
        CliError::Output(e)
    }
}

impl From<distributed::DistError> for CliError {
    fn from(e: distributed::DistError) -> Self {
        CliError::Dist(e)
    }
}

fn write_file(path: &Path, contents: &[u8]) -> Result<(), OutputError> {
    fs::write(path, contents).map_err(|source| OutputError {
        op: "write",
        path: path.to_path_buf(),
        source,
    })
}

fn ensure_dir(path: &Path) -> Result<(), OutputError> {
    fs::create_dir_all(path).map_err(|source| OutputError {
        op: "create directory",
        path: path.to_path_buf(),
        source,
    })
}

struct Options {
    quick: bool,
    records: Option<usize>,
    trials: Option<usize>,
    threads: usize,
    out_dir: PathBuf,
    metrics_addr: Option<SocketAddr>,
    trace_out: Option<PathBuf>,
    clients: Option<usize>,
    sockets: Option<usize>,
    no_chaos: bool,
    profile: &'static EcosystemProfile,
    all_profiles: bool,
    shards: Option<u32>,
    plan: Option<PathBuf>,
    parts: Option<PathBuf>,
    selected: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        records: None,
        trials: None,
        threads: 1,
        out_dir: PathBuf::from("results"),
        metrics_addr: None,
        trace_out: None,
        clients: None,
        sockets: None,
        no_chaos: false,
        profile: EcosystemProfile::paper_china(),
        all_profiles: false,
        shards: None,
        plan: None,
        parts: None,
        selected: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--records" => {
                let v = value("--records");
                opts.records = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--records: not a record count: {v}");
                    std::process::exit(2);
                }));
            }
            "--trials" => {
                let v = value("--trials");
                opts.trials = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--trials: not a trial count: {v}");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                let v = value("--threads");
                let threads: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads: not a thread count: {v}");
                    std::process::exit(2);
                });
                opts.threads = threads.max(1);
            }
            "--out" => opts.out_dir = PathBuf::from(value("--out")),
            "--clients" => {
                let v = value("--clients");
                opts.clients = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--clients: not a client count: {v}");
                    std::process::exit(2);
                }));
            }
            "--sockets" => {
                let v = value("--sockets");
                opts.sockets = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--sockets: not a socket count: {v}");
                    std::process::exit(2);
                }));
            }
            "--no-chaos" => opts.no_chaos = true,
            "--profile" => {
                let v = value("--profile");
                opts.profile = EcosystemProfile::by_name(&v).unwrap_or_else(|e| {
                    eprintln!("--profile: {e}");
                    std::process::exit(2);
                });
            }
            "--profiles" => {
                let v = value("--profiles");
                if v != "all" {
                    eprintln!("--profiles: only \"all\" is supported (use --profile {v} for one)");
                    std::process::exit(2);
                }
                opts.all_profiles = true;
            }
            "--shards" => {
                let v = value("--shards");
                let shards: u32 = v.parse().unwrap_or_else(|_| {
                    eprintln!("--shards: not a shard count: {v}");
                    std::process::exit(2);
                });
                if shards == 0 {
                    eprintln!("--shards: must be at least 1");
                    std::process::exit(2);
                }
                opts.shards = Some(shards);
            }
            "--plan" => opts.plan = Some(PathBuf::from(value("--plan"))),
            "--parts" => opts.parts = Some(PathBuf::from(value("--parts"))),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--metrics-addr" => {
                let v = value("--metrics-addr");
                opts.metrics_addr = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--metrics-addr: not a socket address: {v}");
                    std::process::exit(2);
                }));
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            other => opts.selected.push(other.to_string()),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    // One wall-clock tracer scoped around the whole run; every layer
    // (streaming engine, GMM fits, campaign executor, shard runner)
    // picks it up via `trace::active()`. Disabled without `--trace-out`.
    let tracer = if opts.trace_out.is_some() {
        Tracer::new(Arc::new(WallClock::new()), 0xF165)
    } else {
        Tracer::disabled()
    };
    let result = trace::scope(&tracer, || run(&opts));
    let traced = match &opts.trace_out {
        Some(path) => write_trace(&tracer, path).map_err(CliError::Output),
        None => Ok(()),
    };
    if let Err(e) = result.and(traced) {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}

/// Write the Chrome trace-event JSON to `path` and the text
/// self-profile (slow-span budget violations first) to
/// `path.profile.txt`.
fn write_trace(tracer: &Tracer, path: &Path) -> Result<(), OutputError> {
    let spans = tracer.spans();
    write_file(path, trace::export_chrome_json(&spans).as_bytes())?;
    let budgets = trace::SpanBudgets::default_profile();
    let mut profile_path = path.as_os_str().to_owned();
    profile_path.push(".profile.txt");
    let profile_path = PathBuf::from(profile_path);
    write_file(
        &profile_path,
        trace::self_profile(&spans, &budgets, 20).as_bytes(),
    )?;
    eprintln!(
        "trace: {} spans -> {} (profile: {}, {} dropped by the span limit)",
        spans.len(),
        path.display(),
        profile_path.display(),
        tracer.dropped()
    );
    Ok(())
}

/// The evaluation-campaign trial counts a run uses: `--trials` wins,
/// otherwise the quick/full defaults. The distributed planner and the
/// in-process run share this so their plan hashes agree.
fn eval_counts(opts: &Options, sizes: &Sizes) -> EvalCounts {
    match opts.trials {
        Some(n) => EvalCounts::uniform(n),
        None => EvalCounts {
            tests: sizes.bts_tests,
            groups: sizes.bts_tests.min(80),
            ramp_paths: sizes.fig17_paths,
            ablation: sizes.bts_tests.min(60),
            mmwave: sizes.bts_tests.min(80),
        },
    }
}

fn run(opts: &Options) -> Result<(), CliError> {
    match opts.selected.first().map(String::as_str) {
        Some("shard-plan") => return run_shard_plan(opts),
        Some("shard-runner") => return run_shard_runner(opts),
        Some("reduce") => return run_reduce(opts),
        _ => {}
    }

    let sizes = if opts.quick { QUICK } else { FULL };
    let dataset = opts.records.unwrap_or(sizes.dataset);
    let ids: Vec<String> = if opts.selected.is_empty() {
        default_ids().map(str::to_string).collect()
    } else {
        opts.selected.clone()
    };

    ensure_dir(&opts.out_dir)?;

    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let server = opts.metrics_addr.map(|addr| {
        let server = MetricsServer::start(addr, registry.clone()).unwrap_or_else(|e| {
            eprintln!("--metrics-addr {addr}: {e}");
            std::process::exit(2);
        });
        eprintln!("metrics exposed at http://{}/metrics", server.local_addr());
        server
    });

    // Figs 1–16/18–19 all come out of one streaming fused
    // generate→analyze run: the populations are never materialised.
    let is_sweep_id = |id: &str| mbw_analysis::sweep::SWEEP_IDS.contains(&id);

    // --profiles all: run that sweep once per built-in ecosystem and
    // lay the figures side by side in one comparison report. The
    // evaluation campaign is out of scope here — the cross-ecosystem
    // report covers the measurement figures.
    if opts.all_profiles {
        run_all_profiles(opts, dataset, &metrics)?;
        if let Some(server) = server {
            server.shutdown();
        }
        return Ok(());
    }

    let needs_sweep = ids.iter().any(|id| is_sweep_id(id.as_str()));
    let figures = needs_sweep.then(|| {
        eprintln!(
            "streaming {dataset} records per year through the fused engine \
             ({} threads, profile {})...",
            opts.threads, opts.profile.name
        );
        let (figs, t) = stream_profile(opts.profile, dataset, opts.threads);
        let records = t.records as u64;
        // The rate gauges report actual pipeline throughput, so they
        // get wall clock; the per-stage series below carry the CPU
        // breakdown (generate/observe/finish_cpu are summed across
        // workers, finish is the stage's wall time).
        metrics.observe_generated(records, t.wall);
        metrics.observe_analyzed(records, t.wall);
        metrics.observe_stage("generate", records, t.generate);
        metrics.observe_stage("observe", records, t.observe);
        metrics.observe_stage("merge", records, t.merge);
        metrics.observe_stage("finish", records, t.finish);
        metrics.observe_stage("finish_cpu", records, t.finish_cpu);
        eprintln!(
            "streamed {} records in {:.2?} ({:.0} records/s end-to-end)",
            t.records,
            t.wall,
            t.records_per_second()
        );
        eprintln!(
            "  stages: generate {:.2?} + observe {:.2?} (cpu, summed over workers) \
             | merge {:.2?} | finish {:.2?} wall / {:.2?} cpu",
            t.generate, t.observe, t.merge, t.finish, t.finish_cpu
        );
        figs
    });

    // The evaluation figures all come out of one shared trial campaign:
    // plan the union, execute it once, reduce every figure in a pass.
    let is_eval_id = |id: &str| eval_sweep::EVAL_SWEEP_IDS.contains(&id);
    let eval_ids: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| is_eval_id(id))
        .collect();
    let eval_figures = (!eval_ids.is_empty()).then(|| {
        let counts = eval_counts(opts, &sizes);
        let campaign_metrics = CampaignMetrics::register(&registry);
        let plan_start = Instant::now();
        let mut plan = eval_sweep::plan_for(&eval_ids, &counts, EVAL_SEED);
        // The campaign's profile dimension mirrors the dataset profile
        // by name; trial seeds don't depend on it, so per-profile
        // campaigns stay CRN-paired.
        plan.set_profile(ProfileDim::by_name(opts.profile.name).unwrap_or_default());
        let plan_elapsed = plan_start.elapsed();
        campaign_metrics.observe_stage("plan", plan.len() as u64, plan_elapsed);
        let exec_start = Instant::now();
        let pool = run_campaign_metered(&plan, opts.threads, Some(&campaign_metrics));
        let exec_elapsed = exec_start.elapsed();
        campaign_metrics.observe_stage("execute", pool.len() as u64, exec_elapsed);
        eprintln!(
            "campaign: {} trials ({} outcome rows) in {exec_elapsed:.2?} ({} threads)",
            pool.len(),
            pool.outcome_rows(),
            opts.threads
        );
        let reduce_start = Instant::now();
        let reduced = eval_sweep::reduce_with(
            eval_sweep::EvalFigureSet::new(COST_SEED),
            &pool,
            opts.threads,
        );
        let reduce_elapsed = reduce_start.elapsed();
        campaign_metrics.observe_stage("reduce", pool.len() as u64, reduce_elapsed);
        eprintln!(
            "  stages: plan {plan_elapsed:.2?} | execute {exec_elapsed:.2?} \
             | reduce {reduce_elapsed:.2?}"
        );
        reduced
    });

    for id in &ids {
        if id == "export_csv" {
            // Shard streams are prefix-stable: the first N records of a
            // sharded run don't depend on the total test count, so
            // exporting is a fresh small generation rather than a slice
            // of a materialised population — same bytes either way.
            let rows = dataset.min(EXPORT_ROWS);
            let export = generate_sharded(
                DatasetConfig {
                    seed: MEASUREMENT_SEED,
                    tests: rows,
                    year: Year::Y2021,
                    profile: opts.profile,
                },
                ShardPlan::threads(opts.threads),
            );
            let path = opts.out_dir.join(report_file(id));
            let csv_err = |source| OutputError {
                op: "write CSV to",
                path: path.clone(),
                source,
            };
            let file = fs::File::create(&path).map_err(|source| OutputError {
                op: "create",
                path: path.clone(),
                source,
            })?;
            let mut writer = CsvWriter::with_profile(BufWriter::new(file), opts.profile.name)
                .map_err(csv_err)?;
            for r in &export {
                writer.write_record(r).map_err(csv_err)?;
            }
            writer.into_inner().map_err(csv_err)?;
            println!("──── {id} ─────────────────────────────────────────");
            println!("({rows} rows written to {path:?})");
            continue;
        }
        if id == "service" {
            // The service load harness: virtual clients through the
            // real admission controller, then a socket chaos soak. Its
            // counters land in the shared registry (scrapable via
            // --metrics-addr) and its numbers in BENCH_service.json.
            let mut cfg = if opts.quick {
                load::LoadConfig::smoke(opts.out_dir.join("service.reslog"))
            } else {
                load::LoadConfig::full(opts.out_dir.join("service.reslog"))
            };
            cfg.threads = opts.threads.max(cfg.threads.min(2));
            if let Some(clients) = opts.clients {
                cfg = cfg.with_clients(clients);
            }
            if let Some(sockets) = opts.sockets {
                cfg.sockets = sockets;
            }
            if opts.no_chaos {
                cfg.chaos = false;
            }
            eprintln!(
                "service load: {} virtual clients (target {} inflight), {} socket clients{}...",
                cfg.clients,
                cfg.target_inflight,
                cfg.sockets,
                if cfg.chaos { " under chaos" } else { "" }
            );
            let report = load::run_load(&cfg, &registry)
                .unwrap_or_else(|e| panic!("service load harness: {e}"));
            let json_path = opts.out_dir.join("BENCH_service.json");
            write_file(&json_path, report.to_json().as_bytes())?;
            let text = report.render();
            write_file(&opts.out_dir.join(format!("{id}.txt")), text.as_bytes())?;
            println!("──── {id} ─────────────────────────────────────────");
            println!("{text}");
            if !report.zero_loss() {
                eprintln!("service: accepted-session loss detected");
                std::process::exit(1);
            }
            continue;
        }
        let text = match id.as_str() {
            m if is_sweep_id(m) => figures
                .as_ref()
                .expect("swept above")
                .render(m)
                .expect("known measurement id"),
            e if is_eval_id(e) => eval_figures
                .as_ref()
                .expect("campaign ran above")
                .render(e)
                .expect("known evaluation id")
                .unwrap_or_else(|err| format!("{err}\n")),
            "fig26" => deploy_eval::fig26(sizes.replay_days, 0x26)
                .map(|f| f.render())
                .unwrap_or_else(|err| format!("{err}\n")),
            "tcp_variant" => {
                bts_eval::tcp_variant_comparison(sizes.bts_tests.min(60), 0x7C9).render()
            }
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        };
        write_file(&opts.out_dir.join(report_file(id)), text.as_bytes())?;
        println!("──── {id} ─────────────────────────────────────────");
        println!("{text}");
    }

    if metrics.generated_total() > 0 {
        eprintln!(
            "pipeline totals: {} records generated, {} analyzed",
            metrics.generated_total(),
            metrics.analyzed_total()
        );
    }
    // Fold span durations into the shared registry so a scrape sees
    // `trace_span_seconds{name=...}` next to the stage gauges.
    let ambient = trace::active();
    if ambient.enabled() {
        let spans = ambient.spans();
        trace::publish_spans(&registry, &spans, &trace::SpanBudgets::default_profile());
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

/// Stream the measurement sweep: both yearly populations of `records`
/// tests under `profile`, from the run's fixed dataset seed.
fn stream_profile(
    profile: &'static EcosystemProfile,
    records: usize,
    threads: usize,
) -> (MeasurementFigures, StreamTimings) {
    let config = |year| DatasetConfig {
        seed: MEASUREMENT_SEED,
        tests: records,
        year,
        profile,
    };
    mbw_analysis::stream_figures_cached(
        config(Year::Y2020),
        config(Year::Y2021),
        ShardPlan::threads(threads),
        None,
    )
}

/// The distributed run parameters shared by `shard-plan` and the
/// equivalence contract: everything except `shards` mirrors what a
/// plain `figures` run with the same flags would use.
fn dist_config(opts: &Options, shards: u32) -> distributed::DistConfig {
    let sizes = if opts.quick { QUICK } else { FULL };
    distributed::DistConfig {
        profile: opts.profile,
        records: opts.records.unwrap_or(sizes.dataset),
        counts: eval_counts(opts, &sizes),
        shards,
    }
}

/// `figures shard-plan --shards K --out DIR`: write one plan snapshot
/// per shard and print the paths (one per line, shard order) so a
/// driver can hand them to `shard-runner` processes.
fn run_shard_plan(opts: &Options) -> Result<(), CliError> {
    let Some(shards) = opts.shards else {
        eprintln!("shard-plan needs --shards K");
        std::process::exit(2);
    };
    let cfg = dist_config(opts, shards);
    let paths = distributed::write_plans(&cfg, &opts.out_dir)?;
    eprintln!(
        "planned {} shards of {} records + {} trials under profile {} (plan hash {:#018x})",
        paths.len(),
        cfg.records,
        distributed::full_eval_plan(&cfg.counts, cfg.profile).len(),
        cfg.profile.name,
        distributed::plan_hash(&cfg),
    );
    for path in &paths {
        println!("{}", path.display());
    }
    Ok(())
}

/// `figures shard-runner --plan FILE --out DIR`: execute one shard's
/// assignment and write its partial-state snapshot atomically. If a
/// valid part for the same plan already exists the shard is skipped, so
/// re-running an interrupted fan-out resumes where it left off.
fn run_shard_runner(opts: &Options) -> Result<(), CliError> {
    let Some(plan) = &opts.plan else {
        eprintln!("shard-runner needs --plan FILE");
        std::process::exit(2);
    };
    match distributed::run_shard_file(plan, &opts.out_dir, opts.threads)? {
        ShardRun::Ran(path) => eprintln!("shard executed -> {}", path.display()),
        ShardRun::Skipped(path) => eprintln!(
            "skipping shard: a valid part for this plan already exists at {}",
            path.display()
        ),
    }
    Ok(())
}

/// `figures reduce --parts DIR --out OUTDIR [ids…]`: merge every part
/// snapshot in DIR and write the finished figure reports — byte-
/// identical to a single-process `figures` run with the same
/// parameters. With no ids, every measurement and evaluation figure the
/// distributed pipeline covers is written.
fn run_reduce(opts: &Options) -> Result<(), CliError> {
    let Some(parts_dir) = &opts.parts else {
        eprintln!("reduce needs --parts DIR");
        std::process::exit(2);
    };
    let paths = distributed::collect_parts(parts_dir)?;
    let reduced = distributed::reduce_parts(&paths, opts.threads)?;
    ensure_dir(&opts.out_dir)?;
    let ids: Vec<&str> = if opts.selected.len() > 1 {
        opts.selected[1..].iter().map(String::as_str).collect()
    } else {
        mbw_analysis::sweep::SWEEP_IDS
            .iter()
            .chain(eval_sweep::EVAL_SWEEP_IDS.iter())
            .copied()
            .collect()
    };
    for id in &ids {
        let text = if let Some(text) = reduced.figures.render(id) {
            text
        } else if let Some(result) = reduced.eval.render(id) {
            result.unwrap_or_else(|err| format!("{err}\n"))
        } else {
            eprintln!("unknown experiment id for reduce: {id}");
            std::process::exit(2);
        };
        write_file(&opts.out_dir.join(format!("{id}.txt")), text.as_bytes())?;
        println!("──── {id} ─────────────────────────────────────────");
        println!("{text}");
    }
    for part in &reduced.parts {
        eprintln!(
            "  shard {:02}: execute {:.2}s, {} snapshot bytes",
            part.shard_index, part.execute_seconds, part.snapshot_bytes
        );
    }
    eprintln!(
        "reduce: {} parts merged in {:.2}s, finished in {:.2}s (profile {})",
        reduced.parts.len(),
        reduced.merge_seconds,
        reduced.finish_seconds,
        reduced.profile.name
    );
    Ok(())
}

/// `--profiles all`: stream the measurement sweep once per built-in
/// ecosystem, write each profile's figures under
/// `<out>/profiles/<name>/`, and emit the side-by-side
/// `profile_comparison.txt` report.
fn run_all_profiles(
    opts: &Options,
    dataset: usize,
    metrics: &PipelineMetrics,
) -> Result<(), CliError> {
    let is_sweep_id = |id: &str| mbw_analysis::sweep::SWEEP_IDS.contains(&id);
    let sweep_ids: Vec<&str> = if opts.selected.is_empty() {
        mbw_analysis::sweep::SWEEP_IDS.to_vec()
    } else {
        let picked: Vec<&str> = opts
            .selected
            .iter()
            .map(String::as_str)
            .filter(|id| is_sweep_id(id))
            .collect();
        if picked.is_empty() {
            eprintln!("--profiles all: none of the selected ids are measurement figures");
            std::process::exit(2);
        }
        picked
    };
    let runs: Vec<ProfileFigures> = EcosystemProfile::all_builtins()
        .into_iter()
        .map(|profile| {
            eprintln!(
                "streaming {dataset} records per year under profile {} ({} threads)...",
                profile.name, opts.threads
            );
            let (figures, t) = stream_profile(profile, dataset, opts.threads);
            metrics.observe_generated(t.records as u64, t.wall);
            metrics.observe_analyzed(t.records as u64, t.wall);
            ProfileFigures {
                profile: profile.name,
                figures,
            }
        })
        .collect();
    for run in &runs {
        let dir = opts.out_dir.join("profiles").join(run.profile);
        ensure_dir(&dir)?;
        for id in &sweep_ids {
            let text = run.figures.render(id).expect("known measurement id");
            write_file(&dir.join(format!("{id}.txt")), text.as_bytes())?;
        }
    }
    let report = mbw_analysis::comparison_report(&runs, &sweep_ids);
    write_file(
        &opts.out_dir.join("profile_comparison.txt"),
        report.as_bytes(),
    )?;
    println!("──── profile_comparison ───────────────────────────");
    println!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerating `results/` with a bare run must leave no file that
    /// `results/` does not commit, so every default id's report is one
    /// of its files.
    #[test]
    fn a_bare_run_writes_only_files_results_commits() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for id in default_ids() {
            let file = results.join(report_file(id));
            assert!(
                file.is_file(),
                "{id} writes {}, which results/ does not hold",
                file.display()
            );
        }
    }
}
