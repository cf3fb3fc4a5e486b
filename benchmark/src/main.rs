//! The repository's benchmark of record. See `README.md` beside this
//! package for what every number means.
//!
//! ```text
//! mbw-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--min-passes N]
//! mbw-benchmark paper-scale [--seed N]
//! ```
//!
//! One process measures one workload on one worker thread. The last
//! line of standard output is the result as one JSON object.

mod alloc;
mod harness;
mod layers;
mod report;
mod span;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    min_passes: usize,
    paper_scale: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 28.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        min_passes: 80,
        paper_scale: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| a == "paper-scale") {
        args.paper_scale = true;
        argv.next();
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => args.out = PathBuf::from(value),
            "--min-passes" => args.min_passes = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds {} must be positive", args.seconds));
    }
    if !args.paper_scale && !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn print_provenance(args: &Args, scratch: &Path) {
    let p = sys::Provenance::collect(scratch);
    println!(
        "# mbw-benchmark  workload={}  seed={}  seconds={}  trace={}  threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# git={}  {}  nproc={}  runner=\"{}\"  scratch={} ({})",
        p.git_rev,
        p.rustc,
        p.nproc,
        p.runner_class,
        scratch.display(),
        p.scratch_fs
    );
    println!(
        "# offline shims leave out: mbw-wire {:?}, mbw-bench {:?}",
        mbw_wire::LEFT_OUT,
        mbw_bench::LEFT_OUT
    );
}

fn run(args: &Args) -> Result<(), String> {
    let scratch = args
        .out
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    print_provenance(args, &scratch);

    let mut workload =
        workload::build(&args.workload, args.seed, &scratch).expect("name was checked");
    let report = if args.trace {
        harness::traced(workload.as_mut(), args.seconds, args.min_passes, |rec| {
            layers::run(args.seed, &scratch, rec)
        })
    } else {
        harness::gated(workload.as_mut(), args.seconds, args.min_passes)
    };
    drop(workload);
    let _ = std::fs::remove_dir_all(&scratch);

    if let Some(trace) = &report.trace_json {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {}", report.summary);
        println!(
            "# trace written to {} (open in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    print!("{}", report::table(&report.metrics));
    print!("{}", report::table(&report.context));
    for note in &report.tally.notes {
        println!("FAILED {note}");
    }
    println!(
        "{}",
        report::result_json(
            report.tally.correct(),
            report.tally.attempted,
            report.tally.failed,
            &report.metrics
        )
    );
    Ok(())
}

/// ROADMAP item 1's never-run row: one streaming pass at the paper's
/// 2 × 11.8 M records, one thread. Opt-in; not part of any gated run.
fn paper_scale(args: &Args) {
    use mbw_analysis::{stream_figures_cached, FitCache};
    use mbw_dataset::ShardPlan;
    const RECORDS_PER_YEAR: usize = 11_800_000;
    let (baseline, current) = workload::measure_stream::populations(args.seed, RECORDS_PER_YEAR);
    let cache = FitCache::new();
    let started = std::time::Instant::now();
    let ((figures, timings), heap) = alloc::account(|| {
        stream_figures_cached(baseline, current, ShardPlan::threads(1), Some(&cache))
    });
    let text = workload::measurement_text(&figures);
    let wall = started.elapsed().as_secs_f64();
    let p = sys::Provenance::collect(Path::new("."));
    println!(
        "paper-scale: stream_figures_cached over 2 x {RECORDS_PER_YEAR} records, 1 thread, seed {}",
        args.seed
    );
    println!(
        "  git={}  {}  runner=\"{}\"",
        p.git_rev, p.rustc, p.runner_class
    );
    println!("  wall_s            {wall:.3}");
    println!("  generate_s        {:.3}", timings.generate.as_secs_f64());
    println!("  observe_s         {:.3}", timings.observe.as_secs_f64());
    println!("  finish_s          {:.3}", timings.finish.as_secs_f64());
    println!("  records_per_s     {:.0}", timings.records as f64 / wall);
    println!("  peak_heap_mb      {:.1}", heap.peak_bytes as f64 / 1e6);
    println!(
        "  alloc_mb          {:.1}",
        heap.requested_bytes as f64 / 1e6
    );
    println!(
        "  peak_rss_mb       {:.1} (VmHWM)",
        sys::peak_rss_bytes() as f64 / 1e6
    );
    println!(
        "  figures_digest    {:#018x}",
        mbw_frame::fnv1a64(text.as_bytes())
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mbw-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.paper_scale {
        paper_scale(&args);
        return ExitCode::SUCCESS;
    }
    // Incorrect output still exits 0, with `"correct": false`: the
    // result line is the report. Only a run that could not be made at
    // all (no scratch directory) is an error.
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mbw-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
