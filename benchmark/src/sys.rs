//! What the benchmark reads from `/proc` and the environment: process
//! CPU time, peak RSS, machine-wide steal time, and the provenance
//! block each run prints. Everything degrades to "unknown"/0 when a
//! file is missing, so the benchmark still runs off Linux.

use std::path::Path;
use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Nanoseconds the calling process's main thread has spent on a CPU
/// (`/proc/self/schedstat`, first field). At one worker thread this is
/// the whole process.
pub fn cpu_ns() -> u64 {
    read("/proc/self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`; the difference of two readings gives the share of
/// time the hypervisor ran someone else.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal share in percent between two [`steal_jiffies`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// File-system type holding `path` (longest mount-point prefix in
/// `/proc/mounts`): tells a tmpfs run from a disk run, which decides
/// what an `fsync` costs.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where a run's numbers come from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse --short HEAD`, or "unversioned" outside a git
    /// checkout (the driver's checkout is not one).
    pub git_rev: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// CPU model and core count: the runner class.
    pub runner_class: String,
    /// File-system type of the scratch directory.
    pub scratch_fs: String,
}

impl Provenance {
    /// Collect the block for a run whose files live in `scratch`.
    pub fn collect(scratch: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| l.strip_prefix("model name").map(str::to_string))
            .map_or_else(
                || "unknown cpu".to_string(),
                |l| l.trim_start_matches([' ', '\t', ':']).to_string(),
            );
        Provenance {
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unversioned".to_string()),
            rustc: env!("MBW_RUSTC_VERSION").to_string(),
            nproc,
            runner_class: format!("{nproc}-vcpu {model}"),
            scratch_fs: fs_type(scratch),
        }
    }
}
