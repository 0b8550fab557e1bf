//! The repository benchmark: runs one workload of the PIC simulation for a
//! fixed time, checks its results, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload beam-sar --seed 1996 --seconds 10 --trace 0 [--spans FILE]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (timed with tracing off),
//! `--trace 1` the per-layer metrics (from a traced replay, the engine's
//! `StatsLog`, kernel microbenches and the sequential floor).  The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--spans FILE` also writes the first traced episode's spans as a
//! Chrome trace.  See `perfbench/README.md`.

mod bench;
mod kernels;
mod replay;
#[cfg(test)]
mod selftest;
mod stats;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use pic_core::RankState;
use pic_machine::{Machine, ThreadedMachine};

use crate::bench::{Options, Outcome};
use crate::replay::{Span, PHASES};
use crate::workload::{Executor, Workload};

/// Allocation-counting wrapper around the system allocator; the whole
/// process (rank threads included) shares the counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is delegated to `System` unchanged; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Pin `PIC_HOST_THREADS` to at most the visible core count (keeping a
/// smaller value the caller set) before any engine reads it; returns
/// the effective value.
fn pin_host_threads(nproc: usize) -> usize {
    let requested = std::env::var("PIC_HOST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(nproc);
    let threads = requested.min(nproc);
    // single-threaded here: no engine or pool exists yet
    std::env::set_var("PIC_HOST_THREADS", threads.to_string());
    threads
}

/// First line of `program --version`-style output, or "unknown".
fn command_line_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal (the values here are plain ASCII).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance(
    wl: &Workload,
    args: &Args,
    nproc: usize,
    host_threads: usize,
    out: &Outcome,
) -> String {
    // the benchmark also runs from exported trees that are not git
    // repositories; do not let git search a parent directory
    let commit = if std::path::Path::new(".git").exists() {
        command_line_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"pic_host_threads\": {host_threads}, \"ranks\": {}, \"profile\": {}, \"rustc\": {}, \
         \"commit\": {}, \"episode_iters\": {}, \"episodes\": {}, \"iterations\": {}}}",
        json_str(wl.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.cfg.machine.ranks,
        json_str(profile),
        json_str(&command_line_output("rustc", &["-V"])),
        json_str(&commit),
        wl.episode_iters,
        out.episodes,
        out.iterations,
    )
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // a non-finite value already failed a check; JSON spells it null
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    )
}

/// `spans` as a Chrome trace (`chrome://tracing`, Perfetto).
fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let name = s.phase.map_or_else(|| format!("iter {}", s.iter), |p| PHASES[p].into());
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
                json_str(&name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::by_name(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: --workload must be one of {}",
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host_threads = pin_host_threads(nproc);
    let opts = Options {
        seconds: args.seconds,
        trace: args.trace,
        host_threads,
    };
    let out = match wl.executor {
        Executor::Threaded => bench::run::<ThreadedMachine<RankState>>(&wl, &opts),
        Executor::Modeled => bench::run::<Machine<RankState>>(&wl, &opts),
    };

    println!(
        "provenance {}",
        provenance(&wl, &args, nproc, host_threads, &out)
    );
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<40} {:>16.6} (failed {} of {} operations)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, chrome_trace(&out.spans)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.metrics.is_empty() {
        eprintln!("perfbench: no episode completed; no metrics to report");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
