//! Hot-path performance baseline: the committed, CI-gated numbers every
//! performance-sensitive PR is measured against.
//!
//! Runs a fixed 8-rank threaded workload (128×64 mesh, 32 768 particles,
//! Hilbert indexing, periodic redistribution) and emits
//! `BENCH_hot_path.json` with:
//!
//! * end-to-end p50/p95 wall-clock per iteration and per phase
//!   (scatter / field-solve / gather / push / redistribute);
//! * heap allocations per steady-state iteration (counted by a global
//!   counting allocator, rank threads included);
//! * off-rank bytes exchanged per iteration;
//! * a key-sort microbench: the historical `(key, index)` comparison
//!   sort vs the radix path on a bounded Hilbert key domain.
//!
//! Modes:
//!
//! * default — measure and (re)write `BENCH_hot_path.json`, preserving
//!   any committed `before_*` section, plus `results/hot_path_baseline.csv`;
//! * `--before FILE` — embed FILE's live metrics as the `before_*`
//!   section of the freshly written baseline (used once, when the
//!   overhaul lands, to record the pre-overhaul numbers);
//! * `--check FILE` — CI gate: measure, compare against FILE, exit
//!   non-zero if the key-sort speedup is below 2× or any p95 regresses
//!   more than 25% past the committed baseline.  Does not rewrite the
//!   baseline.
//!
//! Set `PIC_HOST_THREADS` to pin the host worker count for reproducible
//! numbers on shared CI runners.
//!
//! Usage: `hot_path_baseline [--iters N | --quick] [--before FILE | --check FILE]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pic_bench::{iters_from_args, paper_cfg, write_csv};
use pic_core::ThreadedPicSim;
use pic_index::IndexScheme;
use pic_machine::{
    Instruments, MemoryRecorder, MetricsReport, PhaseKind, SharedRecorder, TraceEvent,
};
use pic_particles::ParticleDistribution;
use pic_partition::{radix_sorted_order_into, sorted_order_comparison, PolicyKind, RadixScratch};

/// Allocation-counting wrapper around the system allocator; the whole
/// process (rank threads included) shares the counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter increments
// are the only addition and have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RANKS: usize = 8;
const REPEATS: usize = 3;
const KEYSORT_N: usize = 1 << 16;
const KEYSORT_DOMAIN: u64 = 128 * 64; // keys < cells, the PIC invariant
const KEYSORT_REPEATS: usize = 5;
/// Phases gated individually by `--check`.
const GATED_PHASES: [PhaseKind; 5] = [
    PhaseKind::Scatter,
    PhaseKind::FieldSolve,
    PhaseKind::Gather,
    PhaseKind::Push,
    PhaseKind::Redistribute,
];
/// Regression tolerance of the CI gate: p95 may grow by at most 25%.
const TOLERANCE: f64 = 1.25;
/// Phase p95s below this floor (seconds) are noise, not gated.
const PHASE_NOISE_FLOOR_S: f64 = 0.0002;
/// Required key-sort microbench advantage of radix over comparison.
const MIN_KEYSORT_SPEEDUP: f64 = 2.0;

/// One full threaded run: per-iteration wall times, the trace events,
/// and the steady-state allocation count per iteration.
struct RunSample {
    iter_s: Vec<f64>,
    events: Vec<TraceEvent>,
    allocs_per_iter: f64,
}

fn run_once(iters: usize) -> RunSample {
    let cfg = paper_cfg(
        128,
        64,
        32_768,
        RANKS,
        ParticleDistribution::Uniform,
        IndexScheme::Hilbert,
        PolicyKind::Periodic(5),
    );
    let shared = SharedRecorder::new(MemoryRecorder::new());
    let instruments = Instruments {
        recorder: Some(Box::new(shared.clone())),
        ..Instruments::default()
    };
    let mut sim =
        ThreadedPicSim::try_new_instrumented(cfg, instruments).expect("fault-free construction");
    let warmup = (iters / 4).clamp(1, 5);
    let mut iter_s = Vec::with_capacity(iters);
    let mut allocs_at_warmup = 0u64;
    for i in 0..iters {
        if i == warmup {
            allocs_at_warmup = ALLOCS.load(Ordering::Relaxed);
        }
        let t = Instant::now();
        sim.try_step().expect("fault-free iteration");
        iter_s.push(t.elapsed().as_secs_f64());
    }
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_at_warmup;
    RunSample {
        iter_s,
        events: shared.with(|rec| rec.take()),
        allocs_per_iter: steady_allocs as f64 / (iters - warmup) as f64,
    }
}

/// Min-of-N wall seconds for `f`.
fn best_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The key-sort microbench: comparison vs radix on a bounded key domain
/// with many duplicates (the redistribution workload).
fn keysort_micro() -> (f64, f64) {
    let keys: Vec<u64> = (0..KEYSORT_N as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % KEYSORT_DOMAIN)
        .collect();
    let comparison_s = best_of(KEYSORT_REPEATS, || {
        std::hint::black_box(sorted_order_comparison(std::hint::black_box(&keys)));
    });
    let mut order = Vec::new();
    let mut scratch = RadixScratch::default();
    let radix_s = best_of(KEYSORT_REPEATS, || {
        radix_sorted_order_into(std::hint::black_box(&keys), &mut order, &mut scratch);
        std::hint::black_box(&order);
    });
    (comparison_s, radix_s)
}

/// Scan `text` for `"key": <number>` and parse the number.  Enough JSON
/// parsing for our own flat, uniquely keyed baseline files.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Render flat `(key, value)` pairs as a stable, human-diffable JSON
/// object.
fn render_json(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        // integers print without a fraction so committed diffs stay clean
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.push_str(&format!("  \"{k}\": {}{sep}\n", *v as i64));
        } else {
            out.push_str(&format!("  \"{k}\": {v:.6}{sep}\n"));
        }
    }
    out.push_str("}\n");
    out
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|p| args.get(p + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let before_file = flag_value(&args, "--before");
    let check_file = flag_value(&args, "--check");
    let iters = iters_from_args(60);

    println!(
        "hot_path_baseline: {RANKS}-rank threaded workload, {iters} iterations, \
         best of {REPEATS} repeats\n"
    );

    // --- key-sort microbench -------------------------------------------
    let (cmp_s, radix_s) = keysort_micro();
    let speedup = cmp_s / radix_s;
    println!(
        "key sort ({KEYSORT_N} keys < {KEYSORT_DOMAIN}): comparison {:.3} ms, \
         radix {:.3} ms, speedup {speedup:.2}x",
        cmp_s * 1e3,
        radix_s * 1e3
    );

    // --- end-to-end workload -------------------------------------------
    let mut best: Option<RunSample> = None;
    for _ in 0..REPEATS {
        let sample = run_once(iters);
        let total: f64 = sample.iter_s.iter().sum();
        if best
            .as_ref()
            .map(|b| total < b.iter_s.iter().sum::<f64>())
            .unwrap_or(true)
        {
            best = Some(sample);
        }
    }
    let best = best.expect("at least one repeat");
    let report = MetricsReport::from_events(&best.events);
    let total_bytes: u64 = best
        .events
        .iter()
        .filter_map(TraceEvent::superstep)
        .map(|e| e.total_bytes)
        .sum();
    let bytes_per_iter = total_bytes as f64 / iters as f64;

    let mut live: Vec<(String, f64)> = vec![
        ("ranks".into(), RANKS as f64),
        ("iters".into(), iters as f64),
        ("keysort_n".into(), KEYSORT_N as f64),
        ("keysort_comparison_ms".into(), cmp_s * 1e3),
        ("keysort_radix_ms".into(), radix_s * 1e3),
        ("keysort_speedup".into(), speedup),
        (
            "iter_p50_ms".into(),
            pic_machine::trace::percentile(&best.iter_s, 0.50) * 1e3,
        ),
        (
            "iter_p95_ms".into(),
            pic_machine::trace::percentile(&best.iter_s, 0.95) * 1e3,
        ),
        (
            "iter_mean_ms".into(),
            best.iter_s.iter().sum::<f64>() / iters as f64 * 1e3,
        ),
        ("allocs_per_iter".into(), best.allocs_per_iter),
        ("bytes_per_iter".into(), bytes_per_iter),
    ];
    for phase in GATED_PHASES {
        if let Some(m) = report.phases().iter().find(|m| m.phase == phase) {
            live.push((format!("phase_{}_p50_ms", phase.label()), m.p50_s * 1e3));
            live.push((format!("phase_{}_p95_ms", phase.label()), m.p95_s * 1e3));
        }
    }

    println!("\n{}", report.render());
    for (k, v) in &live {
        println!("{k:<28} {v:>14.4}");
    }

    // --- CI gate mode --------------------------------------------------
    if let Some(path) = check_file {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = Vec::new();
        if speedup < MIN_KEYSORT_SPEEDUP {
            failures.push(format!(
                "key-sort speedup {speedup:.2}x below required {MIN_KEYSORT_SPEEDUP:.1}x"
            ));
        }
        let mut gate = |key: &str, live_ms: f64, floor_s: f64| {
            if let Some(base_ms) = json_num(&baseline, key) {
                if base_ms >= floor_s * 1e3 && live_ms > base_ms * TOLERANCE {
                    failures.push(format!(
                        "{key}: {live_ms:.3} ms vs baseline {base_ms:.3} ms \
                         (> {TOLERANCE}x tolerance)"
                    ));
                }
            }
        };
        let live_val = |key: &str| {
            live.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        gate("iter_p95_ms", live_val("iter_p95_ms"), 0.0);
        for phase in GATED_PHASES {
            let key = format!("phase_{}_p95_ms", phase.label());
            gate(&key, live_val(&key), PHASE_NOISE_FLOOR_S);
        }
        if failures.is_empty() {
            println!("\nperf gate vs {path}: PASS");
            return;
        }
        eprintln!("\nperf gate vs {path}: FAIL");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }

    // --- write the baseline --------------------------------------------
    let out_path = "BENCH_hot_path.json";
    let mut pairs = live.clone();
    if let Some(path) = before_file {
        // record FILE's live metrics as the before_* section
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read before file {path}: {e}"));
        for (k, _) in &live {
            if let Some(v) = json_num(&text, k) {
                pairs.push((format!("before_{k}"), v));
            }
        }
    } else if let Ok(existing) = std::fs::read_to_string(out_path) {
        // keep the committed before_* section across re-runs
        for (k, _) in &live {
            let bk = format!("before_{k}");
            if let Some(v) = json_num(&existing, &bk) {
                pairs.push((bk, v));
            }
        }
    }
    std::fs::write(out_path, render_json(&pairs)).expect("write BENCH_hot_path.json");
    eprintln!("wrote {out_path}");
    write_csv(
        Path::new("results"),
        "hot_path_baseline.csv",
        "metric,value",
        &pairs
            .iter()
            .map(|(k, v)| format!("{k},{v:.6}"))
            .collect::<Vec<_>>(),
    );
}
