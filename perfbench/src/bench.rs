//! One benchmark invocation on one workload: timed untraced episodes,
//! traced replay episodes, correctness checks, and the metrics derived
//! from them.

use std::time::Instant;

use pic_core::{GenericPicSim, IterationRecord, RankState, SequentialPicSim, SimConfig};
use pic_machine::{Machine, PhaseKind, SpmdEngine, SpmdError};

use crate::kernels;
use crate::replay::{self, Span, Trace, FIELD_SOLVE, GATHER, PHASES, PUSH, REDISTRIBUTE, SCATTER};
use crate::stats::{median, median_per_index, quantile, ratio};
use crate::workload::{Executor, Workload};

/// Fewest untraced episodes per run.
const MIN_EPISODES: usize = 3;
/// Set-ups timed per end-to-end run: every episode's, topped up with
/// set-up-only samples, so `setup_s` is a median of at least this many.
const SETUP_SAMPLES: usize = 40;
/// Repetitions of the empty-superstep microbench.
const DISPATCH_REPS: usize = 200;
/// Wall-clock budget of the sequential floor.
const SEQUENTIAL_BUDGET_S: f64 = 1.0;
/// Fewest timed steps of the sequential floor.
const SEQUENTIAL_MIN_STEPS: usize = 3;

/// How one invocation runs.
pub struct Options {
    /// Seconds of timed work (untraced plus traced episodes).
    pub seconds: f64,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Host threads the modeled engine's rank loops run on.
    pub host_threads: usize,
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation produced.
pub struct Outcome {
    /// Operations attempted: iterations, set-ups and correctness checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The metrics of the requested kind.
    pub metrics: Vec<Metric>,
    /// Untraced episodes timed.
    pub episodes: usize,
    /// Untraced iterations timed.
    pub iterations: usize,
    /// Spans of the first traced episode.
    pub spans: Vec<Span>,
}

/// Operation and check counter behind `attempted` / `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn ok<T>(&mut self, result: Result<T, SpmdError>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One untraced episode: `try_new`, then `iters` timed `try_step`s.
struct Episode {
    setup_s: f64,
    step_s: Vec<f64>,
    records: Vec<IterationRecord>,
    allocs: u64,
    census: usize,
    digest: u64,
    modeled_s: f64,
    scratch_bytes: u64,
}

fn episode<E: SpmdEngine<RankState>>(
    cfg: &SimConfig,
    iters: usize,
    tally: &mut Tally,
) -> Option<Episode> {
    let t = Instant::now();
    let sim = GenericPicSim::<E>::try_new(cfg.clone());
    let setup_s = t.elapsed().as_secs_f64();
    let mut sim = tally.ok(sim, "set-up")?;
    let mut step_s = Vec::with_capacity(iters);
    let mut records = Vec::with_capacity(iters);
    let allocs_before = crate::allocations();
    for _ in 0..iters {
        let t = Instant::now();
        let rec = sim.try_step();
        step_s.push(t.elapsed().as_secs_f64());
        records.push(tally.ok(rec, "iteration")?);
    }
    let allocs = crate::allocations() - allocs_before;
    let ranks = sim.machine().ranks();
    Some(Episode {
        setup_s,
        step_s,
        records,
        allocs,
        census: sim.total_particles(),
        digest: state_digest(ranks),
        modeled_s: sim.machine().elapsed_s(),
        scratch_bytes: ranks
            .iter()
            .map(|st| st.scratch.high_water_bytes())
            .max()
            .unwrap_or(0),
    })
}

/// FNV-1a over every bit of the rank state the executors must agree on:
/// particles, keys, bounds, rects, fields and currents.
fn state_digest(ranks: &[RankState]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for st in ranks {
        let r = &st.rect;
        for w in [st.rank, st.len(), r.x0, r.y0, r.w, r.h] {
            word(w as u64);
        }
        let p = &st.particles;
        let f = &st.fields;
        let j = &st.currents;
        let floats = [
            &p.x[..],
            &p.y,
            &p.ux,
            &p.uy,
            &p.uz,
            f.ex.as_slice(),
            f.ey.as_slice(),
            f.ez.as_slice(),
            f.bx.as_slice(),
            f.by.as_slice(),
            f.bz.as_slice(),
            j.jx.as_slice(),
            j.jy.as_slice(),
            j.jz.as_slice(),
        ];
        for v in floats.into_iter().flatten() {
            word(v.to_bits());
        }
        for &k in st.keys.iter().chain(&st.bounds) {
            word(k);
        }
    }
    h
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn read_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median microseconds of an empty `superstep` (or `local_step`) on
/// `machine`.
fn empty_step_us<E: SpmdEngine<RankState>>(machine: &mut E, local: bool, tally: &mut Tally) -> f64 {
    let mut samples = Vec::with_capacity(DISPATCH_REPS);
    for rep in 0..=DISPATCH_REPS {
        let t = Instant::now();
        let result = if local {
            machine.local_step(PhaseKind::Other, |_, _, _| {})
        } else {
            machine.superstep::<(), _, _>(PhaseKind::Other, |_, _, _, _| {}, |_, _, _, _| {})
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if tally.ok(result, "empty superstep").is_none() {
            break;
        }
        if rep > 0 {
            samples.push(us);
        }
    }
    machine.stats_mut().drain();
    median(&samples)
}

/// Median nanoseconds per particle-step of `SequentialPicSim` on `cfg`.
fn sequential_ns_per_particle_step(cfg: &SimConfig) -> f64 {
    let mut sim = SequentialPicSim::new(cfg.clone());
    sim.step();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SEQUENTIAL_MIN_STEPS
        || started.elapsed().as_secs_f64() < SEQUENTIAL_BUDGET_S
    {
        let t = Instant::now();
        sim.step();
        samples.push(t.elapsed().as_secs_f64() * 1e9 / cfg.particles as f64);
    }
    median(&samples)
}

/// Run `wl` for `opts.seconds` and derive its metrics.
pub fn run<E: SpmdEngine<RankState>>(wl: &Workload, opts: &Options) -> Outcome {
    let cfg = &wl.cfg;
    let iters = wl.episode_iters;
    let mut tally = Tally::default();
    tally.check(cfg.check_invariants, || "invariant guards are off".into());

    // --- timed, untraced episodes ---------------------------------------
    let untraced_budget_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // an untimed warm-up episode: the process's first simulation pays
    // page faults and allocator growth that later ones do not
    let _ = episode::<E>(cfg, iters, &mut tally);
    // the peak after one episode is one simulation's footprint; later
    // episodes only add allocator noise from fresh rank threads
    let peak_rss_mib = read_peak_rss_mib();
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    while episodes.len() < MIN_EPISODES || started.elapsed().as_secs_f64() < untraced_budget_s {
        match episode::<E>(cfg, iters, &mut tally) {
            Some(ep) => episodes.push(ep),
            None if episodes.is_empty() => break,
            None => {}
        }
    }
    let Some(reference) = episodes.first() else {
        return Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics: Vec::new(),
            episodes: 0,
            iterations: 0,
            spans: Vec::new(),
        };
    };
    for (i, ep) in episodes.iter().enumerate() {
        tally.check(ep.census == cfg.particles, || {
            format!(
                "episode {i}: census {} != {} particles",
                ep.census, cfg.particles
            )
        });
        tally.check(ep.digest == reference.digest, || {
            format!("episode {i}: final state differs from episode 0")
        });
    }

    // --- traced replay episodes (one, for the identity check, without
    // --trace) ------------------------------------------------------------
    let traced_budget_s = if opts.trace { opts.seconds / 2.0 } else { 0.0 };
    let started = Instant::now();
    let mut traces: Vec<Trace> = Vec::new();
    let mut last_engine: Option<E> = None;
    while traces.is_empty() || started.elapsed().as_secs_f64() < traced_budget_s {
        let Some((trace, engine)) = tally.ok(replay::run::<E>(cfg, iters), "traced replay") else {
            break;
        };
        let digest = state_digest(engine.ranks());
        tally.check(digest == reference.digest, || {
            "traced replay's final state differs from the untraced run".into()
        });
        traces.push(trace);
        last_engine = Some(engine);
    }

    // --- threaded workloads: the modeled executor must agree ------------
    let mut modeled_s = reference.modeled_s;
    if wl.executor == Executor::Threaded {
        if let Some(ep) = episode::<Machine<RankState>>(cfg, iters, &mut tally) {
            tally.check(ep.digest == reference.digest, || {
                "ParallelPicSim's final state differs from ThreadedPicSim's".into()
            });
            modeled_s = ep.modeled_s;
        }
    } else {
        for (i, ep) in episodes.iter().enumerate() {
            tally.check(ep.modeled_s.to_bits() == modeled_s.to_bits(), || {
                format!("episode {i}: modeled time differs from episode 0")
            });
        }
    }

    let iterations: usize = episodes.iter().map(|e| e.step_s.len()).sum();
    let mut out = Metrics::default();
    if !opts.trace {
        let particles = cfg.particles as f64;
        let rates: Vec<f64> = episodes
            .iter()
            .map(|e| particles * iters as f64 / e.step_s.iter().sum::<f64>())
            .collect();
        out.push("particle_steps_per_s", median(&rates), "1/s");
        // every episode repeats the same iterations, so take each
        // iteration's median over the episodes, then quantiles over the
        // iterations: a burst of host interference slows a few
        // iterations of one episode, which the median drops, while a
        // slow iteration of the program's own (a redistribution) is
        // slow in every episode and stays
        let series: Vec<&[f64]> = episodes.iter().map(|e| &e.step_s[..]).collect();
        let steps = median_per_index(&series);
        out.push("iter_p50_ms", quantile(&steps, 0.50) * 1e3, "ms");
        out.push("iter_p95_ms", quantile(&steps, 0.95) * 1e3, "ms");
        let mut setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
        while setups.len() < SETUP_SAMPLES {
            let t = Instant::now();
            let sim = GenericPicSim::<E>::try_new(cfg.clone());
            setups.push(t.elapsed().as_secs_f64());
            if tally.ok(sim, "set-up").is_none() {
                break;
            }
        }
        out.push("setup_s", median(&setups), "s");
        out.push("peak_rss_mib", peak_rss_mib, "MiB");
        out.push("modeled_total_s", modeled_s, "model_s");
    } else if let Some(mut engine) = last_engine {
        let p = match wl.executor {
            Executor::Threaded => cfg.machine.ranks,
            Executor::Modeled => cfg.machine.ranks.min(opts.host_threads),
        };
        layer_metrics(&mut out, wl, &episodes, &traces);
        machine_metrics(&mut out, &mut engine, &traces, &mut tally);
        kernel_metrics(&mut out, &engine, cfg);
        let steps: Vec<f64> = episodes.iter().flat_map(|e| e.step_s.clone()).collect();
        let par_ns = median(&steps) * 1e9 / cfg.particles as f64;
        let seq_ns = sequential_ns_per_particle_step(cfg);
        out.push("sequential.ns_per_particle_step", seq_ns, "ns");
        out.push(
            "parallel_efficiency",
            seq_ns / (p as f64 * par_ns),
            "fraction",
        );
    }

    for m in &out.0 {
        tally.check(m.value.is_finite(), || format!("{} = {}", m.name, m.value));
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics: out.0,
        episodes: episodes.len(),
        iterations,
        spans: traces.first().map(|t| t.spans.clone()).unwrap_or_default(),
    }
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The per-layer metrics that come from the traced phase spans, the
/// engine's `StatsLog` and the untraced episodes' records.
fn layer_metrics(out: &mut Metrics, wl: &Workload, episodes: &[Episode], traces: &[Trace]) {
    let cfg = &wl.cfg;
    let particles = cfg.particles as f64;
    let cells = (cfg.nx * cfg.ny) as f64;
    let iters: usize = traces.iter().map(|t| t.iters).sum();
    let per_step = particles * iters as f64;
    let loop_s: f64 = traces.iter().map(Trace::loop_s).sum();
    let phase_s: Vec<f64> = (0..PHASES.len())
        .map(|ph| traces.iter().map(|t| t.phase_s(ph)).sum())
        .collect();
    let redistributions: usize = traces.iter().map(|t| t.calls(REDISTRIBUTE)).sum();
    let untraced_iter_s = episodes.iter().flat_map(|e| &e.step_s).sum::<f64>()
        / episodes.iter().map(|e| e.step_s.len()).sum::<usize>() as f64;

    out.push(
        "scatter.ns_per_particle",
        phase_s[SCATTER] * 1e9 / per_step,
        "ns",
    );
    out.push(
        "gather.ns_per_particle",
        phase_s[GATHER] * 1e9 / per_step,
        "ns",
    );
    out.push("push.ns_per_particle", phase_s[PUSH] * 1e9 / per_step, "ns");
    out.push(
        "field_solve.ns_per_cell",
        phase_s[FIELD_SOLVE] * 1e9 / (cells * iters as f64),
        "ns",
    );
    out.push(
        "redistribute.ms_per_call",
        ratio(phase_s[REDISTRIBUTE] * 1e3, redistributions as f64),
        "ms",
    );
    out.push(
        "redistribute.calls",
        redistributions as f64 / traces.len() as f64,
        "count",
    );
    for (ph, name) in PHASES.iter().enumerate() {
        out.push(format!("{name}.share"), phase_s[ph] / loop_s, "fraction");
    }
    let traced_phase_iter_s = phase_s.iter().sum::<f64>() / iters as f64;
    out.push(
        "driver.self_share",
        1.0 - traced_phase_iter_s / untraced_iter_s,
        "fraction",
    );
    out.push(
        "trace.overhead_share",
        (loop_s / iters as f64) / untraced_iter_s - 1.0,
        "fraction",
    );

    for name in PHASES {
        let (mut compute, mut comm, mut elapsed) = (0.0, 0.0, 0.0);
        for s in traces
            .iter()
            .flat_map(|t| &t.stats)
            .filter(|s| s.phase.label() == name)
        {
            compute += s.max_compute_s;
            comm += s.max_comm_s;
            elapsed += s.elapsed_s;
        }
        out.push(
            format!("{name}.compute_share"),
            ratio(compute, elapsed),
            "fraction",
        );
        out.push(
            format!("{name}.comm_share"),
            ratio(comm, elapsed),
            "fraction",
        );
    }

    let records = &episodes[0].records;
    let column = |f: fn(&IterationRecord) -> f64| -> f64 {
        median(&records.iter().map(f).collect::<Vec<_>>())
    };
    out.push(
        "scatter.max_msgs_sent",
        column(|r| r.scatter_max_msgs_sent as f64),
        "count",
    );
    out.push(
        "scatter.max_bytes_sent",
        column(|r| r.scatter_max_bytes_sent as f64),
        "bytes",
    );
    let bytes: u64 = traces
        .iter()
        .flat_map(|t| &t.stats)
        .map(|s| s.total_bytes)
        .sum();
    out.push(
        "exchange.bytes_per_iter",
        bytes as f64 / iters as f64,
        "bytes",
    );
    let mean_load = particles / cfg.machine.ranks as f64;
    let imbalance: Vec<f64> = records
        .iter()
        .map(|r| r.max_particles as f64 / mean_load)
        .collect();
    out.push("load.imbalance_p50", median(&imbalance), "ratio");

    let allocs: u64 = episodes.iter().map(|e| e.allocs).sum();
    let iterations: usize = episodes.iter().map(|e| e.step_s.len()).sum();
    out.push("alloc.per_iter", allocs as f64 / iterations as f64, "count");
    out.push(
        "scratch.high_water_bytes",
        episodes.iter().map(|e| e.scratch_bytes).max().unwrap_or(0) as f64,
        "bytes",
    );
}

/// Executor dispatch: empty `superstep` / `local_step` cost on the
/// workload's own engine, and how much of an iteration it accounts for.
fn machine_metrics<E: SpmdEngine<RankState>>(
    out: &mut Metrics,
    engine: &mut E,
    traces: &[Trace],
    tally: &mut Tally,
) {
    let superstep_us = empty_step_us(engine, false, tally);
    let local_step_us = empty_step_us(engine, true, tally);
    let iters: usize = traces.iter().map(|t| t.iters).sum();
    let supersteps: usize = traces.iter().map(|t| t.stats.len()).sum();
    let loop_s: f64 = traces.iter().map(Trace::loop_s).sum();
    let supersteps_per_iter = supersteps as f64 / iters as f64;
    out.push("machine.superstep_us", superstep_us, "us");
    out.push("machine.local_step_us", local_step_us, "us");
    out.push("machine.supersteps_per_iter", supersteps_per_iter, "count");
    out.push(
        "machine.dispatch_share",
        supersteps_per_iter * superstep_us * 1e-6 / (loop_s / iters as f64),
        "fraction",
    );
}

/// Kernel microbenches on the engine's final rank state.
fn kernel_metrics<E: SpmdEngine<RankState>>(out: &mut Metrics, engine: &E, cfg: &SimConfig) {
    let k = kernels::measure(engine.ranks(), cfg);
    out.push("index.assign_keys_ns_per_particle", k.assign_keys, "ns");
    out.push("partition.radix_sort_ns_per_key", k.radix_sort, "ns");
    out.push("partition.classify_ns_per_particle", k.classify, "ns");
    out.push("particles.boris_push_ns_per_particle", k.boris_push, "ns");
    out.push("particles.cic_ns_per_particle", k.cic, "ns");
    out.push("field.update_b_ns_per_cell", k.update_b, "ns");
    out.push("field.update_e_ns_per_cell", k.update_e, "ns");
}
