//! # pic-bench — the experiment harness
//!
//! The `reproduce` binary regenerates every table and figure of the
//! paper's evaluation (Section 6) in modeled time:
//!
//! ```text
//! reproduce [--quick] [FILTER…]
//! ```
//!
//! With no filter it runs every artifact; a filter selects the artifacts
//! whose names contain it, and a filter that matches none exits with
//! code 2 and lists the names.  Each artifact prints its rows/series and
//! writes `<name>.csv` under `results/`, or under `results/quick/` with
//! `--quick` (a tenth of the iterations, at least 20), so a quick run
//! never overwrites a full-scale CSV.  Each (configuration, iteration
//! count) is simulated once per invocation: the Table 2 grid feeds
//! Tables 2–3 and Figures 21–22, Figure 16's 128×64 / 32k runs feed
//! Figures 17–19, and Table 1's static Lagrangian run is
//! `ablation_dedup`'s hash row.
//!
//! | artifact | paper artifact |
//! |---|---|
//! | `table1_strategies` | Table 1 — partitioning strategy analysis |
//! | `fig16_static_vs_periodic` | Figure 16 — total time, static vs periodic |
//! | `fig17_iteration_time` | Figure 17 — per-iteration execution time |
//! | `fig18_scatter_data` | Figure 18 — max scatter bytes sent/received |
//! | `fig19_scatter_messages` | Figure 19 — max scatter message counts |
//! | `fig20_dynamic_policy` | Figure 20 — periodic vs dynamic |
//! | `table2_time` | Table 2 — 200-iteration times |
//! | `table3_efficiency` | Table 3 — Hilbert efficiency |
//! | `fig21_overhead_uniform` | Figure 21 — overhead, uniform |
//! | `fig22_overhead_irregular` | Figure 22 — overhead, irregular |
//! | `baseline_replicated` | Section 3 — Lubeck & Faber replicated mesh vs distributed |
//! | `ablation_machine` | Section 6.3 remark — machine-constant sensitivity |
//! | `ablation_dedup` | Section 3.2 / Figure 8 — hash vs direct dedup table |
//!
//! Three more binaries write under `results/` and accept `--iters N` or
//! `--quick`: `observability_overhead` (tracing/metrics cost gate +
//! Chrome trace export), `observability_dashboard` (comm matrix, SAR
//! audit log, model error, HTML dashboard) and `hot_path_baseline` (the
//! CI-gated hot-path baseline).  Wall-clock kernel and per-phase costs
//! are measured by the repository benchmark (`perfbench/`), not here.

#![warn(missing_docs)]

pub mod chart;
pub mod dashboard;

use std::fs;
use std::io::Write as _;
use std::path::Path;

pub use chart::render_chart;
pub use dashboard::render_dashboard;

use pic_core::SimConfig;
use pic_index::IndexScheme;
use pic_machine::MachineConfig;
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

/// Build a paper-style configuration.
pub fn paper_cfg(
    nx: usize,
    ny: usize,
    particles: usize,
    p: usize,
    distribution: ParticleDistribution,
    scheme: IndexScheme,
    policy: PolicyKind,
) -> SimConfig {
    SimConfig {
        nx,
        ny,
        particles,
        distribution,
        scheme,
        policy,
        machine: MachineConfig::cm5(p),
        ..SimConfig::paper_default()
    }
}

/// Parse `--iters N` / `--quick` from the command line.
///
/// `full` is the paper's iteration count; `--quick` divides it by 10
/// (minimum 20).
pub fn iters_from_args(full: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--iters") {
        match args.get(pos + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => return n,
            _ => {
                eprintln!("--iters needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "--quick") {
        return quick_iters(full);
    }
    full
}

/// The `--quick` iteration count: a tenth of `full`, at least 20.
pub fn quick_iters(full: usize) -> usize {
    (full / 10).max(20)
}

/// Write the CSV file `dir/name`, creating `dir` as needed.
///
/// # Panics
/// Panics if the file cannot be written (harness binaries want loud
/// failures).
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    eprintln!("wrote {}", path.display());
}

/// Distribution summary of one per-iteration measurement series, shared
/// by the figure binaries (head/tail windows show drift, the percentiles
/// and peak come from [`pic_machine::trace::percentile`] so the bench
/// tables agree with the observability layer's aggregation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSummary {
    /// Mean of the first 5% of iterations (at least one).
    pub head: f64,
    /// Mean of the last 5% of iterations (at least one).
    pub tail: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub peak: f64,
}

impl SeriesSummary {
    /// Relative drift of the tail window over the head window, in
    /// percent (positive = the series grew).
    pub fn rise_pct(&self) -> f64 {
        if self.head == 0.0 {
            0.0
        } else {
            100.0 * (self.tail / self.head - 1.0)
        }
    }
}

/// Summarize a per-iteration series; see [`SeriesSummary`].
///
/// # Panics
/// Panics on an empty series (figure series always have ≥ 1 iteration).
pub fn series_summary(series: &[f64]) -> SeriesSummary {
    assert!(!series.is_empty(), "cannot summarize an empty series");
    let window = (series.len() / 20).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    SeriesSummary {
        head: mean(&series[..window]),
        tail: mean(&series[series.len() - window..]),
        p50: pic_machine::trace::percentile(series, 0.50),
        p95: pic_machine::trace::percentile(series, 0.95),
        peak: series.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// [`series_summary`] over integer counters (bytes, message counts).
///
/// # Panics
/// Panics on an empty series.
pub fn series_summary_u64(series: &[u64]) -> SeriesSummary {
    let as_f: Vec<f64> = series.iter().map(|&v| v as f64).collect();
    series_summary(&as_f)
}

/// Total modeled sequential execution time for `iters` iterations of a
/// configuration — the closed-form `T_seq` used by Table 3's efficiency
/// (one processor pays pure computation and no communication, so the op
/// counts are exact without running the big sequential simulation).
pub fn sequential_modeled_time(cfg: &SimConfig, iters: usize) -> f64 {
    let n = cfg.particles as f64;
    let m = cfg.grid_points() as f64;
    let per_iter = n
        * (4.0 * (pic_core::costs::SCATTER_VERTEX + pic_core::costs::GATHER_VERTEX)
            + pic_core::costs::PUSH_PARTICLE)
        + m * (pic_core::costs::FIELD_POINT_B + pic_core::costs::FIELD_POINT_E);
    iters as f64 * per_iter * cfg.machine.delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_time_matches_hand_computation() {
        let cfg = paper_cfg(
            256,
            128,
            32_768,
            32,
            ParticleDistribution::Uniform,
            IndexScheme::Hilbert,
            PolicyKind::Static,
        );
        // per iter: 32768 * (4*45 + 60) + 32768 * 90 = 32768 * 330
        let expect = 200.0 * (32_768.0 * 240.0 + 32_768.0 * 90.0) * 1e-6;
        let got = sequential_modeled_time(&cfg, 200);
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    /// The closed form must charge exactly what the sequential simulation
    /// accumulates; a cost constant edited in only one of them would skew
    /// Table 3's efficiency columns.
    #[test]
    fn closed_form_matches_the_sequential_simulation() {
        let cfg = SimConfig::small_test();
        let steps = 7;
        let mut sim = pic_core::SequentialPicSim::new(cfg.clone());
        sim.run(steps);
        let simulated = sim.modeled_time_s();
        let closed = sequential_modeled_time(&cfg, steps);
        assert!(
            ((closed - simulated) / simulated).abs() <= 1e-12,
            "closed form {closed} vs simulated {simulated}"
        );
    }

    #[test]
    fn series_summary_windows_and_percentiles() {
        let series: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = series_summary(&series);
        // 5% windows: first/last five values
        assert!((s.head - 3.0).abs() < 1e-12);
        assert!((s.tail - 98.0).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p95 > 95.0 && s.p95 < 96.0);
        assert!((s.peak - 100.0).abs() < 1e-12);
        assert!(s.rise_pct() > 3000.0);
    }

    #[test]
    fn series_summary_u64_matches_f64_path() {
        let ints = [5u64, 1, 3, 2, 4];
        let floats = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(series_summary_u64(&ints), series_summary(&floats));
    }

    #[test]
    fn paper_cfg_overrides_apply() {
        let cfg = paper_cfg(
            64,
            32,
            1000,
            8,
            ParticleDistribution::Uniform,
            IndexScheme::Snake,
            PolicyKind::Periodic(7),
        );
        assert_eq!(cfg.machine.ranks, 8);
        assert_eq!(cfg.scheme, IndexScheme::Snake);
        assert_eq!(cfg.policy, PolicyKind::Periodic(7));
        cfg.validate();
    }
}
