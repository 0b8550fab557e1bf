//! Regenerate the tables and figures of the paper's evaluation
//! (Section 6) in modeled time.
//!
//! ```text
//! reproduce [--quick] [FILTER…]
//! ```
//!
//! With no filter every artifact in [`ARTIFACTS`] runs; a filter selects
//! the artifacts whose names contain it, and a filter that matches none
//! exits with code 2 and lists the names.  Each artifact prints a
//! `=== name ===` header and its console table, and writes
//! `<name>.csv`: under `results/` at the paper's scale, under
//! `results/quick/` with `--quick` (a tenth of the iterations, at least
//! 20), so a quick run never overwrites a full-scale CSV.  Figure 20
//! runs its full 200 iterations under `--quick` too: at 20, five of its
//! nine periods never fire.
//!
//! Each distinct (configuration, iteration count) is simulated once per
//! invocation ([`Runs`]); every artifact that reads it takes its rows
//! from the same [`SimReport`]:
//!
//! * the Table 2 grid feeds `table2_time`, `table3_efficiency`,
//!   `fig21_overhead_uniform` and `fig22_overhead_irregular`;
//! * Figure 16's 128×64 / 32k column (the [`beam`] configuration) feeds
//!   Figures 17–19 through [`SimReport::iterations`];
//! * Table 1's static Lagrangian run is `ablation_dedup`'s hash row.

use std::collections::HashMap;
use std::path::Path;

use pic_bench::{
    paper_cfg, quick_iters, render_chart, sequential_modeled_time, series_summary,
    series_summary_u64, write_csv,
};
use pic_core::{
    DedupKind, IterationRecord,
    MovementMethod::{Eulerian, Lagrangian},
    ParallelPicSim, ReplicatedGridPicSim, SimConfig, SimReport,
};
use pic_index::IndexScheme::{self, Hilbert, Snake};
use pic_machine::MachineConfig;
use pic_particles::ParticleDistribution::{self, IrregularCenter, Uniform};
use pic_partition::PolicyKind::{self, DynamicSar, Periodic, Static};

/// One table or figure: its CSV and the rows that fill it.
struct Artifact {
    /// CSV stem, also what the command-line filters match.
    name: &'static str,
    /// The paper's iteration count.
    full_iters: usize,
    /// Run `full_iters` under `--quick` too, where a tenth would leave
    /// the artifact's behaviour untested.
    full_under_quick: bool,
    /// CSV header line.
    header: &'static str,
    /// Prints the console table for `iters` iterations and returns the
    /// CSV rows.
    rows: fn(&mut Runs, usize) -> Vec<String>,
}

const ARTIFACTS: [Artifact; 13] = [
    Artifact {
        name: "table1_strategies",
        full_iters: 100,
        full_under_quick: false,
        header: "configuration,min_particles,max_particles,imbalance,total_s",
        rows: table1,
    },
    Artifact {
        name: "fig16_static_vs_periodic",
        full_iters: 2000,
        full_under_quick: false,
        header: "policy,t_128x64_32k,t_256x128_64k,t_256x128_128k",
        rows: fig16,
    },
    Artifact {
        name: "fig17_iteration_time",
        full_iters: 2000,
        full_under_quick: false,
        header: "iter,static,periodic100,periodic25,periodic5",
        rows: fig17,
    },
    Artifact {
        name: "fig18_scatter_data",
        full_iters: 2000,
        full_under_quick: false,
        header: "iter,static_sent,static_recv,periodic25_sent,periodic25_recv",
        rows: fig18,
    },
    Artifact {
        name: "fig19_scatter_messages",
        full_iters: 2000,
        full_under_quick: false,
        header: "iter,static_sent,static_recv,periodic25_sent,periodic25_recv",
        rows: fig19,
    },
    Artifact {
        name: "fig20_dynamic_policy",
        full_iters: 200,
        full_under_quick: true,
        header: "policy,total_s,redistribute_s,redistributions",
        rows: fig20,
    },
    Artifact {
        name: "table2_time",
        full_iters: 200,
        full_under_quick: false,
        header: "distribution,mesh,particles,indexing,t_p32,t_p64,t_p128",
        rows: table2,
    },
    Artifact {
        name: "table3_efficiency",
        full_iters: 200,
        full_under_quick: false,
        header: "distribution,mesh,particles,eff_p32,eff_p64,eff_p128",
        rows: table3,
    },
    Artifact {
        name: "fig21_overhead_uniform",
        full_iters: 200,
        full_under_quick: false,
        header: "mesh,particles,indexing,ovh_p32,ovh_p64,ovh_p128,redist_p128",
        rows: |runs, iters| overhead(runs, iters, Uniform),
    },
    Artifact {
        name: "fig22_overhead_irregular",
        full_iters: 200,
        full_under_quick: false,
        header: "mesh,particles,indexing,ovh_p32,ovh_p64,ovh_p128,redist_p128",
        rows: |runs, iters| overhead(runs, iters, IrregularCenter),
    },
    Artifact {
        name: "baseline_replicated",
        full_iters: 50,
        full_under_quick: false,
        header: "p,replicated_total_s,distributed_total_s,replicated_comm_pct,distributed_comm_pct",
        rows: baseline_replicated,
    },
    Artifact {
        name: "ablation_machine",
        full_iters: 100,
        full_under_quick: false,
        header: "machine,particles_per_proc,total_s,efficiency",
        rows: ablation_machine,
    },
    Artifact {
        name: "ablation_dedup",
        full_iters: 100,
        full_under_quick: false,
        header: "table,scatter_s,total_s,scatter_bytes_sum",
        rows: ablation_dedup,
    },
];

fn main() {
    let mut quick = false;
    let mut filters = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            filters.push(arg);
        }
    }
    let matches = |name: &str, f: &String| name.contains(f.as_str());
    if let Some(f) = filters
        .iter()
        .find(|f| !ARTIFACTS.iter().any(|a| matches(a.name, f)))
    {
        eprintln!("usage: reproduce [--quick] [FILTER...]");
        eprintln!("no artifact matches '{f}'; available:");
        for a in &ARTIFACTS {
            eprintln!("  {}", a.name);
        }
        std::process::exit(2);
    }
    let dir = Path::new(if quick { "results/quick" } else { "results" });
    let mut runs = Runs::default();
    for a in ARTIFACTS
        .iter()
        .filter(|a| filters.is_empty() || filters.iter().any(|f| matches(a.name, f)))
    {
        let iters = if quick && !a.full_under_quick {
            quick_iters(a.full_iters)
        } else {
            a.full_iters
        };
        println!("=== {} ===", a.name);
        let rows = (a.rows)(&mut runs, iters);
        write_csv(dir, &format!("{}.csv", a.name), a.header, &rows);
        println!();
    }
    eprintln!(
        "{} simulations served {} run requests",
        runs.reports.len(),
        runs.requests
    );
}

/// Memoized modeled runs: each (configuration, iteration count) is
/// simulated on its first request only.
#[derive(Default)]
struct Runs {
    reports: HashMap<(String, usize), SimReport>,
    requests: usize,
}

impl Runs {
    /// The report of `iters` iterations of `cfg` on the modeled machine.
    fn get(&mut self, cfg: SimConfig, iters: usize) -> &SimReport {
        self.requests += 1;
        // the Debug form names every field and prints each f64 so that it
        // parses back to the same bits, so equal keys are equal configs
        self.reports
            .entry((format!("{cfg:?}"), iters))
            .or_insert_with(|| ParallelPicSim::new(cfg).run(iters))
    }
}

/// The irregular beam on 32 ranks with Hilbert indexing (Table 1,
/// Figures 16–20 and the dedup ablation); `(128, 64, 32_768)` is the
/// paper's default size.
fn beam((nx, ny, n): (usize, usize, usize), policy: PolicyKind) -> SimConfig {
    paper_cfg(nx, ny, n, 32, IrregularCenter, Hilbert, policy)
}

const BEAM: (usize, usize, usize) = (128, 64, 32_768);

/// The Table 2 grid's (mesh, particles) sizes, crossed with
/// [`TABLE2_PROCS`], both indexings and both distributions.
const TABLE2_SIZES: [(usize, usize, usize); 4] = [
    (256, 128, 32_768),
    (256, 128, 65_536),
    (512, 256, 65_536),
    (512, 256, 131_072),
];

const TABLE2_PROCS: [usize; 3] = [32, 64, 128];

/// One Table 2 row: `value(config, report)` for p = 32, 64, 128 under
/// DynamicSar.
fn table2_row<T>(
    runs: &mut Runs,
    iters: usize,
    dist: ParticleDistribution,
    (nx, ny, n): (usize, usize, usize),
    scheme: IndexScheme,
    value: impl Fn(&SimConfig, &SimReport) -> T,
) -> [T; 3] {
    TABLE2_PROCS.map(|p| {
        let cfg = paper_cfg(nx, ny, n, p, dist, scheme, DynamicSar);
        value(&cfg, runs.get(cfg.clone(), iters))
    })
}

/// A three-value row as CSV cells with `prec` decimals.
fn csv3(v: [f64; 3], prec: usize) -> String {
    v.map(|x| format!("{x:.prec$}")).join(",")
}

/// A three-value row as right-aligned console columns.
fn cols3(v: [f64; 3], width: usize, prec: usize) -> String {
    v.map(|x| format!("{x:>width$.prec$}")).join(" ")
}

/// Table 1: the analytic strategy table and its two implementable
/// corners measured (grid + Eulerian, independent + Lagrangian).
fn table1(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!("Table 1 (analytic, from the paper):\n");
    println!(
        "{:<14} {:<12} {:<14} {:<14} {:<22}",
        "movement", "partition", "field balance", "ptcl balance", "communication"
    );
    let (bal, unbal) = ("balanced", "unbalanced");
    let (local, remote) = ("local (boundaries)", "non-local (subdomain diff)");
    for (mv, part, fb, pb, comm) in [
        ("Eulerian", "grid", bal, unbal, local),
        ("Eulerian", "particle", unbal, unbal, local),
        ("Eulerian", "independent", bal, unbal, remote),
        ("Lagrangian", "grid", bal, unbal, remote),
        ("Lagrangian", "particle", unbal, bal, remote),
        ("Lagrangian", "independent", bal, bal, remote),
    ] {
        println!("{mv:<14} {part:<12} {fb:<14} {pb:<14} {comm:<22}");
    }

    println!("\nmeasured ({iters} iterations, irregular, 128x64, 32768 particles, 32 ranks):\n");
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>12}",
        "configuration", "min ptcls", "max ptcls", "imbalance", "total (s)"
    );
    let mut rows = Vec::new();
    for (label, movement, policy) in [
        ("grid partitioning + Eulerian", Eulerian, Static),
        ("independent + Lagrangian (static)", Lagrangian, Static),
        ("independent + Lagrangian (dynamic)", Lagrangian, DynamicSar),
    ] {
        let cfg = SimConfig {
            movement,
            ..beam(BEAM, policy)
        };
        let report = runs.get(cfg, iters);
        // the last record's counts are the ranks' holdings after the run
        let last = report.iterations.last().expect("at least one iteration");
        let (min, max) = (last.min_particles, last.max_particles);
        let imbalance = max as f64 / (32_768.0 / 32.0);
        let total = report.total_s;
        println!("{label:<34} {min:>12} {max:>12} {imbalance:>11.2}x {total:>12.2}");
        rows.push(format!("{label},{min},{max},{imbalance:.4},{total:.4}"));
    }
    println!("\n(Eulerian: balanced fields but particle load tracks the density blob;");
    println!(" Lagrangian independent: both balanced, and dynamic repair wins on time)");
    rows
}

const FIG16_SIZES: [(usize, usize, usize); 3] = [BEAM, (256, 128, 65_536), (256, 128, 131_072)];

/// Figure 16: total time on 32 ranks, static vs periodic, three sizes.
fn fig16(runs: &mut Runs, iters: usize) -> Vec<String> {
    let policies = [
        Static,
        Periodic(200),
        Periodic(100),
        Periodic(50),
        Periodic(25),
        Periodic(10),
        Periodic(5),
    ];
    println!("Figure 16: total execution time for {iters} iterations on 32 nodes (modeled s)\n");
    let sizes =
        FIG16_SIZES.map(|(nx, ny, n)| format!("{:>17}", format!("{nx}x{ny}/{}k", n / 1024)));
    println!("{:<21} {}", "policy", sizes.join(" "));
    let totals: Vec<[f64; 3]> = policies
        .iter()
        .map(|&policy| {
            let t = FIG16_SIZES.map(|size| runs.get(beam(size, policy), iters).total_s);
            println!("{:<21} {}", policy.label(), cols3(t, 17, 2));
            t
        })
        .collect();

    // the paper's headline check: every period beats static
    println!();
    for (c, (nx, ny, n)) in FIG16_SIZES.iter().enumerate() {
        let best = totals[1..]
            .iter()
            .map(|t| t[c])
            .fold(f64::INFINITY, f64::min);
        let stat = totals[0][c];
        println!(
            "{nx}x{ny}/{}k: periodic best {best:.2} vs static {stat:.2} ({:.1}% saved)",
            n / 1024,
            100.0 * (1.0 - best / stat)
        );
    }
    policies
        .iter()
        .zip(&totals)
        .map(|(policy, &t)| format!("{},{}", policy.label(), csv3(t, 3)))
        .collect()
}

/// Per-iteration series of the beam runs under `policies`.
fn beam_series<T>(
    runs: &mut Runs,
    iters: usize,
    policies: &[PolicyKind],
    pick: impl Fn(&IterationRecord) -> T,
) -> Vec<Vec<T>> {
    policies
        .iter()
        .map(|&p| {
            runs.get(beam(BEAM, p), iters)
                .iterations
                .iter()
                .map(&pick)
                .collect()
        })
        .collect()
}

/// Figure 17: per-iteration time, static vs three periods.
fn fig17(runs: &mut Runs, iters: usize) -> Vec<String> {
    let policies = [Static, Periodic(100), Periodic(25), Periodic(5)];
    let series = beam_series(runs, iters, &policies, |r| r.time_s);
    println!("Figure 17: per-iteration execution time (modeled ms)\n");
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "policy", "first 5%", "last 5%", "p50", "p95", "peak", "rise"
    );
    for (policy, s) in policies.iter().zip(&series) {
        let sum = series_summary(s);
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>9.1}%",
            policy.label(),
            sum.head * 1e3,
            sum.tail * 1e3,
            sum.p50 * 1e3,
            sum.p95 * 1e3,
            sum.peak * 1e3,
            sum.rise_pct()
        );
    }
    println!("\n(static must rise; periodic stays near its post-redistribution floor)\n");
    println!(
        "{}",
        render_chart(
            &[("static", &series[0]), ("periodic(25)", &series[2])],
            72,
            14
        )
    );
    (0..iters)
        .map(|i| {
            let vals: Vec<String> = series.iter().map(|s| format!("{:.6}", s[i])).collect();
            format!("{},{}", i + 1, vals.join(","))
        })
        .collect()
}

/// Figures 18 and 19: the largest scatter-phase `[sent, received]`
/// count of any rank per iteration, static vs periodic(25).  Prints the
/// summary table and returns the CSV rows and the two sent series.
fn scatter_traffic(
    runs: &mut Runs,
    iters: usize,
    what: &str,
    pick: fn(&IterationRecord) -> [u64; 2],
) -> (Vec<String>, [Vec<u64>; 2]) {
    let policies = [Static, Periodic(25)];
    let series = beam_series(runs, iters, &policies, pick);
    println!("max scatter-phase {what} sent/received by any processor\n");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12} {:>14} {:>14}",
        "policy",
        "sent first 5%",
        "sent last 5%",
        "sent p50",
        "sent p95",
        "recv first 5%",
        "recv last 5%"
    );
    let column = |k: usize, dir: usize| series[k].iter().map(|v| v[dir]).collect::<Vec<u64>>();
    let sent = [column(0, 0), column(1, 0)];
    for (k, policy) in policies.iter().enumerate() {
        let s = series_summary_u64(&sent[k]);
        let r = series_summary_u64(&column(k, 1));
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>12.1} {:>12.1} {:>14.1} {:>14.1}",
            policy.label(),
            s.head,
            s.tail,
            s.p50,
            s.p95,
            r.head,
            r.tail,
        );
    }
    let rows = (0..iters)
        .map(|i| {
            let (s, p) = (series[0][i], series[1][i]);
            format!("{},{},{},{},{}", i + 1, s[0], s[1], p[0], p[1])
        })
        .collect();
    (rows, sent)
}

/// Figure 18: max scatter bytes sent/received per iteration.
fn fig18(runs: &mut Runs, iters: usize) -> Vec<String> {
    print!("Figure 18: ");
    let (rows, sent) = scatter_traffic(runs, iters, "bytes", |r| {
        [r.scatter_max_bytes_sent, r.scatter_max_bytes_recv]
    });
    println!("\n(periodic redistribution keeps both flat; static grows)\n");
    let [stat, periodic] = sent.map(|s| s.into_iter().map(|b| b as f64).collect::<Vec<f64>>());
    println!(
        "{}",
        render_chart(
            &[("static sent", &stat), ("periodic(25) sent", &periodic)],
            72,
            14
        )
    );
    rows
}

/// Figure 19: max scatter messages sent/received per iteration.
fn fig19(runs: &mut Runs, iters: usize) -> Vec<String> {
    print!("Figure 19: ");
    let (rows, _) = scatter_traffic(runs, iters, "messages", |r| {
        [r.scatter_max_msgs_sent, r.scatter_max_msgs_recv]
    });
    println!("\n(the hard bound is p - 1 = 31 messages; static should approach it)");
    rows
}

/// Figure 20: total time against the period, with DynamicSar as the
/// tuning-free reference and static as the ceiling.
fn fig20(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!("Figure 20: periodic vs dynamic redistribution, {iters} iterations (modeled s)\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>9}",
        "policy", "total", "execution", "redistrib.", "#redist"
    );
    let mut rows = Vec::new();
    let mut best_periodic = f64::INFINITY;
    let mut dynamic_total = 0.0;
    let periods = [5, 10, 15, 20, 25, 40, 50, 100, 200];
    for policy in periods.map(Periodic).into_iter().chain([DynamicSar]) {
        let r = runs.get(beam(BEAM, policy), iters);
        let (total, redist, count) = (r.total_s, r.redistribute_total_s, r.redistributions);
        let label = policy.label();
        println!(
            "{label:<16} {total:>10.2} {:>12.2} {redist:>12.2} {count:>9}",
            total - redist
        );
        rows.push(format!("{label},{total:.4},{redist:.4},{count}"));
        match policy {
            DynamicSar => dynamic_total = total,
            _ => best_periodic = best_periodic.min(total),
        }
    }
    let stat_total = runs.get(beam(BEAM, Static), iters).total_s;
    println!("{:<16} {:>10.2}", "static", stat_total);
    rows.push(format!("static,{stat_total:.4},0,0"));
    println!(
        "\ndynamic is {:.1}% off the best periodic ({best_periodic:.2} s) with zero tuning",
        100.0 * (dynamic_total / best_periodic - 1.0)
    );
    rows
}

/// Table 2: modeled time of the whole grid under DynamicSar.
fn table2(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!("Table 2: computational time of {iters} iterations (modeled s)\n");
    println!(
        "{:<11} {:<10} {:>8} {:<9} {:>10} {:>10} {:>10}",
        "distrib", "mesh", "partcls", "indexing", "p=32", "p=64", "p=128"
    );
    let mut rows = Vec::new();
    for dist in [Uniform, IrregularCenter] {
        for (nx, ny, n) in TABLE2_SIZES {
            for scheme in [Hilbert, Snake] {
                let t = table2_row(runs, iters, dist, (nx, ny, n), scheme, |_, r| r.total_s);
                let (d, s, mesh) = (dist.label(), scheme.label(), format!("{nx}x{ny}"));
                println!("{d:<11} {mesh:<10} {n:>8} {s:<9} {}", cols3(t, 10, 2));
                rows.push(format!("{d},{mesh},{n},{s},{}", csv3(t, 3)));
            }
        }
        println!();
    }
    println!("paper anchors (CM-5, measured): uniform 256x128/32768 p=32 -> 72.47 s;");
    println!("uniform 512x256/131072 p=32 -> 292.55 s; irregular within a few % of uniform.");
    rows
}

/// Table 3: Hilbert efficiency `T_seq / (p · T_p)` over the Table 2 grid.
fn table3(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!("Table 3: efficiency of the Hilbert indexing scheme ({iters} iterations)\n");
    println!(
        "{:<11} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "distrib", "mesh", "partcls", "p=32", "p=64", "p=128"
    );
    let mut rows = Vec::new();
    for dist in [Uniform, IrregularCenter] {
        for (nx, ny, n) in TABLE2_SIZES {
            let e = table2_row(runs, iters, dist, (nx, ny, n), Hilbert, |cfg, r| {
                sequential_modeled_time(cfg, iters) / (cfg.machine.ranks as f64 * r.total_s)
            });
            let (d, mesh) = (dist.label(), format!("{nx}x{ny}"));
            println!("{d:<11} {mesh:<10} {n:>8} {}", cols3(e, 8, 3));
            rows.push(format!("{d},{mesh},{n},{}", csv3(e, 4)));
        }
        println!();
    }
    println!("scaling check: efficiency at (32K, p=32) should be close to (64K, p=64),");
    println!("and (64K@512x256, p=64) close to (128K, p=128) — fixed grain per processor.");
    rows
}

/// Figures 21 (uniform) and 22 (irregular): overhead (execution −
/// computation) over the Table 2 grid, Hilbert vs snakelike.
fn overhead(runs: &mut Runs, iters: usize, dist: ParticleDistribution) -> Vec<String> {
    let figure = if dist == Uniform { 21 } else { 22 };
    println!(
        "Figure {figure}: overhead = execution - computation, {} distribution, {iters} iterations (modeled s)\n",
        dist.label()
    );
    println!(
        "{:<10} {:>8} {:<9} {:>10} {:>10} {:>10} {:>12}",
        "mesh", "partcls", "indexing", "p=32", "p=64", "p=128", "redist@128"
    );
    let mut rows = Vec::new();
    for (nx, ny, n) in TABLE2_SIZES {
        for scheme in [Hilbert, Snake] {
            let [o32, o64, o128] = table2_row(runs, iters, dist, (nx, ny, n), scheme, |_, r| {
                (r.overhead_s, r.redistribute_total_s)
            });
            let (o, redist) = ([o32.0, o64.0, o128.0], o128.1);
            let (s, mesh) = (scheme.label(), format!("{nx}x{ny}"));
            println!(
                "{mesh:<10} {n:>8} {s:<9} {} {redist:>12.2}",
                cols3(o, 10, 2)
            );
            rows.push(format!("{mesh},{n},{s},{},{redist:.3}", csv3(o, 3)));
        }
    }
    println!(
        "\n(expect hilbert <= snake rows; redistribution well under 20% of overhead at p=128)"
    );
    rows
}

/// Section 3: the replicated mesh (Lubeck & Faber) against independent
/// partitioning as the processor count grows.
fn baseline_replicated(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!(
        "Replicated-grid baseline vs distributed independent partitioning\n\
         (irregular, 128x64 mesh, 32768 particles, {iters} iterations, modeled s)\n"
    );
    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>14}",
        "p", "replicated", "distributed", "repl comm %", "dist comm %"
    );
    let mut rows = Vec::new();
    for p in [2usize, 8, 32, 128] {
        let cfg = paper_cfg(128, 64, 32_768, p, IrregularCenter, Hilbert, DynamicSar);
        let (rep_total, rep_comp) = ReplicatedGridPicSim::new(cfg.clone()).run(iters);
        let report = runs.get(cfg, iters);
        let dist_total = report.total_s;
        let rep_comm_pct = 100.0 * (rep_total - rep_comp) / rep_total;
        let dist_comm_pct = 100.0 * report.overhead_s / dist_total;
        println!(
            "{p:>6} {rep_total:>16.2} {dist_total:>16.2} {rep_comm_pct:>13.1}% {dist_comm_pct:>13.1}%"
        );
        rows.push(format!(
            "{p},{rep_total:.4},{dist_total:.4},{rep_comm_pct:.2},{dist_comm_pct:.2}"
        ));
    }
    println!("\n(replicated wins or ties at small p, then its O(m) global sums");
    println!(" flatten the speedup while the distributed scheme keeps scaling)");
    rows
}

/// Section 6.3's closing remark: efficiency against particles per
/// processor on the CM-5 and a modern-cluster preset.
fn ablation_machine(runs: &mut Runs, iters: usize) -> Vec<String> {
    let p = 32;
    println!(
        "Machine ablation: efficiency vs particles-per-processor, p = {p}, {iters} iterations\n"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "machine", "n/p", "total (s)", "efficiency"
    );
    let mut rows = Vec::new();
    for (name, machine) in [
        ("cm5", MachineConfig::cm5(p)),
        ("modern", MachineConfig::modern(p)),
    ] {
        for npp in [256usize, 1024, 4096, 16_384] {
            let cfg = SimConfig {
                machine,
                ..paper_cfg(128, 64, npp * p, p, Uniform, Hilbert, DynamicSar)
            };
            let t_seq = sequential_modeled_time(&cfg, iters);
            let t_p = runs.get(cfg, iters).total_s;
            let eff = t_seq / (p as f64 * t_p);
            println!("{name:<12} {npp:>10} {t_p:>12.4} {eff:>12.3}");
            rows.push(format!("{name},{npp},{t_p:.6},{eff:.4}"));
        }
        println!();
    }
    println!("(the modern machine should need ~an order of magnitude more particles");
    println!(" per processor to match the CM-5's efficiency, as the paper predicts)");
    rows
}

/// Section 3.2 / Figure 8: hash vs direct address duplicate-removal
/// table inside the full simulation (modeled time; the bytes on the wire
/// must be identical).
fn ablation_dedup(runs: &mut Runs, iters: usize) -> Vec<String> {
    println!("Dedup ablation: hash vs direct address table, {iters} iterations\n");
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "table", "scatter (s)", "total (s)", "scatter bytes"
    );
    let mut rows = Vec::new();
    for (label, dedup) in [("hash", DedupKind::Hash), ("direct", DedupKind::Direct)] {
        let cfg = SimConfig {
            dedup,
            ..beam(BEAM, Static)
        };
        let report = runs.get(cfg, iters);
        let bytes: u64 = report
            .iterations
            .iter()
            .map(|r| r.scatter_max_bytes_sent)
            .sum();
        let (scatter_s, total) = (report.breakdown.scatter_s, report.total_s);
        println!("{label:<10} {scatter_s:>14.3} {total:>14.3} {bytes:>16}");
        rows.push(format!("{label},{scatter_s:.5},{total:.5},{bytes}"));
    }
    println!("\n(identical bytes — same dedup semantics; direct table cheaper in compute)");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_configuration_is_simulated_once() {
        let mut runs = Runs::default();
        let cfg = SimConfig::small_test();
        let first = runs.get(cfg.clone(), 3).total_s;
        let again = runs.get(cfg.clone(), 3).total_s;
        runs.get(cfg.clone(), 4);
        runs.get(
            SimConfig {
                dedup: DedupKind::Direct,
                ..cfg
            },
            3,
        );
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!((runs.reports.len(), runs.requests), (3, 4));
    }
}
