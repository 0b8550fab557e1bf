//! Fast self-test: the whole benchmark on tiny configurations, on both
//! executors and in both modes.  Every metric `BENCHMARK.json` names
//! must be emitted exactly once, with a valid name and a finite value,
//! and every correctness check (the replay identity among them) must
//! pass.

use crate::bench::{self, Options, Outcome};
use crate::workload::{self, Executor};
use pic_core::RankState;
use pic_machine::{Machine, ThreadedMachine};

/// The `"name"` values of the objects in `BENCHMARK.json`'s `section`
/// array (enough parsing for that one flat, hand-written file).
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

fn run_tiny(executor: Executor, trace: bool) -> Outcome {
    let wl = workload::tiny(executor);
    let opts = Options {
        seconds: 0.2,
        trace,
        host_threads: 2,
    };
    match executor {
        Executor::Threaded => bench::run::<ThreadedMachine<RankState>>(&wl, &opts),
        Executor::Modeled => bench::run::<Machine<RankState>>(&wl, &opts),
    }
}

fn assert_emits(out: &Outcome, section: &str) {
    assert_eq!(out.failed, 0, "failed checks: {:?}", out.failures);
    assert!(out.attempted > 0);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    for m in &out.metrics {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "invalid metric name {:?}",
            m.name
        );
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a metric is emitted twice");
    let mut expected = declared(section);
    expected.sort_unstable();
    assert_eq!(sorted, expected, "emitted metrics differ from {section}");
}

#[test]
fn end_to_end_metrics_on_the_threaded_executor() {
    assert_emits(&run_tiny(Executor::Threaded, false), "end_to_end");
}

#[test]
fn end_to_end_metrics_on_the_modeled_executor() {
    assert_emits(&run_tiny(Executor::Modeled, false), "end_to_end");
}

#[test]
fn per_layer_metrics_on_the_threaded_executor() {
    assert_emits(&run_tiny(Executor::Threaded, true), "per_layer");
}

#[test]
fn per_layer_metrics_on_the_modeled_executor() {
    assert_emits(&run_tiny(Executor::Modeled, true), "per_layer");
}

#[test]
fn traced_replay_covers_every_iteration() {
    let wl = workload::tiny(Executor::Modeled);
    let (trace, _) = crate::replay::run::<Machine<RankState>>(&wl.cfg, wl.episode_iters)
        .expect("fault-free replay");
    // iterations 3 and 6 redistribute under Periodic(3)
    assert_eq!(trace.calls(crate::replay::REDISTRIBUTE), 2);
    assert_eq!(trace.calls(crate::replay::SCATTER), wl.episode_iters);
    assert!(trace.loop_s() >= (0..5).map(|p| trace.phase_s(p)).sum::<f64>());
    // `--spans`: one complete event per span, iterations included
    let chrome = crate::chrome_trace(&trace.spans);
    assert_eq!(chrome.matches("\"ph\": \"X\"").count(), trace.spans.len());
    assert_eq!(
        chrome.matches("\"name\": \"iter ").count(),
        wl.episode_iters
    );
}
