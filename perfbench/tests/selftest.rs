//! Self-tests of the benchmark: its statistics, its contract with
//! `BENCHMARK.json`, and a tiny configuration of every workload run
//! with the correctness gate on.

use seceda_perfbench::stats::Stats;
use seceda_perfbench::{run, Outcome, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};
use seceda_testkit::json::Json;
use std::sync::Mutex;
use std::time::Duration;

/// The trace recorder is process-wide: while one test's traced run has
/// it on, another test's engine would record into the same session.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json: {key} is not an array");
    };
    items
        .iter()
        .map(|item| {
            let text = |field| match item.get(field) {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            };
            (text("name").expect("every entry has a name"), text("unit"))
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn stats_report_their_sample_count() {
    let s = Stats::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
    assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
    assert_eq!(s.tail, None, "five samples support no tail percentile");
    assert!(s.to_string().contains("n=5"), "{s}");
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(entries(&doc, "end_to_end"), declared(&END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = entries(&doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let outcome = Outcome {
        setup_s: vec![0.5],
        calls_ms: vec![2.0],
        items: 1,
        wall_s: 1.0,
        ..Outcome::default()
    };
    let printed: Vec<&str> = outcome.end_to_end(1.0).iter().map(|m| m.0).collect();
    assert_eq!(printed, END_TO_END.map(|m| m.0));
    let printed: Vec<&str> = outcome.per_layer().iter().map(|m| m.0).collect();
    assert_eq!(printed, PER_LAYER.map(|m| m.0));
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let config = RunConfig {
        workload,
        seed: 7,
        seconds: Duration::ZERO,
        trace,
        scale: Scale::tiny(),
    };
    let out = {
        let _one = ONE_RUN_AT_A_TIME
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        run(&config).expect("tiny workload runs")
    };
    assert!(
        out.attempted > 0,
        "{}: the gate checked nothing",
        workload.name()
    );
    assert_eq!(out.failed, 0, "{}: {:#?}", workload.name(), out.notes);
    assert!(!out.calls_ms.is_empty() && out.items > 0 && out.wall_s > 0.0);
    for (name, value, _) in out.end_to_end(1.0) {
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
    if trace {
        assert!(!out.events.is_empty(), "traced runs record spans");
        assert!(out.layers.iter().any(|r| r.share.is_some()));
    }
    out
}

#[test]
fn closure_cold_runs_green() {
    tiny(Workload::ClosureCold, false);
    let traced = tiny(Workload::ClosureCold, true);
    let evals = traced
        .per_layer()
        .into_iter()
        .find(|m| m.0 == "core.evaluations");
    assert_eq!(evals.map(|m| m.1), Some(9.0), "baseline plus eight steps");
}

#[test]
fn flows_run_green() {
    tiny(Workload::Flows, false);
    tiny(Workload::Flows, true);
}

#[test]
fn lock_attack_runs_green() {
    tiny(Workload::LockAttack, false);
    let traced = tiny(Workload::LockAttack, true);
    let dips = traced
        .per_layer()
        .into_iter()
        .find(|m| m.0 == "lock.dip_iterations");
    assert!(dips.is_some_and(|m| m.1 > 0.0));
}
