//! Cached vs. full-recompute security closure benchmark.
//!
//! Drives a portfolio of closure sessions — same design, countermeasure
//! schedules sharing a long prefix, the shape real sign-off campaigns
//! take — through the composition engine twice: once recomputing every
//! threat evaluation from scratch ([`run_closure_full`]) and once over
//! the shared evaluation cache keyed by the design digest
//! ([`run_closure`]; its time is the `incremental_ns` column). The
//! final reports must agree metric for metric before the speedup is
//! reported; the cache is only admissible because a hit is bit-identical
//! to a recompute (see `crates/core/tests/incremental_compose.rs`).
//!
//! The speedup comes from the benchmark's shape — sessions that share a
//! prefix share its evaluations — not from faster evaluators; a faster
//! evaluator shrinks both columns.
//!
//! Both runs are timed under `with_workers(1)`: the cache's in-flight
//! latch already serializes shared-prefix computation across concurrent
//! sessions, so serial timing isolates the algorithmic effect —
//! evaluations avoided — from thread scheduling noise, and makes the
//! comparison deterministic.
//!
//! Results go to stdout as a table and to `target/BENCH_compose.json`
//! (validated by the `check_json` bin in CI). `SECEDA_BENCH_QUICK=1`
//! switches to the smoke configuration used by `scripts/verify.sh`.

use seceda_core::{
    run_closure, run_closure_full, ClosureConfig, ClosureSession, Countermeasure, DesignUnderTest,
    SecurityEvaluation,
};
use seceda_netlist::{random_circuit, Netlist, RandomCircuitConfig};
use seceda_testkit::bench::target_dir;
use seceda_testkit::json::Json;
use seceda_testkit::par::with_workers;
use std::time::Instant;

struct CaseResult {
    name: String,
    gates: usize,
    sessions: usize,
    countermeasures: usize,
    evaluations: usize,
    full_ns: u128,
    incremental_ns: u128,
    speedup: f64,
    cache_hit_rate: f64,
    reports_match: bool,
}

/// Builds `sessions` schedules of `steps` countermeasures each: a
/// shared prefix (the campaign's agreed hardening sequence) plus a
/// two-step suffix that varies per session (the candidates under
/// exploration). Cheap splices (locks, monitors) dominate, with a
/// periodic `ParityCheck` rebuild; every step re-evaluates every
/// threat, so each cache hit saves one whole threat evaluation.
fn schedules(sessions: usize, steps: usize) -> Vec<Vec<Countermeasure>> {
    use Countermeasure::{ParityCheck, TrojanMonitor, XorLock};
    let prefix: Vec<Countermeasure> = (0..steps - 2)
        .map(|i| match i % 4 {
            0 => XorLock(4),
            1 => TrojanMonitor,
            2 => XorLock(2),
            _ => ParityCheck,
        })
        .collect();
    let suffixes: [[Countermeasure; 2]; 4] = [
        [XorLock(2), TrojanMonitor],
        [TrojanMonitor, XorLock(2)],
        [XorLock(4), TrojanMonitor],
        [TrojanMonitor, XorLock(4)],
    ];
    (0..sessions)
        .map(|s| {
            let mut schedule = prefix.clone();
            schedule.extend(suffixes[s % suffixes.len()]);
            schedule
        })
        .collect()
}

fn run_case(name: &str, nl: &Netlist, num_sessions: usize, steps: usize) -> CaseResult {
    let eval = SecurityEvaluation::default();
    let config = ClosureConfig {
        eval,
        rollback_regressions: true,
    };
    let mk = || -> Vec<ClosureSession> {
        schedules(num_sessions, steps)
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| {
                ClosureSession::new(format!("s{i}"), DesignUnderTest::new(nl.clone()), schedule)
            })
            .collect()
    };
    with_workers(1, || {
        let t0 = Instant::now();
        let full = run_closure_full(mk(), &config).expect("full closure");
        let full_ns = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let cached = run_closure(mk(), &config).expect("cached closure");
        let incremental_ns = t1.elapsed().as_nanos();
        let reports_match = full.sessions.len() == cached.sessions.len()
            && full.sessions.iter().zip(&cached.sessions).all(|(f, c)| {
                f.final_report.metrics == c.final_report.metrics
                    && f.applied == c.applied
                    && f.rolled_back == c.rolled_back
            });
        CaseResult {
            name: name.to_string(),
            gates: nl.num_gates(),
            sessions: num_sessions,
            countermeasures: steps,
            evaluations: cached.total_evaluations(),
            full_ns,
            incremental_ns,
            speedup: full_ns as f64 / incremental_ns.max(1) as f64,
            cache_hit_rate: cached.cache.hit_rate(),
            reports_match,
        }
    })
}

fn main() {
    // cargo passes harness flags (--bench, filters) we don't interpret
    let quick = std::env::var("SECEDA_BENCH_QUICK").is_ok_and(|v| v != "0");
    let design = |gates, seed| {
        random_circuit(&RandomCircuitConfig {
            num_inputs: 24,
            num_gates: gates,
            num_outputs: 12,
            with_xor: true,
            seed,
        })
    };
    let results: Vec<CaseResult> = if quick {
        vec![run_case("closure_300", &design(300, 5), 4, 6)]
    } else {
        vec![
            run_case("closure_2k", &design(2_000, 5), 8, 8),
            run_case("closure_10k", &design(10_000, 6), 12, 10),
        ]
    };

    println!(
        "{:<14} {:>6} {:>8} {:>6} {:>6} {:>14} {:>14} {:>9} {:>9} {:>6}",
        "case",
        "gates",
        "sessions",
        "cms",
        "evals",
        "full_ns",
        "incremental_ns",
        "speedup",
        "hit_rate",
        "match"
    );
    for r in &results {
        println!(
            "{:<14} {:>6} {:>8} {:>6} {:>6} {:>14} {:>14} {:>8.1}x {:>9.3} {:>6}",
            r.name,
            r.gates,
            r.sessions,
            r.countermeasures,
            r.evaluations,
            r.full_ns,
            r.incremental_ns,
            r.speedup,
            r.cache_hit_rate,
            r.reports_match
        );
        assert!(
            r.reports_match,
            "{}: cached closure diverged from full recompute",
            r.name
        );
    }

    let entries: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("case", r.name.as_str())
                .field("gates", r.gates)
                .field("sessions", r.sessions)
                .field("countermeasures", r.countermeasures)
                .field("evaluations", r.evaluations)
                .field("full_ns", r.full_ns as i64)
                .field("incremental_ns", r.incremental_ns as i64)
                .field("speedup", r.speedup)
                .field("cache_hit_rate", r.cache_hit_rate)
                .field("reports_match", r.reports_match)
                .build()
        })
        .collect();
    let doc = Json::obj()
        .field("bench", "compose")
        .field("quick", quick)
        .field("results", entries)
        .build();
    let path = target_dir().join("BENCH_compose.json");
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_compose.json");
    println!("wrote {}", path.display());
}
