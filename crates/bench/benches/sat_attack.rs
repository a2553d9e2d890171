//! Rebuild-per-iteration vs. incremental SAT-attack benchmark.
//!
//! Runs the oracle-guided SAT attack on XOR-locked hosts with growing
//! key widths through both formulations — the from-scratch baseline
//! ([`sat_attack_rebuild`], the same AIG encoding rebuilt on a fresh
//! formula + fresh solver per DIP iteration) and the persistent-solver
//! attack ([`sat_attack`], one encoding, learned clauses kept across the
//! whole DIP loop) — and verifies that both walk the same number of DIP
//! iterations and that both recovered keys are functionally correct
//! before reporting the speedup. Both formulations share one encoder, so
//! the ratio measures solver persistence alone.
//!
//! Results go to stdout as a table and to `target/BENCH_sat_attack.json`
//! (one JSON document, validated by the `check_json` bin in CI).
//!
//! `SECEDA_BENCH_QUICK=1` switches to a seconds-not-minutes smoke
//! configuration (narrow keys, one sample) used by `scripts/verify.sh`.

use seceda_lock::{
    sat_attack, sat_attack_budgeted, sat_attack_rebuild, xor_lock, LockedNetlist, SatAttackOutcome,
    SatAttackResult,
};
use seceda_netlist::{c17, random_circuit, Netlist, RandomCircuitConfig};
use seceda_sat::Budget;
use seceda_testkit::bench::{target_dir, time_median_warm};
use seceda_testkit::json::Json;

struct CaseResult {
    name: String,
    key_width: usize,
    iterations: usize,
    aig_clauses: usize,
    portfolio_k: usize,
    rebuild_ns: u128,
    incremental_ns: u128,
    speedup: f64,
    iterations_match: bool,
    keys_correct: bool,
    /// Whether the one-conflict budgeted probe suspended (the expected
    /// outcome on any host that needs real search).
    indeterminate: bool,
    /// Conflicts the suspended probe had spent at checkpoint time.
    budget_conflicts: u64,
}

fn key_is_correct(locked: &LockedNetlist, original: &Netlist, key: &[bool]) -> bool {
    let n = locked.num_original_inputs;
    (0..(1u32 << n)).all(|pattern| {
        let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
        locked.evaluate_with_key(&inputs, key) == original.evaluate(&inputs)
    })
}

/// Quick mode times each case as the median of [`QUICK_SAMPLES`] runs
/// after one untimed warm-up: a single cold sample of a sub-millisecond
/// case is mostly noise, and `bench_report` diffs these rows.
const QUICK_SAMPLES: usize = 5;

fn run_case(
    name: &str,
    original: &Netlist,
    key_width: usize,
    samples: usize,
    warmups: usize,
) -> CaseResult {
    let locked = xor_lock(original, key_width, 7);
    let oracle = |x: &[bool]| original.evaluate(x);
    let (rebuild_ns, rebuild) = time_median_warm(warmups, samples, || {
        sat_attack_rebuild(&locked, oracle)
            .expect("rebuild attack runs")
            .expect("rebuild attack finds a key")
    });
    let (incremental_ns, incremental): (u128, SatAttackResult) =
        time_median_warm(warmups, samples, || {
            sat_attack(&locked, oracle)
                .expect("incremental attack runs")
                .expect("incremental attack finds a key")
        });
    // budgeted probe: a one-conflict budget suspends almost
    // immediately; resuming the checkpoint unbudgeted must land on the
    // exact key and DIP count of the straight-through attack, so the
    // checkpoint/resume machinery is re-verified on every bench host
    let (indeterminate, budget_conflicts) = {
        let starved = Budget::unlimited().with_max_conflicts(1);
        match sat_attack_budgeted(&locked, oracle, &starved, None).expect("budgeted attack runs") {
            SatAttackOutcome::Suspended { checkpoint, .. } => {
                let resumed =
                    sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), Some(&checkpoint))
                        .expect("resume runs");
                match resumed {
                    SatAttackOutcome::Complete(r) => {
                        assert_eq!(r.key, incremental.key, "{name}: resumed key diverged");
                        assert_eq!(
                            r.iterations, incremental.iterations,
                            "{name}: resumed DIP count diverged"
                        );
                    }
                    other => panic!("{name}: unbudgeted resume must complete: {other:?}"),
                }
                (true, checkpoint.conflicts)
            }
            SatAttackOutcome::Complete(_) => (false, 0),
            SatAttackOutcome::NoKey => panic!("{name}: budgeted probe lost the key"),
        }
    };
    CaseResult {
        name: name.to_string(),
        key_width,
        iterations: incremental.iterations,
        aig_clauses: incremental.clauses,
        portfolio_k: incremental.portfolio_k,
        rebuild_ns,
        incremental_ns,
        speedup: rebuild_ns as f64 / incremental_ns.max(1) as f64,
        iterations_match: rebuild.iterations == incremental.iterations,
        keys_correct: key_is_correct(&locked, original, &rebuild.key)
            && key_is_correct(&locked, original, &incremental.key),
        indeterminate,
        budget_conflicts,
    }
}

fn main() {
    // cargo passes harness flags (--bench, filters) we don't interpret
    let quick = std::env::var("SECEDA_BENCH_QUICK").is_ok_and(|v| v != "0");
    // a 12-input host drives the DIP count up (more distinguishable key
    // classes), which is exactly where rebuild-per-iteration pays its
    // quadratic re-encoding bill; c17 keeps a familiar small case
    let big = random_circuit(&RandomCircuitConfig {
        num_inputs: 12,
        num_gates: 300,
        num_outputs: 6,
        with_xor: true,
        seed: 5,
    });
    let results: Vec<CaseResult> = if quick {
        vec![
            run_case("c17_xor4", &c17(), 4, QUICK_SAMPLES, 1),
            run_case("c17_xor12", &c17(), 12, QUICK_SAMPLES, 1),
        ]
    } else {
        vec![
            run_case("c17_xor8", &c17(), 8, 3, 0),
            run_case("rand300_xor16", &big, 16, 3, 0),
            run_case("rand300_xor32", &big, 32, 3, 0),
            run_case("rand300_xor48", &big, 48, 3, 0),
            run_case("rand300_xor64", &big, 64, 3, 0),
        ]
    };

    println!(
        "{:<12} {:>9} {:>10} {:>11} {:>6} {:>14} {:>14} {:>9} {:>11} {:>8} {:>6} {:>11}",
        "case",
        "key_bits",
        "dip_iters",
        "aig_clauses",
        "k",
        "rebuild_ns",
        "incr_ns",
        "speedup",
        "iters_match",
        "keys_ok",
        "indet",
        "bdgt_confl"
    );
    for r in &results {
        println!(
            "{:<12} {:>9} {:>10} {:>11} {:>6} {:>14} {:>14} {:>8.1}x {:>11} {:>8} {:>6} {:>11}",
            r.name,
            r.key_width,
            r.iterations,
            r.aig_clauses,
            r.portfolio_k,
            r.rebuild_ns,
            r.incremental_ns,
            r.speedup,
            r.iterations_match,
            r.keys_correct,
            r.indeterminate,
            r.budget_conflicts
        );
        assert!(
            r.iterations_match,
            "{}: incremental attack diverged from rebuild on DIP count",
            r.name
        );
        assert!(r.keys_correct, "{}: a recovered key is wrong", r.name);
    }

    let entries: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("case", r.name.as_str())
                .field("key_width", r.key_width)
                .field("dip_iterations", r.iterations)
                .field("aig_clauses", r.aig_clauses)
                .field("portfolio_k", r.portfolio_k)
                .field("rebuild_ns", r.rebuild_ns as i64)
                .field("incremental_ns", r.incremental_ns as i64)
                .field("speedup", r.speedup)
                .field("iterations_match", r.iterations_match)
                .field("keys_correct", r.keys_correct)
                .field("indeterminate", r.indeterminate)
                .field("budget_conflicts", r.budget_conflicts as i64)
                .build()
        })
        .collect();
    let doc = Json::obj()
        .field("bench", "sat_attack")
        .field("quick", quick)
        .field("results", entries)
        .build();
    let path = target_dir().join("BENCH_sat_attack.json");
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_sat_attack.json");
    println!("wrote {}", path.display());
}
