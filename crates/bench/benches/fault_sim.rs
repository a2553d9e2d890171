//! Scalar vs. packed fault-simulation benchmark.
//!
//! Grades the full stuck-at universe of each workload with the same
//! random pattern set through both engines — the retained scalar
//! reference ([`FaultSim::coverage_scalar`], one whole-circuit
//! re-simulation per (pattern, fault) pair) and the packed engine
//! ([`FaultSim::coverage`], 64 patterns per word, fault dropping,
//! cone-restricted faulty re-evaluation, threaded fault fan-out) — and
//! verifies the results are bit-identical before reporting the speedup.
//!
//! Results go to stdout as a table and to `target/BENCH_fault_sim.json`
//! (one JSON document, validated by the `check_json` bin in CI).
//!
//! `SECEDA_BENCH_QUICK=1` switches to a seconds-not-minutes smoke
//! configuration (small circuits, few patterns, one sample) used by
//! `scripts/verify.sh`.

use seceda_netlist::{alu_slice, random_circuit, ripple_adder, Netlist, RandomCircuitConfig};
use seceda_sim::{fault::stuck_at_universe, FaultSim, Lane256, SimWord};
use seceda_testkit::bench::{target_dir, time_median};
use seceda_testkit::json::Json;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

struct CaseResult {
    name: String,
    gates: usize,
    faults: usize,
    patterns: usize,
    lane_bits: usize,
    scalar_ns: u128,
    packed_ns: u128,
    speedup: f64,
    matches: bool,
    coverage: f64,
}

fn random_patterns(nl: &Netlist, n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect()
}

fn run_case(
    name: &str,
    nl: &Netlist,
    num_patterns: usize,
    scalar_samples: usize,
    packed_samples: usize,
) -> CaseResult {
    let sim = FaultSim::new(nl).expect("combinational workload");
    let faults = stuck_at_universe(nl);
    let patterns = random_patterns(nl, num_patterns, 0xFA57);
    let (scalar_ns, scalar) =
        time_median(scalar_samples, || sim.coverage_scalar(&patterns, &faults));
    let (packed_ns, packed) = time_median(packed_samples, || sim.coverage(&patterns, &faults));
    CaseResult {
        name: name.to_string(),
        gates: nl.num_gates(),
        faults: faults.len(),
        patterns: num_patterns,
        lane_bits: Lane256::BITS,
        scalar_ns,
        packed_ns,
        speedup: scalar_ns as f64 / packed_ns.max(1) as f64,
        matches: scalar == packed,
        coverage: packed.1,
    }
}

fn main() {
    // cargo passes harness flags (--bench, filters) we don't interpret
    let quick = std::env::var("SECEDA_BENCH_QUICK").is_ok_and(|v| v != "0");
    let random_cfg = |gates, inputs, outputs, seed| {
        random_circuit(&RandomCircuitConfig {
            num_inputs: inputs,
            num_gates: gates,
            num_outputs: outputs,
            with_xor: true,
            seed,
        })
    };
    let results: Vec<CaseResult> = if quick {
        vec![
            run_case("ripple_adder_4", &ripple_adder(4), 16, 1, 1),
            run_case("random_60", &random_cfg(60, 8, 4, 3), 16, 1, 1),
        ]
    } else {
        vec![
            run_case("ripple_adder_32", &ripple_adder(32), 256, 3, 5),
            run_case("alu_slice_16", &alu_slice(16), 256, 3, 5),
            run_case("random_2000", &random_cfg(2000, 32, 16, 3), 256, 3, 5),
        ]
    };

    println!(
        "{:<16} {:>6} {:>7} {:>9} {:>9} {:>14} {:>14} {:>9} {:>6} {:>9}",
        "circuit",
        "gates",
        "faults",
        "patterns",
        "lane_bits",
        "scalar_ns",
        "packed_ns",
        "speedup",
        "match",
        "coverage"
    );
    for r in &results {
        println!(
            "{:<16} {:>6} {:>7} {:>9} {:>9} {:>14} {:>14} {:>8.1}x {:>6} {:>9.4}",
            r.name,
            r.gates,
            r.faults,
            r.patterns,
            r.lane_bits,
            r.scalar_ns,
            r.packed_ns,
            r.speedup,
            r.matches,
            r.coverage
        );
        assert!(r.matches, "{}: packed result diverged from scalar", r.name);
    }

    let entries: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("circuit", r.name.as_str())
                .field("gates", r.gates)
                .field("faults", r.faults)
                .field("patterns", r.patterns)
                .field("lane_bits", r.lane_bits)
                .field("scalar_ns", r.scalar_ns as i64)
                .field("packed_ns", r.packed_ns as i64)
                .field("speedup", r.speedup)
                .field("match", r.matches)
                .field("coverage", r.coverage)
                .build()
        })
        .collect();
    let doc = Json::obj()
        .field("bench", "fault_sim")
        .field("quick", quick)
        .field("results", entries)
        .build();
    let path = target_dir().join("BENCH_fault_sim.json");
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_fault_sim.json");
    println!("wrote {}", path.display());
}
