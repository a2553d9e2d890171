//! Frontend throughput benchmark: `.bench` parse and topological sort
//! at scale.
//!
//! Each case exports a generated circuit with [`write_bench`], then
//! times (a) parsing the text back and (b) topologically sorting the
//! parsed netlist, verifying the reparse is structurally identical to
//! the original before reporting gates/second.
//!
//! Results go to stdout as a table and to `target/BENCH_parse.json`
//! (one JSON document, validated by the `check_json` bin in CI). The
//! acceptance bar for the frontend is the `parse_100k` case: parse +
//! topo sort of a 10^5-gate design must finish well under 2 s.
//!
//! `SECEDA_BENCH_QUICK=1` switches to a small smoke configuration used
//! by `scripts/verify.sh`.

use seceda_netlist::{parse_bench, random_circuit, write_bench, RandomCircuitConfig};
use seceda_testkit::bench::{target_dir, time_median};
use seceda_testkit::json::Json;

struct CaseResult {
    name: String,
    gates: usize,
    bytes: usize,
    parse_ns: u128,
    topo_ns: u128,
    gates_per_sec: f64,
    roundtrip_exact: bool,
}

fn run_case(name: &str, num_gates: usize, samples: usize) -> CaseResult {
    let original = random_circuit(&RandomCircuitConfig {
        num_inputs: 64.min(num_gates),
        num_gates,
        num_outputs: 32.min(num_gates),
        with_xor: true,
        seed: 0xBE7C,
    });
    let text = write_bench(&original);
    let (parse_ns, parsed) = time_median(samples, || parse_bench(&text).expect("parse"));
    let (topo_ns, order) = time_median(samples, || parsed.topo_order().expect("acyclic"));
    assert_eq!(order.len(), num_gates, "{name}: topo covers all gates");
    CaseResult {
        name: name.to_string(),
        gates: num_gates,
        bytes: text.len(),
        parse_ns,
        topo_ns,
        gates_per_sec: num_gates as f64 / (parse_ns as f64 / 1e9),
        roundtrip_exact: parsed == original,
    }
}

fn main() {
    // cargo passes harness flags (--bench, filters) we don't interpret
    let quick = std::env::var("SECEDA_BENCH_QUICK").is_ok_and(|v| v != "0");
    let results: Vec<CaseResult> = if quick {
        vec![
            run_case("parse_1k", 1_000, 1),
            run_case("parse_5k", 5_000, 1),
        ]
    } else {
        vec![
            run_case("parse_10k", 10_000, 5),
            run_case("parse_100k", 100_000, 3),
        ]
    };

    println!(
        "{:<12} {:>8} {:>10} {:>13} {:>12} {:>14} {:>6}",
        "case", "gates", "bytes", "parse_ns", "topo_ns", "gates_per_sec", "exact"
    );
    for r in &results {
        println!(
            "{:<12} {:>8} {:>10} {:>13} {:>12} {:>14.0} {:>6}",
            r.name, r.gates, r.bytes, r.parse_ns, r.topo_ns, r.gates_per_sec, r.roundtrip_exact
        );
        assert!(
            r.roundtrip_exact,
            "{}: reparsed netlist diverged from the original",
            r.name
        );
        // the frontend acceptance bar: parse + topo < 2 s at any scale
        // this harness runs
        assert!(
            r.parse_ns + r.topo_ns < 2_000_000_000,
            "{}: parse+topo exceeded 2 s",
            r.name
        );
    }

    let entries: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("case", r.name.as_str())
                .field("gates", r.gates)
                .field("bytes", r.bytes)
                .field("parse_ns", r.parse_ns as i64)
                .field("topo_ns", r.topo_ns as i64)
                .field("gates_per_sec", r.gates_per_sec)
                .field("roundtrip_exact", r.roundtrip_exact)
                .build()
        })
        .collect();
    let doc = Json::obj()
        .field("bench", "parse")
        .field("quick", quick)
        .field("results", entries)
        .build();
    let path = target_dir().join("BENCH_parse.json");
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_parse.json");
    println!("wrote {}", path.display());
}
