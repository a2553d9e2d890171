//! Benchmark command.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload closure_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! Exits nonzero when an output fails the correctness gate.

use seceda_perfbench::stats::Stats;
use seceda_perfbench::{peak_rss_mb, run, RunConfig, Scale, Workload};
use seceda_testkit::json::Json;
use std::process::ExitCode;
use std::time::Duration;

/// SAT portfolio size: one member keeps attack times steady (two racing
/// members on two cores spread by about 15% run to run).
const PORTFOLIO: usize = 1;

/// `testkit::par` workers. One worker keeps timings steady on a machine
/// shared with other load.
const THREADS: usize = 1;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
    })
}

/// Pins the program's parallelism and switches off every ambient
/// diagnostic before any library code runs (still single-threaded).
fn pin_environment() {
    std::env::set_var("SECEDA_THREADS", THREADS.to_string());
    std::env::set_var("SECEDA_PORTFOLIO", PORTFOLIO.to_string());
    for var in [
        "SECEDA_CHAOS",
        "SECEDA_TRACE",
        "SECEDA_TRACE_ALLOC",
        "SECEDA_WATCHDOG",
    ] {
        std::env::remove_var(var);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", config.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let rss = match peak_rss_mb() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let name = config.workload.name();
    println!(
        "workload {name}, seed {}, trace {}: SECEDA_THREADS={THREADS}, SECEDA_PORTFOLIO={PORTFOLIO}, closed loop, one client",
        config.seed,
        u8::from(config.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  fail_ratio: {:.4} ({} failed of {} attempted)",
        outcome.fail_ratio(),
        outcome.failed,
        outcome.attempted
    );
    let rows = if config.trace {
        println!(
            "  {:<30} {:>16} {:<8} share of base",
            "layer metric", "value", "unit"
        );
        for (metric, value, unit) in outcome.per_layer() {
            let share = outcome
                .layers
                .iter()
                .find(|r| r.name == metric)
                .and_then(|r| r.share.as_ref())
                .map_or(String::new(), |(s, base)| format!("{s:.3} of {base}"));
            println!("  {metric:<30} {value:>16.4} {unit:<8} {share}");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{name}-seed{}.trace.jsonl", config.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, seceda_trace::to_json_lines(&outcome.events)));
        match written {
            Ok(()) => println!(
                "  spans: {} events written to {}",
                outcome.events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome.per_layer()
    } else {
        let rows = outcome.end_to_end(rss);
        println!("  call_ms: {}", Stats::of(&outcome.calls_ms));
        println!(
            "  setup_ms: {}",
            Stats::of(&outcome.setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>())
        );
        println!(
            "  items_per_s: {:.4} ({} items in {:.3} s of calls)",
            outcome.items as f64 / outcome.wall_s,
            outcome.items,
            outcome.wall_s
        );
        for (metric, value, unit) in &rows {
            println!("  {metric:<14} {value:>14.4} {unit}");
        }
        rows
    };

    let metrics = rows
        .into_iter()
        .fold(Json::obj(), |obj, (metric, value, unit)| {
            obj.field(
                metric,
                Json::obj()
                    .field("value", value)
                    .field("unit", unit)
                    .build(),
            )
        })
        .build();
    let correct = outcome.failed == 0;
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", outcome.attempted as i64)
        .field("failed", outcome.failed as i64)
        .field("metrics", metrics)
        .build();
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
