//! End-to-end and per-layer benchmark of the secure-composition loop.
//!
//! Every workload is a closed loop driven from outside the program: each
//! call into a `seceda-*` crate starts only after the previous one
//! returned, the way one engineer, or one script running a closure
//! campaign, waits for a report. Inputs are generated from the workload
//! seed, serialized to `.bench` text and parsed back, so the program only
//! ever receives the generated inputs. Outputs are checked against
//! independent references outside the timed repetitions.
//!
//! A traced run (`trace = true`) replays every input the workload saw
//! through the public function of each layer, timed inside a
//! benchmark-owned span, and reads the counters the recorder already
//! emits through [`seceda_trace::session`]. No probe is added inside the
//! program.

pub mod attack;
pub mod closure;
pub mod flows;
pub mod stats;

use seceda_netlist::{parse_design, write_bench, DesignFormat, Netlist, NetlistError};
use seceda_trace::Event;
use stats::Stats;
use std::time::{Duration, Instant};

/// End-to-end metrics every untraced run prints, as `(name, unit)`.
///
/// Call latency is reported at its third quartile, the highest
/// percentile with at least ten samples beyond it on every workload; the
/// median is printed with it in the human-readable lines. Over five runs
/// per workload the third quartile spread less than the median across
/// runs (0.11 against 0.16 of the median on `closure_cold`, 0.03 against
/// 0.10 on `flows`); over two later sets of ten they spread alike.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("call_p75_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, as `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("fia.analyze_faults_ms", "ms"),
    ("sim.signal_probabilities_ms", "ms"),
    ("netlist.structural_hash_ms", "ms"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("core.evaluations", "count"),
    ("core.degraded_metrics", "count"),
    ("lock.xor_lock_ms", "ms"),
    ("fia.parity_protect_ms", "ms"),
    ("trojan.insert_monitor_ms", "ms"),
    ("netlist.parse_ms", "ms"),
    ("netlist.parse_gates_per_s", "gates/s"),
    ("synth.reassociate_ms", "ms"),
    ("synth.optimize_ms", "ms"),
    ("layout.place_route_ms", "ms"),
    ("dft.test_prep_ms", "ms"),
    ("verif.check_equivalence_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.learned", "count"),
    ("lock.sat_attack_ms", "ms"),
    ("lock.dip_iterations", "count"),
    ("sat.attack_conflicts", "count"),
    ("sat.attack_clauses", "count"),
    ("sat.aig_nodes", "count"),
    ("sat.aig_hash_hits", "count"),
    ("trace.overhead_pct", "%"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cache-cold closure session: latency after one edit.
    ClosureCold,
    /// Both Fig. 1 flows on a masked AES S-box slice.
    Flows,
    /// SAT attacks on XOR-locked instances of a random host.
    LockAttack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ClosureCold, Workload::Flows, Workload::LockAttack];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosureCold => "closure_cold",
            Workload::Flows => "flows",
            Workload::LockAttack => "lock_attack",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] runs every code path in well under a second for the
/// self-tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Gates of the `closure_cold` design.
    pub cold_gates: usize,
    /// Address bits of each masked S-box slice in `flows`.
    pub slice_bits: Vec<usize>,
    /// Gates of the `lock_attack` host.
    pub host_gates: usize,
    /// Key width of every `lock_attack` instance.
    pub key_bits: usize,
    /// Locked instances generated for `lock_attack`; the timed loop
    /// cycles through them.
    pub lock_instances: usize,
    /// Instances a traced `lock_attack` run attacks.
    pub traced_instances: usize,
    /// One window of set-up repetitions repeats set-up at least this
    /// often, and until [`Scale::setup_window`] has passed.
    pub setup_reps: usize,
    /// Minimum time one window of set-up repetitions spans.
    pub setup_window: Duration,
    /// The timed loop times another set-up window between two calls
    /// once this much time has passed since the last one, so that the
    /// set-up median samples the machine across the whole run.
    pub setup_every: Duration,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            cold_gates: 10_000,
            // with the 4-bit slice as well, a pass took about 3.5 s and a
            // run held too few passes for a third quartile with ten
            // samples beyond it
            slice_bits: vec![3],
            host_gates: 300,
            key_bits: 32,
            lock_instances: 512,
            traced_instances: 96,
            setup_reps: 3,
            setup_window: Duration::from_millis(100),
            setup_every: Duration::from_secs(2),
        }
    }

    /// A configuration small enough for the self-tests.
    pub fn tiny() -> Scale {
        Scale {
            cold_gates: 200,
            slice_bits: vec![2],
            host_gates: 60,
            key_bits: 8,
            lock_instances: 4,
            traced_instances: 2,
            setup_reps: 2,
            setup_window: Duration::ZERO,
            setup_every: Duration::ZERO,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// How long the timed loop runs (at least one call always runs).
    pub seconds: Duration,
    /// Traced run: per-layer replay instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A per-layer row: value plus, where one exists, its share of the
/// end-to-end quantity it should move and the base of that ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Metric name (one of [`PER_LAYER`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// `(share, base)`, e.g. `(0.95, "apply time over 8 steps")`.
    pub share: Option<(f64, String)>,
}

/// Everything one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Latency of every timed call, milliseconds.
    pub calls_ms: Vec<f64>,
    /// Work items (steps, flows, keys) completed by the timed calls.
    pub items: usize,
    /// Wall time of the timed calls.
    pub wall_s: f64,
    /// Operations the correctness gate checked.
    pub attempted: u64,
    /// Operations that failed the gate (wrong output, degraded metric,
    /// unproven equivalence, wrong or missing key).
    pub failed: u64,
    /// Human-readable lines: the workload's own metrics with sample
    /// counts, thread settings, gate results.
    pub notes: Vec<String>,
    /// Per-layer rows (traced runs only).
    pub layers: Vec<LayerRow>,
    /// Recorded events of a traced run, written out at the end.
    pub events: Vec<Event>,
}

impl Outcome {
    /// Records a per-layer value without a share.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer_share(name, value, None);
    }

    /// Records a per-layer value with its share of `base`, a `(value,
    /// label)` pair naming the end-to-end quantity it is a share of.
    pub fn layer_share(&mut self, name: &'static str, value: f64, base: Option<(f64, String)>) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        let share = base.map(|(b, label)| (if b > 0.0 { value / b } else { 0.0 }, label));
        self.layers.retain(|r| r.name != name);
        self.layers.push(LayerRow { name, value, share });
    }

    /// Records one gate check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("GATE FAILURE: {}", what()));
        }
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metric values, in [`END_TO_END`] order (peak RSS
    /// is filled in by the caller once the run has ended).
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        let setup = Stats::of(&self.setup_s).median;
        let call = Stats::of(&self.calls_ms).q3;
        let values = [setup, call, peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The per-layer values, in [`PER_LAYER`] order, 0 where the
    /// workload does not exercise the layer.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .layers
                    .iter()
                    .find(|r| r.name == name)
                    .map_or(0.0, |r| r.value);
                (name, v, unit)
            })
            .collect()
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Propagates simulator and parser errors; a wrong *result* is not an
/// error but a gate failure counted in [`Outcome::failed`].
pub fn run(config: &RunConfig) -> Result<Outcome, NetlistError> {
    match config.workload {
        Workload::ClosureCold => closure::cold(config),
        Workload::Flows => flows::run(config),
        Workload::LockAttack => attack::run(config),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Derives an independent sub-seed for one input of a workload.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    seceda_netlist::hash::mix64(seed ^ seceda_netlist::hash::mix64(tag))
}

/// Serializes `nl` to `.bench` text and parses it back — the frontend
/// every design enters through. Returns the parsed design and its text.
///
/// # Errors
///
/// Propagates parser errors.
pub fn roundtrip(nl: &Netlist) -> Result<(Netlist, String), NetlistError> {
    let text = write_bench(nl);
    let parsed = parse_design(&text, DesignFormat::Bench)?;
    Ok((parsed, text))
}

/// Gate on the frontend: the parsed design must serialize back to the
/// exact text it was parsed from.
pub fn check_roundtrip(out: &mut Outcome, parsed: &Netlist, text: &str) {
    out.check(write_bench(parsed) == text, || {
        format!(
            "{} does not re-serialize to its parsed .bench text",
            parsed.name()
        )
    });
}

/// Runs `make` at least `scale.setup_reps` times and until
/// `scale.setup_window` has passed, timing each run, and returns the
/// last result with every timing in seconds.
///
/// # Errors
///
/// Propagates the first error `make` returns.
pub fn timed_setup<T>(
    scale: &Scale,
    mut make: impl FnMut() -> Result<T, NetlistError>,
) -> Result<(T, Vec<f64>), NetlistError> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let made = std::hint::black_box(make()?);
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= scale.setup_reps.max(1) && start.elapsed() >= scale.setup_window {
            return Ok((made, times));
        }
    }
}

/// The timed loop of an untraced run: calls `call`, which records its
/// latencies, items and call time in `out`, until the call time in
/// [`Outcome::wall_s`] reaches `config.seconds` (at least once). Between
/// two calls, once [`Scale::setup_every`] has passed since the last
/// set-up window, it times another window of `make` into
/// [`Outcome::setup_s`].
///
/// # Errors
///
/// Propagates the first error `call` or `make` returns.
pub fn timed_loop<T>(
    config: &RunConfig,
    out: &mut Outcome,
    mut make: impl FnMut() -> Result<T, NetlistError>,
    mut call: impl FnMut(&mut Outcome) -> Result<(), NetlistError>,
) -> Result<(), NetlistError> {
    let mut last_setup = Instant::now();
    while out.calls_ms.is_empty() || out.wall_s < config.seconds.as_secs_f64() {
        call(out)?;
        if last_setup.elapsed() >= config.scale.setup_every {
            out.setup_s.extend(timed_setup(&config.scale, &mut make)?.1);
            last_setup = Instant::now();
        }
    }
    Ok(())
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` inside a benchmark-owned trace span and returns its result
/// with the elapsed milliseconds.
pub fn span_ms<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _sp = seceda_trace::span(name);
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms_since(t))
}

/// Replays the `.bench` parse of a set-up input: records
/// `netlist.parse_ms` and `netlist.parse_gates_per_s`, with the parse's
/// share of the median set-up time.
///
/// # Errors
///
/// Propagates parser errors.
pub fn replay_parse(out: &mut Outcome, texts: &[&str]) -> Result<(), NetlistError> {
    let mut parse_ms = 0.0;
    let mut gates = 0usize;
    for text in texts {
        let (nl, ms) = span_ms("bench.netlist.parse", || {
            parse_design(text, DesignFormat::Bench)
        });
        gates += nl?.num_gates();
        parse_ms += ms;
    }
    let setup_ms = Stats::of(&out.setup_s).median * 1e3;
    out.layer_share(
        "netlist.parse_ms",
        parse_ms,
        Some((setup_ms, "median set-up time".into())),
    );
    out.layer("netlist.parse_gates_per_s", gates as f64 / (parse_ms / 1e3));
    Ok(())
}

/// Tracing overhead of one workload pass: recorder off vs. on.
pub fn record_overhead(out: &mut Outcome, off_ms: f64, on_ms: f64, pass: &str) {
    out.notes.push(format!(
        "tracing overhead: {pass} took {off_ms:.1} ms with the recorder off, {on_ms:.1} ms with it on"
    ));
    out.layer("trace.overhead_pct", (on_ms / off_ms - 1.0) * 100.0);
}
