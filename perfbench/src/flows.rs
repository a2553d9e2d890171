//! The `flows` workload: the classical and the security-centric flow of
//! Fig. 1 on a masked AES S-box slice.

use crate::stats::Stats;
use crate::{ms_since, roundtrip, span_ms, sub_seed, timed_setup, Outcome, RunConfig};
use seceda_core::{run_classical_flow, run_secure_flow, FlowReport};
use seceda_dft::generate_tests;
use seceda_layout::{place, route, timing_report, PlacementConfig, RouteConfig};
use seceda_netlist::{Netlist, NetlistError, Word};
use seceda_sim::{fault::stuck_at_universe, signal_probabilities, FaultSim};
use seceda_synth::{optimize, reassociate, SynthesisMode};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use seceda_trace::{Event, Summary};
use seceda_verif::{check_equivalence, EquivResult};
use std::time::Instant;

/// Random vectors the simulation reference applies per flow result.
const GATE_VECTORS: usize = 512;

/// The first `2^bits` entries of the AES S-box (all 8 output bits),
/// masked with 3-share ISW masking: the slices `examples/flow_trace.rs`
/// runs.
///
/// The slices are fixed; the seed draws only the gate's simulation
/// vectors. The secure flow's equivalence proof took 7.7 s to 13.4 s per
/// pass over four seed-drawn S-box windows, so seed-drawn windows would
/// make the workload measure the window rather than the flows.
fn masked_slice(bits: usize) -> Netlist {
    let mut nl = Netlist::new(format!("aes_sbox_slice{bits}"));
    let x = Word::input(&mut nl, "x", bits);
    let table: Vec<u64> = seceda_cipher::AES_SBOX[..1 << bits]
        .iter()
        .map(|&v| u64::from(v))
        .collect();
    let y = seceda_cipher::table_lookup(&mut nl, &x, &table, 8);
    y.mark_output(&mut nl, "y");
    seceda_sca::mask_netlist(&nl).netlist
}

/// One pass: both flows on every slice, each flow timed from outside.
struct Pass {
    classical: Vec<FlowReport>,
    secure: Vec<FlowReport>,
    classical_ms: f64,
    secure_ms: f64,
}

fn pass(slices: &[Netlist]) -> Result<Pass, NetlistError> {
    let mut p = Pass {
        classical: Vec::new(),
        secure: Vec::new(),
        classical_ms: 0.0,
        secure_ms: 0.0,
    };
    for nl in slices {
        let t = Instant::now();
        p.classical
            .push(std::hint::black_box(run_classical_flow(nl)?));
        p.classical_ms += ms_since(t);
        let t = Instant::now();
        p.secure.push(std::hint::black_box(run_secure_flow(nl)?));
        p.secure_ms += ms_since(t);
    }
    Ok(p)
}

/// Gate: the secure flow proved equivalence, and both flows' results
/// match their input under random-vector simulation — a reference that
/// does not rely on the SAT check under test.
fn gate(out: &mut Outcome, slices: &[Netlist], p: &Pass, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, nl) in slices.iter().enumerate() {
        let secure = &p.secure[i];
        out.check(secure.equivalence_checked, || {
            format!("secure flow on {} did not prove equivalence", nl.name())
        });
        for (flow, report) in [("classical", &p.classical[i]), ("secure", secure)] {
            let same_ports = report.result.inputs().len() == nl.inputs().len()
                && report.result.outputs().len() == nl.outputs().len();
            let mismatch = same_ports.then(|| {
                (0..GATE_VECTORS)
                    .map(|_| {
                        (0..nl.inputs().len())
                            .map(|_| rng.gen())
                            .collect::<Vec<bool>>()
                    })
                    .filter(|x| report.result.evaluate(x) != nl.evaluate(x))
                    .count()
            });
            out.check(mismatch == Some(0), || {
                format!(
                    "{flow} flow on {}: {mismatch:?} of {GATE_VECTORS} random vectors differ",
                    nl.name()
                )
            });
        }
    }
}

/// Per-layer replay of every call both flows make on one slice.
#[derive(Default)]
struct LayerMs {
    reassociate: f64,
    optimize: f64,
    place_route: f64,
    test_prep: f64,
    sigprob: f64,
    equivalence: f64,
}

/// Replays the flows' test preparation: SAT ATPG up to 400 gates,
/// sampled random-pattern fault grading above (as `run_*_flow` does).
fn replay_test_prep(nl: &Netlist) -> Result<(), NetlistError> {
    if nl.num_gates() <= 400 {
        generate_tests(nl, 32, 7)?;
        return Ok(());
    }
    let universe = stuck_at_universe(nl);
    let stride = (universe.len() / 256).max(1);
    let sampled: Vec<_> = universe.iter().step_by(stride).copied().collect();
    let sim = FaultSim::new(nl)?;
    let mut rng = StdRng::seed_from_u64(7);
    let patterns: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect();
    std::hint::black_box(sim.coverage(&patterns, &sampled));
    Ok(())
}

/// Runs `f` inside a benchmark span of its own recorder session and
/// keeps the recorded events.
fn recorded<T>(events: &mut Vec<Event>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let (res, ev) = seceda_trace::session(|| span_ms(name, f));
    events.extend(ev);
    res
}

fn replay_slice(
    nl: &Netlist,
    p: &Pass,
    i: usize,
    ms: &mut LayerMs,
    events: &mut Vec<Event>,
    sat: &mut [u64; 3],
) -> Result<usize, NetlistError> {
    let mut faithful = 0;
    for mode in [SynthesisMode::Classical, SynthesisMode::SecurityAware] {
        let ((reassoc, _), t) =
            recorded(events, "bench.synth.reassociate", || reassociate(nl, mode));
        ms.reassociate += t;
        let (synthesized, t) =
            recorded(events, "bench.synth.optimize", || optimize(&reassoc, mode));
        ms.optimize += t;
        let (_, t) = recorded(events, "bench.layout.place_route", || {
            let placement = place(&synthesized, &PlacementConfig::default());
            let routed = route(&synthesized, &placement, &RouteConfig::default());
            timing_report(&synthesized, &routed)
        });
        ms.place_route += t;
        let (res, t) = recorded(events, "bench.dft.test_prep", || {
            replay_test_prep(&synthesized)
        });
        res?;
        ms.test_prep += t;
        let flow_result = match mode {
            SynthesisMode::Classical => &p.classical[i].result,
            SynthesisMode::SecurityAware => {
                let (res, t) = recorded(events, "bench.sim.signal_probabilities", || {
                    signal_probabilities(&synthesized, 32, 11)
                });
                res?;
                ms.sigprob += t;
                // the proof's own session makes the SAT counters
                // attributable to it alone
                let mut proof_events = Vec::new();
                let (res, t) = recorded(&mut proof_events, "bench.verif.check_equivalence", || {
                    check_equivalence(nl, &synthesized)
                });
                let equivalent = res? == EquivResult::Equivalent;
                ms.equivalence += t;
                let summary = Summary::of(&proof_events);
                for (slot, name) in ["sat.conflicts", "sat.propagations", "sat.learned"]
                    .iter()
                    .enumerate()
                {
                    sat[slot] += summary.counters.get(name).copied().unwrap_or(0);
                }
                events.extend(proof_events);
                faithful += usize::from(equivalent);
                &p.secure[i].result
            }
        };
        faithful += usize::from(&synthesized == flow_result);
    }
    Ok(faithful)
}

/// `flows`: repeated passes of both flows over every slice.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(config: &RunConfig) -> Result<Outcome, NetlistError> {
    let mut out = Outcome::default();
    let bits = &config.scale.slice_bits;
    let make = || {
        bits.iter()
            .map(|&b| roundtrip(&masked_slice(b)))
            .collect::<Result<Vec<_>, NetlistError>>()
    };
    let (inputs, setup_s) = timed_setup(&config.scale, make)?;
    out.setup_s = setup_s;
    for (parsed, text) in &inputs {
        crate::check_roundtrip(&mut out, parsed, text);
    }
    let slices: Vec<Netlist> = inputs.iter().map(|(p, _)| p.clone()).collect();
    let texts: Vec<&str> = inputs.iter().map(|(_, t)| t.as_str()).collect();
    let gate_seed = sub_seed(config.seed, 9);

    if config.trace {
        let t = Instant::now();
        let off = pass(&slices)?;
        let off_ms = ms_since(t);
        let (on, mut events) = seceda_trace::session(|| {
            let t = Instant::now();
            pass(&slices).map(|p| (p, ms_since(t)))
        });
        let (on, on_ms) = on?;
        gate(&mut out, &slices, &off, gate_seed);
        gate(&mut out, &slices, &on, gate_seed);
        crate::record_overhead(&mut out, off_ms, on_ms, "one pass of both flows");

        let mut ms = LayerMs::default();
        let mut sat = [0u64; 3];
        let mut faithful = 0;
        let mut replay_events = Vec::new();
        for (i, nl) in slices.iter().enumerate() {
            faithful += replay_slice(nl, &off, i, &mut ms, &mut replay_events, &mut sat)?;
        }
        out.notes.push(format!(
            "replay fidelity: {faithful}/{} replayed syntheses and proofs reproduce the flows' results",
            3 * slices.len()
        ));
        let both = off.classical_ms + off.secure_ms;
        let both_base = || {
            Some((
                both,
                format!("classical_flow_s + secure_flow_s, recorder off ({both:.1} ms)"),
            ))
        };
        let secure_base = || {
            Some((
                off.secure_ms,
                format!("secure_flow_s, recorder off ({:.1} ms)", off.secure_ms),
            ))
        };
        out.layer_share("synth.reassociate_ms", ms.reassociate, both_base());
        out.layer_share("synth.optimize_ms", ms.optimize, both_base());
        out.layer_share("layout.place_route_ms", ms.place_route, both_base());
        out.layer_share("dft.test_prep_ms", ms.test_prep, both_base());
        out.layer_share("sim.signal_probabilities_ms", ms.sigprob, secure_base());
        out.layer_share("verif.check_equivalence_ms", ms.equivalence, secure_base());
        out.layer("sat.conflicts", sat[0] as f64);
        out.layer("sat.propagations", sat[1] as f64);
        out.layer("sat.learned", sat[2] as f64);
        crate::replay_parse(&mut out, &texts)?;
        out.calls_ms = vec![off_ms];
        out.items = 2 * slices.len();
        out.wall_s = off_ms / 1e3;
        events.extend(replay_events);
        out.events = events;
        return Ok(out);
    }

    let mut classical = Vec::new();
    let mut secure = Vec::new();
    crate::timed_loop(config, &mut out, make, |out| {
        let t = Instant::now();
        let p = pass(&slices)?;
        let ms = ms_since(t);
        out.calls_ms.push(ms);
        out.wall_s += ms / 1e3;
        out.items += 2 * slices.len();
        classical.push(p.classical_ms / 1e3);
        secure.push(p.secure_ms / 1e3);
        // gated between passes, outside the timed calls, so that the run
        // holds one pass's netlists at a time and its peak memory does
        // not depend on how many passes fit
        gate(out, &slices, &p, gate_seed);
        Ok(())
    })?;
    let sizes: Vec<usize> = slices.iter().map(Netlist::num_gates).collect();
    out.notes.push(format!(
        "classical_flow_s: {} summed over slices of {sizes:?} gates",
        Stats::of(&classical)
    ));
    out.notes.push(format!(
        "secure_flow_s: {} summed over slices of {sizes:?} gates",
        Stats::of(&secure)
    ));
    Ok(out)
}
