//! The `closure_cold` workload: latency after one edit, in cache-cold
//! closure sessions.

use crate::stats::Stats;
use crate::{ms_since, roundtrip, span_ms, sub_seed, timed_setup, Outcome, RunConfig};
use seceda_core::{
    CompositionEngine, Countermeasure, DesignUnderTest, EvalCache, MetricSource,
    SecurityEvaluation, SecurityReport,
};
use seceda_fia::{analyze_faults, parity_protect, FaultCampaign, InjectionModel, ProtectedNetlist};
use seceda_lock::xor_lock;
use seceda_netlist::{random_circuit, Netlist, NetlistError, RandomCircuitConfig, StructuralHash};
use seceda_sim::signal_probabilities;
use seceda_trace::Summary;
use seceda_trojan::insert_rare_event_monitor;
use std::sync::Arc;
use std::time::Instant;

const FIA_METRIC: &str = "fault-detection coverage";
const TROJAN_METRIC: &str = "unmonitored rare nets";

/// The random combinational design a closure session starts from,
/// generated from the seed and round-tripped through `.bench` text.
fn design(gates: usize, seed: u64) -> Result<(Netlist, String), NetlistError> {
    roundtrip(&random_circuit(&RandomCircuitConfig {
        num_inputs: 24,
        num_gates: gates,
        num_outputs: 12,
        with_xor: true,
        seed,
    }))
}

/// Four countermeasures twice over: every step reaches a state no
/// earlier step reached, so a per-session cache helps little.
fn cold_schedule() -> Vec<Countermeasure> {
    use Countermeasure::{ParityCheck, TrojanMonitor, XorLock};
    [XorLock(4), TrojanMonitor, XorLock(2), ParityCheck].repeat(2)
}

fn degraded(report: &SecurityReport) -> usize {
    report.degraded().len()
}

/// One timed session of `closure_cold`: a fresh cache, a baseline
/// evaluation, then every step timed from outside.
struct ColdSession {
    history: Vec<SecurityReport>,
    states: Vec<DesignUnderTest>,
    apply_ms: Vec<f64>,
    wall_ms: f64,
}

fn cold_session(
    nl: &Netlist,
    eval: SecurityEvaluation,
    schedule: &[Countermeasure],
    keep_states: bool,
) -> Result<ColdSession, NetlistError> {
    let t = Instant::now();
    let mut engine = CompositionEngine::with_cache(
        DesignUnderTest::new(nl.clone()),
        eval,
        Arc::new(EvalCache::new()),
    );
    engine.evaluate("baseline")?;
    let mut states = Vec::new();
    if keep_states {
        states.push(engine.design().clone());
    }
    let mut apply_ms = Vec::with_capacity(schedule.len());
    for &cm in schedule {
        let t_step = Instant::now();
        std::hint::black_box(engine.apply(cm)?);
        apply_ms.push(ms_since(t_step));
        if keep_states {
            states.push(engine.design().clone());
        }
    }
    Ok(ColdSession {
        history: engine.history().to_vec(),
        states,
        apply_ms,
        wall_ms: ms_since(t),
    })
}

/// The uncached reference: the same steps on `CompositionEngine::new`.
fn reference_session(
    nl: &Netlist,
    eval: SecurityEvaluation,
    schedule: &[Countermeasure],
) -> Result<(Vec<SecurityReport>, Vec<DesignUnderTest>), NetlistError> {
    let mut engine = CompositionEngine::new(DesignUnderTest::new(nl.clone()), eval);
    engine.evaluate("baseline")?;
    let mut states = vec![engine.design().clone()];
    for &cm in schedule {
        engine.apply(cm)?;
        states.push(engine.design().clone());
    }
    Ok((engine.history().to_vec(), states))
}

/// Gate: every report of a cached session must equal the uncached
/// reference bit for bit, and no metric may be degraded.
fn gate_history(out: &mut Outcome, history: &[SecurityReport], reference: &[SecurityReport]) {
    for (i, report) in history.iter().enumerate() {
        let same = reference.get(i) == Some(report);
        out.check(same && degraded(report) == 0, || {
            format!(
                "closure report {i} ({}): matches uncached reference = {same}, degraded metrics = {}",
                report.label,
                degraded(report)
            )
        });
    }
}

/// Per-layer time spent replaying one closure's inputs.
#[derive(Default)]
struct LayerMs {
    xor_lock: f64,
    parity: f64,
    monitor: f64,
    hash: f64,
    fia: f64,
    sigprob: f64,
}

/// Replays the countermeasure transform `CompositionEngine::apply`
/// performs for `cm` on `dut`, through the transform's public function.
fn replay_transform(
    dut: &DesignUnderTest,
    cm: Countermeasure,
    eval: &SecurityEvaluation,
    ms: &mut LayerMs,
) -> Result<DesignUnderTest, NetlistError> {
    let mut next = dut.clone();
    match cm {
        Countermeasure::XorLock(bits) => {
            let (locked, t) = span_ms("bench.lock.xor_lock", || {
                xor_lock(&dut.netlist, bits, eval.seed ^ 3)
            });
            ms.xor_lock += t;
            next.netlist = locked.netlist;
            next.key_bits += bits;
            next.probing_model = None;
        }
        Countermeasure::ParityCheck => {
            let (p, t) = span_ms("bench.fia.parity_protect", || parity_protect(&dut.netlist));
            ms.parity += t;
            next.netlist = p.netlist;
            next.alarm_index = p.alarm_index;
        }
        Countermeasure::TrojanMonitor => {
            let (m, t) = span_ms("bench.trojan.insert_monitor", || {
                insert_rare_event_monitor(
                    &dut.netlist,
                    1,
                    usize::MAX,
                    eval.rare_threshold,
                    eval.seed ^ 4,
                )
            });
            ms.monitor += t;
            next.netlist = m?.netlist;
            next.monitored = true;
        }
        other => unreachable!("closure_cold never schedules {other:?}"),
    }
    Ok(next)
}

/// Replays the fault-injection evaluator on `dut`: the same campaign
/// `eval_fault_injection` runs.
fn replay_fia(
    dut: &DesignUnderTest,
    eval: &SecurityEvaluation,
    ms: &mut LayerMs,
) -> Result<(), NetlistError> {
    let protected = ProtectedNetlist {
        netlist: dut.netlist.clone(),
        alarm_index: dut.alarm_index,
    };
    let campaign = FaultCampaign {
        model: InjectionModel::RandomGate,
        shots: eval.fia_shots,
        seed: eval.seed,
    };
    let (res, t) = span_ms("bench.fia.analyze_faults", || {
        analyze_faults(&protected, &campaign, 4, eval.seed ^ 1)
    });
    res?;
    ms.fia += t;
    Ok(())
}

/// Replays the Trojan evaluator's signal-probability estimate on `dut`.
fn replay_sigprob(
    dut: &DesignUnderTest,
    eval: &SecurityEvaluation,
    ms: &mut LayerMs,
) -> Result<(), NetlistError> {
    let (res, t) = span_ms("bench.sim.signal_probabilities", || {
        signal_probabilities(&dut.netlist, 32, eval.seed ^ 2)
    });
    res?;
    ms.sigprob += t;
    Ok(())
}

fn replay_hash(dut: &DesignUnderTest, ms: &mut LayerMs) -> Result<(), NetlistError> {
    let (res, t) = span_ms("bench.netlist.structural_hash", || {
        StructuralHash::of(&dut.netlist)
    });
    res?;
    ms.hash += t;
    Ok(())
}

fn computed(report: &SecurityReport, metric: &str) -> bool {
    report
        .provenance
        .iter()
        .any(|p| p.name == metric && p.source == MetricSource::Computed)
}

fn counters(out: &mut Outcome, summary: &Summary) {
    let hits = summary
        .counters
        .get("compose.cache_hits")
        .copied()
        .unwrap_or(0);
    let misses = summary
        .counters
        .get("compose.cache_misses")
        .copied()
        .unwrap_or(0);
    out.layer("core.cache_hits", hits as f64);
    out.layer("core.cache_misses", misses as f64);
    out.layer(
        "core.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

fn layer_rows(out: &mut Outcome, ms: &LayerMs, base_ms: f64, base: &str) {
    let b = || Some((base_ms, base.to_string()));
    out.layer_share("fia.analyze_faults_ms", ms.fia, b());
    out.layer_share("sim.signal_probabilities_ms", ms.sigprob, b());
    out.layer_share("netlist.structural_hash_ms", ms.hash, b());
    out.layer_share("lock.xor_lock_ms", ms.xor_lock, b());
    out.layer_share("fia.parity_protect_ms", ms.parity, b());
    out.layer_share("trojan.insert_monitor_ms", ms.monitor, b());
}

/// `closure_cold`: one cache-cold session after another, each step
/// (`apply` plus full re-evaluation) timed from outside.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn cold(config: &RunConfig) -> Result<Outcome, NetlistError> {
    let eval = SecurityEvaluation::default();
    let schedule = cold_schedule();
    let mut out = Outcome::default();
    let make = || design(config.scale.cold_gates, sub_seed(config.seed, 1));
    let ((nl, text), setup_s) = timed_setup(&config.scale, make)?;
    out.setup_s = setup_s;
    crate::check_roundtrip(&mut out, &nl, &text);

    if config.trace {
        let off = cold_session(&nl, eval, &schedule, false)?;
        let (on, events) = seceda_trace::session(|| cold_session(&nl, eval, &schedule, true));
        let on = on?;
        let (reference, ref_states) = reference_session(&nl, eval, &schedule)?;
        gate_history(&mut out, &off.history, &reference);
        gate_history(&mut out, &on.history, &reference);
        out.check(on.states == ref_states, || {
            "cached and uncached sessions reached different designs".into()
        });

        let off_apply: f64 = off.apply_ms.iter().sum();
        let on_apply: f64 = on.apply_ms.iter().sum();
        crate::record_overhead(&mut out, off_apply, on_apply, "8 apply calls");
        let summary = Summary::of(&events);
        counters(&mut out, &summary);

        let (replayed, replay_events) = seceda_trace::session(|| {
            let mut ms = LayerMs::default();
            let mut faithful = 0;
            for (i, &cm) in schedule.iter().enumerate() {
                let next = replay_transform(&on.states[i], cm, &eval, &mut ms)?;
                faithful += usize::from(next == on.states[i + 1]);
                let state = &on.states[i + 1];
                replay_hash(state, &mut ms)?;
                if computed(&on.history[i + 1], FIA_METRIC) {
                    replay_fia(state, &eval, &mut ms)?;
                }
                if computed(&on.history[i + 1], TROJAN_METRIC) {
                    replay_sigprob(state, &eval, &mut ms)?;
                }
            }
            Ok::<_, NetlistError>((ms, faithful))
        });
        let (ms, faithful) = replayed?;
        out.notes.push(format!(
            "replay fidelity: {faithful}/{} transforms reproduce the engine's design state",
            schedule.len()
        ));
        let base = format!(
            "apply time over {} steps, recorder off ({off_apply:.1} ms)",
            schedule.len()
        );
        layer_rows(&mut out, &ms, off_apply, &base);
        out.layer("core.evaluations", on.history.len() as f64);
        out.layer(
            "core.degraded_metrics",
            on.history.iter().map(degraded).sum::<usize>() as f64,
        );
        crate::replay_parse(&mut out, &[&text])?;
        out.calls_ms = off.apply_ms;
        out.items = schedule.len();
        out.wall_s = off.wall_ms / 1e3;
        out.events = events;
        out.events.extend(replay_events);
        return Ok(out);
    }

    let mut sessions = Vec::new();
    crate::timed_loop(config, &mut out, make, |out| {
        let s = cold_session(&nl, eval, &schedule, false)?;
        out.calls_ms.extend(&s.apply_ms);
        out.items += s.apply_ms.len();
        out.wall_s += s.wall_ms / 1e3;
        sessions.push(s.history);
        Ok(())
    })?;
    let (reference, _) = reference_session(&nl, eval, &schedule)?;
    for history in &sessions {
        gate_history(&mut out, history, &reference);
    }
    let steps = Stats::of(&out.calls_ms);
    out.notes.push(format!(
        "step_p50_ms: {steps} over {} sessions of {} steps on {} gates",
        sessions.len(),
        schedule.len(),
        nl.num_gates()
    ));
    Ok(out)
}
