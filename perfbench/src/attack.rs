//! The `lock_attack` workload: the piracy threat. One SAT attack after
//! another on XOR-locked instances of a random host, on the AIG,
//! incremental-CDCL and portfolio path.

use crate::stats::Stats;
use crate::{ms_since, roundtrip, span_ms, sub_seed, timed_setup, Outcome, RunConfig};
use seceda_lock::{sat_attack, xor_lock, LockedNetlist, SatAttackResult};
use seceda_netlist::{random_circuit, Netlist, NetlistError, RandomCircuitConfig};
use seceda_sim::PackedSim;
use seceda_trace::Summary;
use std::time::Instant;

/// Host inputs; few enough that the key check is exhaustive.
const HOST_INPUTS: usize = 12;

/// Seed of the host every instance locks: the 300-gate random host of
/// the repository's `sat_attack` bench. Attack time varies 180x across
/// random hosts (0.07 s to 13 s for three key widths), so the host is
/// fixed and the workload seed draws the lock instances: key-gate
/// positions and key values.
const HOST_SEED: u64 = 5;

/// Outputs of `nl` on all `2^HOST_INPUTS` inputs, with the inputs
/// beyond the host's bound to the constant `key`.
fn exhaustive_outputs(nl: &Netlist, key: &[bool]) -> Result<Vec<u64>, NetlistError> {
    let sim = PackedSim::new(nl)?;
    let mut outputs = Vec::new();
    for chunk in 0..(1u64 << HOST_INPUTS) / 64 {
        let words: Vec<u64> = (0..HOST_INPUTS)
            .map(|j| {
                (0..64).fold(0u64, |w, lane| {
                    w | ((((chunk * 64 + lane) >> j) & 1) << lane)
                })
            })
            .chain(key.iter().map(|&b| if b { u64::MAX } else { 0 }))
            .collect();
        outputs.extend(sim.outputs(&sim.eval(&words)));
    }
    Ok(outputs)
}

/// Gate: a recovered key makes the locked design agree with the oracle
/// on every input (checked by simulation, not by the solver).
fn gate(
    out: &mut Outcome,
    reference: &[u64],
    locked: &LockedNetlist,
    res: Option<&SatAttackResult>,
) -> Result<(), NetlistError> {
    let ok = match res {
        Some(r) => exhaustive_outputs(&locked.netlist, &r.key)? == reference,
        None => false,
    };
    out.check(ok, || {
        format!(
            "{}-bit lock: {}",
            locked.key_width(),
            if res.is_some() {
                "recovered key disagrees with the oracle"
            } else {
                "no key recovered"
            }
        )
    });
    Ok(())
}

/// `lock_attack`: one attack after another, each timed from outside.
///
/// # Errors
///
/// Propagates encoding errors.
pub fn run(config: &RunConfig) -> Result<Outcome, NetlistError> {
    let scale = &config.scale;
    let mut out = Outcome::default();
    let lock = |host: &Netlist, i: usize| {
        xor_lock(host, scale.key_bits, sub_seed(config.seed, 100 + i as u64))
    };
    let make = || {
        let (host, text) = roundtrip(&random_circuit(&RandomCircuitConfig {
            num_inputs: HOST_INPUTS,
            num_gates: scale.host_gates,
            num_outputs: 6,
            with_xor: true,
            seed: HOST_SEED,
        }))?;
        let locks: Vec<LockedNetlist> = (0..scale.lock_instances).map(|i| lock(&host, i)).collect();
        Ok((host, text, locks))
    };
    let ((host, text, locks), setup_s) = timed_setup(scale, make)?;
    out.setup_s = setup_s;
    crate::check_roundtrip(&mut out, &host, &text);
    let reference = exhaustive_outputs(&host, &[])?;
    let oracle = |x: &[bool]| host.evaluate(x);

    if config.trace {
        let locks = &locks[..scale.traced_instances.min(locks.len())];
        let t = Instant::now();
        let mut off = Vec::new();
        let mut off_ms = Vec::new();
        for locked in locks {
            let t = Instant::now();
            off.push(sat_attack(locked, oracle)?);
            off_ms.push(ms_since(t));
        }
        let off_total = ms_since(t);
        let (on, mut events) = seceda_trace::session(|| {
            let t = Instant::now();
            let mut results = Vec::new();
            let mut attack_ms = 0.0;
            for locked in locks {
                let (res, ms) = span_ms("bench.lock.sat_attack", || sat_attack(locked, oracle));
                attack_ms += ms;
                results.push(res?);
            }
            Ok::<_, NetlistError>((results, attack_ms, ms_since(t)))
        });
        let (on, attack_ms, on_total) = on?;
        for (locked, res) in locks.iter().chain(locks).zip(off.iter().chain(&on)) {
            gate(&mut out, &reference, locked, res.as_ref())?;
        }
        crate::record_overhead(
            &mut out,
            off_total,
            on_total,
            "the traced instances' attacks",
        );
        let summary = Summary::of(&events);
        let count = |name| summary.counters.get(name).copied().unwrap_or(0) as f64;
        let done: Vec<&SatAttackResult> = on.iter().flatten().collect();
        let dips: usize = done.iter().map(|r| r.iterations).sum();
        out.check(count("lock.dip_iterations") == dips as f64, || {
            format!(
                "recorder counted {} DIPs, results report {dips}",
                count("lock.dip_iterations")
            )
        });
        let attack_s: f64 = off_ms.iter().sum();
        out.layer_share(
            "lock.sat_attack_ms",
            attack_ms,
            Some((
                attack_s,
                format!(
                    "attack time of {} instances, recorder off ({attack_s:.1} ms)",
                    locks.len()
                ),
            )),
        );
        out.layer("lock.dip_iterations", dips as f64);
        out.layer(
            "sat.attack_conflicts",
            done.iter().map(|r| r.conflicts).sum::<u64>() as f64,
        );
        out.layer(
            "sat.attack_clauses",
            done.iter().map(|r| r.clauses).sum::<usize>() as f64,
        );
        out.layer("sat.aig_nodes", count("sat.aig_nodes"));
        out.layer("sat.aig_hash_hits", count("sat.aig_hash_hits"));

        let (lock_ms, lock_events) = seceda_trace::session(|| {
            (0..locks.len())
                .map(|i| span_ms("bench.lock.xor_lock", || lock(&host, i)).1)
                .sum::<f64>()
        });
        let setup_ms = Stats::of(&out.setup_s).median * 1e3;
        out.layer_share(
            "lock.xor_lock_ms",
            lock_ms,
            Some((
                setup_ms,
                format!(
                    "median set-up time ({} instances locked)",
                    scale.lock_instances
                ),
            )),
        );
        events.extend(lock_events);
        crate::replay_parse(&mut out, &[&text])?;
        out.calls_ms = off_ms;
        out.items = locks.len();
        out.wall_s = off_total / 1e3;
        out.events = events;
        return Ok(out);
    }

    let mut results = Vec::new();
    crate::timed_loop(config, &mut out, make, |out| {
        let locked = &locks[results.len() % locks.len()];
        let t = Instant::now();
        let res = sat_attack(locked, oracle)?;
        let ms = ms_since(t);
        out.calls_ms.push(ms);
        out.items += 1;
        out.wall_s += ms / 1e3;
        results.push(std::hint::black_box(res));
        Ok(())
    })?;

    for (i, res) in results.iter().enumerate() {
        gate(&mut out, &reference, &locks[i % locks.len()], res.as_ref())?;
    }
    let dips: Vec<f64> = results
        .iter()
        .flatten()
        .map(|r| r.iterations as f64)
        .collect();
    out.notes.push(format!(
        "attack_ms: {} per {}-bit key on a {}-gate host",
        Stats::of(&out.calls_ms),
        scale.key_bits,
        host.num_gates()
    ));
    out.notes
        .push(format!("DIP iterations per attack: {}", Stats::of(&dips)));
    Ok(out)
}
