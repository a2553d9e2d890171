//! Simulation-anchored differential suite for the SAT clients.
//!
//! Every SAT-backed verdict in the workspace — ATPG testability, the
//! formal detection proof, combinational equivalence and bounded model
//! checking — is checked here against exhaustive simulation on designs
//! small enough to enumerate (at most 10 inputs). Simulation is the
//! reference, so the suite pins the verdicts independently of how the
//! clients encode their circuits into CNF.

use seceda_dft::{generate_tests, AtpgSolver};
use seceda_fia::codes::{duplicate_with_compare, parity_protect, ProtectedNetlist};
use seceda_netlist::{
    c17, format_netlist, majority, parse_netlist, random_circuit, CellKind, NetId, Netlist,
    RandomCircuitConfig,
};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultSim};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use seceda_verif::{bmc_reach, check_equivalence, prove_detection, BmcResult, EquivResult};

fn random(num_inputs: usize, num_gates: usize, num_outputs: usize, seed: u64) -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs,
        num_gates,
        num_outputs,
        with_xor: true,
        seed,
    })
}

/// Every input vector of `nl`, in counting order.
fn all_vectors(nl: &Netlist) -> Vec<Vec<bool>> {
    let n = nl.inputs().len();
    assert!(n <= 10, "exhaustive reference limited to 10 inputs");
    (0..1u32 << n)
        .map(|p| (0..n).map(|b| (p >> b) & 1 == 1).collect())
        .collect()
}

/// The combinational designs every suite below runs on.
fn combinational_designs() -> Vec<Netlist> {
    let mut designs = vec![c17(), majority()];
    for seed in [1u64, 5, 12, 29] {
        designs.push(random(6, 40, 3, seed));
    }
    designs.push(random(10, 60, 4, 77));
    designs
}

/// Stuck-at faults everywhere plus bit flips on gate outputs.
fn fault_list(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_universe(nl);
    faults.extend(
        (0..nl.num_nets())
            .map(NetId::from_index)
            .filter(|&n| nl.net(n).driver.is_some())
            .map(Fault::flip),
    );
    faults
}

#[test]
fn atpg_verdicts_match_exhaustive_fault_simulation() {
    for nl in combinational_designs() {
        let sim = FaultSim::new(&nl).expect("sim");
        let vectors = all_vectors(&nl);
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        for fault in fault_list(&nl) {
            let detectable = vectors.iter().any(|v| sim.detects_scalar(v, fault));
            match atpg.generate_test(fault).expect("query") {
                Some(pattern) => {
                    assert!(detectable, "{}: test for undetectable {fault:?}", nl.name());
                    assert!(
                        sim.detects_scalar(&pattern, fault),
                        "{}: pattern {pattern:?} misses {fault:?}",
                        nl.name()
                    );
                }
                None => assert!(
                    !detectable,
                    "{}: detectable {fault:?} called untestable",
                    nl.name()
                ),
            }
        }
    }
}

#[test]
fn atpg_untestable_set_is_exactly_the_undetectable_faults() {
    for (k, nl) in combinational_designs().into_iter().enumerate() {
        let sim = FaultSim::new(&nl).expect("sim");
        let vectors = all_vectors(&nl);
        let undetectable: Vec<Fault> = stuck_at_universe(&nl)
            .into_iter()
            .filter(|&f| !vectors.iter().any(|v| sim.detects_scalar(v, f)))
            .collect();
        let result = generate_tests(&nl, 4, 40 + k as u64).expect("atpg");
        assert_eq!(result.untestable, undetectable, "{}", nl.name());
        assert!((result.coverage - 1.0).abs() < 1e-12, "{}", nl.name());
    }
}

/// A DWC design whose alarm output is tied low: every corrupting
/// fault becomes a silent corruption.
fn fake_alarm(nl: &Netlist) -> ProtectedNetlist {
    let mut nl = nl.clone();
    let zero = nl.add_gate(CellKind::Const0, &[]);
    nl.mark_output(zero, "alarm");
    let alarm_index = Some(nl.outputs().len() - 1);
    ProtectedNetlist {
        netlist: nl,
        alarm_index,
    }
}

/// Does some input make the functional outputs differ while the faulty
/// alarm stays low?
fn silently_corrupts(
    p: &ProtectedNetlist,
    sim: &FaultSim,
    vectors: &[Vec<bool>],
    f: Fault,
) -> bool {
    let alarm = p.alarm_index.expect("alarm");
    vectors.iter().any(|v| {
        let good = sim.outputs(&sim.eval_with_faults(v, &[]));
        let bad = sim.outputs(&sim.eval_with_faults(v, &[f]));
        !bad[alarm] && (0..good.len()).any(|k| k != alarm && good[k] != bad[k])
    })
}

#[test]
fn detection_proof_violations_match_exhaustive_simulation() {
    let hosts = [c17(), majority(), random(6, 30, 3, 3), random(5, 25, 2, 8)];
    for host in &hosts {
        for p in [
            duplicate_with_compare(host),
            parity_protect(host),
            fake_alarm(host),
        ] {
            let nl = &p.netlist;
            let sim = FaultSim::new(nl).expect("sim");
            let vectors = all_vectors(nl);
            let proof = prove_detection(&p).expect("prove");
            assert!(proof.undecided.is_empty());
            let expected: Vec<Fault> = stuck_at_universe(nl)
                .into_iter()
                .filter(|f| nl.net(f.net).driver.is_some())
                .filter(|&f| silently_corrupts(&p, &sim, &vectors, f))
                .collect();
            let reported: Vec<Fault> = proof.violations.iter().map(|&(f, _)| f).collect();
            assert_eq!(reported, expected, "{}", nl.name());
            assert_eq!(proof.proven + reported.len(), proof.total, "{}", nl.name());
            for (fault, witness) in &proof.violations {
                assert!(
                    silently_corrupts(&p, &sim, std::slice::from_ref(witness), *fault),
                    "{}: witness {witness:?} for {fault:?} is not a silent corruption",
                    nl.name()
                );
            }
        }
    }
}

/// Every single-gate kind swap of `nl` that keeps the gate's arity
/// legal.
fn single_gate_mutations(nl: &Netlist) -> Vec<Netlist> {
    let binary = [
        CellKind::And,
        CellKind::Nand,
        CellKind::Or,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Xnor,
    ];
    let mut out = Vec::new();
    for (g, gate) in nl.gates().iter().enumerate() {
        let swaps: &[CellKind] = match gate.kind {
            CellKind::Not => &[CellKind::Buf],
            CellKind::Buf => &[CellKind::Not],
            k if binary.contains(&k) => &binary,
            _ => &[],
        };
        for &kind in swaps.iter().filter(|&&k| k != gate.kind) {
            let mut m = nl.clone();
            m.gate_mut(seceda_netlist::GateId::from_index(g)).kind = kind;
            out.push(m);
        }
    }
    out
}

fn check_equivalence_against_truth_tables(a: &Netlist, b: &Netlist) {
    let equal = a.truth_table() == b.truth_table();
    match check_equivalence(a, b).expect("check") {
        EquivResult::Equivalent => assert!(equal, "{} vs {}: false proof", a.name(), b.name()),
        EquivResult::Counterexample(x) => {
            assert!(
                !equal,
                "{} vs {}: spurious counterexample",
                a.name(),
                b.name()
            );
            assert_ne!(a.evaluate(&x), b.evaluate(&x), "witness {x:?} is not real");
        }
    }
}

#[test]
fn equivalence_agrees_with_truth_tables_on_random_pairs() {
    for seed in 0u64..12 {
        let a = random(5, 20 + seed as usize, 2, seed);
        let b = random(5, 20, 2, 100 + seed);
        check_equivalence_against_truth_tables(&a, &b);
        check_equivalence_against_truth_tables(&a, &a.clone());
        let back = parse_netlist(&format_netlist(&a)).expect("parse");
        check_equivalence_against_truth_tables(&a, &back);
    }
}

#[test]
fn equivalence_agrees_with_truth_tables_on_single_gate_mutations() {
    let mut equivalent = 0usize;
    let mut differing = 0usize;
    for nl in [c17(), majority(), random(6, 24, 3, 4), random(6, 24, 3, 9)] {
        for m in single_gate_mutations(&nl) {
            if nl.truth_table() == m.truth_table() {
                equivalent += 1;
            } else {
                differing += 1;
            }
            check_equivalence_against_truth_tables(&nl, &m);
        }
    }
    // both verdicts must actually be exercised
    assert!(
        equivalent > 0 && differing > 0,
        "{equivalent} / {differing}"
    );
}

/// A random sequential circuit: `inputs` primary inputs and `regs` DFFs
/// whose outputs feed back into a random gate pool. Output `o0` is the
/// newest pool net; `o1` is high when every register is, so from the
/// all-zero state it needs several cycles, or never fires.
fn random_sequential(inputs: usize, regs: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("seq_{seed}"));
    let mut pool: Vec<NetId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    let feedback: Vec<NetId> = (0..regs).map(|_| nl.add_net()).collect();
    pool.extend(&feedback);
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Not,
        CellKind::Mux,
    ];
    for _ in 0..gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let arity = match kind {
            CellKind::Not => 1,
            CellKind::Mux => 3,
            _ => 2,
        };
        let ins: Vec<NetId> = (0..arity)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        pool.push(nl.add_gate(kind, &ins));
    }
    let mut regs_out = Vec::new();
    for &fb in &feedback {
        let d = pool[rng.gen_range(inputs + regs..pool.len())];
        let q = nl.add_gate(CellKind::Dff, &[d]);
        nl.replace_net_uses(fb, q);
        regs_out.push(q);
    }
    let all_high = nl.add_gate(CellKind::And, &regs_out);
    nl.mark_output(pool[pool.len() - 1], "o0");
    nl.mark_output(all_high, "o1");
    nl
}

/// The first frame (1-based, up to `bound`) in which output `k` can
/// take `value` from the all-zero state, by exhaustive state-space
/// exploration with [`Netlist::step`].
fn first_reaching_frame(nl: &Netlist, k: usize, value: bool, bound: usize) -> Option<usize> {
    let regs = nl.dffs().len();
    let inputs: Vec<Vec<bool>> = all_vectors(nl);
    let mut frontier: Vec<Vec<bool>> = vec![vec![false; regs]];
    for frame in 1..=bound {
        let mut next: Vec<Vec<bool>> = Vec::new();
        for state in &frontier {
            for x in &inputs {
                let (outs, succ) = nl.step(x, state).expect("step");
                if outs[k] == value {
                    return Some(frame);
                }
                if !next.contains(&succ) {
                    next.push(succ);
                }
            }
        }
        frontier = next;
    }
    None
}

#[test]
fn bmc_agrees_with_exhaustive_stepping() {
    let bound = 4;
    let mut reachable = 0usize;
    let mut deep = 0usize;
    let mut unreachable = 0usize;
    for seed in 0u64..24 {
        let nl = random_sequential(2, 3, 14, seed);
        for k in 0..nl.outputs().len() {
            for value in [false, true] {
                let expected = first_reaching_frame(&nl, k, value, bound);
                match bmc_reach(&nl, k, value, bound).expect("bmc") {
                    BmcResult::Reachable(witness) => {
                        assert_eq!(Some(witness.len()), expected, "seed {seed} out {k}={value}");
                        let mut state = vec![false; nl.dffs().len()];
                        let mut last = Vec::new();
                        for x in &witness {
                            let (outs, succ) = nl.step(x, &state).expect("step");
                            last = outs;
                            state = succ;
                        }
                        assert_eq!(last[k], value, "seed {seed}: witness does not replay");
                        reachable += 1;
                        deep += usize::from(witness.len() > 1);
                    }
                    BmcResult::UnreachableWithin(b) => {
                        assert_eq!(b, bound);
                        assert_eq!(expected, None, "seed {seed} out {k}={value}");
                        unreachable += 1;
                    }
                }
            }
        }
    }
    // every verdict kind must be exercised, including multi-cycle ones
    assert!(
        reachable > 0 && deep > 0 && unreachable > 0,
        "{reachable} ({deep} deep) / {unreachable}"
    );
}
