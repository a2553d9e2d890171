//! Formal validation of error-detection properties \[32\].
//!
//! For a protected design with an alarm output, prove by SAT — for every
//! single fault in the universe — that no input can make the functional
//! outputs differ while the alarm stays low. This is the "demonstrate
//! the absence of vulnerabilities" mode the paper's red-team/blue-team
//! discussion contrasts with mere simulation.
//!
//! The proof loop shares ONE good-circuit AIG and one persistent solver
//! across the whole fault universe: each fault re-lowers only its
//! fan-out cone ([`lower_fault_cone`]) and asks one query under two
//! assumptions: "some functional output differs" and "the faulty alarm
//! stays low". Node clauses only define fresh variables, so nothing is
//! retired between faults. Faults whose functional difference folds to
//! constant false are proven detected-or-masked without any solver
//! call at all.

use seceda_fia::codes::ProtectedNetlist;
use seceda_netlist::NetlistError;
use seceda_sat::{
    lower_fault_cone, lower_netlist, output_edges, Aig, AigCnf, AigLit, Budget, SolveOutcome,
    Solver,
};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind};

/// Result of the formal detection proof.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionProof {
    /// Faults proven always-detected-or-masked.
    pub proven: usize,
    /// Faults with a silent-corruption witness: `(fault, inputs)`.
    pub violations: Vec<(Fault, Vec<bool>)>,
    /// Faults whose proof query exhausted its budget before deciding
    /// (always empty for [`prove_detection`]). An undecided fault is a
    /// hole in the proof, so [`DetectionProof::holds`] is `false` while
    /// any remain.
    pub undecided: Vec<Fault>,
    /// Faults analyzed in total.
    pub total: usize,
}

impl DetectionProof {
    /// `true` when the detection property is *proven* for every fault —
    /// no violation witnesses and no budget-starved undecided queries.
    pub fn holds(&self) -> bool {
        self.violations.is_empty() && self.undecided.is_empty()
    }
}

/// Proves (or refutes) single-fault detection for a protected netlist:
/// for each fault over gate-output nets, search for an input where the
/// functional outputs differ but the alarm stays low.
///
/// Only gate-output faults are considered; faults on shared primary
/// inputs are common-mode and outside any detection scheme's contract.
///
/// # Errors
///
/// Propagates encoding errors.
///
/// # Panics
///
/// Panics if the design has no alarm output.
pub fn prove_detection(protected: &ProtectedNetlist) -> Result<DetectionProof, NetlistError> {
    prove_detection_budgeted(protected, &Budget::unlimited())
}

/// Budgeted [`prove_detection`]: the conflict cap meters the whole proof
/// loop (each per-fault query gets whatever the previous queries left),
/// the deadline bounds its wall clock. A query whose budget runs out
/// degrades *that fault* to [`DetectionProof::undecided`] — the loop
/// keeps going, so one pathological fault cannot wedge the whole proof,
/// but the final proof honestly reports its holes via
/// [`DetectionProof::holds`].
///
/// # Errors
///
/// Propagates encoding errors.
///
/// # Panics
///
/// Panics if the design has no alarm output.
pub fn prove_detection_budgeted(
    protected: &ProtectedNetlist,
    budget: &Budget,
) -> Result<DetectionProof, NetlistError> {
    let alarm_index = protected
        .alarm_index
        .expect("detection proof needs an alarm output");
    let nl = &protected.netlist;
    let faults: Vec<Fault> = stuck_at_universe(nl)
        .into_iter()
        .filter(|f| nl.net(f.net).driver.is_some())
        .collect();
    let mut solver = Solver::new(0);
    let mut aig = Aig::new();
    let mut map = AigCnf::new(&mut solver);
    let (input_vars, inputs) = aig.fresh_inputs(nl.inputs().len(), &mut solver);
    let (_, state) = aig.fresh_inputs(nl.dffs().len(), &mut solver);
    let good = lower_netlist(nl, &mut aig, &inputs, &state)?;
    let good_outs = output_edges(nl, &good);
    let mut proven = 0usize;
    let mut violations = Vec::new();
    let mut undecided = Vec::new();
    for &fault in &faults {
        let faulty = match fault.kind {
            FaultKind::StuckAt0 => AigLit::FALSE,
            FaultKind::StuckAt1 => AigLit::TRUE,
            FaultKind::BitFlip => !good[fault.net.index()],
        };
        let outs = lower_fault_cone(nl, &mut aig, &good, fault.net, faulty)?;
        // some functional output differs ...
        let corrupt = aig.any_diff(
            good_outs
                .iter()
                .zip(&outs)
                .enumerate()
                .filter(|&(k, _)| k != alarm_index)
                .map(|(_, (&g, &f))| (g, f)),
        );
        if corrupt == AigLit::FALSE {
            // the fault cannot reach any functional output, so silent
            // corruption is structurally impossible
            proven += 1;
            continue;
        }
        let corrupt = map.lit_of(&aig, corrupt, &mut solver);
        let alarm = map.lit_of(&aig, outs[alarm_index], &mut solver);
        // ... while the faulty alarm stays low; the remaining budget is
        // whatever earlier queries did not spend
        let sub = budget.minus(solver.num_conflicts, solver.num_propagations);
        match solver.solve_budgeted(&[corrupt, !alarm], &sub) {
            SolveOutcome::Unsat => proven += 1,
            SolveOutcome::Sat(model) => {
                let witness = input_vars.iter().map(|v| model[v.index()]).collect();
                violations.push((fault, witness));
            }
            SolveOutcome::Indeterminate(_) => undecided.push(fault),
        }
    }
    if !undecided.is_empty() {
        seceda_trace::counter("verif.undecided_faults", undecided.len() as u64);
    }
    Ok(DetectionProof {
        proven,
        violations,
        undecided,
        total: faults.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_fia::codes::duplicate_with_compare;
    use seceda_netlist::majority;
    use seceda_sim::FaultSim;

    #[test]
    fn dwc_detection_is_provable() {
        let p = duplicate_with_compare(&majority());
        let proof = prove_detection(&p).expect("prove");
        assert!(
            proof.holds(),
            "duplication-with-compare must be provably single-fault secure: {:?}",
            proof.violations
        );
        assert_eq!(proof.proven, proof.total);
    }

    #[test]
    fn starved_proof_reports_undecided_holes_instead_of_wedging() {
        let p = duplicate_with_compare(&majority());
        let starved = Budget::unlimited().with_max_propagations(0);
        let proof = prove_detection_budgeted(&p, &starved).expect("prove");
        assert!(
            !proof.undecided.is_empty(),
            "a zero-propagation budget must leave queries undecided"
        );
        assert!(!proof.holds(), "undecided faults are holes in the proof");
        assert!(proof.violations.is_empty(), "no false violations");
        // structurally-proven faults need no solver call and still count
        assert_eq!(
            proof.proven + proof.undecided.len(),
            proof.total,
            "every fault is either proven structurally or undecided"
        );
        // the same proof with an unlimited budget has no holes
        let full = prove_detection_budgeted(&p, &Budget::unlimited()).expect("prove");
        assert!(full.holds());
        assert!(full.undecided.is_empty());
    }

    #[test]
    fn unprotected_design_with_fake_alarm_fails_with_witness() {
        // alarm output is a constant 0 — every corrupting fault violates
        let mut nl = majority();
        let zero = nl.add_gate(seceda_netlist::CellKind::Const0, &[]);
        nl.mark_output(zero, "alarm");
        let fake = ProtectedNetlist {
            netlist: nl.clone(),
            alarm_index: Some(1),
        };
        let proof = prove_detection(&fake).expect("prove");
        assert!(!proof.holds());
        // each witness must actually demonstrate silent corruption
        let sim = FaultSim::new(&nl).expect("sim");
        for (fault, inputs) in &proof.violations {
            let good = sim.outputs(&sim.eval_with_faults(inputs, &[]));
            let bad = sim.outputs(&sim.eval_with_faults(inputs, &[*fault]));
            assert_ne!(good[0], bad[0], "functional output must differ");
            assert!(!bad[1], "alarm must stay low");
        }
    }
}
