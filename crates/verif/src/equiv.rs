//! SAT-based combinational equivalence checking.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{lower_netlist, output_edges, Aig, AigCnf, AigLit, SatResult, Solver};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input.
    Equivalent,
    /// A distinguishing input assignment (in port order of circuit `a`).
    Counterexample(Vec<bool>),
}

impl EquivResult {
    /// `true` when equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Checks combinational equivalence of two netlists with matching
/// interfaces.
///
/// Both circuits lower into one structurally-hashed AIG over shared
/// input nodes, so every subcircuit they have in common becomes one
/// node. When the miter ("some output differs") folds to constant
/// false, the proof is complete without a solver call; otherwise the
/// solver decides the remaining miter. DFF outputs are free variables,
/// independent per circuit.
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
///
/// # Panics
///
/// Panics if the interfaces (input/output counts) do not match.
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<EquivResult, NetlistError> {
    assert_eq!(
        a.inputs().len(),
        b.inputs().len(),
        "equivalence needs matching input counts"
    );
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "equivalence needs matching output counts"
    );
    let mut solver = Solver::new(0);
    let mut aig = Aig::new();
    let (input_vars, inputs) = aig.fresh_inputs(a.inputs().len(), &mut solver);
    let mut lower = |nl: &Netlist| {
        let (_, state) = aig.fresh_inputs(nl.dffs().len(), &mut solver);
        lower_netlist(nl, &mut aig, &inputs, &state).map(|nets| output_edges(nl, &nets))
    };
    let (outs_a, outs_b) = (lower(a)?, lower(b)?);
    let diff = aig.any_diff(outs_a.into_iter().zip(outs_b));
    if diff == AigLit::FALSE {
        return Ok(EquivResult::Equivalent);
    }
    let diff = AigCnf::new(&mut solver).lit_of(&aig, diff, &mut solver);
    Ok(match solver.solve_with_assumptions(&[diff]) {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Sat(model) => {
            EquivResult::Counterexample(input_vars.iter().map(|v| model[v.index()]).collect())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, parse_netlist, CellKind};

    #[test]
    fn identical_circuits_are_equivalent() {
        let nl = c17();
        assert!(check_equivalence(&nl, &nl.clone())
            .expect("check")
            .is_equivalent());
    }

    #[test]
    fn roundtripped_circuit_stays_equivalent() {
        let nl = c17();
        let back = parse_netlist(&seceda_netlist::format_netlist(&nl)).expect("parse");
        assert!(check_equivalence(&nl, &back)
            .expect("check")
            .is_equivalent());
    }

    #[test]
    fn differently_built_xors_are_equivalent() {
        let mut a = Netlist::new("xor1");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let out = a.add_gate(CellKind::Xor, &[x, y]);
        a.mark_output(out, "o");

        let mut b = Netlist::new("xor2");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let nx = b.add_gate(CellKind::Not, &[x2]);
        let ny = b.add_gate(CellKind::Not, &[y2]);
        let t1 = b.add_gate(CellKind::And, &[x2, ny]);
        let t2 = b.add_gate(CellKind::And, &[nx, y2]);
        let out2 = b.add_gate(CellKind::Or, &[t1, t2]);
        b.mark_output(out2, "o");

        assert!(check_equivalence(&a, &b).expect("check").is_equivalent());
    }

    #[test]
    fn counterexample_is_a_real_witness() {
        let mut a = Netlist::new("and");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let o = a.add_gate(CellKind::And, &[x, y]);
        a.mark_output(o, "o");

        let mut b = Netlist::new("nand");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let o2 = b.add_gate(CellKind::Nand, &[x2, y2]);
        b.mark_output(o2, "o");

        match check_equivalence(&a, &b).expect("check") {
            EquivResult::Counterexample(inputs) => {
                assert_ne!(a.evaluate(&inputs), b.evaluate(&inputs));
            }
            EquivResult::Equivalent => panic!("AND != NAND"),
        }
    }
}
