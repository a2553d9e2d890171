//! End-to-end checks of the netlist → CNF path every SAT client takes:
//! [`lower_netlist`](crate::aig::lower_netlist) into an
//! [`Aig`](crate::aig::Aig), then [`AigCnf`](crate::aig::AigCnf) into a
//! clause sink. The node-level properties of the AIG are tested in
//! `aig`; these tests look only at the emitted formula, encoded into a
//! live incremental [`Solver`](crate::Solver) the way the clients use it.

#[cfg(test)]
mod tests {
    use crate::aig::{lower_netlist, output_edges, Aig, AigCnf, AigLit};
    use crate::cnf::{Cnf, Lit};
    use crate::solver::{SatResult, Solver};
    use seceda_netlist::{c17, majority, random_circuit, Netlist, RandomCircuitConfig};

    /// Encodes `nl` into one solver and checks its model on every input
    /// pattern against simulation, re-solving the same solver each time.
    fn check_encoding_consistency(nl: &Netlist) {
        let mut solver = Solver::new(0);
        let mut map = AigCnf::new(&mut solver);
        let mut aig = Aig::new();
        let n_inputs = nl.inputs().len();
        let (input_vars, ins) = aig.fresh_inputs(n_inputs, &mut solver);
        let nets = lower_netlist(nl, &mut aig, &ins, &[]).expect("lower");
        let outs: Vec<Lit> = output_edges(nl, &nets)
            .into_iter()
            .map(|o| map.lit_of(&aig, o, &mut solver))
            .collect();
        for pattern in 0..(1u32 << n_inputs) {
            let inputs: Vec<bool> = (0..n_inputs).map(|b| (pattern >> b) & 1 == 1).collect();
            let expected = nl.evaluate(&inputs);
            let assumptions: Vec<Lit> = input_vars
                .iter()
                .zip(&inputs)
                .map(|(&v, &b)| v.lit(b))
                .collect();
            match solver.solve_with_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    for (k, &ol) in outs.iter().enumerate() {
                        assert_eq!(
                            ol.eval(model[ol.var().index()]),
                            expected[k],
                            "pattern {pattern} output {k}"
                        );
                    }
                }
                SatResult::Unsat => panic!("encoding unsat under concrete inputs"),
            }
        }
    }

    #[test]
    fn c17_encoding_matches_simulation() {
        check_encoding_consistency(&c17());
    }

    #[test]
    fn majority_encoding_matches_simulation() {
        check_encoding_consistency(&majority());
    }

    #[test]
    fn fully_bound_encoding_folds_to_evaluation() {
        // with every input constant, the encoding must collapse to plain
        // evaluation without emitting a variable or clause beyond the
        // map's pinned false literal
        for nl in [c17(), majority()] {
            let n = nl.inputs().len();
            for pattern in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
                let mut cnf = Cnf::new();
                let mut map = AigCnf::new(&mut cnf);
                let vars_before = cnf.num_vars();
                let clauses_before = cnf.clauses().len();
                let mut aig = Aig::new();
                let bindings: Vec<AigLit> = inputs.iter().map(|&b| AigLit::constant(b)).collect();
                let nets = lower_netlist(&nl, &mut aig, &bindings, &[]).expect("lower");
                let outs: Vec<Lit> = output_edges(&nl, &nets)
                    .into_iter()
                    .map(|o| map.lit_of(&aig, o, &mut cnf))
                    .collect();
                assert_eq!(
                    cnf.num_vars(),
                    vars_before,
                    "no variables for constant logic"
                );
                assert_eq!(cnf.clauses().len(), clauses_before, "no clauses either");
                let expected = nl.evaluate(&inputs);
                let f = map.const_false();
                for (k, &out) in outs.iter().enumerate() {
                    let want = if expected[k] { !f } else { f };
                    assert_eq!(out, want, "pattern {pattern} output {k}");
                }
            }
        }
    }

    #[test]
    fn bound_encoding_matches_full_encoding_on_symbolic_inputs() {
        // inputs bound to literals the caller allocated (some of them
        // complemented): the literal of every net, not just the outputs,
        // must follow simulation on every input pattern
        for seed in [3u64, 8, 19] {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 5,
                num_gates: 40,
                num_outputs: 3,
                with_xor: true,
                seed,
            });
            let mut solver = Solver::new(0);
            let mut map = AigCnf::new(&mut solver);
            let mut aig = Aig::new();
            let in_lits: Vec<Lit> = (0..5)
                .map(|k| {
                    let v = solver.new_var();
                    v.lit(k % 2 == 0)
                })
                .collect();
            let bindings: Vec<AigLit> = in_lits.iter().map(|&l| aig.input(l)).collect();
            let nets = lower_netlist(&nl, &mut aig, &bindings, &[]).expect("lower");
            let net_lits: Vec<Lit> = nets
                .iter()
                .map(|&e| map.lit_of(&aig, e, &mut solver))
                .collect();
            for pattern in 0..(1u32 << 5) {
                let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
                let assumptions: Vec<Lit> = in_lits
                    .iter()
                    .zip(&inputs)
                    .map(|(&l, &b)| if b { l } else { !l })
                    .collect();
                match solver.solve_with_assumptions(&assumptions) {
                    SatResult::Sat(model) => {
                        let expected = nl.eval_nets(&inputs, &[]).expect("eval");
                        for (n, &l) in net_lits.iter().enumerate() {
                            assert_eq!(
                                l.eval(model[l.var().index()]),
                                expected[n],
                                "seed {seed} pattern {pattern} net {n}"
                            );
                        }
                    }
                    SatResult::Unsat => panic!("bound encoding unsat under concrete inputs"),
                }
            }
        }
    }
}
