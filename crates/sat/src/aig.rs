//! Structurally-hashed AIG (and-inverter graph) intermediate form.
//!
//! Netlists lower into a node table of two-input ANDs and XORs with
//! complemented edges, built through a *structural hash*: every node
//! construction first canonicalizes its operands (constant folding,
//! absorption, operand ordering, complement normalization) and then
//! looks the shape up in a hash table, so structurally identical
//! subcircuits — whether inside one netlist copy or across many —
//! become one node. The hash is *two-level*: an AND of two complemented
//! ANDs whose children line up as `¬(p∧q) ∧ ¬(¬p∧¬q)` is recognized and
//! re-consed as the single node `XOR(p, q)`, so XOR structure built out
//! of raw ANDs and XOR structure lowered from explicit gates share.
//!
//! This is the workspace's only netlist→CNF path. Every SAT client
//! lowers through [`lower_netlist`] and builds its query edge in the
//! AIG: equivalence and the SAT attack compare two copies with
//! [`Aig::any_diff`] (copies over shared input nodes share every
//! subcircuit the difference does not depend on, and identical copies
//! fold to [`AigLit::FALSE`] with no solve at all); ATPG and the formal
//! detection proof re-lower one fault cone per query with
//! [`lower_fault_cone`]; bounded model checking chains time frames
//! through the state bindings. [`AigCnf`] keeps a persistent
//! node→literal map, so incremental callers (the DIP loop, the per-fault
//! loops) pay clauses only for nodes that are *new* since the last
//! query. Node clauses only define fresh variables, so they never need
//! to be retracted.

use crate::cnf::{CnfBuilder, Lit, Var};
use seceda_netlist::{CellKind, NetId, Netlist, NetlistError};
use std::collections::HashMap;

/// An edge into the AIG: a node index plus a complement bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false edge (the reserved node 0, uncomplemented).
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true edge (the reserved node 0, complemented).
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> Self {
        AigLit(node << 1 | complement as u32)
    }

    /// Index of the node this edge points at.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` if the edge is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The constant edge for `b`.
    pub fn constant(b: bool) -> Self {
        if b {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }

    /// The constant value of this edge, if it is one.
    pub fn as_const(self) -> Option<bool> {
        match self {
            AigLit::FALSE => Some(false),
            AigLit::TRUE => Some(true),
            _ => None,
        }
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;

    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

/// Node shapes. `Input` carries the external CNF literal the node
/// stands for; `And`/`Xor` hold canonically ordered operand edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Reserved node 0: constant false.
    Const,
    /// An externally supplied literal (primary input, key bit, state).
    Input(Lit),
    And(AigLit, AigLit),
    Xor(AigLit, AigLit),
}

/// Hash-table key discriminants (the node shape after canonicalization).
const KIND_INPUT: u8 = 1;
const KIND_AND: u8 = 2;
const KIND_XOR: u8 = 3;

/// The structurally-hashed AIG node table.
///
/// Append-only: node indices are stable, so [`AigCnf`] maps can be kept
/// across many lowering calls.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(u8, u32, u32), u32>,
    hash_hits: u64,
}

impl Aig {
    /// An empty AIG (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::new(),
            hash_hits: 0,
        }
    }

    /// Number of nodes in the table (including the constant node).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// How many node constructions were answered from the structural
    /// hash instead of allocating — the sharing the AIG discovered.
    pub fn hash_hits(&self) -> u64 {
        self.hash_hits
    }

    fn intern(&mut self, key: (u8, u32, u32), node: Node) -> u32 {
        if let Some(&n) = self.strash.get(&key) {
            self.hash_hits += 1;
            return n;
        }
        let n = u32::try_from(self.nodes.len()).expect("AIG node overflow");
        self.nodes.push(node);
        self.strash.insert(key, n);
        n
    }

    /// The input node carrying external literal `lit`. Complements
    /// normalize (`input(!l) == !input(l)`), so each variable gets one
    /// node.
    pub fn input(&mut self, lit: Lit) -> AigLit {
        let pos = lit.var().pos();
        let n = self.intern((KIND_INPUT, pos.code() as u32, 0), Node::Input(pos));
        AigLit::new(n, !lit.is_positive())
    }

    /// `n` input nodes over fresh variables of `sink`: the variables
    /// (to read models back) and their edges.
    pub fn fresh_inputs<B: CnfBuilder>(
        &mut self,
        n: usize,
        sink: &mut B,
    ) -> (Vec<Var>, Vec<AigLit>) {
        let vars: Vec<Var> = (0..n).map(|_| sink.new_var()).collect();
        let edges = vars.iter().map(|v| self.input(v.pos())).collect();
        (vars, edges)
    }

    /// The miter edge "some pair differs": an OR of XORs. Pairs that
    /// hash-cons to one node fold away, so a miter of structurally
    /// identical circuits is [`AigLit::FALSE`] before any solving.
    pub fn any_diff(&mut self, pairs: impl IntoIterator<Item = (AigLit, AigLit)>) -> AigLit {
        pairs.into_iter().fold(AigLit::FALSE, |acc, (a, b)| {
            let d = self.xor(a, b);
            self.or(acc, d)
        })
    }

    /// `a AND b`, canonicalized and hash-consed.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE || a == b {
            return b;
        }
        if b == AigLit::TRUE {
            return a;
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        // two-level hash: ¬(p∧q) ∧ ¬(r∧s) with {r,s} = {¬p,¬q} is XOR(p,q)
        if a.is_complement() && b.is_complement() {
            if let (Node::And(p, q), Node::And(r, s)) = (self.nodes[a.node()], self.nodes[b.node()])
            {
                if (r == !p && s == !q) || (r == !q && s == !p) {
                    return self.xor(p, q);
                }
            }
        }
        AigLit::new(self.intern((KIND_AND, a.0, b.0), Node::And(a, b)), false)
    }

    /// `a OR b` via De Morgan.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// `a XOR b`, complement-normalized (signs migrate to the output
    /// edge) and hash-consed.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        if a == b {
            return AigLit::FALSE;
        }
        if a == !b {
            return AigLit::TRUE;
        }
        if let Some(c) = a.as_const() {
            return if c { !b } else { b };
        }
        if let Some(c) = b.as_const() {
            return if c { !a } else { a };
        }
        let out_neg = a.is_complement() ^ b.is_complement();
        let (a, b) = (
            AigLit::new(a.node() as u32, false),
            AigLit::new(b.node() as u32, false),
        );
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let n = self.intern((KIND_XOR, a.0, b.0), Node::Xor(a, b));
        AigLit::new(n, out_neg)
    }

    /// `s ? b : a` (the [`CellKind::Mux`] convention: select high picks
    /// the *second* data input), composed from AND/OR so the components
    /// hash-cons.
    pub fn mux(&mut self, s: AigLit, a: AigLit, b: AigLit) -> AigLit {
        let lo = self.and(!s, a);
        let hi = self.and(s, b);
        self.or(lo, hi)
    }

    /// n-ary AND fold.
    fn and_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::TRUE, |acc, &l| self.and(acc, l))
    }

    /// n-ary OR fold.
    fn or_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::FALSE, |acc, &l| self.or(acc, l))
    }

    /// n-ary XOR fold.
    fn xor_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::FALSE, |acc, &l| self.xor(acc, l))
    }

    /// Lowers one gate function over already-lowered input edges.
    fn gate(&mut self, kind: CellKind, ins: &[AigLit]) -> AigLit {
        match kind {
            CellKind::Const0 => AigLit::FALSE,
            CellKind::Const1 => AigLit::TRUE,
            CellKind::Buf => ins[0],
            CellKind::Not => !ins[0],
            CellKind::And => self.and_n(ins),
            CellKind::Nand => !self.and_n(ins),
            CellKind::Or => self.or_n(ins),
            CellKind::Nor => !self.or_n(ins),
            CellKind::Xor => self.xor_n(ins),
            CellKind::Xnor => !self.xor_n(ins),
            CellKind::Mux => self.mux(ins[0], ins[1], ins[2]),
            CellKind::Dff => unreachable!("DFF outputs are pre-bound"),
        }
    }
}

/// Persistent node→literal map for lowering AIG edges to CNF.
///
/// Keep one alongside a long-lived [`Aig`] and a long-lived solver: each
/// [`AigCnf::lit_of`] call emits clauses only for nodes not yet lowered,
/// which is what makes repeated lowering through a shared AIG (the DIP
/// loop's observation copies) incremental.
#[derive(Debug, Clone)]
pub struct AigCnf {
    lits: Vec<Option<Lit>>,
    /// A literal false in every model, lowering the constant node.
    const_false: Lit,
}

impl AigCnf {
    /// A fresh map over `sink`, pinning one new variable false (one
    /// unit clause) to lower the constant node.
    pub fn new<B: CnfBuilder>(sink: &mut B) -> Self {
        let const_false = sink.new_var().pos();
        sink.add_clause([!const_false]);
        AigCnf {
            lits: Vec::new(),
            const_false,
        }
    }

    /// The literal pinned false in every model.
    pub fn const_false(&self) -> Lit {
        self.const_false
    }

    /// The CNF literal carrying edge `l`, emitting Tseitin clauses into
    /// `sink` for every not-yet-lowered node under it.
    pub fn lit_of<B: CnfBuilder>(&mut self, aig: &Aig, l: AigLit, sink: &mut B) -> Lit {
        if self.lits.len() < aig.nodes.len() {
            self.lits.resize(aig.nodes.len(), None);
        }
        let mut stack = vec![l.node()];
        while let Some(&n) = stack.last() {
            if self.lits[n].is_some() {
                stack.pop();
                continue;
            }
            match aig.nodes[n] {
                Node::Const => {
                    self.lits[n] = Some(self.const_false);
                    stack.pop();
                }
                Node::Input(lit) => {
                    self.lits[n] = Some(lit);
                    stack.pop();
                }
                Node::And(a, b) | Node::Xor(a, b) => {
                    let (la, lb) = (self.lits[a.node()], self.lits[b.node()]);
                    let (Some(la), Some(lb)) = (la, lb) else {
                        if la.is_none() {
                            stack.push(a.node());
                        }
                        if lb.is_none() {
                            stack.push(b.node());
                        }
                        continue;
                    };
                    let la = if a.is_complement() { !la } else { la };
                    let lb = if b.is_complement() { !lb } else { lb };
                    let y = sink.new_var().pos();
                    match aig.nodes[n] {
                        Node::And(..) => sink.gate_and(y, la, lb),
                        Node::Xor(..) => sink.gate_xor(y, la, lb),
                        _ => unreachable!(),
                    }
                    self.lits[n] = Some(y);
                    stack.pop();
                }
            }
        }
        let lit = self.lits[l.node()].expect("just lowered");
        if l.is_complement() {
            !lit
        } else {
            lit
        }
    }
}

/// Lowers the combinational logic of `nl` into `aig`. `inputs[k]` is the
/// edge driving primary input *k* and `state[j]` the edge driving the
/// output of the *j*-th DFF in [`Netlist::dffs`] order: a constant, an
/// [`Aig::input`] node, or any internal edge (a free state variable,
/// a reset value, or the previous time frame's next-state edge).
///
/// Returns the edge of every net, indexed by [`NetId::index`]; nets with
/// no driver read [`AigLit::FALSE`]. Lower the edges a query needs with
/// [`AigCnf::lit_of`] when (and only when) they are needed as literals.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics unless exactly one binding per primary input and per DFF is
/// given.
pub fn lower_netlist(
    nl: &Netlist,
    aig: &mut Aig,
    inputs: &[AigLit],
    state: &[AigLit],
) -> Result<Vec<AigLit>, NetlistError> {
    assert_eq!(
        inputs.len(),
        nl.inputs().len(),
        "one binding per primary input"
    );
    let order = nl.topo_order()?;
    let dffs = nl.dffs();
    assert_eq!(state.len(), dffs.len(), "one binding per DFF");
    let mut vals: Vec<Option<AigLit>> = vec![None; nl.num_nets()];
    for (&pi, &l) in nl.inputs().iter().zip(inputs) {
        vals[pi.index()] = Some(l);
    }
    for (&d, &l) in dffs.iter().zip(state) {
        vals[nl.gate(d).output.index()] = Some(l);
    }
    let mut ins: Vec<AigLit> = Vec::new();
    for gid in order {
        let g = nl.gate(gid);
        ins.clear();
        ins.extend(
            g.inputs
                .iter()
                .map(|&i| vals[i.index()].expect("topological order")),
        );
        vals[g.output.index()] = Some(aig.gate(g.kind, &ins));
    }
    Ok(vals
        .into_iter()
        .map(|v| v.unwrap_or(AigLit::FALSE))
        .collect())
}

/// The edges of `nl`'s primary outputs, in port order, from a per-net
/// lowering ([`lower_netlist`]).
pub fn output_edges(nl: &Netlist, nets: &[AigLit]) -> Vec<AigLit> {
    nl.outputs().iter().map(|&(n, _)| nets[n.index()]).collect()
}

/// Re-lowers the fan-out cone of a fault on `site` against the good
/// lowering `good` ([`lower_netlist`] of `nl`), with the site re-bound
/// to `faulty`: [`AigLit::FALSE`] or [`AigLit::TRUE`] for a stuck-at
/// fault, `!good[site]` for a bit flip.
///
/// Returns the faulty edge of every primary output, in port order. A net
/// whose re-lowered edge hash-conses back to its good edge leaves the
/// cone, so an output the fault cannot influence keeps its good edge and
/// drops out of any [`Aig::any_diff`] miter. Cones stop at DFFs: both
/// copies read the same state edges, so a fault cannot fake a difference
/// through a next-state value.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
pub fn lower_fault_cone(
    nl: &Netlist,
    aig: &mut Aig,
    good: &[AigLit],
    site: NetId,
    faulty: AigLit,
) -> Result<Vec<AigLit>, NetlistError> {
    let mut cone: Vec<Option<AigLit>> = vec![None; nl.num_nets()];
    if faulty != good[site.index()] {
        cone[site.index()] = Some(faulty);
    }
    let mut ins: Vec<AigLit> = Vec::new();
    for gid in nl.topo_order()? {
        let g = nl.gate(gid);
        if g.output == site || g.inputs.iter().all(|&i| cone[i.index()].is_none()) {
            continue; // the site's driver is bypassed; the rest is shared
        }
        ins.clear();
        ins.extend(
            g.inputs
                .iter()
                .map(|&i| cone[i.index()].unwrap_or(good[i.index()])),
        );
        let y = aig.gate(g.kind, &ins);
        if y != good[g.output.index()] {
            cone[g.output.index()] = Some(y);
        }
    }
    Ok(nl
        .outputs()
        .iter()
        .map(|&(n, _)| cone[n.index()].unwrap_or(good[n.index()]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use crate::solver::{SatResult, Solver};
    use seceda_netlist::{c17, majority, random_circuit, RandomCircuitConfig};

    #[test]
    fn constant_folding_and_absorption() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        assert_eq!(aig.and(AigLit::FALSE, a), AigLit::FALSE);
        assert_eq!(aig.and(AigLit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), AigLit::FALSE);
        assert_eq!(aig.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(aig.xor(a, a), AigLit::FALSE);
        assert_eq!(aig.xor(a, !a), AigLit::TRUE);
        assert_eq!(aig.xor(a, AigLit::FALSE), a);
        assert_eq!(aig.xor(a, AigLit::TRUE), !a);
    }

    #[test]
    fn structural_hash_shares_nodes() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let n1 = aig.and(a, b);
        let n2 = aig.and(b, a); // operand order canonicalizes
        assert_eq!(n1, n2);
        assert_eq!(aig.hash_hits(), 1);
        let x1 = aig.xor(a, !b);
        let x2 = aig.xor(!a, b); // complements migrate to the edge
        assert_eq!(x1, x2);
    }

    #[test]
    fn two_level_hash_recognizes_xor_from_ands() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let explicit = aig.xor(a, b);
        // (a OR b) AND NOT(a AND b) == ¬(¬a∧¬b) ∧ ¬(a∧b)
        let n_or = aig.or(a, b);
        let n_and = aig.and(a, b);
        let built = aig.and(n_or, !n_and);
        assert_eq!(built, explicit, "AND-built XOR must cons to the XOR node");
    }

    #[test]
    fn input_complement_normalizes() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        assert_eq!(aig.input(v.neg()), !aig.input(v.pos()));
        assert_eq!(aig.num_nodes(), 2); // const + one input node
    }

    /// Every model of `nl` lowered under `bindings` (each primary input
    /// a constant or a fresh symbolic input) matches simulation on every
    /// assignment of the symbolic inputs.
    fn check_lowering(nl: &Netlist, bindings: &[Option<bool>]) {
        let mut cnf = Cnf::new();
        let mut map = AigCnf::new(&mut cnf);
        let mut aig = Aig::new();
        let free = bindings.iter().filter(|b| b.is_none()).count();
        let (vars, edges) = aig.fresh_inputs(free, &mut cnf);
        let mut symbolic = edges.into_iter();
        let inputs: Vec<AigLit> = bindings
            .iter()
            .map(|b| b.map_or_else(|| symbolic.next().expect("free input"), AigLit::constant))
            .collect();
        let nets = lower_netlist(nl, &mut aig, &inputs, &[]).expect("lower");
        let outs: Vec<Lit> = output_edges(nl, &nets)
            .into_iter()
            .map(|o| map.lit_of(&aig, o, &mut cnf))
            .collect();
        for pattern in 0..(1u32 << free) {
            let tail: Vec<bool> = (0..free).map(|b| (pattern >> b) & 1 == 1).collect();
            let mut tail_bits = tail.iter();
            let full: Vec<bool> = bindings
                .iter()
                .map(|b| b.unwrap_or_else(|| *tail_bits.next().expect("free bit")))
                .collect();
            let assumptions: Vec<Lit> = vars.iter().zip(&tail).map(|(v, &b)| v.lit(b)).collect();
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve_with_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    let expected = nl.evaluate(&full);
                    for (k, &ol) in outs.iter().enumerate() {
                        assert_eq!(
                            ol.eval(model[ol.var().index()]),
                            expected[k],
                            "inputs {full:?} output {k}"
                        );
                    }
                }
                SatResult::Unsat => panic!("AIG encoding unsat under concrete inputs"),
            }
        }
    }

    fn all_symbolic(nl: &Netlist) -> Vec<Option<bool>> {
        vec![None; nl.inputs().len()]
    }

    #[test]
    fn aig_encoding_matches_simulation_on_c17_and_majority() {
        for nl in [c17(), majority()] {
            check_lowering(&nl, &all_symbolic(&nl));
        }
    }

    #[test]
    fn aig_encoding_matches_simulation_on_random_circuits() {
        for seed in [2u64, 3, 7, 8, 19, 23] {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 5,
                num_gates: 40,
                num_outputs: 3,
                with_xor: true,
                seed,
            });
            check_lowering(&nl, &all_symbolic(&nl));
        }
    }

    #[test]
    fn wide_gates_match_simulation() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<_> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (k, kind) in [
            CellKind::And,
            CellKind::Or,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Nand,
            CellKind::Nor,
        ]
        .into_iter()
        .enumerate()
        {
            let y = nl.add_gate(kind, &ins);
            nl.mark_output(y, format!("o{k}"));
        }
        check_lowering(&nl, &all_symbolic(&nl));
    }

    #[test]
    fn partially_bound_lowering_matches_cofactor() {
        // half constants, half symbolic: the folded cone must equal the
        // cofactor of the circuit under the fixed bits
        check_lowering(&c17(), &[Some(true), Some(false), Some(true), None, None]);
        check_lowering(&majority(), &[None, Some(true), None]);
    }

    #[test]
    fn any_diff_folds_identical_copies_and_keeps_real_differences() {
        let nl = c17();
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let (_, ins) = aig.fresh_inputs(5, &mut cnf);
        let a = output_edges(
            &nl,
            &lower_netlist(&nl, &mut aig, &ins, &[]).expect("lower"),
        );
        let b = output_edges(
            &nl,
            &lower_netlist(&nl, &mut aig, &ins, &[]).expect("lower"),
        );
        assert_eq!(aig.any_diff(a.iter().copied().zip(b)), AigLit::FALSE);
        // a single inverted output is a difference on every input
        let c: Vec<AigLit> = vec![a[0], !a[1]];
        let diff = aig.any_diff(a.iter().copied().zip(c));
        let mut map = AigCnf::new(&mut cnf);
        let d = map.lit_of(&aig, diff, &mut cnf);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve_with_assumptions(&[!d]), SatResult::Unsat);
        assert!(matches!(
            solver.solve_with_assumptions(&[d]),
            SatResult::Sat(_)
        ));
    }

    #[test]
    fn fault_cones_match_fault_free_relowering() {
        // re-lowering a cone with the site bound to its own good edge
        // changes nothing; a stuck-at on a primary output changes only
        // that output
        let nl = c17();
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let (_, ins) = aig.fresh_inputs(5, &mut cnf);
        let good = lower_netlist(&nl, &mut aig, &ins, &[]).expect("lower");
        let outs = output_edges(&nl, &good);
        for n in 0..nl.num_nets() {
            let site = NetId::from_index(n);
            let same = lower_fault_cone(&nl, &mut aig, &good, site, good[n]).expect("cone");
            assert_eq!(same, outs);
        }
        let (o0, _) = nl.outputs()[0];
        let faulty = lower_fault_cone(&nl, &mut aig, &good, o0, AigLit::TRUE).expect("cone");
        assert_eq!(faulty, vec![AigLit::TRUE, outs[1]]);
    }

    #[test]
    fn two_copies_share_every_non_key_node() {
        // lowering the same netlist twice over the same input nodes
        // must not allocate a single new node the second time
        let nl = c17();
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let (_, ins) = aig.fresh_inputs(5, &mut cnf);
        let o1 = lower_netlist(&nl, &mut aig, &ins, &[]).expect("lower");
        let nodes_after_first = aig.num_nodes();
        let o2 = lower_netlist(&nl, &mut aig, &ins, &[]).expect("lower");
        assert_eq!(aig.num_nodes(), nodes_after_first, "second copy is free");
        assert_eq!(o1, o2);
    }

    #[test]
    fn incremental_lowering_emits_each_node_once() {
        let mut cnf = Cnf::new();
        let mut map = AigCnf::new(&mut cnf);
        let mut aig = Aig::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let ab = aig.and(a, b);
        map.lit_of(&aig, ab, &mut cnf);
        let clauses_after = cnf.clauses().len();
        // same node again: no new clauses, same literal
        let l1 = map.lit_of(&aig, ab, &mut cnf);
        let l2 = map.lit_of(&aig, !ab, &mut cnf);
        assert_eq!(cnf.clauses().len(), clauses_after);
        assert_eq!(l1, !l2);
        // a superstructure pays only for the new node
        let c = aig.input(cnf.new_var().pos());
        let abc = aig.and(ab, c);
        map.lit_of(&aig, abc, &mut cnf);
        assert_eq!(
            cnf.clauses().len(),
            clauses_after + 3,
            "one AND = 3 clauses"
        );
    }

    #[test]
    fn folded_constants_cost_nothing() {
        // all-constant bindings collapse to constant edges: no nodes
        // beyond inputs, no clauses
        for nl in [c17(), majority()] {
            let mut aig = Aig::new();
            let n = nl.inputs().len();
            for pattern in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
                let bindings: Vec<AigLit> = inputs.iter().map(|&b| AigLit::constant(b)).collect();
                let before = aig.num_nodes();
                let nets = lower_netlist(&nl, &mut aig, &bindings, &[]).expect("lower");
                assert_eq!(
                    aig.num_nodes(),
                    before,
                    "constant lowering allocates nothing"
                );
                let expected = nl.evaluate(&inputs);
                for (k, o) in output_edges(&nl, &nets).iter().enumerate() {
                    assert_eq!(o.as_const(), Some(expected[k]), "pattern {pattern} out {k}");
                }
            }
        }
    }
}
