//! Bit-parallel simulation: 64 input patterns per pass.
//!
//! Each net carries a `u64` whose bit *k* is the net's value under pattern
//! *k*. This is the standard trick that makes statistical analyses (signal
//! probabilities, MERO N-detect test generation, fault grading) tractable.

use crate::fault::{Fault, FaultKind};
use crate::simword::SimWord;
use seceda_netlist::{CellKind, Gate, GateId, Netlist, NetlistError};

/// Evaluates one combinational gate on packed words of any lane width:
/// bit *k* of the result is the gate's output under lane *k*.
///
/// # Panics
///
/// Debug-panics on sequential gates; callers iterate combinational
/// topological orders only.
pub(crate) fn eval_gate_w<W: SimWord>(g: &Gate, values: &[W]) -> W {
    match g.kind {
        CellKind::Const0 => W::ZERO,
        CellKind::Const1 => W::ONES,
        CellKind::Buf => values[g.inputs[0].index()],
        CellKind::Not => !values[g.inputs[0].index()],
        CellKind::And => g
            .inputs
            .iter()
            .fold(W::ONES, |acc, &i| acc & values[i.index()]),
        CellKind::Nand => !g
            .inputs
            .iter()
            .fold(W::ONES, |acc, &i| acc & values[i.index()]),
        CellKind::Or => g
            .inputs
            .iter()
            .fold(W::ZERO, |acc, &i| acc | values[i.index()]),
        CellKind::Nor => !g
            .inputs
            .iter()
            .fold(W::ZERO, |acc, &i| acc | values[i.index()]),
        CellKind::Xor => g
            .inputs
            .iter()
            .fold(W::ZERO, |acc, &i| acc ^ values[i.index()]),
        CellKind::Xnor => !g
            .inputs
            .iter()
            .fold(W::ZERO, |acc, &i| acc ^ values[i.index()]),
        CellKind::Mux => {
            let s = values[g.inputs[0].index()];
            let a = values[g.inputs[1].index()];
            let b = values[g.inputs[2].index()];
            W::mux(s, a, b)
        }
        CellKind::Dff => {
            debug_assert!(false, "eval_gate called on a sequential gate");
            W::ZERO
        }
    }
}

/// Evaluates one combinational gate on 64-lane packed words.
pub(crate) fn eval_gate(g: &Gate, values: &[u64]) -> u64 {
    eval_gate_w::<u64>(g, values)
}

/// The forcing of one net in a forced-evaluation pass: in the lanes of
/// `sa0` the net reads 0, in those of `sa1` it reads 1, in those of
/// `flip` it reads the inverse of its computed value. The three masks
/// are disjoint.
#[derive(Debug, Clone, Copy)]
struct Forcing<W> {
    net: u32,
    sa0: W,
    sa1: W,
    flip: W,
}

impl<W: SimWord> Forcing<W> {
    fn apply(&self, computed: W) -> W {
        ((computed ^ self.flip) & !self.sa0) | self.sa1
    }
}

/// Folds `(fault, lane mask)` sites into one [`Forcing`] per net,
/// sorted by net. Sites on the same net are taken in listing order and
/// a later site takes over the lanes of an earlier one, so a net listed
/// twice is forced once with the last kind (a flip listed twice flips
/// once).
fn forcings<W: SimWord>(sites: &[(Fault, W)]) -> Vec<Forcing<W>> {
    let mut by_net: Vec<usize> = (0..sites.len()).collect();
    // stable: equal nets keep their listing order
    by_net.sort_by_key(|&i| sites[i].0.net.index());
    let mut out: Vec<Forcing<W>> = Vec::with_capacity(sites.len());
    for i in by_net {
        let (fault, mask) = sites[i];
        let net = fault.net.index() as u32;
        if out.last().is_none_or(|f| f.net != net) {
            out.push(Forcing {
                net,
                sa0: W::ZERO,
                sa1: W::ZERO,
                flip: W::ZERO,
            });
        }
        let f = out.last_mut().expect("pushed above");
        f.sa0 = f.sa0 & !mask;
        f.sa1 = f.sa1 & !mask;
        f.flip = f.flip & !mask;
        match fault.kind {
            FaultKind::StuckAt0 => f.sa0 = f.sa0 | mask,
            FaultKind::StuckAt1 => f.sa1 = f.sa1 | mask,
            FaultKind::BitFlip => f.flip = f.flip | mask,
        }
    }
    out
}

/// Packs scalar pattern bits into input words of any lane width:
/// `patterns[p][k]` is the value of input *k* under pattern *p* (at most
/// `W::BITS` patterns).
///
/// # Panics
///
/// Panics if more than `W::BITS` patterns are supplied.
pub(crate) fn pack_patterns_w<W: SimWord>(patterns: &[Vec<bool>], num_inputs: usize) -> Vec<W> {
    assert!(
        patterns.len() <= W::BITS,
        "at most {} patterns per packed word",
        W::BITS
    );
    let mut words = vec![W::ZERO; num_inputs];
    for (p, pat) in patterns.iter().enumerate() {
        assert_eq!(pat.len(), num_inputs, "pattern width mismatch");
        let (lane, bit) = (p / 64, p % 64);
        for (k, &b) in pat.iter().enumerate() {
            if b {
                let w = words[k];
                words[k] = w.with_lane(lane, w.lane(lane) | (1u64 << bit));
            }
        }
    }
    words
}

/// Bit-parallel combinational simulator.
///
/// # Example
///
/// ```
/// use seceda_netlist::{Netlist, CellKind};
/// use seceda_sim::PackedSim;
///
/// let mut nl = Netlist::new("xor");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate(CellKind::Xor, &[a, b]);
/// nl.mark_output(y, "y");
/// let sim = PackedSim::new(&nl)?;
/// // pattern 0: a=0,b=0; pattern 1: a=1,b=0; pattern 2: a=0,b=1; pattern 3: a=1,b=1
/// let nets = sim.eval(&[0b1010, 0b1100]);
/// assert_eq!(sim.outputs(&nets)[0] & 0b1111, 0b0110);
/// # Ok::<(), seceda_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedSim<'a> {
    nl: &'a Netlist,
    order: Vec<GateId>,
}

impl<'a> PackedSim<'a> {
    /// Builds a packed simulator.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let order = nl.topo_order()?;
        Ok(PackedSim { nl, order })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// The combinational topological order this simulator evaluates in.
    pub(crate) fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Evaluates 64 patterns at once.
    ///
    /// `inputs[k]` is the packed word of primary input *k* (bit *p* =
    /// value of that input under pattern *p*). DFF outputs are treated as
    /// constant-zero pseudo-inputs; use [`PackedSim::eval_with_state`] to
    /// drive them.
    ///
    /// Returns a packed word per net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the number of primary inputs.
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        self.eval_with_state(inputs, &vec![0u64; self.nl.dffs().len()])
    }

    /// Evaluates 64 patterns with explicit packed DFF state.
    ///
    /// # Panics
    ///
    /// Panics on input/state width mismatch.
    pub fn eval_with_state(&self, inputs: &[u64], state: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.nl.inputs().len(), "input width mismatch");
        let dffs = self.nl.dffs();
        assert_eq!(state.len(), dffs.len(), "state width mismatch");
        let mut values = vec![0u64; self.nl.num_nets()];
        for (k, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = inputs[k];
        }
        for (k, &d) in dffs.iter().enumerate() {
            values[self.nl.gate(d).output.index()] = state[k];
        }
        // the topological order holds combinational gates only, so every
        // gate evaluates exactly once
        for &gid in &self.order {
            let g = self.nl.gate(gid);
            values[g.output.index()] = eval_gate(g, &values);
        }
        values
    }

    /// Evaluates `W::BITS` patterns with faults forced under lane masks,
    /// writing one word per net into `values` (resized to the net
    /// count, so one buffer serves every pass of a caller).
    ///
    /// `sites[j] = (fault, mask)` forces `fault` in the lanes of `mask`
    /// only; the other lanes compute the good circuit. A fault takes
    /// effect where its net is assigned, as in the scalar
    /// [`crate::FaultSim::eval_with_faults`]: primary inputs and
    /// combinational gate outputs. DFF outputs (constant-zero
    /// pseudo-inputs) and undriven nets are never forced. When sites on
    /// one net overlap, the last one listed wins in the shared lanes.
    ///
    /// With no sites this is the plain packed evaluation at width `W`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the number of primary inputs.
    pub fn eval_forced_into<W: SimWord>(
        &self,
        inputs: &[W],
        sites: &[(Fault, W)],
        values: &mut Vec<W>,
    ) {
        assert_eq!(inputs.len(), self.nl.inputs().len(), "input width mismatch");
        let forcings = forcings(sites);
        // one bit per net: the per-gate check is a load and a shift
        let mut marked = Vec::new();
        if !forcings.is_empty() {
            marked = vec![0u64; self.nl.num_nets().div_ceil(64)];
            for f in &forcings {
                marked[f.net as usize >> 6] |= 1u64 << (f.net & 63);
            }
        }
        let force = |ni: usize, computed: W| -> W {
            if marked
                .get(ni >> 6)
                .is_some_and(|w| (w >> (ni & 63)) & 1 == 1)
            {
                let k = forcings
                    .binary_search_by_key(&(ni as u32), |f| f.net)
                    .expect("marked nets have a forcing");
                forcings[k].apply(computed)
            } else {
                computed
            }
        };
        values.clear();
        values.resize(self.nl.num_nets(), W::ZERO);
        for (k, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = force(pi.index(), inputs[k]);
        }
        for &gid in &self.order {
            let g = self.nl.gate(gid);
            let oi = g.output.index();
            values[oi] = force(oi, eval_gate_w(g, values));
        }
    }

    /// Extracts the packed primary-output words from a per-net vector
    /// returned by [`PackedSim::eval`] or [`PackedSim::eval_forced_into`].
    pub fn outputs<W: SimWord>(&self, net_values: &[W]) -> Vec<W> {
        self.nl
            .outputs()
            .iter()
            .map(|&(n, _)| net_values[n.index()])
            .collect()
    }
}

/// Packs scalar pattern bits into input words: `patterns[p][k]` is the
/// value of input *k* under pattern *p* (at most 64 patterns).
///
/// # Panics
///
/// Panics if more than 64 patterns are supplied.
pub fn pack_patterns(patterns: &[Vec<bool>], num_inputs: usize) -> Vec<u64> {
    assert!(patterns.len() <= 64, "at most 64 patterns per packed word");
    let mut words = vec![0u64; num_inputs];
    for (p, pat) in patterns.iter().enumerate() {
        assert_eq!(pat.len(), num_inputs, "pattern width mismatch");
        for (k, &bit) in pat.iter().enumerate() {
            if bit {
                words[k] |= 1 << p;
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;

    #[test]
    fn packed_matches_scalar_on_c17() {
        let nl = c17();
        let sim = PackedSim::new(&nl).expect("sim");
        // all 32 input patterns of c17 in one packed pass
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns, 5);
        let nets = sim.eval(&words);
        let outs = sim.outputs(&nets);
        for (p, pat) in patterns.iter().enumerate() {
            let scalar = nl.evaluate(pat);
            for (o, &word) in outs.iter().enumerate() {
                assert_eq!((word >> p) & 1 == 1, scalar[o], "pattern {p} output {o}");
            }
        }
    }

    #[test]
    fn constants_and_mux() {
        use seceda_netlist::CellKind;
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let one = nl.add_gate(CellKind::Const1, &[]);
        let y = nl.add_gate(CellKind::Mux, &[s, zero, one]);
        nl.mark_output(y, "y");
        let sim = PackedSim::new(&nl).expect("sim");
        let nets = sim.eval(&[0b10]);
        let outs = sim.outputs(&nets);
        assert_eq!(outs[0] & 0b11, 0b10);
    }

    #[test]
    fn forced_lanes_match_scalar_eval_with_faults() {
        use crate::simword::Lane256;
        use crate::FaultSim;
        use seceda_netlist::{CellKind, NetId};
        use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
        // c17 plus a DFF whose output and undriven input are fault sites
        let mut nl = c17();
        let d = nl.add_net();
        let q = nl.add_gate(CellKind::Dff, &[d]);
        let y = nl.add_gate(CellKind::Xor, &[nl.outputs()[0].0, q]);
        nl.mark_output(y, "y");
        let sim = PackedSim::new(&nl).expect("sim");
        let scalar = FaultSim::new(&nl).expect("sim");
        let mut rng = StdRng::seed_from_u64(3);
        let kinds = [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::BitFlip];
        // 32 shots of 8 lanes each; a shot lists 1..=4 faults, repeats allowed
        let shots: Vec<Vec<Fault>> = (0..32)
            .map(|_| {
                (0..rng.gen_range(1..5usize))
                    .map(|_| Fault {
                        net: NetId::from_index(rng.gen_range(0..nl.num_nets())),
                        kind: kinds[rng.gen_range(0..3usize)],
                    })
                    .collect()
            })
            .collect();
        let patterns: Vec<Vec<bool>> = (0..256)
            .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let words = pack_patterns_w::<Lane256>(&patterns, nl.inputs().len());
        let sites: Vec<(Fault, Lane256)> = shots
            .iter()
            .enumerate()
            .flat_map(|(s, faults)| {
                let mask = (8 * s..8 * s + 8).fold(Lane256::ZERO, |m, l| {
                    m.with_lane(l / 64, m.lane(l / 64) | 1 << (l % 64))
                });
                faults.iter().map(move |&f| (f, mask))
            })
            .collect();
        let mut values = vec![Lane256::ONES; 3]; // stale contents are overwritten
        sim.eval_forced_into(&words, &sites, &mut values);
        for (p, pattern) in patterns.iter().enumerate() {
            let expected = scalar.eval_with_faults(pattern, &shots[p / 8]);
            for (n, &want) in expected.iter().enumerate() {
                let got = (values[n].lane(p / 64) >> (p % 64)) & 1 == 1;
                assert_eq!(got, want, "pattern {p} net {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_patterns_rejected() {
        let patterns = vec![vec![false]; 65];
        pack_patterns(&patterns, 1);
    }
}
