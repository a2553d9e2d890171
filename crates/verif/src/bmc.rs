//! Bounded model checking by time-frame unrolling.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{lower_netlist, Aig, AigCnf, AigLit, SatResult, Solver};

/// Result of a reachability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcResult {
    /// A witness: input vector per cycle driving the monitored output to
    /// the target value in the last listed cycle.
    Reachable(Vec<Vec<bool>>),
    /// Not reachable within the bound.
    UnreachableWithin(usize),
}

impl BmcResult {
    /// `true` if a witness was found.
    pub fn is_reachable(&self) -> bool {
        matches!(self, BmcResult::Reachable(_))
    }
}

/// Checks whether output `output_index` can take `target_value` within
/// `bound` cycles from the all-zero initial state.
///
/// The time frames are unrolled into one AIG and one incremental
/// solver: frame 0 reads the all-zero state (constant false), and every
/// later frame's state is the previous frame's next-state (DFF input)
/// edges. Each depth asks one query, so the first satisfiable depth
/// yields the shortest witness.
///
/// # Errors
///
/// Returns a netlist error on cyclic combinational logic.
///
/// # Panics
///
/// Panics if `output_index` is out of range or `bound == 0`.
pub fn bmc_reach(
    nl: &Netlist,
    output_index: usize,
    target_value: bool,
    bound: usize,
) -> Result<BmcResult, NetlistError> {
    assert!(output_index < nl.outputs().len(), "output out of range");
    assert!(bound > 0, "bound must be positive");
    let dffs = nl.dffs();
    let (target_net, _) = nl.outputs()[output_index];
    let mut solver = Solver::new(0);
    let mut aig = Aig::new();
    let mut map = AigCnf::new(&mut solver);
    let mut state = vec![AigLit::FALSE; dffs.len()];
    let mut frames = Vec::with_capacity(bound);
    for _ in 0..bound {
        let (input_vars, inputs) = aig.fresh_inputs(nl.inputs().len(), &mut solver);
        frames.push(input_vars);
        let nets = lower_netlist(nl, &mut aig, &inputs, &state)?;
        state = dffs
            .iter()
            .map(|&d| nets[nl.gate(d).inputs[0].index()])
            .collect();
        // target: monitored output takes the value in this frame
        let out = map.lit_of(&aig, nets[target_net.index()], &mut solver);
        let target = if target_value { out } else { !out };
        if let SatResult::Sat(model) = solver.solve_with_assumptions(&[target]) {
            let witness = frames
                .iter()
                .map(|vars| vars.iter().map(|v| model[v.index()]).collect())
                .collect();
            return Ok(BmcResult::Reachable(witness));
        }
    }
    Ok(BmcResult::UnreachableWithin(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::CellKind;

    /// A 2-bit saturating counter that raises `alarm` when it reaches 3;
    /// it only counts when `en` is high.
    fn counter_with_alarm() -> Netlist {
        let mut nl = Netlist::new("cnt_alarm");
        let en = nl.add_input("en");
        let q0_fb = nl.add_net();
        let q1_fb = nl.add_net();
        // next0 = en ? !q0 : q0 ; next1 = en & q0 ? !q1 : q1
        let nq0 = nl.add_gate(CellKind::Not, &[q0_fb]);
        let next0 = nl.add_gate(CellKind::Mux, &[en, q0_fb, nq0]);
        let carry = nl.add_gate(CellKind::And, &[en, q0_fb]);
        let nq1 = nl.add_gate(CellKind::Not, &[q1_fb]);
        let next1 = nl.add_gate(CellKind::Mux, &[carry, q1_fb, nq1]);
        let q0 = nl.add_gate(CellKind::Dff, &[next0]);
        let q1 = nl.add_gate(CellKind::Dff, &[next1]);
        // patch feedback
        for (fb, q) in [(q0_fb, q0), (q1_fb, q1)] {
            nl.replace_net_uses(fb, q);
        }
        let alarm = nl.add_gate(CellKind::And, &[q0, q1]);
        nl.mark_output(alarm, "alarm");
        nl
    }

    #[test]
    fn alarm_reachable_in_exactly_four_cycles() {
        let nl = counter_with_alarm();
        // counter reads 3 after three increments; the alarm output shows
        // it in the following frame’s combinational logic, i.e. frame 4
        let result = bmc_reach(&nl, 0, true, 6).expect("bmc");
        match &result {
            BmcResult::Reachable(witness) => {
                assert_eq!(witness.len(), 4, "witness: {witness:?}");
                // replay the witness on the simulator
                let mut state = vec![false; 2];
                let mut alarm_seen = false;
                for inputs in witness {
                    let (outs, next) = nl.step(inputs, &state).expect("step");
                    alarm_seen = outs[0];
                    state = next;
                }
                assert!(alarm_seen, "replay must confirm the witness");
            }
            other => panic!("expected reachable, got {other:?}"),
        }
    }

    #[test]
    fn alarm_unreachable_in_three_cycles() {
        let nl = counter_with_alarm();
        let result = bmc_reach(&nl, 0, true, 3).expect("bmc");
        assert_eq!(result, BmcResult::UnreachableWithin(3));
    }

    #[test]
    fn zero_is_immediately_reachable() {
        let nl = counter_with_alarm();
        let result = bmc_reach(&nl, 0, false, 1).expect("bmc");
        assert!(result.is_reachable());
    }
}
