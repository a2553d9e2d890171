//! Signal probability estimation by packed random simulation.
//!
//! Rare internal signals are where Trojan triggers hide (MERO \[40\]); the
//! probability of each net being 1 under uniform random inputs is the
//! basic statistic behind trigger analysis and test generation.

use crate::packed::PackedSim;
use crate::simword::{Lane256, SimWord};
use seceda_netlist::{Netlist, NetlistError};
use seceda_testkit::par;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Estimates, for every net, `P[net = 1]` under uniform random primary
/// inputs, using `num_rounds` packed simulations (64 patterns each).
///
/// The input words are drawn serially from one RNG stream, round after
/// round (so the stimulus is identical to the historical
/// single-threaded loop). Rounds then fan out across cores in
/// contiguous chunks; a worker evaluates its chunk four rounds per pass
/// on [`Lane256`] words (round *j* of a group in sub-lane *j*) into one
/// reused values buffer, and counts ones only in the sub-lanes of real
/// rounds. Per-net one-counts are summed — exact integer addition, so
/// the result is bit-identical for any worker count.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics if `num_rounds` is zero.
pub fn signal_probabilities(
    nl: &Netlist,
    num_rounds: usize,
    seed: u64,
) -> Result<Vec<f64>, NetlistError> {
    assert!(num_rounds > 0, "need at least one round");
    let mut sp = seceda_trace::span("sim.signal_probabilities");
    sp.attr("gates", nl.num_gates());
    sp.attr("rounds", num_rounds);
    seceda_trace::counter("sim.patterns_simulated", (num_rounds * 64) as u64);
    let sim = PackedSim::new(nl)?;
    let num_inputs = nl.inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    // round-major: word `r * num_inputs + k` is input k of round r
    let words: Vec<u64> = (0..num_rounds * num_inputs).map(|_| rng.gen()).collect();
    let workers = par::workers_for(num_rounds);
    seceda_trace::gauge("sim.par_workers", workers as f64);
    let per_worker = num_rounds.div_ceil(workers);
    let chunks: Vec<usize> = (0..num_rounds).step_by(per_worker).collect();
    let partials = par::par_map(&chunks, |_, &start| {
        let end = (start + per_worker).min(num_rounds);
        let mut ones = vec![0u64; nl.num_nets()];
        let mut inputs = vec![Lane256::ZERO; num_inputs];
        let mut values = Vec::new();
        for group in (start..end).step_by(Lane256::LANES) {
            let rounds = (end - group).min(Lane256::LANES);
            for (k, word) in inputs.iter_mut().enumerate() {
                *word = Lane256::ZERO;
                for j in 0..rounds {
                    word.0[j] = words[(group + j) * num_inputs + k];
                }
            }
            sim.eval_forced_into(&inputs, &[], &mut values);
            let real = Lane256::low_mask(rounds * 64);
            for (count, &word) in ones.iter_mut().zip(&values) {
                *count += (word & real).count_ones() as u64;
            }
        }
        ones
    });
    let mut ones = vec![0u64; nl.num_nets()];
    for partial in partials {
        for (total, p) in ones.iter_mut().zip(partial) {
            *total += p;
        }
    }
    let total = (num_rounds * 64) as f64;
    Ok(ones.into_iter().map(|c| c as f64 / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, Netlist};

    #[test]
    fn and_tree_probability_drops() {
        // 4-input AND: P[out=1] = 1/16
        let mut nl = Netlist::new("and4");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(CellKind::And, &ins);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 256, 1).expect("probs");
        let p = probs[y.index()];
        assert!((p - 1.0 / 16.0).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn input_probability_near_half() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 128, 2).expect("probs");
        assert!((probs[a.index()] - 0.5).abs() < 0.03);
        assert!((probs[y.index()] - 0.5).abs() < 0.03);
    }

    #[test]
    fn probabilities_identical_for_any_worker_count() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::Nand, &[a, b]);
        nl.mark_output(y, "y");
        let serial = par::with_workers(1, || signal_probabilities(&nl, 37, 9).expect("probs"));
        let parallel = par::with_workers(5, || signal_probabilities(&nl, 37, 9).expect("probs"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn four_round_passes_count_like_one_round_per_pass() {
        use seceda_netlist::{random_circuit, RandomCircuitConfig};
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 10,
            num_gates: 200,
            num_outputs: 6,
            with_xor: true,
            seed: 4,
        });
        let sim = PackedSim::new(&nl).expect("sim");
        // 37 rounds leave a one-round tail group after nine full ones
        for rounds in [1usize, 3, 4, 5, 37] {
            let mut rng = StdRng::seed_from_u64(9);
            let mut ones = vec![0u64; nl.num_nets()];
            for _ in 0..rounds {
                let inputs: Vec<u64> = (0..nl.inputs().len()).map(|_| rng.gen()).collect();
                for (count, word) in ones.iter_mut().zip(sim.eval(&inputs)) {
                    *count += word.count_ones() as u64;
                }
            }
            let expected: Vec<f64> = ones
                .iter()
                .map(|&c| c as f64 / (rounds * 64) as f64)
                .collect();
            for workers in [1, 2, 5] {
                let got = par::with_workers(workers, || {
                    signal_probabilities(&nl, rounds, 9).expect("probs")
                });
                assert_eq!(got, expected, "{rounds} rounds, {workers} workers");
            }
        }
    }

    #[test]
    fn xor_stays_balanced() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::Xor, &[a, b]);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 128, 3).expect("probs");
        assert!((probs[y.index()] - 0.5).abs() < 0.03);
    }
}
