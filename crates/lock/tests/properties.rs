//! Property-based tests for logic locking.

use seceda_lock::{mux_lock, sat_attack, sat_attack_rebuild, sfll_hd0, xor_lock, LockedNetlist};
use seceda_netlist::{parse_bench, random_circuit, RandomCircuitConfig};
use seceda_testkit::par;
use seceda_testkit::prelude::*;

/// Differential check: the incremental portfolio attack must take
/// exactly as many DIP iterations as the rebuild-per-iteration baseline
/// (fresh formula and solver every iteration), recover the
/// *bit-identical* key (both
/// canonicalize to the lex-min key of the final observation set), and
/// that key must be functionally correct.
fn assert_incremental_matches_rebuild(locked: &LockedNetlist, original: &seceda_netlist::Netlist) {
    let oracle = |x: &[bool]| original.evaluate(x);
    let inc = sat_attack(locked, oracle)
        .expect("incremental attack runs")
        .expect("incremental attack finds a key");
    let reb = sat_attack_rebuild(locked, oracle)
        .expect("rebuild attack runs")
        .expect("rebuild attack finds a key");
    assert_eq!(
        inc.iterations, reb.iterations,
        "incremental and rebuild attacks must agree on DIP count"
    );
    assert_eq!(
        inc.key, reb.key,
        "both attacks canonicalize to the lex-min key and must agree bit-for-bit"
    );
    let n = locked.num_original_inputs;
    for pattern in 0..(1u32 << n) {
        let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
        let expect = original.evaluate(&inputs);
        assert_eq!(
            locked.evaluate_with_key(&inputs, &inc.key),
            expect,
            "incremental key wrong on {inputs:?}"
        );
        assert_eq!(
            locked.evaluate_with_key(&inputs, &reb.key),
            expect,
            "rebuild key wrong on {inputs:?}"
        );
    }
}

#[test]
fn incremental_attack_matches_rebuild_on_all_schemes() {
    let nl = seceda_netlist::c17();
    assert_incremental_matches_rebuild(&xor_lock(&nl, 8, 7), &nl);
    assert_incremental_matches_rebuild(&mux_lock(&nl, 4, 9), &nl);
    assert_incremental_matches_rebuild(&sfll_hd0(&nl, &[true, false, true, false, true]), &nl);
}

#[test]
fn incremental_attack_matches_rebuild_on_parsed_c17() {
    // same differential property, but on a netlist that went through the
    // .bench frontend instead of the builtin constructor — pins the AIG
    // lowering against parser-produced gate structures (n-ary fanins,
    // explicit buffers)
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../netlist/tests/data/c17.bench"
    ))
    .expect("c17.bench fixture");
    let nl = parse_bench(&text).expect("c17.bench parses");
    assert_incremental_matches_rebuild(&xor_lock(&nl, 8, 13), &nl);
}

#[test]
fn incremental_attack_matches_rebuild_on_random_hosts() {
    for seed in [1u64, 17, 91] {
        let nl = host(seed, 18);
        assert_incremental_matches_rebuild(&xor_lock(&nl, 6, seed ^ 0xC), &nl);
    }
}

#[test]
fn attack_result_is_identical_for_every_portfolio_size_and_worker_count() {
    // the portfolio races nondeterministically, but lex-min DIP and key
    // canonicalization make the attack's observable result a property of
    // the formula: any worker count (which also sets the portfolio size
    // via max_workers) must produce the same key and iteration count
    let nl = seceda_netlist::c17();
    let locked = xor_lock(&nl, 10, 5);
    let oracle = |x: &[bool]| nl.evaluate(x);
    let baseline = par::with_workers(1, || sat_attack(&locked, oracle))
        .expect("attack runs")
        .expect("key found");
    for workers in [2usize, 3, 8] {
        let r = par::with_workers(workers, || sat_attack(&locked, oracle))
            .expect("attack runs")
            .expect("key found");
        assert_eq!(r.iterations, baseline.iterations, "workers = {workers}");
        assert_eq!(r.key, baseline.key, "workers = {workers}");
        assert_eq!(
            r.conflict_deltas.len(),
            r.iterations + 2,
            "workers = {workers}"
        );
        assert_eq!(
            r.conflicts,
            r.conflict_deltas.iter().sum::<u64>(),
            "workers = {workers}"
        );
    }
}

fn host(seed: u64, gates: usize) -> seceda_netlist::Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 5,
        num_gates: gates,
        num_outputs: 3,
        with_xor: true,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn xor_lock_correct_key_restores(seed in 0u64..3000, gates in 3usize..40, bits in 1usize..12) {
        let nl = host(seed, gates);
        let locked = xor_lock(&nl, bits, seed ^ 0xAA);
        prop_assert!(locked.netlist.validate().is_ok());
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            prop_assert_eq!(
                locked.evaluate_with_key(&inputs, &locked.correct_key),
                nl.evaluate(&inputs)
            );
        }
    }

    #[test]
    fn mux_lock_correct_key_restores_and_is_acyclic(
        seed in 0u64..3000,
        gates in 3usize..40,
        bits in 1usize..8,
    ) {
        let nl = host(seed, gates);
        let locked = mux_lock(&nl, bits, seed ^ 0xBB);
        prop_assert!(locked.netlist.validate().is_ok(), "mux locking must never build cycles");
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            prop_assert_eq!(
                locked.evaluate_with_key(&inputs, &locked.correct_key),
                nl.evaluate(&inputs)
            );
        }
    }

    #[test]
    fn sfll_wrong_key_corrupts_exactly_two_cubes(
        seed in 0u64..2000,
        gates in 3usize..25,
        pattern_bits in 0u32..32,
        wrong_bits in 0u32..32,
    ) {
        prop_assume!(pattern_bits != wrong_bits);
        let nl = host(seed, gates);
        let pattern: Vec<bool> = (0..5).map(|b| (pattern_bits >> b) & 1 == 1).collect();
        let wrong: Vec<bool> = (0..5).map(|b| (wrong_bits >> b) & 1 == 1).collect();
        let locked = sfll_hd0(&nl, &pattern);
        let mut diffs = 0usize;
        for p in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (p >> b) & 1 == 1).collect();
            if locked.evaluate_with_key(&inputs, &wrong) != nl.evaluate(&inputs) {
                diffs += 1;
            }
        }
        prop_assert_eq!(diffs, 2, "SFLL-HD0 corrupts the protected and the key cube only");
    }
}
