//! Property suite for the structural design digest: every random
//! splice edit moves it, a splice sequence never revisits a digest, and
//! replaying the same seed reproduces the sequence bit for bit.

use seceda_netlist::{
    c17, parse_design, random_circuit, ripple_adder, write_bench, CellKind, DesignDigest,
    DesignFormat, GateTags, NetId, Netlist, RandomCircuitConfig, StructuralHash,
};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

fn digest(nl: &Netlist) -> DesignDigest {
    StructuralHash::of(nl).expect("hash").digest()
}

/// Applies `edits` random `insert_after` splices and returns the digest
/// of every state, the unedited design first.
fn splice_sequence(mut nl: Netlist, seed: u64, edits: usize) -> Vec<DesignDigest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut digests = vec![digest(&nl)];
    for step in 0..edits {
        let target = if rng.gen::<bool>() {
            // splice after a random gate output
            let g = rng.gen_range(0..nl.num_gates());
            nl.gates()[g].output
        } else {
            // or after a random primary input
            let k = rng.gen_range(0..nl.inputs().len());
            nl.inputs()[k]
        };
        let kind = match rng.gen_range(0..3u32) {
            0 => CellKind::Not,
            1 => CellKind::Buf,
            _ => CellKind::Xor,
        };
        let extra: Vec<NetId> = if kind == CellKind::Xor {
            vec![nl.add_input(format!("k{step}"))]
        } else {
            Vec::new()
        };
        nl.insert_after(target, kind, &extra, GateTags::default());
        let d = digest(&nl);
        assert_ne!(
            Some(&d),
            digests.last(),
            "seed {seed:#x} step {step}: a splice must move the digest"
        );
        digests.push(d);
    }
    nl.validate().expect("edited netlist stays well-formed");
    digests
}

/// Checks one design: digests pairwise distinct and reproducible.
fn check_splice_sequence(nl: Netlist, seed: u64, edits: usize) {
    let digests = splice_sequence(nl.clone(), seed, edits);
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(
                digests[i], digests[j],
                "seed {seed:#x}: states {i} and {j} collided"
            );
        }
    }
    assert_eq!(
        digests,
        splice_sequence(nl, seed, edits),
        "seed {seed:#x}: replay diverged"
    );
}

#[test]
fn splice_sequences_on_bench_circuits_are_distinct_and_replayable() {
    check_splice_sequence(c17(), 0xC17, 6);
    check_splice_sequence(ripple_adder(8), 0xADD, 6);
}

#[test]
fn splice_sequences_on_random_circuits_are_distinct_and_replayable() {
    for seed in [1u64, 2, 3] {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 12,
            num_gates: 300,
            num_outputs: 6,
            with_xor: true,
            seed,
        });
        check_splice_sequence(nl, seed, 8);
    }
}

#[test]
fn parsed_and_built_circuits_share_fingerprints() {
    // the .bench round-trip renames internal nets but preserves the
    // layout and interface, so the digest must survive
    let nl = ripple_adder(16);
    let reparsed = parse_design(&write_bench(&nl), DesignFormat::Bench).expect("parse");
    assert_eq!(digest(&nl), digest(&reparsed));
}

#[test]
fn unrelated_designs_do_not_collide() {
    let digests: Vec<_> = [1u64, 2, 3, 4, 5]
        .iter()
        .map(|&seed| {
            digest(&random_circuit(&RandomCircuitConfig {
                seed,
                ..RandomCircuitConfig::default()
            }))
        })
        .collect();
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(digests[i], digests[j], "seeds {i} and {j} collided");
        }
    }
}

#[test]
fn scale_smoke_hashes_100k_gates() {
    let nl = random_circuit(&RandomCircuitConfig {
        num_inputs: 64,
        num_gates: 100_000,
        num_outputs: 32,
        with_xor: true,
        seed: 0xB16,
    });
    let before = digest(&nl);
    // a single splice deep in the design moves the digest, and the
    // edited design hashes the same on every pass
    let mut edited = nl.clone();
    let target = edited.gates()[50_000].output;
    edited.insert_after(target, CellKind::Not, &[], GateTags::default());
    let after = digest(&edited);
    assert_ne!(after, before);
    assert_eq!(after, digest(&edited.clone()));
}
