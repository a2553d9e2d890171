//! Differential suite: the packed fault grader `analyze_faults` against
//! a scalar reference that grades every (shot, stimulus) event by
//! itself with `FaultSim::eval_with_faults`.
//!
//! The reference draws its stimuli in the same serial order (shot, then
//! stimulus, then input, one RNG stream), so the two must agree count
//! for count on every injection model, on every stimuli-per-shot value
//! (including shots that straddle a 256-lane chunk boundary), and on
//! combinational, protected, sequential and random hosts.

use seceda_fia::{
    analyze_faults, duplicate_with_compare, parity_protect, triplicate_with_vote, FaultAnalysis,
    FaultCampaign, InjectionModel, ProtectedNetlist,
};
use seceda_lock::xor_lock;
use seceda_netlist::{c17, majority, random_circuit, CellKind, Netlist, RandomCircuitConfig};
use seceda_sim::FaultSim;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// The event-by-event grader: two full scalar evaluations per event.
fn scalar_reference(
    protected: &ProtectedNetlist,
    campaign: &FaultCampaign,
    stimuli_per_shot: usize,
    seed: u64,
) -> FaultAnalysis {
    let nl = &protected.netlist;
    let sim = FaultSim::new(nl).expect("acyclic host");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = FaultAnalysis {
        masked: 0,
        detected: 0,
        silent: 0,
        false_alarms: 0,
        detection_coverage: 1.0,
    };
    for shot in campaign.generate(nl) {
        for _ in 0..stimuli_per_shot {
            let inputs: Vec<bool> = (0..nl.inputs().len()).map(|_| rng.gen()).collect();
            let mut good = sim.outputs(&sim.eval_with_faults(&inputs, &[]));
            let mut bad = sim.outputs(&sim.eval_with_faults(&inputs, &shot));
            let (good_alarm, bad_alarm) = match protected.alarm_index {
                Some(ai) => (good.remove(ai), bad.remove(ai)),
                None => (false, false),
            };
            debug_assert!(!good_alarm, "golden run must not alarm");
            match (good != bad, bad_alarm) {
                (false, false) => a.masked += 1,
                (false, true) => a.false_alarms += 1,
                (true, true) => a.detected += 1,
                (true, false) => a.silent += 1,
            }
        }
    }
    let corrupting = a.detected + a.silent;
    if corrupting > 0 {
        a.detection_coverage = a.detected as f64 / corrupting as f64;
    }
    a
}

const STIMULI_PER_SHOT: [usize; 8] = [1, 3, 4, 6, 8, 64, 65, 300];

/// Enough shots that every stimuli-per-shot value spans several
/// 256-lane chunks, so some shot straddles a chunk boundary.
fn shots_for(spp: usize) -> usize {
    600 / spp + 2
}

fn models(nl: &Netlist) -> Vec<InjectionModel> {
    let gate_net = nl.gates()[nl.num_gates() / 2].output;
    let first_input = nl.inputs()[0];
    vec![
        InjectionModel::Laser { width: 3 },
        InjectionModel::Laser { width: 16 },
        InjectionModel::ClockGlitch { count: 4 },
        InjectionModel::Random,
        InjectionModel::RandomGate,
        // a net listed twice is one flip, not two
        InjectionModel::Targeted(vec![gate_net, first_input, gate_net]),
    ]
}

fn assert_packed_matches_scalar(name: &str, p: &ProtectedNetlist) {
    for (m, model) in models(&p.netlist).into_iter().enumerate() {
        for spp in STIMULI_PER_SHOT {
            let campaign = FaultCampaign {
                model: model.clone(),
                shots: shots_for(spp),
                seed: 11 + m as u64,
            };
            let seed = 7 * spp as u64 + m as u64;
            let packed = analyze_faults(p, &campaign, spp, seed).expect("packed");
            let scalar = scalar_reference(p, &campaign, spp, seed);
            assert_eq!(packed, scalar, "{name}: {model:?}, {spp} stimuli per shot");
            assert_eq!(packed.total(), campaign.shots * spp);
        }
    }
}

fn bare(netlist: Netlist) -> ProtectedNetlist {
    ProtectedNetlist {
        netlist,
        alarm_index: None,
    }
}

fn random_host(seed: u64, gates: usize) -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 6,
        num_gates: gates,
        num_outputs: 4,
        with_xor: true,
        seed,
    })
}

/// A host whose DFF output and undriven DFF input are fault targets
/// that no pass assigns, so they must never take effect.
fn sequential_host() -> Netlist {
    let mut nl = Netlist::new("seq");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_net();
    let q = nl.add_gate(CellKind::Dff, &[d]);
    let x = nl.add_gate(CellKind::Xor, &[a, q]);
    let y = nl.add_gate(CellKind::Nand, &[x, b]);
    let z = nl.add_gate(CellKind::Or, &[y, c, q]);
    let q2 = nl.add_gate(CellKind::Dff, &[z]);
    let w = nl.add_gate(CellKind::Mux, &[q2, x, z]);
    nl.mark_output(y, "y");
    nl.mark_output(w, "w");
    nl
}

#[test]
fn c17_and_majority_bare() {
    assert_packed_matches_scalar("c17", &bare(c17()));
    assert_packed_matches_scalar("majority", &bare(majority()));
}

#[test]
fn dwc_tmr_and_parity_hosts() {
    assert_packed_matches_scalar("dwc(c17)", &duplicate_with_compare(&c17()));
    assert_packed_matches_scalar("tmr(majority)", &triplicate_with_vote(&majority()));
    assert_packed_matches_scalar("parity(c17)", &parity_protect(&c17()));
}

#[test]
fn sequential_host_never_faults_dff_outputs_or_undriven_nets() {
    let nl = sequential_host();
    assert_packed_matches_scalar("seq", &bare(nl.clone()));
    // every net, DFF output and undriven net included, hit at once
    let all: Vec<_> = (0..nl.num_nets())
        .map(seceda_netlist::NetId::from_index)
        .collect();
    let campaign = FaultCampaign {
        model: InjectionModel::Targeted(all),
        shots: 90,
        seed: 1,
    };
    let p = bare(nl);
    assert_eq!(
        analyze_faults(&p, &campaign, 3, 2).expect("packed"),
        scalar_reference(&p, &campaign, 3, 2)
    );
}

#[test]
fn random_hosts_bare_and_protected() {
    for seed in [3u64, 8, 19] {
        let nl = random_host(seed, 40);
        assert_packed_matches_scalar(&format!("rand{seed}"), &bare(nl.clone()));
        assert_packed_matches_scalar(&format!("dwc(rand{seed})"), &duplicate_with_compare(&nl));
    }
    let nl = random_host(5, 30);
    assert_packed_matches_scalar("parity(rand5)", &parity_protect(&nl));
}

/// Parity first, then an XOR lock: a random (wrong) key flips the
/// functional cone but not the predictor, so the golden run alarms.
/// Release builds count those events; debug builds panic on the
/// `golden run must not alarm` assertion, in both graders alike.
#[test]
fn locked_parity_design_with_golden_alarms() {
    let p = parity_protect(&random_host(13, 30));
    let locked = xor_lock(&p.netlist, 4, 21);
    let p = ProtectedNetlist {
        netlist: locked.netlist,
        alarm_index: p.alarm_index,
    };
    let campaign = FaultCampaign {
        model: InjectionModel::RandomGate,
        shots: 100,
        seed: 4,
    };
    for spp in [1usize, 4, 65] {
        if cfg!(debug_assertions) {
            let packed = std::panic::catch_unwind(|| analyze_faults(&p, &campaign, spp, 9));
            let scalar = std::panic::catch_unwind(|| scalar_reference(&p, &campaign, spp, 9));
            assert!(
                packed.is_err(),
                "packed grader must panic on a golden alarm"
            );
            assert!(
                scalar.is_err(),
                "scalar grader must panic on a golden alarm"
            );
        } else {
            let packed = analyze_faults(&p, &campaign, spp, 9).expect("packed");
            assert_eq!(packed, scalar_reference(&p, &campaign, spp, 9));
            assert!(packed.false_alarms > 0, "wrong keys raise false alarms");
        }
    }
}
