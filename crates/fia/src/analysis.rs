//! Automatic fault analysis: grade a fault campaign against a
//! (possibly protected) netlist.

use crate::campaign::FaultCampaign;
use crate::codes::ProtectedNetlist;
use seceda_netlist::NetlistError;
use seceda_sim::{Fault, Lane256, PackedSim, SimWord};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Classification of one fault shot under one stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The fault did not change any functional output.
    Masked,
    /// The functional outputs changed and the alarm raised.
    Detected,
    /// The functional outputs changed and no alarm raised — the outcome
    /// an adversary exploits.
    SilentCorruption,
    /// The alarm raised although outputs were unchanged (overly eager
    /// detector; costs availability, not confidentiality).
    FalseAlarm,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAnalysis {
    /// Outcome counts in the order masked / detected / silent / false
    /// alarm.
    pub masked: usize,
    /// Detected events.
    pub detected: usize,
    /// Silent corruptions.
    pub silent: usize,
    /// False alarms.
    pub false_alarms: usize,
    /// `detected / (detected + silent)`, or 1.0 if no corrupting fault
    /// occurred.
    pub detection_coverage: f64,
}

impl FaultAnalysis {
    /// Total number of graded (shot, stimulus) events.
    pub fn total(&self) -> usize {
        self.masked + self.detected + self.silent + self.false_alarms
    }
}

/// Runs `campaign` against a protected netlist: every shot is simulated
/// under `stimuli_per_shot` random input vectors and classified.
///
/// For netlists without an alarm (`alarm_index == None`, e.g. TMR), a
/// changed output counts as [`FaultOutcome::SilentCorruption`] — use the
/// coverage to measure *correction* instead.
///
/// The (shot, stimulus) events are graded on 256-lane packed words.
/// Stimulus *g* = `shot · stimuli_per_shot + i` sits in lane `g mod 256`
/// of chunk `g / 256`; its input bits are drawn from one RNG stream in
/// that order (shot, then stimulus, then input). Each chunk takes one
/// good pass and one faulty pass, in which every shot forces its faults
/// in its own lanes only. An event's outcome is a function of its lane
/// alone, so the counts equal those of grading each event by itself.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn analyze_faults(
    protected: &ProtectedNetlist,
    campaign: &FaultCampaign,
    stimuli_per_shot: usize,
    seed: u64,
) -> Result<FaultAnalysis, NetlistError> {
    let nl = &protected.netlist;
    let sim = PackedSim::new(nl)?;
    let shots = campaign.generate(nl);
    let mut rng = StdRng::seed_from_u64(seed);
    let spp = stimuli_per_shot;
    let events = shots.len() * spp;
    let mut analysis = FaultAnalysis {
        masked: 0,
        detected: 0,
        silent: 0,
        false_alarms: 0,
        detection_coverage: 1.0,
    };
    // one set of full-width buffers per call, reused by every pass
    let mut inputs = vec![Lane256::ZERO; nl.inputs().len()];
    let mut values = Vec::new();
    let mut sites: Vec<(Fault, Lane256)> = Vec::new();
    for start in (0..events).step_by(Lane256::BITS) {
        let lanes = (events - start).min(Lane256::BITS);
        inputs.fill(Lane256::ZERO);
        for lane in 0..lanes {
            for word in inputs.iter_mut() {
                if rng.gen() {
                    word.0[lane / 64] |= 1 << (lane % 64);
                }
            }
        }
        sites.clear();
        // the shots with stimuli in this chunk, each under its own lanes
        let (first, last) = (start / spp, (start + lanes - 1) / spp);
        for (s, shot) in (first..).zip(&shots[first..=last]) {
            let lo = (s * spp).max(start) - start;
            let hi = ((s + 1) * spp).min(start + lanes) - start;
            let mask = lane_range(lo, hi);
            sites.extend(shot.iter().map(|&f| (f, mask)));
        }
        sim.eval_forced_into(&inputs, &[], &mut values);
        let good = sim.outputs(&values);
        sim.eval_forced_into(&inputs, &sites, &mut values);
        let valid = Lane256::low_mask(lanes);
        let mut corrupt = Lane256::ZERO;
        let mut alarm = Lane256::ZERO;
        for (o, (&(net, _), &g)) in nl.outputs().iter().zip(&good).enumerate() {
            let bad = values[net.index()];
            if protected.alarm_index == Some(o) {
                debug_assert!(!(g & valid).any(), "golden run must not alarm");
                alarm = bad;
            } else {
                corrupt = corrupt | (g ^ bad);
            }
        }
        let count = |w: Lane256| (w & valid).count_ones() as usize;
        analysis.masked += count(!corrupt & !alarm);
        analysis.false_alarms += count(!corrupt & alarm);
        analysis.detected += count(corrupt & alarm);
        analysis.silent += count(corrupt & !alarm);
    }
    let corrupting = analysis.detected + analysis.silent;
    analysis.detection_coverage = if corrupting == 0 {
        1.0
    } else {
        analysis.detected as f64 / corrupting as f64
    };
    Ok(analysis)
}

/// The mask of lanes `lo..hi` (`lo < hi <= 256`).
fn lane_range(lo: usize, hi: usize) -> Lane256 {
    let below = if lo == 0 {
        Lane256::ZERO
    } else {
        Lane256::low_mask(lo)
    };
    Lane256::low_mask(hi) & !below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::InjectionModel;
    use crate::codes::{duplicate_with_compare, triplicate_with_vote, ProtectedNetlist};
    use seceda_netlist::{c17, majority};

    #[test]
    fn unprotected_circuit_suffers_silent_corruption() {
        let nl = c17();
        let bare = ProtectedNetlist {
            netlist: nl,
            alarm_index: None,
        };
        let campaign = FaultCampaign {
            model: InjectionModel::Random,
            shots: 50,
            seed: 1,
        };
        let a = analyze_faults(&bare, &campaign, 8, 2).expect("analysis");
        assert!(a.silent > 0, "bare logic must show silent corruption");
        assert!(a.detection_coverage < 1.0);
    }

    #[test]
    fn dwc_reaches_full_detection_on_single_faults() {
        let p = duplicate_with_compare(&majority());
        let campaign = FaultCampaign {
            model: InjectionModel::RandomGate,
            shots: 120,
            seed: 3,
        };
        let a = analyze_faults(&p, &campaign, 8, 4).expect("analysis");
        assert_eq!(
            a.silent, 0,
            "single logic faults cannot silently corrupt a DWC design: {a:?}"
        );
        assert!(a.detected > 0);
        assert_eq!(a.detection_coverage, 1.0);
    }

    #[test]
    fn tmr_masks_single_copy_faults() {
        // Faults inside any of the three copies are fully masked by the
        // voter; voter gates themselves are the (known) single point of
        // failure, so target the copies only.
        let base = majority();
        let copies_gate_count = 3 * base.num_gates();
        let p = triplicate_with_vote(&base);
        for gi in 0..copies_gate_count {
            let victim = p.netlist.gates()[gi].output;
            let campaign = FaultCampaign {
                model: InjectionModel::Targeted(vec![victim]),
                shots: 1,
                seed: 5,
            };
            let a = analyze_faults(&p, &campaign, 8, 6).expect("analysis");
            assert_eq!(a.silent, 0, "copy fault at gate {gi} must be masked");
            assert_eq!(a.detected, 0, "TMR has no alarm");
        }
    }

    #[test]
    fn wide_laser_defeats_dwc_sometimes() {
        // a laser window spanning both copies can corrupt them coherently
        // or corrupt outputs without tripping the specific comparator —
        // at minimum, detection coverage may drop below 1.0
        let p = duplicate_with_compare(&majority());
        let campaign = FaultCampaign {
            model: InjectionModel::Laser { width: 16 },
            shots: 200,
            seed: 7,
        };
        let a = analyze_faults(&p, &campaign, 4, 8).expect("analysis");
        // we only assert the analysis runs and classifies everything
        assert_eq!(a.total(), 200 * 4);
    }
}
