//! Bit-parallel fault simulation with fault dropping and cone
//! restriction — the industrial recipe that makes stuck-at grading,
//! ATPG bootstrap, and MERO-style N-detect tractable on real circuits.
//!
//! Four compounding optimizations over the scalar reference
//! ([`crate::FaultSim::coverage_scalar`]):
//!
//! * **256 patterns per pass** — gates evaluate over [`Lane256`] words
//!   (four `u64` lanes, autovectorized), so the good circuit and each
//!   faulty cone are walked once per 256-pattern chunk; detection of
//!   all 256 patterns is a single masked XOR of output words. The
//!   64-lane `u64` path remains as the differential-testing reference
//!   ([`PackedFaultSim::coverage_u64`]).
//! * **Fault batching** — when a chunk holds 64 or fewer patterns
//!   (ATPG's one-pattern incremental grading, tails of a pattern set),
//!   each 64-bit sub-lane of a wide word carries a *different fault*
//!   over the same patterns, so one cone walk grades up to four faults.
//! * **Fault dropping** — a fault leaves the active list the moment any
//!   pattern detects it; later patterns never touch it again.
//! * **Cone restriction** — the faulty circuit re-evaluates only the
//!   fan-out cone of the faulted net, event-driven in topological
//!   order, and stops early when the fault effect converges with the
//!   good value or every fault in the pass has reached a primary
//!   output.
//!
//! The active fault list fans out across cores with
//! [`seceda_testkit::par`]; every fault is graded independently (fault
//! groups are formed deterministically from the active list), so the
//! result is bit-identical for any worker count.
//!
//! Detection results are **exactly** those of the scalar reference:
//! per fault, *detected iff some pattern makes a primary output
//! differ* — including the scalar path's quirk that a fault on a net
//! no assignment ever touches (a DFF output pseudo-input) has no
//! effect.

use crate::fault::{Fault, FaultKind};
use crate::packed::{eval_gate_w, pack_patterns, pack_patterns_w, PackedSim};
use crate::simword::{Lane256, SimWord};
use seceda_netlist::{Netlist, NetlistError};
use seceda_testkit::par;

/// The packed, dropping, cone-restricted fault-grading engine.
#[derive(Debug, Clone)]
pub struct PackedFaultSim<'a> {
    sim: PackedSim<'a>,
    nl: &'a Netlist,
    /// Combinational gates cloned into topological order, so a cone
    /// walk streams through memory in evaluation order.
    comb: Vec<seceda_netlist::Gate>,
    /// CSR fan-out: `fanout_pos[fanout_start[n]..fanout_start[n+1]]`
    /// are the *topo positions* of the combinational gates reading net
    /// *n* (deduplicated per gate), so a cone push is a single
    /// branch-free bitset write.
    fanout_start: Vec<u32>,
    fanout_pos: Vec<u32>,
    /// Per net: is it marked as a primary output?
    is_output: Vec<bool>,
    /// Per net: does a fault injected here take effect? True for primary
    /// inputs and combinational gate outputs — exactly the nets the
    /// scalar simulator assigns (and therefore faults) during a pass.
    fault_applies: Vec<bool>,
    num_comb_gates: u64,
}

/// Per-worker scratch: reused across every fault a worker grades, so
/// the per-fault cost is proportional to the fault's cone, not to the
/// netlist size.
struct Scratch<W> {
    /// Faulty packed values; equal to the good values outside the set
    /// of touched nets, restored after every pass.
    vals: Vec<W>,
    /// Net indices whose `vals` entry differs from the good values.
    touched: Vec<u32>,
    /// Pending cone gates as a bitset over topo positions. Fan-out
    /// gates sit strictly later in topo order than their driver, so the
    /// cone walk is a monotone wavefront: push = set bit, pop = scan
    /// forward for the lowest set bit — no heap, no dedup stamps.
    /// All-zero between passes.
    pending: Vec<u64>,
    /// Forced sites of the current pass: (net, fault kind, lane mask).
    /// Needed to re-force a site that sits inside another site's cone.
    sites: Vec<(u32, FaultKind, W)>,
}

impl<W: SimWord> Scratch<W> {
    fn new(good: &[W], num_comb_gates: usize) -> Self {
        Scratch {
            vals: good.to_vec(),
            touched: Vec::new(),
            pending: vec![0; num_comb_gates.div_ceil(64)],
            sites: Vec::new(),
        }
    }
}

/// The word a fault forces onto its net, given the good word.
fn apply_fault<W: SimWord>(kind: FaultKind, good: W) -> W {
    match kind {
        FaultKind::StuckAt0 => W::ZERO,
        FaultKind::StuckAt1 => W::ONES,
        FaultKind::BitFlip => !good,
    }
}

/// Detection mask for a batch of `n` patterns packed into one `u64`.
fn batch_mask(n: usize) -> u64 {
    debug_assert!((1..=64).contains(&n));
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl<'a> PackedFaultSim<'a> {
    /// Builds the engine for a netlist (combinational logic graded;
    /// DFF outputs are constant-zero pseudo-inputs, as everywhere else).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let sim = PackedSim::new(nl)?;
        let mut level = vec![u32::MAX; nl.num_gates()];
        for (pos, &gid) in sim.order().iter().enumerate() {
            level[gid.index()] = pos as u32;
        }
        // CSR fan-out in two passes (count, fill); a gate reading the
        // same net twice is one cone entry
        let mut last_gate = vec![u32::MAX; nl.num_nets()];
        let mut fanout_start = vec![0u32; nl.num_nets() + 1];
        for (gi, g) in nl.gates().iter().enumerate() {
            if g.kind.is_sequential() {
                continue;
            }
            for &inp in &g.inputs {
                if last_gate[inp.index()] != gi as u32 {
                    last_gate[inp.index()] = gi as u32;
                    fanout_start[inp.index() + 1] += 1;
                }
            }
        }
        for n in 0..nl.num_nets() {
            fanout_start[n + 1] += fanout_start[n];
        }
        let mut cursor = fanout_start.clone();
        let mut fanout_pos = vec![0u32; *fanout_start.last().expect("non-empty starts") as usize];
        last_gate.fill(u32::MAX);
        for (gi, g) in nl.gates().iter().enumerate() {
            if g.kind.is_sequential() {
                continue;
            }
            for &inp in &g.inputs {
                if last_gate[inp.index()] != gi as u32 {
                    last_gate[inp.index()] = gi as u32;
                    fanout_pos[cursor[inp.index()] as usize] = level[gi];
                    cursor[inp.index()] += 1;
                }
            }
        }
        let comb: Vec<seceda_netlist::Gate> = sim
            .order()
            .iter()
            .map(|&gid| nl.gate(gid).clone())
            .collect();
        let mut is_output = vec![false; nl.num_nets()];
        for &(net, _) in nl.outputs() {
            is_output[net.index()] = true;
        }
        let mut fault_applies = vec![false; nl.num_nets()];
        for &pi in nl.inputs() {
            fault_applies[pi.index()] = true;
        }
        for g in nl.gates() {
            if !g.kind.is_sequential() {
                fault_applies[g.output.index()] = true;
            }
        }
        let num_comb_gates = sim.order().len() as u64;
        Ok(PackedFaultSim {
            sim,
            nl,
            comb,
            fanout_start,
            fanout_pos,
            is_output,
            fault_applies,
            num_comb_gates,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// Marks every combinational reader of net `ni` pending, returning
    /// the lowest pending-bitset word index it touched (or `usize::MAX`
    /// for no readers).
    #[inline]
    fn push_fanout<W: SimWord>(&self, sc: &mut Scratch<W>, ni: usize) -> usize {
        let lo = self.fanout_start[ni] as usize;
        let hi = self.fanout_start[ni + 1] as usize;
        let mut min_word = usize::MAX;
        for &lvl in &self.fanout_pos[lo..hi] {
            let lvl = lvl as usize;
            sc.pending[lvl >> 6] |= 1u64 << (lvl & 63);
            min_word = min_word.min(lvl >> 6);
        }
        min_word
    }

    /// Simulates one pass of up to `W::LANES` independent faults over
    /// one packed batch. `sites[j]` pairs a fault with the lane mask
    /// whose bits carry its real patterns: in wide mode that is the
    /// full batch mask (one fault, patterns in every lane), in
    /// fault-group mode lane *j* of the word carries fault *j*'s
    /// patterns and each mask selects one lane.
    ///
    /// Sets `detected[j]` iff any masked pattern detects fault *j*, and
    /// returns the number of (fault × combinational gate) evaluations
    /// the cone restriction and batching skipped.
    ///
    /// `sc.vals` must equal `good` on entry and is restored on exit.
    fn grade_group<W: SimWord>(
        &self,
        sc: &mut Scratch<W>,
        good: &[W],
        sites: &[(Fault, W)],
        detected: &mut [bool],
    ) -> u64 {
        debug_assert_eq!(sites.len(), detected.len());
        debug_assert!(sites.len() <= 32, "excitation bitmask is a u32");
        let budget = sites.len() as u64 * self.num_comb_gates;
        sc.sites.clear();
        let mut excited = 0u32;
        let mut remaining = 0usize;
        for (j, &(fault, mask)) in sites.iter().enumerate() {
            let ni = fault.net.index();
            detected[j] = false;
            if !self.fault_applies[ni] {
                // the scalar pass never assigns (and so never faults) this net
                continue;
            }
            // force only the bits carrying this fault's real patterns, so
            // phantom differences in unused bit lanes cannot propagate
            let forced = apply_fault(fault.kind, good[ni]);
            if !((forced ^ good[ni]) & mask).any() {
                // no masked pattern excites the fault: its lanes stay good
                continue;
            }
            excited |= 1 << j;
            if sc.vals[ni] == good[ni] {
                sc.touched.push(ni as u32);
            }
            // masks of a group are disjoint lanes, so same-net sites compose
            sc.vals[ni] = (sc.vals[ni] & !mask) | (forced & mask);
            sc.sites.push((ni as u32, fault.kind, mask));
            if self.is_output[ni] {
                detected[j] = true;
            } else {
                remaining += 1;
            }
        }
        if sc.sites.is_empty() {
            return budget;
        }
        let mut evaluated = 0u64;
        if remaining > 0 {
            let nwords = sc.pending.len();
            let mut w = usize::MAX;
            for s in 0..sc.sites.len() {
                let ni = sc.sites[s].0 as usize;
                w = w.min(self.push_fanout(sc, ni));
            }
            'cone: while w < nwords {
                let bits = sc.pending[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                sc.pending[w] = bits & (bits - 1);
                let pos = (w << 6) | bits.trailing_zeros() as usize;
                evaluated += 1;
                let g = &self.comb[pos];
                let oi = g.output.index();
                let mut new = eval_gate_w(g, &sc.vals);
                // a site sitting inside another fault's cone must stay
                // forced in its own lanes; sound because there the
                // recomputed lane value is exactly the good value
                for &(sn, kind, mask) in &sc.sites {
                    if sn as usize == oi {
                        new = (new & !mask) | (apply_fault(kind, new) & mask);
                    }
                }
                if new == sc.vals[oi] {
                    continue; // fault effects converged at this gate
                }
                if sc.vals[oi] == good[oi] {
                    sc.touched.push(oi as u32);
                }
                sc.vals[oi] = new;
                if self.is_output[oi] {
                    let diff = new ^ good[oi];
                    for (j, &(_, mask)) in sites.iter().enumerate() {
                        if excited & (1 << j) != 0 && !detected[j] && (diff & mask).any() {
                            detected[j] = true;
                            remaining -= 1;
                            if remaining == 0 {
                                // drop: every fault detected; the pushes
                                // ahead of the cursor are stale now
                                sc.pending[w..].fill(0);
                                break 'cone;
                            }
                        }
                    }
                }
                self.push_fanout(sc, oi);
            }
        }
        for &t in &sc.touched {
            sc.vals[t as usize] = good[t as usize];
        }
        sc.touched.clear();
        budget - evaluated
    }

    /// Generic grading core: chunks `patterns` by `W::BITS`. Chunks
    /// wider than 64 patterns run in *wide mode* (one fault per pass,
    /// patterns filling every lane); chunks of at most 64 patterns run
    /// in *fault-group mode* (up to `W::LANES` active faults share one
    /// pass, one per 64-bit sub-lane).
    fn grade_chunks<W: SimWord>(
        &self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        detected: &mut [bool],
    ) {
        assert_eq!(faults.len(), detected.len(), "detected/fault mismatch");
        let num_inputs = self.nl.inputs().len();
        let mut dropped = 0u64;
        let mut cone_skipped = 0u64;
        let mut graded = 0u64;
        seceda_trace::gauge("sim.lane_width", W::BITS as f64);
        for batch in patterns.chunks(W::BITS) {
            // one histogram sample per packed batch; batch cost shrinks
            // as fault dropping thins the active set
            let _batch_t = seceda_trace::hist_timer("sim.fault_batch_ns");
            graded += batch.len() as u64;
            seceda_trace::progress("sim.patterns_graded", graded);
            let active: Vec<u32> = (0..faults.len() as u32)
                .filter(|&k| !detected[k as usize])
                .collect();
            if active.is_empty() {
                break;
            }
            if batch.len() > 64 {
                // wide mode: patterns fill every lane, one fault per pass
                let words = pack_patterns_w::<W>(batch, num_inputs);
                let mut good = Vec::new();
                self.sim.eval_forced_into(&words, &[], &mut good);
                let mask = W::low_mask(batch.len());
                seceda_trace::gauge("sim.par_workers", par::workers_for(active.len()) as f64);
                let results = par::par_map_init(
                    &active,
                    || Scratch::new(&good, self.num_comb_gates as usize),
                    |sc, _, &k| {
                        let mut det = [false];
                        let skipped =
                            self.grade_group(sc, &good, &[(faults[k as usize], mask)], &mut det);
                        (det[0], skipped)
                    },
                );
                for (&k, &(det, skipped)) in active.iter().zip(&results) {
                    cone_skipped += skipped;
                    if det {
                        detected[k as usize] = true;
                        dropped += 1;
                    }
                }
            } else {
                // fault-group mode: each 64-bit sub-lane carries a
                // different active fault over the same patterns
                let words = pack_patterns(batch, num_inputs);
                let good64 = self.sim.eval(&words);
                let good: Vec<W> = good64.iter().map(|&g| W::broadcast(g)).collect();
                let m64 = batch_mask(batch.len());
                let groups: Vec<&[u32]> = active.chunks(W::LANES).collect();
                seceda_trace::gauge("sim.par_workers", par::workers_for(groups.len()) as f64);
                let results = par::par_map_init(
                    &groups,
                    || Scratch::new(&good, self.num_comb_gates as usize),
                    |sc, _, grp| {
                        let sites: Vec<(Fault, W)> = grp
                            .iter()
                            .enumerate()
                            .map(|(j, &k)| (faults[k as usize], W::ZERO.with_lane(j, m64)))
                            .collect();
                        let mut det = vec![false; grp.len()];
                        let skipped = self.grade_group(sc, &good, &sites, &mut det);
                        (det, skipped)
                    },
                );
                for (grp, (det, skipped)) in groups.iter().zip(&results) {
                    cone_skipped += skipped;
                    for (&k, &d) in grp.iter().zip(det) {
                        if d {
                            detected[k as usize] = true;
                            dropped += 1;
                        }
                    }
                }
            }
        }
        seceda_trace::counter("sim.faults_dropped", dropped);
        seceda_trace::counter("sim.cone_gates_skipped", cone_skipped);
    }

    /// Grades `patterns` against `faults`, updating `detected` in
    /// place: faults already marked detected are skipped (dropped), and
    /// each still-active fault is marked as soon as any pattern detects
    /// it. This is the incremental entry point ATPG uses as SAT
    /// patterns arrive.
    ///
    /// The final `detected` vector is bit-identical to the scalar
    /// reference grading all `patterns` against all `faults`.
    ///
    /// # Panics
    ///
    /// Panics if `detected` and `faults` differ in length or on pattern
    /// width mismatch.
    pub fn grade(&self, patterns: &[Vec<bool>], faults: &[Fault], detected: &mut [bool]) {
        self.grade_chunks::<Lane256>(patterns, faults, detected);
    }

    /// 64-lane reference grading path: identical semantics to
    /// [`PackedFaultSim::grade`] over plain `u64` words, kept for
    /// differential testing of the 256-bit engine.
    pub fn grade_u64(&self, patterns: &[Vec<bool>], faults: &[Fault], detected: &mut [bool]) {
        self.grade_chunks::<u64>(patterns, faults, detected);
    }

    /// Grades a pattern set against a fault list; returns, per fault,
    /// whether any pattern detects it, plus the overall coverage
    /// fraction. Drop-in packed replacement for the scalar
    /// [`crate::FaultSim::coverage_scalar`].
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch.
    pub fn coverage(&self, patterns: &[Vec<bool>], faults: &[Fault]) -> (Vec<bool>, f64) {
        self.coverage_with::<Lane256>(patterns, faults)
    }

    /// 64-lane reference of [`PackedFaultSim::coverage`], kept for
    /// differential testing of the 256-bit engine.
    pub fn coverage_u64(&self, patterns: &[Vec<bool>], faults: &[Fault]) -> (Vec<bool>, f64) {
        self.coverage_with::<u64>(patterns, faults)
    }

    fn coverage_with<W: SimWord>(
        &self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> (Vec<bool>, f64) {
        let mut sp = seceda_trace::span("sim.fault_coverage");
        sp.attr("patterns", patterns.len());
        sp.attr("faults", faults.len());
        sp.attr("engine", "packed");
        sp.attr("lane_bits", W::BITS);
        let mut detected = vec![false; faults.len()];
        self.grade_chunks::<W>(patterns, faults, &mut detected);
        let num_detected = detected.iter().filter(|&&d| d).count();
        let frac = if faults.is_empty() {
            1.0
        } else {
            num_detected as f64 / faults.len() as f64
        };
        seceda_trace::counter("sim.patterns_simulated", patterns.len() as u64);
        seceda_trace::counter("sim.faults_detected", num_detected as u64);
        sp.attr("coverage", frac);
        (detected, frac)
    }

    /// Returns `true` if `pattern` detects `fault`, reusing
    /// already-computed good packed values for that pattern (see
    /// [`PackedFaultSim::good_values`]).
    pub fn detects_given_good(&self, good: &[u64], fault: Fault) -> bool {
        let mut sc = Scratch::new(good, self.num_comb_gates as usize);
        let mut det = [false];
        self.grade_group(&mut sc, good, &[(fault, batch_mask(1))], &mut det);
        det[0]
    }

    /// Packed per-net good values of a single scalar pattern (bit 0
    /// carries the pattern; the other 63 lanes replicate pattern 0's
    /// zero-extension).
    ///
    /// # Panics
    ///
    /// Panics on input width mismatch.
    pub fn good_values(&self, pattern: &[bool]) -> Vec<u64> {
        let words = pack_patterns(
            std::slice::from_ref(&pattern.to_vec()),
            self.nl.inputs().len(),
        );
        self.sim.eval(&words)
    }

    /// Evaluates 64 patterns of the *faulty* circuit and returns the
    /// packed primary-output words: every fault forced in every lane by
    /// [`PackedSim::eval_forced_into`], which mirrors the scalar
    /// [`crate::FaultSim::eval_with_faults`] semantics bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on input width mismatch.
    pub fn eval_outputs_with_faults(&self, inputs: &[u64], faults: &[Fault]) -> Vec<u64> {
        let sites: Vec<(Fault, u64)> = faults.iter().map(|&f| (f, u64::MAX)).collect();
        let mut values = Vec::new();
        self.sim.eval_forced_into(inputs, &sites, &mut values);
        self.sim.outputs(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{stuck_at_universe, FaultSim};
    use seceda_netlist::{c17, CellKind, Netlist};

    #[test]
    fn packed_coverage_matches_scalar_on_c17() {
        let nl = c17();
        let scalar = FaultSim::new(&nl).expect("sim");
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        assert_eq!(
            packed.coverage(&patterns, &faults),
            scalar.coverage_scalar(&patterns, &faults)
        );
        assert_eq!(
            packed.coverage_u64(&patterns, &faults),
            scalar.coverage_scalar(&patterns, &faults)
        );
    }

    #[test]
    fn incremental_grading_equals_batch_grading() {
        let nl = c17();
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let (batch, _) = packed.coverage(&patterns, &faults);
        let mut incremental = vec![false; faults.len()];
        for p in &patterns {
            packed.grade(std::slice::from_ref(p), &faults, &mut incremental);
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn dff_output_faults_have_no_effect_like_scalar() {
        // q feeds an XOR with input a; scalar fault passes never assign q,
        // so a stuck-at-1 there is (quirkily) invisible — packed must agree
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let d = nl.add_net();
        let q = nl.add_gate(CellKind::Dff, &[d]);
        let y = nl.add_gate(CellKind::Xor, &[a, q]);
        nl.mark_output(y, "y");
        let scalar = FaultSim::new(&nl).expect("sim");
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let fault = Fault::stuck_at(q, true);
        let patterns = vec![vec![false], vec![true]];
        assert_eq!(
            packed.coverage(&patterns, &[fault]),
            scalar.coverage_scalar(&patterns, &[fault])
        );
        assert_eq!(packed.coverage(&patterns, &[fault]).0, vec![false]);
    }

    #[test]
    fn partial_batch_mask_hides_unused_lanes() {
        // a single pattern that does NOT detect the fault must stay
        // undetected even though unused lanes would have detected it
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let f = Fault::stuck_at(a, false);
        let (det, _) = packed.coverage(&[vec![true, false]], &[f]);
        assert_eq!(det, vec![false]);
        let (det, _) = packed.coverage(&[vec![true, true]], &[f]);
        assert_eq!(det, vec![true]);
    }

    #[test]
    fn fault_groups_attribute_detections_per_lane() {
        // a chain where faults have overlapping cones: fault A's site
        // feeds fault B's site, so the group pass must keep B forced in
        // its own lane while A's effect washes through the union cone
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(CellKind::And, &[a, b]);
        let g2 = nl.add_gate(CellKind::Or, &[g1, a]);
        let g3 = nl.add_gate(CellKind::Xor, &[g2, b]);
        nl.mark_output(g3, "y");
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let scalar = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        // <=64 patterns forces fault-group mode under Lane256
        assert_eq!(
            packed.coverage(&patterns, &faults),
            scalar.coverage_scalar(&patterns, &faults)
        );
    }

    #[test]
    fn wide_mode_matches_u64_above_64_patterns() {
        let nl = c17();
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        // 5-input circuit: replicate the 32 exhaustive patterns to cross
        // the 64-pattern wide-mode threshold (65..=255 exercises the
        // partial Lane256 mask)
        let base: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        for n in [65usize, 120, 255, 256] {
            let patterns: Vec<Vec<bool>> = (0..n).map(|i| base[i % base.len()].clone()).collect();
            assert_eq!(
                packed.coverage(&patterns, &faults),
                packed.coverage_u64(&patterns, &faults),
                "pattern count {n}"
            );
        }
    }

    #[test]
    fn packed_faulty_outputs_match_scalar_eval() {
        let nl = c17();
        let scalar = FaultSim::new(&nl).expect("sim");
        let packed = PackedFaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns, 5);
        for &f in faults.iter().take(8) {
            let outs = packed.eval_outputs_with_faults(&words, &[f]);
            for (p, pattern) in patterns.iter().enumerate() {
                let scalar_outs = scalar.outputs(&scalar.eval_with_faults(pattern, &[f]));
                for (o, &w) in outs.iter().enumerate() {
                    assert_eq!((w >> p) & 1 == 1, scalar_outs[o], "fault {f:?} p={p} o={o}");
                }
            }
        }
    }
}
