//! Structural design hashing: one 128-bit digest of a whole design.
//!
//! The digest ([`DesignDigest`]) absorbs the dense layout — every
//! gate's kind, tags, output index and input indices, in gate order —
//! and the interface: the primary-input list and the output list. Net
//! names are not part of it. The layout is *position-sensitive* on
//! purpose: the stochastic evaluators downstream (fault-shot selection,
//! random stimuli) draw from index-driven RNG streams, so two designs
//! share a digest only when those evaluators would behave
//! bit-identically. That is the cache-key contract of the closure loop
//! in `seceda-core`.
//!
//! Hashing is one linear pass over the gate array and the interface. It
//! never walks the graph, so it neither needs nor checks a topological
//! order: a combinational cycle is rejected by the evaluators that do
//! walk it.

use crate::cell::GateTags;
use crate::error::NetlistError;
use crate::netlist::Netlist;
use std::fmt;

/// SplitMix64 — the workspace's standard bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 128-bit whole-design digest (see [`StructuralHash::digest`]).
///
/// Equal digests are the cache-key contract of the incremental
/// composition engine: two design states with equal digests have the
/// same dense layout and the same interface, so every deterministic
/// evaluator produces bit-identical results on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignDigest(pub [u64; 2]);

impl fmt::Display for DesignDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Streaming 128-bit digest accumulator.
///
/// Absorption is order-sensitive, so the position of every absorbed
/// word is bound into the result without explicit index mixing. The two
/// lanes mix independently (SplitMix64 chaining and an FNV-style
/// multiply-accumulate), so a collision must defeat both at once.
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    lo: u64,
    hi: u64,
}

impl DigestBuilder {
    /// A fresh accumulator.
    pub fn new() -> Self {
        DigestBuilder {
            lo: 0x5ECE_DA00_0000_0001,
            hi: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Absorbs one word.
    pub fn absorb(&mut self, x: u64) {
        self.lo = mix64(self.lo ^ x);
        self.hi = self
            .hi
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(mix64(x ^ 0x9E37_79B9_7F4A_7C15));
    }

    /// Absorbs both lanes of a finished digest.
    pub fn absorb_digest(&mut self, d: DesignDigest) {
        self.absorb(d.0[0]);
        self.absorb(d.0[1]);
    }

    /// Finalizes with cross-lane avalanche.
    pub fn finish(&self) -> DesignDigest {
        DesignDigest([mix64(self.lo ^ self.hi), mix64(self.hi ^ mix64(self.lo))])
    }
}

impl Default for DigestBuilder {
    fn default() -> Self {
        DigestBuilder::new()
    }
}

/// The structural hash of one netlist: its whole-design digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralHash {
    digest: DesignDigest,
}

fn tag_bits(tags: GateTags) -> u64 {
    u64::from(tags.no_reassoc)
        | u64::from(tags.key_gate) << 1
        | u64::from(tags.monitor) << 2
        | u64::from(tags.tainted) << 3
        | u64::from(tags.redundancy) << 4
}

impl StructuralHash {
    /// Hashes a whole design in one linear pass over its gates and
    /// interface.
    ///
    /// # Errors
    ///
    /// Never returns an error; the `Result` is kept because `perfbench`
    /// calls this and propagates the error with `?`.
    pub fn of(nl: &Netlist) -> Result<Self, NetlistError> {
        let _t = seceda_trace::hist_timer("ir.hash_ns");
        let mut d = DigestBuilder::new();
        d.absorb(nl.num_nets() as u64);
        d.absorb(nl.num_gates() as u64);
        // layout: the dense gate array as the index-driven evaluators
        // see it (fault-shot selection picks gates by index)
        for g in nl.gates() {
            d.absorb(g.kind as u64 | tag_bits(g.tags) << 8);
            d.absorb(g.output.index() as u64);
            d.absorb(g.inputs.len() as u64);
            for &inp in &g.inputs {
                d.absorb(inp.index() as u64);
            }
        }
        // interface: stimulus width and output selection
        d.absorb(nl.inputs().len() as u64);
        for &pi in nl.inputs() {
            d.absorb(pi.index() as u64);
        }
        d.absorb(nl.outputs().len() as u64);
        for &(n, _) in nl.outputs() {
            d.absorb(n.index() as u64);
        }
        Ok(StructuralHash { digest: d.finish() })
    }

    /// The whole-design digest.
    pub fn digest(&self) -> DesignDigest {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn digest(nl: &Netlist) -> DesignDigest {
        StructuralHash::of(nl).expect("hash").digest()
    }

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("ha");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_gate(CellKind::Xor, &[a, b]);
        let c = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(s, "s");
        nl.mark_output(c, "c");
        nl
    }

    #[test]
    fn identical_builds_share_every_fingerprint() {
        let h1 = StructuralHash::of(&half_adder()).expect("hash");
        let h2 = StructuralHash::of(&half_adder()).expect("hash");
        assert_eq!(h1, h2);
        assert_eq!(h1.digest(), h2.digest());
    }

    #[test]
    fn internal_net_names_do_not_affect_the_digest() {
        let mut named = half_adder();
        let int = named.gates()[0].output;
        named.set_net_name(int, "sum_wire");
        assert_eq!(digest(&named), digest(&half_adder()));
    }

    #[test]
    fn operand_order_moves_the_digest() {
        // the digest binds the literal layout: the index-driven
        // evaluators see different input lists
        let mut ab = Netlist::new("t");
        let a = ab.add_input("a");
        let b = ab.add_input("b");
        ab.add_gate(CellKind::And, &[a, b]);
        let mut ba = Netlist::new("t");
        let a2 = ba.add_input("a");
        let b2 = ba.add_input("b");
        ba.add_gate(CellKind::And, &[b2, a2]);
        assert_ne!(digest(&ab), digest(&ba));
    }

    #[test]
    fn mux_pin_order_is_significant() {
        let mut m1 = Netlist::new("m");
        let s = m1.add_input("s");
        let a = m1.add_input("a");
        let b = m1.add_input("b");
        m1.add_gate(CellKind::Mux, &[s, a, b]);
        let mut m2 = Netlist::new("m");
        let s2 = m2.add_input("s");
        let a2 = m2.add_input("a");
        let b2 = m2.add_input("b");
        m2.add_gate(CellKind::Mux, &[s2, b2, a2]);
        assert_ne!(digest(&m1), digest(&m2));
    }

    #[test]
    fn tags_distinguish_otherwise_equal_gates() {
        let mut plain = Netlist::new("t");
        let a = plain.add_input("a");
        plain.add_gate(CellKind::Not, &[a]);
        let mut tagged = Netlist::new("t");
        let a2 = tagged.add_input("a");
        tagged.add_gate_tagged(
            CellKind::Not,
            &[a2],
            GateTags {
                key_gate: true,
                ..GateTags::default()
            },
        );
        assert_ne!(digest(&plain), digest(&tagged));
    }

    #[test]
    fn a_splice_moves_the_digest() {
        let mut nl = half_adder();
        let before = digest(&nl);
        let target = nl.gates()[0].output;
        nl.insert_after(target, CellKind::Not, &[], GateTags::default());
        let after = digest(&nl);
        assert_ne!(after, before);
        assert_eq!(after, digest(&nl.clone()));
    }

    #[test]
    fn splice_sequence_on_a_chain_is_distinct_and_replayable() {
        // chain: a -> n1 -> n2 -> n3, plus an independent b -> m1
        let chain = || {
            let mut nl = Netlist::new("chain");
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let n1 = nl.add_gate(CellKind::Not, &[a]);
            let n2 = nl.add_gate(CellKind::Not, &[n1]);
            let n3 = nl.add_gate(CellKind::Not, &[n2]);
            let m1 = nl.add_gate(CellKind::Not, &[b]);
            nl.mark_output(n3, "y");
            nl.mark_output(m1, "z");
            (nl, [n1, m1, n2])
        };
        let splice_all = || -> Vec<DesignDigest> {
            let (mut nl, targets) = chain();
            let mut digests = vec![digest(&nl)];
            for target in targets {
                nl.insert_after(target, CellKind::Buf, &[], GateTags::default());
                digests.push(digest(&nl));
            }
            digests
        };
        let digests = splice_all();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "states {i} and {j} collided");
            }
        }
        assert_eq!(
            digests,
            splice_all(),
            "replaying the splices must reproduce"
        );
    }

    #[test]
    fn sequential_designs_hash_without_traversing_state_loops() {
        // 1-bit toggle counter with a feedback loop through a DFF
        let mut nl = Netlist::new("toggle");
        let one = nl.add_gate(CellKind::Const1, &[]);
        let q_net = nl.add_net();
        let next = nl.add_gate(CellKind::Xor, &[q_net, one]);
        let q = nl.add_gate(CellKind::Dff, &[next]);
        let gid = nl.net(next).driver.expect("driver");
        nl.gate_mut(gid).inputs[0] = q;
        nl.mark_output(q, "q");
        assert_eq!(digest(&nl), digest(&nl.clone()));
    }

    #[test]
    fn digest_display_is_32_hex_chars() {
        let s = digest(&half_adder()).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
