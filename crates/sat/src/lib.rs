//! # seceda-sat
//!
//! A from-scratch CDCL SAT solver plus netlist-to-CNF encoding, built as
//! the reasoning substrate for the `seceda` toolkit.
//!
//! Verification-driven security schemes all reduce to satisfiability:
//! equivalence checking of locked/camouflaged logic, the oracle-guided
//! SAT attack on logic locking \[33\], SAT-based ATPG, and bounded model
//! checking. The paper (Sec. III-D) explicitly calls for EDA flows that
//! "mimic attackers leveraging satisfiability-based tools".
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched
//!   literals, heap-ordered VSIDS activities, learned-clause database
//!   reduction, conflict-clause minimization, phase saving, Luby
//!   restarts, and incremental solving under assumptions with on-the-fly
//!   variable/clause addition;
//! * [`Portfolio`] — K heuristic-diversified solvers ([`SolverConfig`])
//!   racing each query with first-answer-wins cooperative cancellation
//!   and winner-to-siblings glue-clause sharing;
//! * [`Cnf`] / [`Lit`] / [`Var`] — formula representation;
//! * [`CnfBuilder`] — the clause-sink trait shared by [`Cnf`] and
//!   [`Solver`], so encodings can target a live solver incrementally;
//! * [`aig`] — the one netlist encoder: netlists lower into a
//!   structurally-hashed AND/XOR node table (constant propagation,
//!   two-level XOR re-discovery), then to CNF through a persistent
//!   node→literal map, so repeated encodings of shared logic — the two
//!   copies of an equivalence or SAT-attack miter, per-DIP observation
//!   circuits, per-fault cones — emit each distinct node exactly once.
//!   Equivalence, BMC, ATPG, formal fault coverage and the SAT attack
//!   all reach CNF this way.
//!
//! # Example
//!
//! ```
//! use seceda_sat::{Cnf, Solver, SatResult};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([a.pos(), b.pos()]);
//! cnf.add_clause([a.neg()]);
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SatResult::Sat(model) => assert!(model[b.index()]),
//!     SatResult::Unsat => unreachable!(),
//! }
//! ```

pub mod aig;

mod budget;
mod cnf;
mod encode;
mod portfolio;
mod solver;

pub use aig::{lower_fault_cone, lower_netlist, output_edges, Aig, AigCnf, AigLit};
pub use budget::{Budget, SolveOutcome, StopReason};
pub use cnf::{Cnf, CnfBuilder, Lit, Var};
pub use portfolio::Portfolio;
pub use solver::{SatResult, Solver, SolverConfig};
