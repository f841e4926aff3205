//! Relevant slices are a function of the program alone: two sessions over
//! one program produce the same slices, in the same order, and so do the
//! same Andersen work. Hash-ordered slices once made
//! `analyses.andersen_pops` and the wave rounds vary between processes
//! (and between sessions of one process).

use bootstrap_alias::core::relevant::relevant_statements_indexed;
use bootstrap_alias::core::{Config, Session};
use bootstrap_alias::ir::Loc;
use bootstrap_alias::workloads::presets;

#[test]
fn two_sessions_slice_and_solve_identically() {
    let program = presets::by_name("autofs").expect("known preset").generate();
    let a = Session::new(&program, Config::default());
    let b = Session::new(&program, Config::default());
    assert!(a.solver_stats().pops > 0, "autofs refines a partition");
    assert_eq!(a.solver_stats(), b.solver_stats());
    let slice = |s: &Session<'_>, members| -> Vec<Loc> {
        relevant_statements_indexed(&program, s.steens(), s.relevant_index(), members)
            .stmts()
            .collect()
    };
    for cluster in a.cover().clusters() {
        let stmts = slice(&a, &cluster.members);
        assert!(stmts.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
        assert_eq!(stmts, slice(&b, &cluster.members));
    }
}
