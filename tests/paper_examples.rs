//! End-to-end reproduction of the paper's figure-level claims, at the
//! public API level.

use bootstrap_alias::analyses::{andersen, steensgaard};
use bootstrap_alias::core::{relevant_statements, AnalysisBudget, Config, Session};
use bootstrap_alias::ir::{Stmt, VarId};
use bootstrap_alias::workloads::figures;

fn var(p: &bootstrap_alias::ir::Program, n: &str) -> VarId {
    p.var_named(n).unwrap_or_else(|| panic!("missing var {n}"))
}

/// Figure 2: Steensgaard's graph has one node {p,q,r} -> {a,b,c};
/// Andersen's graph gives q out-degree three while p and r stay precise.
#[test]
fn figure2_graph_shapes() {
    let p = figures::parse_figure(figures::FIG2);
    let st = steensgaard::analyze(&p);
    assert_eq!(st.class_of(var(&p, "p")), st.class_of(var(&p, "q")));
    assert_eq!(st.class_of(var(&p, "q")), st.class_of(var(&p, "r")));
    assert_eq!(st.class_of(var(&p, "a")), st.class_of(var(&p, "b")));
    assert_eq!(st.class_of(var(&p, "b")), st.class_of(var(&p, "c")));
    assert_eq!(
        st.pointee(st.class_of(var(&p, "p"))),
        Some(st.class_of(var(&p, "a")))
    );

    let an = andersen::analyze(&p);
    assert_eq!(an.points_to_vars(var(&p, "p")).len(), 1);
    assert_eq!(an.points_to_vars(var(&p, "q")).len(), 3);
    assert_eq!(an.points_to_vars(var(&p, "r")).len(), 1);

    // The Andersen clusters of the {p,q,r} partition are strictly smaller
    // than the partition itself.
    let pointers = vec![var(&p, "p"), var(&p, "q"), var(&p, "r")];
    let clusters = an.clusters(&pointers);
    assert!(clusters.iter().all(|c| c.members.len() <= 2));
    assert_eq!(clusters.len(), 3);
}

/// Figure 3: `3a: p = x` is not in St_{a,b}; 1a/2a/4a are.
#[test]
fn figure3_relevant_statement_slice() {
    let p = figures::parse_figure(figures::FIG3);
    let st = steensgaard::analyze(&p);
    let rel = relevant_statements(&p, &st, &[var(&p, "a"), var(&p, "b")]);
    assert!(!rel.contains_var(var(&p, "p")));
    let main = p.func(p.func_named("main").unwrap());
    let mut relevant_kinds = Vec::new();
    for (loc, stmt) in main.locs() {
        if stmt.is_pointer_assign() {
            relevant_kinds.push((rel.contains_stmt(loc), stmt.clone()));
        }
    }
    // Exactly one pointer assignment (p = x) is excluded.
    let excluded: Vec<_> = relevant_kinds.iter().filter(|(r, _)| !r).collect();
    assert_eq!(excluded.len(), 1);
    assert!(
        matches!(excluded[0].1, Stmt::Copy { dst, .. } if dst == var(&p, "p")),
        "only 3a: p = x is irrelevant"
    );
}

/// Figure 4: the maximally complete update sequence for `a` traces back to
/// `c`'s entry value through the store `*x = b` (the complete sequence
/// `4a` alone would stop at `b`).
#[test]
fn figure4_maximal_completion() {
    let p = figures::parse_figure(figures::FIG4);
    let session = Session::new(&p, Config::default());
    let az = session.analyzer();
    let exit = p.entry().unwrap().exit();
    let mut budget = AnalysisBudget::unlimited();
    let sources = az.sources(var(&p, "a"), exit, &mut budget).unwrap();
    let names: Vec<String> = sources.iter().map(|(s, _)| s.display(&p)).collect();
    assert!(
        names.contains(&"entry(c)".to_string()),
        "maximal completion must reach c, got {names:?}"
    );
    // And b's own value at the point of the store is also c's entry value,
    // so b and a may alias at exit.
    assert!(az.may_alias(var(&p, "a"), var(&p, "b"), exit).unwrap());
}

/// Figure 5: foo's summary for x is exactly (x, exit, w, true); z at 6a
/// resolves to u; bar never contributes to P1.
#[test]
fn figure5_summaries_and_splicing() {
    let p = figures::parse_figure(figures::FIG5);
    let session = Session::new(&p, Config::default());
    let az = session.analyzer();

    // Summary of foo for x.
    let x = var(&p, "x");
    let key = session.steens().partition_key(x);
    let engine = az.engine_for(key);
    let cx = bootstrap_alias::core::EngineCx {
        program: session.program(),
        steens: session.steens(),
        cg: session.callgraph(),
        index: session.relevant_index(),
    };
    let foo = p.func_named("foo").unwrap();
    let tuples = engine
        .borrow_mut()
        .exit_summary(cx, foo, x, &az, &mut AnalysisBudget::unlimited())
        .unwrap();
    assert_eq!(tuples.len(), 1);
    assert_eq!(
        tuples[0].value,
        bootstrap_alias::core::Value::Ptr(var(&p, "w"))
    );
    assert!(tuples[0].cond.is_top());

    // z at main's exit resolves to u's entry value (the paper's (z,6a,u,true)).
    let exit = p.entry().unwrap().exit();
    let mut budget = AnalysisBudget::unlimited();
    let sources = az.sources(var(&p, "z"), exit, &mut budget).unwrap();
    let names: Vec<String> = sources.iter().map(|(s, _)| s.display(&p)).collect();
    assert_eq!(names, vec!["entry(u)".to_string()]);

    // bar contains no relevant statement for P1 = {x, u, w, z}.
    let rel = relevant_statements(
        &p,
        session.steens(),
        &[x, var(&p, "u"), var(&p, "w"), var(&p, "z")],
    );
    assert!(!rel.touches_func(p.func_named("bar").unwrap()));
    assert!(rel.touches_func(foo));
}

/// Theorem 6 on the figures: analyzing a partition against its slice
/// `St_P` produces the same alias verdicts as analyzing it against the
/// whole program (here checked via the cover-driven alias sets being
/// consistent with whole-program Andersen).
#[test]
fn theorem6_slicing_preserves_aliases_on_figures() {
    for (_, src) in figures::all() {
        let p = figures::parse_figure(src);
        let an = andersen::analyze(&p);
        let session = Session::new(&p, Config::default());
        let az = session.analyzer();
        let exit = p.entry().unwrap().exit();
        let pointers: Vec<VarId> = session.pointers().to_vec();
        let mut budget = AnalysisBudget::unlimited();
        for &a in &pointers {
            for &b in &pointers {
                if a >= b {
                    continue;
                }
                // FSCS must be at least as precise as Andersen on
                // *object-backed* aliases (Andersen has no notion of
                // entry-value aliasing, so compare Addr sources only).
                let sa = az.sources(a, exit, &mut budget).unwrap();
                let sb = az.sources(b, exit, &mut budget).unwrap();
                let addr_alias = sa.iter().any(|(s1, _)| {
                    matches!(s1, bootstrap_alias::core::Source::Addr(_))
                        && sb.iter().any(|(s2, _)| s1 == s2)
                });
                if addr_alias {
                    assert!(
                        an.may_alias(a, b),
                        "FSCS reported an alias Andersen rules out: {} / {}",
                        p.var(a).name(),
                        p.var(b).name()
                    );
                }
            }
        }
    }
}

/// The paper's cover property: any two pointers that may alias share a
/// cluster of the session's cover (Theorems 6/7).
#[test]
fn cover_contains_all_andersen_alias_pairs_on_figures() {
    for (name, src) in figures::all() {
        let p = figures::parse_figure(src);
        let an = andersen::analyze(&p);
        let session = Session::new(&p, Config::default());
        let pointers: Vec<VarId> = session.pointers().to_vec();
        for &a in &pointers {
            for &b in &pointers {
                if a >= b || !an.may_alias(a, b) {
                    continue;
                }
                let shares = session
                    .cover()
                    .clusters_containing(a)
                    .any(|c| c.contains(b));
                assert!(
                    shares,
                    "{name}: aliasing pair {}/{} not covered by any cluster",
                    p.var(a).name(),
                    p.var(b).name()
                );
            }
        }
    }
}
