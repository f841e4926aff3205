//! Soundness oracle: a concrete nondeterministic interpreter over the
//! four-form IR.
//!
//! Every final store reachable by actually executing the program (all
//! branch outcomes explored, loops folded by state deduplication, bounded
//! recursion) yields ground-truth alias facts. The analysis must predict
//! every one of them:
//!
//! * if `p` holds `&o` in some execution, `Addr(o)` must be among the
//!   engine's sources for `p` (Theorem 5 completeness);
//! * if `p` and `q` hold the same address, `may_alias(p, q)` must be true;
//! * Andersen and Steensgaard must also cover the pair, and the session
//!   cover must have a cluster containing both (the cover property).

use std::collections::{BTreeMap, HashSet, VecDeque};

use bootstrap_alias::analyses::{andersen, steensgaard};
use bootstrap_alias::core::{AnalysisBudget, Config, Session, Source};
use bootstrap_alias::ir::{CallTarget, Loc, Program, Stmt, StmtIdx, VarId};
use bootstrap_alias::workloads::{figures, generator, BigPartition, GenConfig};

/// A concrete pointer value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CVal {
    /// Address of an object.
    Addr(u32),
    /// The null value.
    Null,
    /// The value the named variable held at program entry.
    Entry(u32),
    /// An unanalyzable value (e.g. read through a non-address); never
    /// aliases anything in the oracle.
    Junk,
}

type Store = BTreeMap<u32, CVal>;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    loc: Loc,
    stack: Vec<Loc>, // return locations
    store: Store,
    /// Truthiness assumed for opaque condition values (program-entry
    /// values), so that two branches testing the same unmodified variable
    /// stay consistent along one execution — the correlation the
    /// path-sensitive mode exploits.
    assumptions: BTreeMap<CVal, bool>,
}

/// Explores every execution of `program` from `main`, returning the set of
/// final stores at main's exit. `None` if the state cap was hit (the test
/// then skips the program rather than reporting partial ground truth as
/// complete — though even partial truths must be predicted, we keep the
/// accounting simple).
fn run_concrete(program: &Program, max_states: usize) -> Option<Vec<Store>> {
    let entry = program.entry()?;
    let mut finals = Vec::new();
    let mut queue = VecDeque::new();
    let mut seen = HashSet::new();
    let init = State {
        loc: entry.entry(),
        stack: Vec::new(),
        store: Store::new(),
        assumptions: BTreeMap::new(),
    };
    queue.push_back(init);
    let mut states = 0usize;
    while let Some(state) = queue.pop_front() {
        if !seen.insert(state.clone()) {
            continue;
        }
        states += 1;
        if states > max_states {
            return None;
        }
        let func = program.func(state.loc.func);
        let read = |store: &Store, v: VarId| {
            store
                .get(&(v.index() as u32))
                .copied()
                .unwrap_or(CVal::Entry(v.index() as u32))
        };
        let mut next_store = state.store.clone();
        let mut jump_to: Option<(Loc, Vec<Loc>)> = None;
        match func.stmt(state.loc.stmt) {
            Stmt::Copy { dst, src } => {
                let v = read(&state.store, *src);
                next_store.insert(dst.index() as u32, v);
            }
            Stmt::AddrOf { dst, obj } => {
                next_store.insert(dst.index() as u32, CVal::Addr(obj.index() as u32));
            }
            Stmt::Null { dst } | Stmt::Free { dst } => {
                next_store.insert(dst.index() as u32, CVal::Null);
            }
            Stmt::Load { dst, src } => {
                let v = match read(&state.store, *src) {
                    CVal::Addr(o) => state.store.get(&o).copied().unwrap_or(CVal::Entry(o)),
                    _ => CVal::Junk,
                };
                next_store.insert(dst.index() as u32, v);
            }
            Stmt::Store { dst, src } => {
                if let CVal::Addr(o) = read(&state.store, *dst) {
                    let v = read(&state.store, *src);
                    next_store.insert(o, v);
                }
            }
            Stmt::Call(call) => {
                if let CallTarget::Direct(g) = call.target {
                    if state.stack.len() < 8 {
                        let ret_to = Loc::new(state.loc.func, state.loc.stmt);
                        let mut stack = state.stack.clone();
                        stack.push(ret_to);
                        jump_to = Some((program.func(g).entry(), stack));
                    }
                    // Too-deep recursion: treated as a skip (the analysis
                    // over-approximates this, which is the sound direction
                    // for the oracle).
                }
            }
            // The oracle checks the per-thread sequential semantics the
            // analyses compute: a spawned thread's effects are not folded
            // into the spawner (they are analyzed from the spawned
            // function's own entry), and lock/unlock do not touch values.
            Stmt::Spawn(_) | Stmt::Lock { .. } | Stmt::Unlock { .. } => {}
            Stmt::Return | Stmt::Skip => {}
        }
        if let Some((loc, stack)) = jump_to {
            queue.push_back(State {
                loc,
                stack,
                store: next_store,
                assumptions: state.assumptions.clone(),
            });
            continue;
        }
        let exit = func.exit().stmt;
        let at_exit_like = state.loc.stmt == exit;
        if at_exit_like {
            match state.stack.last() {
                Some(&ret_to) => {
                    let mut stack = state.stack.clone();
                    stack.pop();
                    // Resume at the successors of the call statement.
                    let caller = program.func(ret_to.func);
                    for &s in caller.succs(ret_to.stmt) {
                        queue.push_back(State {
                            loc: Loc::new(ret_to.func, s),
                            stack: stack.clone(),
                            store: next_store.clone(),
                            assumptions: state.assumptions.clone(),
                        });
                    }
                }
                None => finals.push(next_store.clone()),
            }
            continue;
        }
        let succs: Vec<StmtIdx> = match func.stmt(state.loc.stmt) {
            Stmt::Return => vec![exit],
            _ => func.succs(state.loc.stmt).to_vec(),
        };
        // Branches testing a plain variable follow its concrete value:
        // addresses are truthy, NULL is falsy, opaque entry values fork
        // once and stay consistent afterwards.
        let branch_var = func
            .branch_cond(state.loc.stmt)
            .filter(|_| succs.len() == 2);
        let arms: Vec<(StmtIdx, Option<(CVal, bool)>)> = match branch_var {
            Some(v) => match read(&next_store, v) {
                CVal::Addr(_) => vec![(succs[0], None)],
                CVal::Null => vec![(succs[1], None)],
                val @ CVal::Entry(_) => match state.assumptions.get(&val) {
                    Some(true) => vec![(succs[0], None)],
                    Some(false) => vec![(succs[1], None)],
                    None => vec![
                        (succs[0], Some((val, true))),
                        (succs[1], Some((val, false))),
                    ],
                },
                CVal::Junk => succs.iter().map(|&s| (s, None)).collect(),
            },
            None => succs.iter().map(|&s| (s, None)).collect(),
        };
        for (s, assume) in arms {
            let mut assumptions = state.assumptions.clone();
            if let Some((val, truth)) = assume {
                assumptions.insert(val, truth);
            }
            queue.push_back(State {
                loc: Loc::new(state.loc.func, s),
                stack: state.stack.clone(),
                store: next_store.clone(),
                assumptions,
            });
        }
    }
    Some(finals)
}

/// Checks every concrete alias fact against the analysis stack.
fn check_program(program: &Program, label: &str) {
    check_program_with(program, label, Config::default());
    // The path-sensitive mode prunes paths; it must never prune a feasible
    // one, so the same ground truth applies.
    check_program_with(
        program,
        &format!("{label}/path-sensitive"),
        Config {
            path_sensitive: true,
            ..Config::default()
        },
    );
}

fn check_program_with(program: &Program, label: &str, config: Config) {
    let finals = match run_concrete(program, 60_000) {
        Some(f) => f,
        None => panic!("{label}: state cap hit; shrink the test program"),
    };
    assert!(!finals.is_empty(), "{label}: no terminating execution");

    let session = Session::new(program, config);
    let az = session.analyzer();
    let an = andersen::analyze(program);
    let st = steensgaard::analyze(program);
    let exit = program.entry().unwrap().exit();
    let mut budget = AnalysisBudget::unlimited();

    let pointers: HashSet<u32> = session
        .pointers()
        .iter()
        .map(|v| v.index() as u32)
        .collect();

    for store in &finals {
        // Source completeness: a concretely held address must be a
        // predicted source.
        for (&v, &val) in store {
            if !pointers.contains(&v) {
                continue;
            }
            let var = VarId::new(v as usize);
            if let CVal::Addr(o) = val {
                let srcs = az.sources(var, exit, &mut budget).unwrap();
                let obj = VarId::new(o as usize);
                assert!(
                    srcs.iter().any(|(s, _)| *s == Source::Addr(obj)),
                    "{label}: {} concretely holds &{} at exit but sources are {:?}",
                    program.var(var).name(),
                    program.var(obj).name(),
                    srcs.iter()
                        .map(|(s, _)| s.display(program))
                        .collect::<Vec<_>>()
                );
                // Andersen must also know.
                assert!(
                    an.points_to_vars(var).contains(&obj),
                    "{label}: Andersen missed {} -> {}",
                    program.var(var).name(),
                    program.var(obj).name()
                );
                // Steensgaard: the object must be in the pointee class.
                assert_eq!(
                    st.pointee(st.class_of(var)),
                    Some(st.class_of(obj)),
                    "{label}: Steensgaard pointee class mismatch for {}",
                    program.var(var).name()
                );
            }
        }
        // Alias completeness.
        let held: Vec<(u32, CVal)> = store
            .iter()
            .filter(|(v, val)| pointers.contains(v) && matches!(val, CVal::Addr(_)))
            .map(|(v, val)| (*v, *val))
            .collect();
        for (i, &(p, vp)) in held.iter().enumerate() {
            for &(q, vq) in &held[i + 1..] {
                if vp != vq {
                    continue;
                }
                let (pv, qv) = (VarId::new(p as usize), VarId::new(q as usize));
                assert!(
                    az.may_alias(pv, qv, exit).unwrap(),
                    "{label}: missed concrete alias {} / {}",
                    program.var(pv).name(),
                    program.var(qv).name()
                );
                assert!(
                    session
                        .cover()
                        .clusters_containing(pv)
                        .any(|c| c.contains(qv)),
                    "{label}: cover misses aliasing pair {} / {}",
                    program.var(pv).name(),
                    program.var(qv).name()
                );
            }
        }
    }
}

#[test]
fn figures_are_sound() {
    for (name, src) in figures::all() {
        let p = figures::parse_figure(src);
        check_program(&p, name);
    }
}

#[test]
fn tricky_handwritten_programs_are_sound() {
    let programs = [
        (
            "double_indirection",
            "int a; int b; int *x; int *y; int **z;
             void main() { x = &a; z = &x; *z = &b; y = *z; }",
        ),
        (
            "branchy_stores",
            "int a; int b; int c0; int *x; int *y; int **z;
             void main() {
                 if (c0) { z = &x; } else { z = &y; }
                 *z = &a;
                 if (c0) { *z = &b; }
             }",
        ),
        (
            "loop_rotation",
            "int a; int b; int c0; int *x; int *y;
             void main() {
                 x = &a; y = &b;
                 while (c0) { int *t; t = x; x = y; y = t; }
             }",
        ),
        (
            "call_chain_with_kill",
            "int a; int b; int *g;
             void set_a() { g = &a; }
             void set_b() { g = &b; }
             void main() { set_a(); set_b(); }",
        ),
        (
            "recursion_flip",
            "int a; int b; int c0; int *x;
             void rec() { if (c0) { x = &a; rec(); x = &b; } }
             void main() { rec(); }",
        ),
        (
            "free_then_realloc",
            "int a; int *x; int *y;
             void main() { x = &a; free(x); y = malloc(4); x = y; }",
        ),
        (
            "aliasing_through_param",
            "int a; int *g; int *h;
             void dup(int *v) { g = v; h = v; }
             void main() { dup(&a); }",
        ),
        (
            "store_through_param",
            "int a; int *x; int **slot;
             void put(int *v) { *slot = v; }
             void main() { slot = &x; put(&a); }",
        ),
    ];
    for (name, src) in programs {
        let p = bootstrap_alias::ir::parse_program(src).unwrap();
        check_program(&p, name);
    }
}

#[test]
fn generated_programs_are_sound() {
    // Small generated workloads across several seeds; interpreter state
    // deduplication keeps the exploration finite despite loops.
    for seed in [1u64, 2, 3, 4, 5] {
        let config = GenConfig {
            name: format!("sound{seed}"),
            seed,
            n_funcs: 5,
            big_partitions: vec![BigPartition {
                size: 10,
                andersen_max: 4,
            }],
            small_partitions: 4,
            small_max: 3,
            singletons: 1,
            call_percent: 25,
            churn_communities: 0,
            control_flow: true,
        };
        let p = generator::generate(&config);
        check_program(&p, &config.name);
    }
}

/// Every concrete execution's alias pairs must also hold in the matching
/// calling context (context-sensitive queries are still may-queries).
#[test]
fn context_sensitive_queries_are_sound_on_single_context() {
    let src = "int a; int *g;
         void set(int *v) { g = v; }
         void main() { set(&a); }";
    let p = bootstrap_alias::ir::parse_program(src).unwrap();
    let session = Session::new(&p, Config::default());
    let az = session.analyzer();
    let set = p.func_named("set").unwrap();
    let cs = session.callers_of(set)[0];
    let set_exit = p.func(set).exit();
    let g = p.var_named("g").unwrap();
    let v = p.var_named("set::v").unwrap();
    // In the only context, g and v both hold &a at set's exit.
    let alias = az
        .may_alias_in_context(g, v, set_exit, &[cs])
        .unwrap()
        .unwrap();
    assert!(alias);
}

#[test]
fn interpreter_smoke_check() {
    // Trivial program: x = &a on the only path.
    let p = bootstrap_alias::ir::parse_program("int a; int *x; void main() { x = &a; }").unwrap();
    let finals = run_concrete(&p, 10_000).unwrap();
    assert_eq!(finals.len(), 1);
    let x = p.var_named("x").unwrap().index() as u32;
    let a = p.var_named("a").unwrap().index() as u32;
    assert_eq!(finals[0].get(&x), Some(&CVal::Addr(a)));
}
