//! Equivalence test for the thread-escape analysis.
//!
//! [`escape::analyze`] answers loop membership from one SCC pass per
//! function, recursion from one SCC pass over invocation edges, and keeps a
//! saturating {none, one thread, many} access state per variable. This
//! test keeps the direct formulation as an oracle — a DFS per invoking site
//! and per function, and the full per-variable thread set — and asserts
//! that both agree on every thread, every function's thread set and the
//! escaped variables of generated concurrent programs.

use std::collections::HashSet;

use bootstrap_analyses::{escape, steensgaard};
use bootstrap_ir::{parse_program, CallTarget, FuncId, Loc, Program, Stmt, VarId, VarKind};
use bootstrap_workloads::minic::{self, MiniCConfig};

/// The oracle's answer: `(entry, spawn_site, multi)` per thread, thread
/// set per function, escaped variables.
type Answer = (Vec<(FuncId, Option<Loc>, bool)>, Vec<Vec<u32>>, Vec<VarId>);

fn oracle(program: &Program, pts: impl Fn(VarId) -> Vec<VarId>) -> Answer {
    let n_funcs = program.func_count();
    let n_vars = program.var_count();
    let targets_of = |target: &CallTarget| -> Vec<FuncId> {
        match *target {
            CallTarget::Direct(g) => vec![g],
            CallTarget::Indirect(fp) => {
                let mut out: Vec<FuncId> = pts(fp)
                    .into_iter()
                    .filter_map(|o| match program.var(o).kind() {
                        VarKind::FuncObj(g) => Some(*g),
                        _ => None,
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    };
    let mut call_edges: Vec<Vec<FuncId>> = vec![Vec::new(); n_funcs];
    let mut invoking_sites: Vec<Vec<Loc>> = vec![Vec::new(); n_funcs];
    let mut spawns: Vec<(Loc, FuncId)> = Vec::new();
    for func in program.functions() {
        for (loc, stmt) in func.locs() {
            match stmt {
                Stmt::Call(c) => {
                    for g in targets_of(&c.target) {
                        call_edges[func.id().index()].push(g);
                        invoking_sites[g.index()].push(loc);
                    }
                }
                Stmt::Spawn(c) => {
                    for g in targets_of(&c.target) {
                        spawns.push((loc, g));
                        invoking_sites[g.index()].push(loc);
                    }
                }
                _ => {}
            }
        }
    }
    spawns.sort_unstable_by_key(|(loc, g)| (loc.func, loc.stmt, *g));
    let mut threads: Vec<(FuncId, Option<Loc>, bool)> = Vec::new();
    if let Some(e) = program.entry() {
        threads.push((e.id(), None, false));
    }
    for &(loc, g) in &spawns {
        threads.push((g, Some(loc), false));
    }

    let mut func_threads: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
    let mut work: Vec<(FuncId, u32)> = threads
        .iter()
        .enumerate()
        .map(|(tid, t)| (t.0, tid as u32))
        .collect();
    while let Some((f, tid)) = work.pop() {
        let set = &mut func_threads[f.index()];
        if set.contains(&tid) {
            continue;
        }
        set.push(tid);
        for &g in &call_edges[f.index()] {
            work.push((g, tid));
        }
    }
    for set in &mut func_threads {
        set.sort_unstable();
    }

    let in_cycle = |loc: Loc| -> bool {
        let func = program.func(loc.func);
        let mut seen = HashSet::new();
        let mut stack: Vec<u32> = func.succs(loc.stmt).to_vec();
        while let Some(s) = stack.pop() {
            if s == loc.stmt {
                return true;
            }
            if seen.insert(s) {
                stack.extend_from_slice(func.succs(s));
            }
        }
        false
    };
    let mut exec_multi: Vec<bool> = invoking_sites.iter().map(|s| s.len() >= 2).collect();
    let mut invoke_edges: Vec<Vec<FuncId>> = call_edges.clone();
    for &(loc, g) in &spawns {
        invoke_edges[loc.func.index()].push(g);
    }
    for f in 0..n_funcs {
        let mut seen = HashSet::new();
        let mut stack = invoke_edges[f].clone();
        while let Some(g) = stack.pop() {
            if g.index() == f {
                exec_multi[f] = true;
                break;
            }
            if seen.insert(g) {
                stack.extend_from_slice(&invoke_edges[g.index()]);
            }
        }
    }
    loop {
        let mut changed = false;
        for f in 0..n_funcs {
            if !exec_multi[f]
                && invoking_sites[f]
                    .iter()
                    .any(|&s| in_cycle(s) || exec_multi[s.func.index()])
            {
                exec_multi[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for t in threads.iter_mut() {
        if let Some(site) = t.1 {
            t.2 = in_cycle(site) || exec_multi[site.func.index()];
        }
    }

    let mut escaped = Vec::new();
    if threads.len() > 1 {
        let all_tids: Vec<u32> = (0..threads.len() as u32).collect();
        let mut access: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
        let mut work: Vec<(VarId, u32)> = Vec::new();
        for i in 0..n_vars {
            let v = VarId::new(i);
            let kind = program.var(v).kind();
            if kind.is_synthetic_object() {
                continue;
            }
            match kind.owner() {
                None if matches!(kind, VarKind::Global) => {
                    work.extend(all_tids.iter().map(|&t| (v, t)));
                }
                Some(f) => work.extend(func_threads[f.index()].iter().map(|&t| (v, t))),
                None => {}
            }
        }
        while let Some((v, t)) = work.pop() {
            let set = &mut access[v.index()];
            if set.contains(&t) {
                continue;
            }
            set.push(t);
            for o in pts(v) {
                if o.index() < n_vars && !program.var(o).kind().is_synthetic_object() {
                    work.push((o, t));
                }
            }
        }
        escaped = (0..n_vars)
            .filter(|&i| access[i].len() >= 2)
            .map(VarId::new)
            .collect();
    }
    (threads, func_threads, escaped)
}

/// Asserts agreement; returns the number of spawned threads with and
/// without multiple instances.
fn assert_equivalent(name: &str, program: &Program) -> (usize, usize) {
    let st = steensgaard::analyze(program);
    let pts = |v: VarId| st.points_to_vars(v).to_vec();
    let got = escape::analyze(program, pts);
    let (threads, func_threads, escaped) = oracle(program, pts);
    let got_threads: Vec<(FuncId, Option<Loc>, bool)> = got
        .threads()
        .iter()
        .map(|t| (t.entry, t.spawn_site, t.multi))
        .collect();
    assert_eq!(got_threads, threads, "{name}: threads differ");
    for f in program.functions() {
        assert_eq!(
            got.threads_of(f.id()),
            func_threads[f.id().index()].as_slice(),
            "{name}: threads of {} differ",
            f.name()
        );
    }
    assert_eq!(
        got.escaped_vars(),
        escaped,
        "{name}: escaped variables differ"
    );
    let spawned = threads.iter().filter(|t| t.1.is_some());
    let multi = spawned.clone().filter(|t| t.2).count();
    (multi, spawned.count() - multi)
}

#[test]
fn escape_matches_the_per_site_walks_on_generated_concurrent_programs() {
    let (mut multi, mut single) = (0, 0);
    for seed in 0..400 {
        let cfg = MiniCConfig {
            seed,
            concurrency: true,
            fn_ptrs: seed % 3 == 0,
            structs: seed % 5 == 0,
            ..MiniCConfig::default()
        };
        let src = minic::generate(&cfg).render();
        let program = parse_program(&src).expect("generated program parses");
        let (m, s) = assert_equivalent(&format!("minic seed {seed}"), &program);
        multi += m;
        single += s;
    }
    assert!(
        multi >= 400 && single >= 250,
        "spawned threads: {multi} multi-instance, {single} single"
    );
}
