//! Thread-escape analysis for the spawn-extended mini-C IR.
//!
//! `spawn f(args)` starts a new abstract thread rooted at `f`. This module
//! answers two questions the data-race detector needs:
//!
//! 1. **Which abstract locations escape their creating thread?** A location
//!    escapes when more than one thread can reach it: globals (shared by
//!    every thread), variables of functions that run in several threads,
//!    and everything reachable from those through the points-to relation.
//!    Only escaped locations can be involved in a race.
//! 2. **Which accesses can run concurrently?** Each spawn site is one
//!    abstract thread; the program entry is the main thread. Two accesses
//!    may run concurrently when their functions' thread sets contain two
//!    distinct threads, or share a thread that may have multiple dynamic
//!    instances (a spawn inside a loop, a spawned spawner, a doubly-invoked
//!    spawner).
//!
//! The analysis is flow-insensitive and ordering-oblivious (no
//! may-happen-in-parallel pruning): everything after `spawn` in the spawner
//! is assumed concurrent with the spawned thread. That is the conservative
//! direction for a race detector. Reachability runs over whichever
//! points-to relation the caller supplies — Steensgaard partitions give a
//! sound whole-program closure in near-linear time; Andersen sets tighten
//! it when available.

use bootstrap_ir::{tarjan, CallTarget, FuncId, Loc, Program, Sccs, Stmt, VarId, VarKind};

/// Identifies one abstract thread; `0` is always the main thread.
pub type ThreadId = u32;

/// The main thread's id.
pub const MAIN_THREAD: ThreadId = 0;

/// One abstract thread: the main thread or one spawn site.
#[derive(Clone, Debug)]
pub struct Thread {
    /// The function the thread starts executing.
    pub entry: FuncId,
    /// The spawn statement creating the thread (`None` for main).
    pub spawn_site: Option<Loc>,
    /// Whether more than one dynamic instance of this thread may exist
    /// (spawn in a CFG cycle, or a spawner that itself executes more than
    /// once). Two accesses from the same multi-instance thread may race
    /// with each other.
    pub multi: bool,
}

/// The result of [`analyze`].
#[derive(Clone, Debug)]
pub struct EscapeResult {
    threads: Vec<Thread>,
    /// Sorted thread ids per function, indexed by `FuncId`.
    func_threads: Vec<Vec<ThreadId>>,
    /// Escape flag per variable, indexed by `VarId`.
    escaped: Vec<bool>,
}

impl EscapeResult {
    /// Returns `true` when `v` is reachable from more than one thread.
    pub fn escapes(&self, v: VarId) -> bool {
        self.escaped.get(v.index()).copied().unwrap_or(false)
    }

    /// All abstract threads, main first, then spawn sites in `(func, stmt)`
    /// order.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of abstract threads (1 = sequential program).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The sorted set of threads that may execute `f`.
    pub fn threads_of(&self, f: FuncId) -> &[ThreadId] {
        static EMPTY: [ThreadId; 0] = [];
        self.func_threads
            .get(f.index())
            .map(Vec::as_slice)
            .unwrap_or(&EMPTY)
    }

    /// All escaped variables, sorted by id (deterministic reporting order).
    pub fn escaped_vars(&self) -> Vec<VarId> {
        self.escaped
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .map(|(i, _)| VarId::new(i))
            .collect()
    }

    /// Returns `true` when code in `f` and code in `g` may execute
    /// concurrently: their thread sets contain two distinct threads, or a
    /// common thread with multiple dynamic instances.
    pub fn may_run_concurrently(&self, f: FuncId, g: FuncId) -> bool {
        let (a, b) = (self.threads_of(f), self.threads_of(g));
        for &ta in a {
            for &tb in b {
                if ta != tb || self.threads[ta as usize].multi {
                    return true;
                }
            }
        }
        false
    }
}

/// How many threads may access a variable, saturating at two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Access {
    None,
    One(ThreadId),
    Many,
}

impl Access {
    /// The state of the union of the two thread sets.
    fn join(self, other: Access) -> Access {
        match (self, other) {
            (Access::None, x) | (x, Access::None) => x,
            (Access::One(a), Access::One(b)) if a == b => self,
            _ => Access::Many,
        }
    }
}

/// Runs the escape analysis. `pts` maps a pointer variable to the abstract
/// objects it may point to (any sound may-points-to relation works; coarser
/// relations only widen the escape set).
pub fn analyze(program: &Program, pts: impl Fn(VarId) -> Vec<VarId>) -> EscapeResult {
    let n_funcs = program.func_count();
    let n_vars = program.var_count();

    // Resolve an invocation target set: direct targets verbatim, indirect
    // ones through the points-to relation (function objects only). The
    // session pipeline devirtualizes before analysis, so the indirect arm
    // is a safety net for raw programs.
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

    // Collect call edges, spawn sites and invoking sites in one pass.
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

    // Threads: main first, then one per (spawn site, target).
    let main_entry = program.entry().map(|f| f.id());
    let mut threads: Vec<Thread> = Vec::new();
    if let Some(e) = main_entry {
        threads.push(Thread {
            entry: e,
            spawn_site: None,
            multi: false,
        });
    }
    for &(loc, g) in &spawns {
        threads.push(Thread {
            entry: g,
            spawn_site: Some(loc),
            multi: false,
        });
    }

    // Thread sets per function: the thread's entry seeds it, call edges
    // propagate it (spawn edges start a *different* thread, so they do not
    // propagate the spawner's ids).
    let mut func_threads: Vec<Vec<ThreadId>> = vec![Vec::new(); n_funcs];
    let mut work: Vec<(FuncId, ThreadId)> = threads
        .iter()
        .enumerate()
        .map(|(tid, t)| (t.entry, tid as ThreadId))
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

    // Per-statement CFG cycle membership for invoking sites: a site inside
    // a loop may execute its invocation repeatedly. One SCC pass per
    // function that contains an invoking site answers all of its sites.
    let mut cfg_sccs: Vec<Option<Sccs>> = vec![None; n_funcs];
    let mut in_cycle = |loc: Loc| -> bool {
        let func = program.func(loc.func);
        let succs = |s: u32| func.succs(s);
        cfg_sccs[loc.func.index()]
            .get_or_insert_with(|| tarjan(func.body().len(), succs))
            .on_cycle(loc.stmt, succs(loc.stmt))
    };

    // `exec_multi[f]`: f's body may execute more than once per program run.
    // Seeds: recursion (f lies on a cycle of invocation edges, calls and
    // spawns alike) and two or more static invoking sites. Propagation: an
    // invoking site that is in a CFG cycle, or belongs to a function that
    // itself executes more than once, makes the target multi.
    let mut invoke_edges: Vec<Vec<u32>> = call_edges
        .iter()
        .map(|gs| gs.iter().map(|g| g.index() as u32).collect())
        .collect();
    for &(loc, g) in &spawns {
        invoke_edges[loc.func.index()].push(g.index() as u32);
    }
    let invoke_sccs = tarjan(n_funcs, |f| &invoke_edges[f as usize]);
    let mut exec_multi: Vec<bool> = (0..n_funcs)
        .map(|f| invoking_sites[f].len() >= 2 || invoke_sccs.on_cycle(f as u32, &invoke_edges[f]))
        .collect();
    let site_cycles: Vec<Vec<bool>> = invoking_sites
        .iter()
        .map(|sites| sites.iter().map(|&s| in_cycle(s)).collect())
        .collect();
    loop {
        let mut changed = false;
        for f in 0..n_funcs {
            if exec_multi[f] {
                continue;
            }
            let multi = invoking_sites[f]
                .iter()
                .enumerate()
                .any(|(i, s)| site_cycles[f][i] || exec_multi[s.func.index()]);
            if multi {
                exec_multi[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for t in threads.iter_mut() {
        if let Some(site) = t.spawn_site {
            t.multi = in_cycle(site) || exec_multi[site.func.index()];
        }
    }

    // Escape set: propagate per-variable thread access through the
    // points-to relation. A variable is seeded with the threads of its
    // owning function (globals with every thread — any thread can name
    // them); if thread t can access pointer v, t can access everything v
    // points to. An object escapes when at least two distinct threads
    // reach it, so each variable keeps a saturating {none, one thread,
    // many} state rather than the thread set itself: the state of a union
    // is the join of the states. Sequential programs share nothing.
    let mut escaped = vec![false; n_vars];
    if threads.len() > 1 {
        let mut access: Vec<Access> = vec![Access::None; n_vars];
        let mut work: Vec<(VarId, Access)> = Vec::new();
        for i in 0..n_vars {
            let v = VarId::new(i);
            let kind = program.var(v).kind();
            if kind.is_synthetic_object() {
                continue;
            }
            match kind.owner() {
                None if matches!(kind, VarKind::Global) => work.push((v, Access::Many)),
                Some(f) => {
                    for &t in &func_threads[f.index()] {
                        work.push((v, Access::One(t)));
                    }
                }
                // Heap objects and other unowned abstractions are reached
                // only through pointers (the closure below).
                None => {}
            }
        }
        while let Some((v, a)) = work.pop() {
            let slot = &mut access[v.index()];
            let joined = slot.join(a);
            if joined == *slot {
                continue;
            }
            *slot = joined;
            for o in pts(v) {
                if o.index() < n_vars && !program.var(o).kind().is_synthetic_object() {
                    work.push((o, joined));
                }
            }
        }
        for i in 0..n_vars {
            escaped[i] = access[i] == Access::Many;
        }
    }

    EscapeResult {
        threads,
        func_threads,
        escaped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steensgaard;
    use bootstrap_ir::parse_program;

    fn run(src: &str) -> (bootstrap_ir::Program, EscapeResult) {
        let p = parse_program(src).unwrap();
        let st = steensgaard::analyze(&p);
        let r = analyze(&p, |v| st.points_to_vars(v).to_vec());
        (p, r)
    }

    #[test]
    fn sequential_program_has_one_thread_and_no_escapes() {
        let (p, r) = run("int g; void main() { g = 1; }");
        assert_eq!(r.thread_count(), 1);
        assert!(!r.escapes(p.var_named("g").unwrap()));
        let main = p.func_named("main").unwrap();
        assert!(!r.may_run_concurrently(main, main));
    }

    #[test]
    fn spawn_makes_globals_escape() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { spawn worker(); g = 2; }
            "#);
        assert_eq!(r.thread_count(), 2);
        assert!(r.escapes(p.var_named("g").unwrap()));
        let main = p.func_named("main").unwrap();
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(main, worker));
        assert!(!r.may_run_concurrently(main, main));
        assert!(!r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn local_passed_to_spawn_escapes_but_private_local_does_not() {
        let (p, r) = run(r#"
            void worker(int *q) { *q = 1; }
            void main() { int shared; int private; spawn worker(&shared); private = 2; }
            "#);
        assert!(r.escapes(p.var_named("main::shared").unwrap()));
        assert!(!r.escapes(p.var_named("main::private").unwrap()));
    }

    #[test]
    fn heap_reachable_from_global_escapes() {
        let (p, r) = run(r#"
            int *g;
            void worker() { *g = 1; }
            void main() { g = malloc(4); spawn worker(); }
            "#);
        let heap = p
            .var_named("heap@main:1")
            .or_else(|| p.var_named("heap@main:2"))
            .expect("heap object");
        assert!(r.escapes(heap));
    }

    #[test]
    fn spawn_in_loop_is_multi_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; while (i) { spawn worker(); } }
            "#);
        let worker_thread = r.threads().iter().find(|t| t.spawn_site.is_some()).unwrap();
        assert!(worker_thread.multi);
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(worker, worker));
    }

    fn spawned_thread(r: &EscapeResult) -> &Thread {
        let mut spawned = r.threads().iter().filter(|t| t.spawn_site.is_some());
        let t = spawned.next().expect("one spawned thread");
        assert!(spawned.next().is_none(), "exactly one spawned thread");
        t
    }

    #[test]
    fn spawn_after_a_loop_is_single_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; while (i) { g = 2; } spawn worker(); }
            "#);
        assert!(!spawned_thread(&r).multi);
        let worker = p.func_named("worker").unwrap();
        assert!(!r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn one_statement_self_loop_before_a_spawn_is_not_the_spawn_cycle() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int c; while (c) { } spawn worker(); }
            "#);
        // The empty loop lowers to a head that is its own successor.
        let main = p.func(p.func_named("main").unwrap());
        let head = (0..main.body().len() as u32)
            .find(|&s| main.succs(s).contains(&s))
            .expect("a one-statement self-loop");
        let sccs = tarjan(main.body().len(), |s| main.succs(s));
        assert!(sccs.on_cycle(head, main.succs(head)));
        let site = spawned_thread(&r).spawn_site.unwrap();
        assert!(!sccs.on_cycle(site.stmt, main.succs(site.stmt)));
        assert!(!spawned_thread(&r).multi);
    }

    #[test]
    fn spawn_in_a_function_called_from_a_loop_is_multi_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void spawner() { spawn worker(); }
            void main() { int i; while (i) { spawner(); } }
            "#);
        assert!(spawned_thread(&r).multi);
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn recursion_only_through_a_spawn_edge_is_multi_instance() {
        // `main` has one invoking site, outside any loop; only the
        // spawn edge back to itself makes it run more than once.
        let (p, r) = run(r#"
            int g;
            void main() { g = 1; if (g) { spawn main(); } }
            "#);
        assert!(spawned_thread(&r).multi);
        let main = p.func_named("main").unwrap();
        assert!(r.may_run_concurrently(main, main));
        assert!(r.escapes(p.var_named("g").unwrap()));
    }

    #[test]
    fn two_spawns_of_same_function_race_with_each_other() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { spawn worker(); spawn worker(); }
            "#);
        assert_eq!(r.thread_count(), 3);
        let worker = p.func_named("worker").unwrap();
        assert_eq!(r.threads_of(worker).len(), 2);
        assert!(r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn function_called_from_both_threads_is_in_both_sets() {
        let (p, r) = run(r#"
            int g;
            void shared_fn() { g = 1; }
            void worker() { shared_fn(); }
            void main() { spawn worker(); shared_fn(); }
            "#);
        let f = p.func_named("shared_fn").unwrap();
        assert_eq!(r.threads_of(f).len(), 2);
        assert!(r.may_run_concurrently(f, f));
        // Locals of a multi-thread function escape.
        let (p2, r2) = run(r#"
            int g;
            void shared_fn() { int l; int *x; x = &l; g = 1; }
            void worker() { shared_fn(); }
            void main() { spawn worker(); shared_fn(); }
            "#);
        assert!(r2.escapes(p2.var_named("shared_fn::l").unwrap()));
    }
}
