//! Call-graph construction and strongly connected components.
//!
//! The summarization engine (paper §3, Algorithm 5) processes the strongly
//! connected components of the call graph in reverse topological order; each
//! SCC is analyzed to a fixpoint to handle recursion. The same [`tarjan`]
//! pass, over plain `u32` successor lists, serves every other SCC client:
//! the checkers' interprocedural may-execute-after order and the escape
//! analysis's per-function loop membership.

use std::collections::HashSet;

use crate::ids::{FuncId, Loc};
use crate::prog::{CallTarget, Program};

/// The program call graph.
///
/// Indirect calls contribute edges only after
/// [`Program::devirtualize`] has rewritten them into direct calls; build the
/// graph after devirtualization for a complete picture.
///
/// # Examples
///
/// ```
/// let p = bootstrap_ir::parse_program(
///     "void g() { } void f() { g(); } void main() { f(); }",
/// )
/// .unwrap();
/// let cg = bootstrap_ir::CallGraph::build(&p);
/// let f = p.func_named("f").unwrap();
/// let g = p.func_named("g").unwrap();
/// assert_eq!(cg.callees(f), &[g]);
/// ```
#[derive(Clone, Debug)]
pub struct CallGraph {
    callees: Vec<Vec<FuncId>>,
    callers: Vec<Vec<FuncId>>,
    call_sites: Vec<Vec<(Loc, FuncId)>>,
    sccs: Vec<Vec<FuncId>>,
    scc_of: Vec<usize>,
}

impl CallGraph {
    /// Builds the call graph of `program` from its direct call sites.
    pub fn build(program: &Program) -> Self {
        let n = program.func_count();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut call_sites: Vec<Vec<(Loc, FuncId)>> = vec![Vec::new(); n];
        for func in program.functions() {
            for (loc, call) in func.call_sites() {
                if let CallTarget::Direct(target) = call.target {
                    if !callees[func.id().index()].contains(&target) {
                        callees[func.id().index()].push(target);
                    }
                    if !callers[target.index()].contains(&func.id()) {
                        callers[target.index()].push(func.id());
                    }
                    call_sites[func.id().index()].push((loc, target));
                }
            }
        }
        let succs: Vec<Vec<u32>> = callees
            .iter()
            .map(|cs| cs.iter().map(|g| g.index() as u32).collect())
            .collect();
        let components = tarjan(n, |f| &succs[f as usize]);
        let sccs: Vec<Vec<FuncId>> = (0..components.len())
            .map(|c| {
                let mut comp: Vec<FuncId> = components
                    .component(c)
                    .iter()
                    .map(|&f| FuncId::new(f as usize))
                    .collect();
                comp.sort();
                comp
            })
            .collect();
        let scc_of = (0..n).map(|f| components.comp_of(f as u32)).collect();
        Self {
            callees,
            callers,
            call_sites,
            sccs,
            scc_of,
        }
    }

    /// Functions directly called by `f` (deduplicated).
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Functions that directly call `f` (deduplicated).
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        &self.callers[f.index()]
    }

    /// Direct call sites in `f`, as `(location, callee)` pairs.
    pub fn call_sites_in(&self, f: FuncId) -> &[(Loc, FuncId)] {
        &self.call_sites[f.index()]
    }

    /// Strongly connected components, in *reverse topological order* of the
    /// condensation (callees before callers) — the order Algorithm 5
    /// processes them in.
    pub fn sccs(&self) -> &[Vec<FuncId>] {
        &self.sccs
    }

    /// Index (into [`CallGraph::sccs`]) of the SCC containing `f`.
    pub fn scc_of(&self, f: FuncId) -> usize {
        self.scc_of[f.index()]
    }

    /// Returns `true` if `f` participates in recursion (its SCC has more
    /// than one member, or it calls itself).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.sccs[self.scc_of(f)].len() > 1 || self.callees(f).contains(&f)
    }

    /// The set of functions reachable from `entry` (including `entry`).
    pub fn reachable_from(&self, entry: FuncId) -> HashSet<FuncId> {
        let mut seen = HashSet::new();
        let mut stack = vec![entry];
        while let Some(f) = stack.pop() {
            if seen.insert(f) {
                for &c in self.callees(f) {
                    stack.push(c);
                }
            }
        }
        seen
    }
}

/// Strongly connected components of a directed graph on nodes `0..n`, as
/// computed by [`tarjan`].
///
/// Components are numbered in *reverse topological order* of the
/// condensation: every edge leaving component `c` enters a component with a
/// smaller number, so sinks come first.
#[derive(Clone, Debug)]
pub struct Sccs {
    /// Nodes grouped by component, components in numbering order.
    nodes: Vec<u32>,
    /// Component `c` is `nodes[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Component number of each node.
    comp_of: Vec<u32>,
}

impl Sccs {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Returns `true` for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nodes of component `c`.
    pub fn component(&self, c: usize) -> &[u32] {
        &self.nodes[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// The component containing node `v`.
    pub fn comp_of(&self, v: u32) -> usize {
        self.comp_of[v as usize] as usize
    }

    /// Returns `true` when node `v` lies on a cycle: its component has
    /// more than one node, or `v_succs` (the successors of `v`) contain
    /// `v` itself.
    pub fn on_cycle(&self, v: u32, v_succs: &[u32]) -> bool {
        self.component(self.comp_of(v)).len() > 1 || v_succs.contains(&v)
    }
}

/// Iterative Tarjan SCC over the graph on nodes `0..n` whose successor
/// lists `succs` returns. One linear pass; no recursion, so deep graphs
/// (long CFGs, call chains) cannot overflow the stack.
///
/// # Examples
///
/// ```
/// let succs: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![]];
/// let sccs = bootstrap_ir::callgraph::tarjan(3, |v| &succs[v as usize]);
/// assert_eq!(sccs.len(), 2);
/// assert_eq!(sccs.comp_of(0), sccs.comp_of(1));
/// assert!(sccs.comp_of(2) < sccs.comp_of(0)); // sinks first
/// assert!(sccs.on_cycle(0, &succs[0]) && !sccs.on_cycle(2, &succs[2]));
/// ```
pub fn tarjan<'a>(n: usize, succs: impl Fn(u32) -> &'a [u32]) -> Sccs {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut nodes: Vec<u32> = Vec::with_capacity(n);
    let mut starts: Vec<u32> = vec![0];
    let mut comp_of = vec![0u32; n];
    let mut counter = 0u32;

    // Explicit DFS stack: (node, next child index).
    let mut call_stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        index[root as usize] = counter;
        lowlink[root as usize] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut ci)) = call_stack.last_mut() {
            let vs = succs(v);
            if *ci < vs.len() {
                let w = vs[*ci];
                *ci += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    index[wi] = counter;
                    lowlink[wi] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    call_stack.push((w, 0));
                } else if on_stack[wi] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[wi]);
                }
            } else {
                call_stack.pop();
                let vi = v as usize;
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let comp = (starts.len() - 1) as u32;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comp;
                        nodes.push(w);
                        if w == v {
                            break;
                        }
                    }
                    starts.push(nodes.len() as u32);
                }
            }
        }
    }
    Sccs {
        nodes,
        starts,
        comp_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn linear_chain_sccs_are_reverse_topological() {
        let p = parse_program("void g() { } void f() { g(); } void main() { f(); }").unwrap();
        let cg = CallGraph::build(&p);
        let g = p.func_named("g").unwrap();
        let f = p.func_named("f").unwrap();
        let m = p.func_named("main").unwrap();
        assert!(cg.scc_of(g) < cg.scc_of(f));
        assert!(cg.scc_of(f) < cg.scc_of(m));
        assert!(!cg.is_recursive(f));
    }

    #[test]
    fn mutual_recursion_forms_one_scc() {
        let p = parse_program(
            r#"
            void a() { b(); }
            void b() { a(); }
            void main() { a(); }
            "#,
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let a = p.func_named("a").unwrap();
        let b = p.func_named("b").unwrap();
        assert_eq!(cg.scc_of(a), cg.scc_of(b));
        assert!(cg.is_recursive(a));
        assert_eq!(cg.sccs()[cg.scc_of(a)].len(), 2);
    }

    #[test]
    fn self_recursion_is_recursive() {
        let p = parse_program("void r() { r(); } void main() { r(); }").unwrap();
        let cg = CallGraph::build(&p);
        let r = p.func_named("r").unwrap();
        assert!(cg.is_recursive(r));
        assert_eq!(cg.sccs()[cg.scc_of(r)], vec![r]);
    }

    #[test]
    fn tarjan_numbers_components_sinks_first_and_flags_cycles() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3, 3 -> 3, 4 isolated.
        let succs: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![1, 3], vec![3], vec![]];
        let sccs = tarjan(succs.len(), |v| &succs[v as usize]);
        assert_eq!(sccs.len(), 4);
        assert_eq!(sccs.comp_of(1), sccs.comp_of(2));
        let mut pair = sccs.component(sccs.comp_of(1)).to_vec();
        pair.sort();
        assert_eq!(pair, vec![1, 2]);
        for (v, vs) in succs.iter().enumerate() {
            for &w in vs {
                assert!(sccs.comp_of(w) <= sccs.comp_of(v as u32));
            }
        }
        let cyclic: Vec<bool> = (0..5u32)
            .map(|v| sccs.on_cycle(v, &succs[v as usize]))
            .collect();
        assert_eq!(cyclic, vec![false, true, true, true, false]);
        assert!(tarjan(0, |v| &succs[v as usize]).is_empty());
    }

    #[test]
    fn reachability() {
        let p = parse_program("void isolated() { } void g() { } void main() { g(); }").unwrap();
        let cg = CallGraph::build(&p);
        let m = p.func_named("main").unwrap();
        let reach = cg.reachable_from(m);
        assert!(reach.contains(&p.func_named("g").unwrap()));
        assert!(!reach.contains(&p.func_named("isolated").unwrap()));
    }

    #[test]
    fn callers_are_inverse_of_callees() {
        let p = parse_program(
            "void g() { } void f1() { g(); } void f2() { g(); } void main() { f1(); f2(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let g = p.func_named("g").unwrap();
        assert_eq!(cg.callers(g).len(), 2);
        for &c in cg.callers(g) {
            assert!(cg.callees(c).contains(&g));
        }
    }
}
