//! May-execute-after ordering over the interprocedural CFG.
//!
//! The checkers need to know which program points can execute *after* a
//! free site. Rather than re-deriving execution order from the
//! flow-sensitive summaries (whose conditions are per-cluster), we use a
//! context-insensitive forward reachability over the ICFG: intraprocedural
//! CFG successors, plus call edges into direct callees, plus return edges
//! from a function's exit back to the successors of every call site of
//! that function. This over-approximates execution order (sound for
//! may-happen-after), while the per-site alias queries supply the flow-
//! and context-sensitive value facts.
//!
//! All free sites of a batch are answered by one pass: the ICFG is
//! condensed into strongly connected components, and one sweep in
//! topological order ORs a per-free-site bitset down the condensation.
//! "May `loc` run after free site `k`" is then one bit test.

use bootstrap_core::Session;
use bootstrap_ir::{tarjan, CallTarget, Loc, Sccs, Stmt};

/// May-execute-after answers for a fixed list of source sites.
pub(crate) struct Reach {
    /// ICFG node number of each function's statement 0.
    base: Vec<u32>,
    /// The ICFG's strongly connected components.
    sccs: Sccs,
    /// `u64` words per bitset.
    words: usize,
    /// Per SCC, the source sites some member may execute strictly after:
    /// bit `k` of SCC `c` is word `c * words + k / 64`.
    bits: Vec<u64>,
}

impl Reach {
    /// Builds the answers for `sources` (numbered in iteration order).
    pub(crate) fn build(session: &Session<'_>, sources: impl IntoIterator<Item = Loc>) -> Reach {
        let program = session.program();
        let mut base = Vec::with_capacity(program.func_count());
        let mut n = 0u32;
        for f in program.functions() {
            base.push(n);
            n += f.body().len() as u32;
        }
        let node = |l: Loc| base[l.func.index()] + l.stmt;

        // The ICFG in compressed rows: node `u`'s successors are
        // `edges[start[u]..start[u + 1]]`.
        let mut start: Vec<u32> = Vec::with_capacity(n as usize + 1);
        let mut edges: Vec<u32> = Vec::new();
        for f in program.functions() {
            for (l, s) in f.locs() {
                start.push(edges.len() as u32);
                edges.extend(f.succs(l.stmt).iter().map(|&s| node(Loc::new(l.func, s))));
                // Entering a direct callee: its whole body may run before
                // control returns to the successor statements. A spawned
                // function likewise runs after the spawn point.
                if let Stmt::Call(c) | Stmt::Spawn(c) = s {
                    if let CallTarget::Direct(g) = c.target {
                        edges.push(node(program.func(g).entry()));
                    }
                }
                // Returning from a function: control resumes after any
                // call site of this function.
                if l == f.exit() {
                    for &call in session.callers_of(l.func) {
                        let caller = program.func(call.func);
                        edges.extend(
                            caller
                                .succs(call.stmt)
                                .iter()
                                .map(|&s| node(Loc::new(call.func, s))),
                        );
                    }
                }
            }
        }
        start.push(edges.len() as u32);
        let succs = |u: u32| &edges[start[u as usize] as usize..start[u as usize + 1] as usize];
        let sccs = tarjan(n as usize, succs);

        let sources: Vec<u32> = sources.into_iter().map(node).collect();
        let words = sources.len().div_ceil(64);
        // `gen` row `c`: the sources inside SCC `c`. `bits` row `c`
        // collects, from the predecessors of SCC `c`, the sources it runs
        // strictly after.
        let mut gen = vec![0u64; sccs.len() * words];
        for (k, &u) in sources.iter().enumerate() {
            gen[sccs.comp_of(u) * words + k / 64] |= 1 << (k % 64);
        }
        let mut bits = vec![0u64; sccs.len() * words];
        let mut out = vec![0u64; words];
        // SCCs are numbered sinks first, so descending order visits every
        // SCC after all of its predecessors.
        for c in (0..sccs.len()).rev() {
            let row = c * words..(c + 1) * words;
            for (o, (&b, &g)) in out
                .iter_mut()
                .zip(bits[row.clone()].iter().zip(&gen[row.clone()]))
            {
                *o = b | g;
            }
            let members = sccs.component(c);
            // On a cycle every member runs after every member, its own
            // sources included.
            if sccs.on_cycle(members[0], succs(members[0])) {
                bits[row].copy_from_slice(&out);
            }
            for &u in members {
                for &v in succs(u) {
                    let d = sccs.comp_of(v);
                    if d != c {
                        for (b, &o) in bits[d * words..(d + 1) * words].iter_mut().zip(&out) {
                            *b |= o;
                        }
                    }
                }
            }
        }
        Reach {
            base,
            sccs,
            words,
            bits,
        }
    }

    /// Whether `loc` may execute strictly after source site `k`.
    ///
    /// A source site runs after itself only if it is reachable from itself
    /// (it sits in a loop or its function is called again later).
    pub(crate) fn after(&self, k: usize, loc: Loc) -> bool {
        let c = self.sccs.comp_of(self.base[loc.func.index()] + loc.stmt);
        self.bits[c * self.words + k / 64] & (1 << (k % 64)) != 0
    }
}
