//! Steensgaard's unification-based points-to analysis (paper §2.1).
//!
//! Aliasing information is a points-to graph over *equivalence classes* of
//! abstract locations. An assignment `x = y` unifies the locations of `x`
//! and `y` (and, recursively, their pointees), so the analysis is
//! bidirectional, flow- and context-insensitive, and runs in almost linear
//! time. The resulting
//! equivalence classes restricted to program variables are the paper's
//! **Steensgaard partitions** — the first stage of the bootstrapping
//! cascade — and the class graph (out-degree ≤ 1) is the **Steensgaard
//! points-to hierarchy** whose depth drives the dovetailed summary
//! computation of §3.

use std::collections::HashMap;

use bootstrap_ir::{FuncId, Program, Stmt, VarId, VarKind};

use crate::unionfind::UnionFind;

/// Identifier of a Steensgaard equivalence class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The result of Steensgaard's analysis.
///
/// # Examples
///
/// ```
/// let p = bootstrap_ir::parse_program(
///     "int a; int b; int *p; int *q; void main() { p = &a; q = &b; q = p; }",
/// )
/// .unwrap();
/// let st = bootstrap_analyses::steensgaard::analyze(&p);
/// let pc = st.class_of(p.var_named("p").unwrap());
/// let qc = st.class_of(p.var_named("q").unwrap());
/// // q = p unifies p and q into one partition, and a with b below them.
/// assert_eq!(pc, qc);
/// let ac = st.class_of(p.var_named("a").unwrap());
/// assert_eq!(st.pointee(pc), Some(ac));
/// ```
#[derive(Clone, Debug)]
pub struct SteensgaardResult {
    class_of_var: Vec<ClassId>,
    members: Vec<Vec<VarId>>,
    pointee: Vec<Option<ClassId>>,
    depth: Vec<u32>,
    /// SCC id of each class in the (rarely cyclic) class graph; classes on
    /// a points-to cycle share an id.
    cycle_id: Vec<u32>,
}

impl SteensgaardResult {
    /// The equivalence class of variable `v`.
    pub fn class_of(&self, v: VarId) -> ClassId {
        self.class_of_var[v.index()]
    }

    /// Number of classes (including classes of synthetic locations that
    /// contain no program variable).
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// The program variables in class `c` (sorted; may be empty for
    /// synthetic locations).
    pub fn members(&self, c: ClassId) -> &[VarId] {
        &self.members[c.index()]
    }

    /// The class pointed to by class `c`, if any. Self-loops (the paper's
    /// cyclic `*p = p` case) are represented as `pointee(c) == Some(c)`.
    pub fn pointee(&self, c: ClassId) -> Option<ClassId> {
        self.pointee[c.index()]
    }

    /// The Steensgaard depth of class `c`: the length of the longest path
    /// in the class graph leading to `c` (cycles collapsed).
    pub fn depth(&self, c: ClassId) -> u32 {
        self.depth[c.index()]
    }

    /// The maximum depth over all classes.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Returns `true` if `a` is strictly higher than `b` in the points-to
    /// hierarchy (`a > b`: a path of pointee edges leads from `a` to `b`).
    pub fn higher(&self, a: ClassId, b: ClassId) -> bool {
        if a == b {
            return false;
        }
        let mut cur = a;
        // The class graph has out-degree <= 1, so the walk is a simple
        // chain; bound the steps to guard against (rare) points-to cycles.
        let mut steps = 0usize;
        while let Some(next) = self.pointee(cur) {
            if next == cur {
                return false;
            }
            if next == b {
                return true;
            }
            steps += 1;
            if steps > self.pointee.len() {
                return false;
            }
            cur = next;
        }
        false
    }

    /// Returns `true` if classes `a` and `b` lie on the same points-to
    /// cycle (including `a == b`). This generalizes the paper's
    /// `q = ~q` cyclic case.
    pub fn same_cycle(&self, a: ClassId, b: ClassId) -> bool {
        self.cycle_id[a.index()] == self.cycle_id[b.index()]
    }

    /// The variables that `p` may point to: the members of the class below
    /// `p`'s class.
    pub fn points_to_vars(&self, p: VarId) -> &[VarId] {
        match self.pointee(self.class_of(p)) {
            Some(c) => self.members(c),
            None => &[],
        }
    }

    /// Iterates over all non-empty partitions as `(ClassId, &[VarId])`.
    pub fn partitions(&self) -> impl Iterator<Item = (ClassId, &[VarId])> + '_ {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| (ClassId(i as u32), m.as_slice()))
    }

    /// Partitions that contain at least one pointer-typed variable — the
    /// units the bootstrapping cascade hands to later stages.
    pub fn pointer_partitions<'a>(
        &'a self,
        program: &'a Program,
    ) -> impl Iterator<Item = (ClassId, &'a [VarId])> + 'a {
        self.partitions()
            .filter(move |(_, m)| m.iter().any(|v| program.var(*v).is_pointer()))
    }

    /// The key of the *alias partition* of `v`: pointers alias only if they
    /// may point to a common object, i.e. share a pointee class, so the
    /// paper's Steensgaard partitions group variables by the class they
    /// point *to*. Variables whose class has no pointee (they never hold an
    /// address) fall back to their own class as key, making them singleton
    /// partitions (they alias nothing).
    pub fn partition_key(&self, v: VarId) -> ClassId {
        let c = self.class_of(v);
        self.pointee(c).unwrap_or(c)
    }

    /// The Steensgaard alias partitions over the program's pointer-typed
    /// variables: disjoint groups such that a pointer can only alias
    /// pointers within its own group (the property Theorem 6 relies on).
    /// Each group is keyed by [`SteensgaardResult::partition_key`].
    pub fn alias_partitions(&self, program: &Program) -> Vec<(ClassId, Vec<VarId>)> {
        // Bucket by key over the dense class ids: walking the variables in
        // id order and the buckets in key order yields sorted output with
        // no hashing and no sort.
        let mut groups: Vec<Vec<VarId>> = vec![Vec::new(); self.class_count()];
        for v in program.var_ids() {
            // Pointer-typed variables, plus any variable that holds
            // addresses in practice (its class has a pointee) — an
            // ill-typed `int` carrying a pointer still participates in
            // aliasing.
            if program.var(v).is_pointer() || self.pointee(self.class_of(v)).is_some() {
                groups[self.partition_key(v).index()].push(v);
            }
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(c, members)| (ClassId(c as u32), members))
            .collect()
    }

    /// Resolves the candidate targets of an indirect call through `fp`:
    /// the function objects in `fp`'s points-to class.
    pub fn fp_targets(&self, program: &Program, fp: VarId) -> Vec<FuncId> {
        let mut out = Vec::new();
        for &v in self.points_to_vars(fp) {
            if let VarKind::FuncObj(f) = program.var(v).kind() {
                out.push(*f);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Runs Steensgaard's analysis over every statement of `program`.
///
/// Indirect calls contribute no parameter bindings (run
/// [`resolve_and_devirtualize`] first for programs with function pointers).
pub fn analyze(program: &Program) -> SteensgaardResult {
    let n = program.var_count();
    let mut solver = Solver {
        uf: UnionFind::new(n),
        pointee: vec![None; n],
    };
    for (_, stmt) in program.all_locs() {
        match *stmt {
            // x = y: unify the locations of x and y (bidirectional — this is
            // what makes the partitions equivalence classes *of pointers*,
            // as in the paper's Figures 2/3/5; pointees unify recursively).
            Stmt::Copy { dst, src } => {
                solver.union(dst.index() as u32, src.index() as u32);
            }
            // x = &y: y's location joins the pointee of x.
            Stmt::AddrOf { dst, obj } => {
                let pd = solver.pointee_of(dst.index() as u32);
                solver.union(pd, obj.index() as u32);
            }
            // x = *y: x's location unifies with the pointee of y.
            Stmt::Load { dst, src } => {
                let py = solver.pointee_of(src.index() as u32);
                solver.union(dst.index() as u32, py);
            }
            // *x = y: y's location unifies with the pointee of x.
            Stmt::Store { dst, src } => {
                let px = solver.pointee_of(dst.index() as u32);
                solver.union(px, src.index() as u32);
            }
            Stmt::Null { .. }
            | Stmt::Free { .. }
            | Stmt::Call(_)
            | Stmt::Spawn(_)
            | Stmt::Lock { .. }
            | Stmt::Unlock { .. }
            | Stmt::Return
            | Stmt::Skip => {}
        }
    }
    solver.finish(program)
}

/// Iteratively resolves function pointers with Steensgaard's analysis and
/// rewrites indirect calls into direct ones
/// (Emami-style handling of function pointers). Returns the number of call
/// sites rewritten.
///
/// This is the points-to rung of the staged resolver ladder — see
/// [`crate::fpresolve`] for the FLTA/MLTA tiers and per-stage statistics.
pub fn resolve_and_devirtualize(program: &mut Program) -> usize {
    crate::fpresolve::resolve_calls(program, crate::fpresolve::FpResolver::PointsTo).rewritten
}

struct Solver {
    uf: UnionFind,
    /// Pointee node, valid at representatives; lazily created.
    pointee: Vec<Option<u32>>,
}

impl Solver {
    fn pointee_of(&mut self, x: u32) -> u32 {
        let r = self.uf.find(x);
        if let Some(p) = self.pointee[r as usize] {
            return self.uf.find(p);
        }
        let fresh = self.uf.push();
        self.pointee.push(None);
        self.pointee[r as usize] = Some(fresh);
        fresh
    }

    /// Unions two location classes, recursively unifying their pointees
    /// (iterative worklist to bound stack depth).
    fn union(&mut self, a: u32, b: u32) {
        let mut work = vec![(a, b)];
        while let Some((a, b)) = work.pop() {
            let ra = self.uf.find(a);
            let rb = self.uf.find(b);
            if ra == rb {
                continue;
            }
            let pa = self.pointee[ra as usize];
            let pb = self.pointee[rb as usize];
            let root = self.uf.union(ra, rb).expect("distinct classes");
            let merged = match (pa, pb) {
                (Some(x), Some(y)) => {
                    let fx = self.uf.find(x);
                    let fy = self.uf.find(y);
                    if fx != fy {
                        work.push((fx, fy));
                    }
                    Some(fx)
                }
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            };
            self.pointee[root as usize] = merged;
        }
    }

    fn finish(mut self, program: &Program) -> SteensgaardResult {
        let total = self.uf.len();
        // Compact representative roots to dense class ids.
        let mut class_index: HashMap<u32, ClassId> = HashMap::new();
        let mut roots: Vec<u32> = Vec::new();
        for x in 0..total as u32 {
            let r = self.uf.find(x);
            class_index.entry(r).or_insert_with(|| {
                let id = ClassId(roots.len() as u32);
                roots.push(r);
                id
            });
        }
        let n_classes = roots.len();
        let mut class_of_var = Vec::with_capacity(program.var_count());
        let mut members: Vec<Vec<VarId>> = vec![Vec::new(); n_classes];
        for v in 0..program.var_count() as u32 {
            let c = class_index[&self.uf.find(v)];
            class_of_var.push(c);
            members[c.index()].push(VarId::new(v as usize));
        }
        let mut pointee: Vec<Option<ClassId>> = vec![None; n_classes];
        for (i, &r) in roots.iter().enumerate() {
            if let Some(p) = self.pointee[r as usize] {
                let pc = class_index[&self.uf.find(p)];
                pointee[i] = Some(pc);
            }
        }
        let (depth, cycle_id) = depths(&pointee);
        SteensgaardResult {
            class_of_var,
            members,
            pointee,
            depth,
            cycle_id,
        }
    }
}

/// Computes per-class depths (longest path from a root, cycles collapsed)
/// and cycle ids over the functional class graph.
fn depths(pointee: &[Option<ClassId>]) -> (Vec<u32>, Vec<u32>) {
    let n = pointee.len();
    // Find cycles: out-degree <= 1, so each node reaches at most one cycle.
    // Nodes on a cycle share a cycle id; others get a unique id.
    let mut cycle_id: Vec<u32> = (0..n as u32).collect();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if state[cur] == 1 {
                // Found a new cycle; collapse it.
                let pos = path
                    .iter()
                    .position(|&x| x == cur)
                    .expect("node on current path");
                let id = cycle_id[cur];
                for &x in &path[pos..] {
                    cycle_id[x] = id;
                }
                break;
            }
            if state[cur] == 2 {
                break;
            }
            state[cur] = 1;
            path.push(cur);
            match pointee[cur] {
                Some(next) if next.index() != cur => cur = next.index(),
                _ => break,
            }
        }
        for &x in &path {
            state[x] = 2;
        }
    }
    // Longest-path depths over the acyclic remainder (self-loops and
    // intra-cycle edges ignored); Kahn's algorithm, pushing depth forward
    // along pointee edges.
    let mut indeg = vec![0usize; n];
    for (i, p) in pointee.iter().enumerate() {
        if let Some(p) = p {
            let j = p.index();
            if j != i && cycle_id[j] != cycle_id[i] {
                indeg[j] += 1;
            }
        }
    }
    let mut depth = vec![0u32; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut qi = 0;
    while qi < queue.len() {
        let i = queue[qi];
        qi += 1;
        if let Some(p) = pointee[i] {
            let j = p.index();
            if j != i && cycle_id[j] != cycle_id[i] {
                depth[j] = depth[j].max(depth[i] + 1);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
    }
    // Equalize depths within each cycle (max over members).
    let mut cycle_max: HashMap<u32, u32> = HashMap::new();
    for i in 0..n {
        let e = cycle_max.entry(cycle_id[i]).or_insert(0);
        *e = (*e).max(depth[i]);
    }
    for i in 0..n {
        depth[i] = cycle_max[&cycle_id[i]];
    }
    (depth, cycle_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_ir::parse_program;

    fn st(src: &str) -> (Program, SteensgaardResult) {
        let p = parse_program(src).unwrap();
        let r = analyze(&p);
        (p, r)
    }

    #[test]
    fn figure2_partitions() {
        // Figure 2 of the paper: p=&a; q=&b; r=&c; q=p; q=r.
        let (p, r) = st("int a; int b; int c; int *p; int *q; int *r;
             void main() { p = &a; q = &b; r = &c; q = p; q = r; }");
        let v = |n: &str| p.var_named(n).unwrap();
        // Steensgaard merges p, q, r into one class and a, b, c below it.
        assert_eq!(r.class_of(v("p")), r.class_of(v("q")));
        assert_eq!(r.class_of(v("q")), r.class_of(v("r")));
        assert_eq!(r.class_of(v("a")), r.class_of(v("b")));
        assert_eq!(r.class_of(v("b")), r.class_of(v("c")));
        assert_ne!(r.class_of(v("p")), r.class_of(v("a")));
        assert_eq!(r.pointee(r.class_of(v("p"))), Some(r.class_of(v("a"))));
    }

    #[test]
    fn figure3_partitions() {
        // Figure 3: partitions {a,b}, {y}, {p,x}.
        let (p, r) = st("int a; int b; int *x; int *y; int *p;
             void main() { x = &a; y = &b; p = x; *x = *y; }");
        let v = |n: &str| p.var_named(n).unwrap();
        assert_eq!(r.class_of(v("a")), r.class_of(v("b")));
        assert_eq!(r.class_of(v("p")), r.class_of(v("x")));
        assert_ne!(r.class_of(v("y")), r.class_of(v("x")));
        assert_ne!(r.class_of(v("y")), r.class_of(v("a")));
        // Hierarchy: x > a, y > a (via *x = *y the pointees of x and y unify).
        assert!(r.higher(r.class_of(v("x")), r.class_of(v("a"))));
        assert!(r.higher(r.class_of(v("y")), r.class_of(v("a"))));
        assert!(!r.higher(r.class_of(v("a")), r.class_of(v("x"))));
    }

    #[test]
    fn depths_follow_hierarchy() {
        let (p, r) = st("int a; int *x; int **z;
             void main() { x = &a; z = &x; }");
        let v = |n: &str| p.var_named(n).unwrap();
        let (za, xa, aa) = (r.class_of(v("z")), r.class_of(v("x")), r.class_of(v("a")));
        assert_eq!(r.depth(za), 0);
        assert_eq!(r.depth(xa), 1);
        assert_eq!(r.depth(aa), 2);
        assert!(r.higher(za, aa));
        assert_eq!(r.max_depth(), 2);
    }

    #[test]
    fn self_loop_is_single_class() {
        // *p = p puts p and *p in the same class (the paper's cyclic case).
        let (p, r) = st("int **p; void main() { *p = p; }");
        let pc = r.class_of(p.var_named("p").unwrap());
        assert_eq!(r.pointee(pc), Some(pc));
        assert!(!r.higher(pc, pc));
        assert!(r.same_cycle(pc, pc));
    }

    #[test]
    fn unrelated_pointers_stay_separate() {
        let (p, r) = st("int a; int b; int *x; int *y;
             void main() { x = &a; y = &b; }");
        let v = |n: &str| p.var_named(n).unwrap();
        assert_ne!(r.class_of(v("x")), r.class_of(v("y")));
        assert_ne!(r.class_of(v("a")), r.class_of(v("b")));
    }

    #[test]
    fn load_unifies_contents() {
        let (p, r) = st("int a; int *x; int *y; int **z;
             void main() { z = &x; x = &a; y = *z; }");
        let v = |n: &str| p.var_named(n).unwrap();
        // y = *z means y's contents unify with x's contents.
        assert_eq!(r.pointee(r.class_of(v("y"))), r.pointee(r.class_of(v("x"))));
        // In fact Steensgaard unifies y and x themselves (both pointed by z's class).
        assert_eq!(r.points_to_vars(v("y")), r.points_to_vars(v("x")));
    }

    #[test]
    fn interprocedural_binding_unifies() {
        let (p, r) = st("int a; int *g;
             int *id(int *q) { return q; }
             void main() { g = id(&a); }");
        let v = |n: &str| p.var_named(n).unwrap();
        // g = id(&a): param q gets &a; ret flows to g; all unify.
        assert_eq!(r.points_to_vars(v("g")), &[v("a")]);
        assert_eq!(r.class_of(v("g")), r.class_of(v("id::q")));
    }

    #[test]
    fn partitions_cover_all_vars_disjointly() {
        let (p, r) = st("int a; int b; int *x; int *y; int **z;
             void main() { x = &a; y = &b; z = &x; *z = y; }");
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        for (_, members) in r.partitions() {
            for &m in members {
                assert!(seen.insert(m), "partitions must be disjoint");
                count += 1;
            }
        }
        assert_eq!(count, p.var_count());
    }

    #[test]
    fn fp_targets_resolved() {
        let p = parse_program(
            "void f() { } void g() { }
             void (*fp)();
             void main() { fp = &f; fp = &g; fp(); }",
        )
        .unwrap();
        let r = analyze(&p);
        let fp = p.var_named("fp").unwrap();
        let targets = r.fp_targets(&p, fp);
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn pointer_partitions_exclude_scalar_only_classes() {
        let (p, r) = st("int a; int b; int *x; void main() { x = &a; b = 1; }");
        let ptr_parts: Vec<_> = r.pointer_partitions(&p).collect();
        let b = p.var_named("b").unwrap();
        for (_, members) in &ptr_parts {
            assert!(!members.contains(&b));
        }
    }
}
