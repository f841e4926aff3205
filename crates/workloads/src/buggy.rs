//! Buggy-program generator: synthetic programs with *labeled* defects.
//!
//! Each injected defect pattern records an [`ExpectedDefect`] label
//! (checker name + offending variable + severity), so golden tests can
//! require the checker suite to find **exactly** the labeled defects —
//! every miss is a false negative, every extra finding a false positive.
//! Decoy patterns (strong updates, reallocation after free) look buggy to
//! a flow-insensitive analysis but are clean under the flow- and
//! context-sensitive semantics; they must produce *no* findings.
//!
//! Pattern variables are globals with unique per-instance names (`nd3_p`,
//! `uaf1_q`, …), so a `(checker, variable)` pair identifies a defect
//! unambiguously in the checker output.

use bootstrap_ir::{FuncId, Program, ProgramBuilder, VarId};

/// How many instances of each pattern to inject.
#[derive(Clone, Debug)]
pub struct BuggyConfig {
    /// Unconditional `p = NULL; x = *p` null dereferences (severity error).
    pub null_derefs: usize,
    /// Branch-dependent null dereferences (severity warning).
    pub branch_null_derefs: usize,
    /// Intraprocedural use-after-free through an alias.
    pub uafs: usize,
    /// Use-after-free where the free happens in a callee.
    pub interproc_uafs: usize,
    /// Intraprocedural double frees through an alias.
    pub double_frees: usize,
    /// Double frees where the first free happens in a callee.
    pub interproc_double_frees: usize,
    /// Clean decoy patterns that a flow-insensitive checker would flag
    /// (killed NULL, reallocation after free).
    pub decoys: usize,
    /// Entirely benign pointer communities (address-of / copy chains).
    pub benign: usize,
    /// Shared counter updated by a spawned worker and main with no lock
    /// (labeled data race, severity error).
    pub races: usize,
    /// Lock-protected shared counter: both threads take the same mutex
    /// around their accesses (clean).
    pub locked_decoys: usize,
    /// Shared counter protected by two different lock *names* that
    /// must-alias the same mutex object (clean — a true negative that
    /// needs must-alias lock identity).
    pub aliased_lock_decoys: usize,
}

impl Default for BuggyConfig {
    fn default() -> Self {
        Self {
            null_derefs: 2,
            branch_null_derefs: 1,
            uafs: 2,
            interproc_uafs: 1,
            double_frees: 2,
            interproc_double_frees: 1,
            decoys: 3,
            benign: 4,
            races: 2,
            locked_decoys: 2,
            aliased_lock_decoys: 1,
        }
    }
}

impl BuggyConfig {
    /// Every pattern count multiplied by `m` (`BuggyConfig::default()
    /// .scaled(40)` is the 4.7k-statement corpus the benchmark checks).
    pub fn scaled(&self, m: usize) -> Self {
        Self {
            null_derefs: self.null_derefs * m,
            branch_null_derefs: self.branch_null_derefs * m,
            uafs: self.uafs * m,
            interproc_uafs: self.interproc_uafs * m,
            double_frees: self.double_frees * m,
            interproc_double_frees: self.interproc_double_frees * m,
            decoys: self.decoys * m,
            benign: self.benign * m,
            races: self.races * m,
            locked_decoys: self.locked_decoys * m,
            aliased_lock_decoys: self.aliased_lock_decoys * m,
        }
    }
}

/// A labeled defect the checkers are expected to report.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExpectedDefect {
    /// Checker name (`null-deref`, `use-after-free`, `double-free`) as
    /// reported by `CheckerKind::name()`.
    pub checker: String,
    /// Name of the variable the finding is reported on.
    pub var: String,
    /// Expected severity label (`error` or `warning`).
    pub severity: String,
}

impl ExpectedDefect {
    fn new(checker: &str, var: &str, severity: &str) -> Self {
        Self {
            checker: checker.to_string(),
            var: var.to_string(),
            severity: severity.to_string(),
        }
    }
}

/// The generated program plus its defect labels.
#[derive(Debug)]
pub struct BuggyProgram {
    /// The generated IR program.
    pub program: Program,
    /// All injected defects, sorted.
    pub expected: Vec<ExpectedDefect>,
}

/// One planned pattern: variables pre-declared as globals, statements
/// emitted into `main` later.
enum Pattern {
    NullDeref {
        p: VarId,
        x: VarId,
    },
    BranchNullDeref {
        p: VarId,
        o: VarId,
        x: VarId,
    },
    Uaf {
        h: VarId,
        q: VarId,
        x: VarId,
    },
    DoubleFree {
        h: VarId,
        q: VarId,
    },
    /// `g = malloc(); q = g; helper();` then deref or re-free `q`;
    /// the helper's body is `free(g)`.
    Interproc {
        g: VarId,
        q: VarId,
        helper: FuncId,
        refree: bool,
    },
    StrongUpdateDecoy {
        p: VarId,
        o: VarId,
        x: VarId,
    },
    ReallocDecoy {
        h: VarId,
        o: VarId,
        x: VarId,
    },
    Benign {
        o: VarId,
        p0: VarId,
        p1: VarId,
        x: VarId,
    },
    /// `p = &c; spawn worker();` then both main and the worker do
    /// `t = *p; *p = t` — with no lock (racy) or under `mutex` (clean).
    Race {
        c: VarId,
        p: VarId,
        worker: FuncId,
        /// Mutex object both sides lock around their accesses.
        mutex: Option<VarId>,
    },
    /// Like the locked race decoy, but the two threads name the mutex
    /// through different global pointers that must-alias.
    AliasedLock {
        c: VarId,
        p: VarId,
        mx: VarId,
        lk1: VarId,
        lk2: VarId,
        worker: FuncId,
    },
}

/// `t = *p; *p = t` — one read-modify-write of the shared counter.
fn emit_counter_bump(fb: &mut bootstrap_ir::FuncBodyBuilder<'_>, p: VarId) {
    let t = fb.temp();
    fb.load(t, p);
    fb.store(p, t);
}

/// `lk = &mx; lock(lk); t = *p; *p = t; unlock(lk)`.
fn emit_locked_bump(fb: &mut bootstrap_ir::FuncBodyBuilder<'_>, p: VarId, mx: VarId) {
    let lk = fb.temp();
    fb.addr_of(lk, mx);
    fb.lock(lk);
    emit_counter_bump(fb, p);
    fb.unlock(lk);
}

/// Generates a program containing exactly the configured defects.
pub fn generate(config: &BuggyConfig) -> BuggyProgram {
    let mut b = ProgramBuilder::new();
    let mut expected = Vec::new();
    let mut patterns = Vec::new();

    let main = b.declare_func("main", 0, false);

    for i in 0..config.null_derefs {
        let p = b.global(&format!("nd{i}_p"), true);
        let x = b.global(&format!("nd{i}_x"), true);
        patterns.push(Pattern::NullDeref { p, x });
        expected.push(ExpectedDefect::new(
            "null-deref",
            &format!("nd{i}_p"),
            "error",
        ));
    }
    for i in 0..config.branch_null_derefs {
        let p = b.global(&format!("bn{i}_p"), true);
        let o = b.global(&format!("bn{i}_o"), false);
        let x = b.global(&format!("bn{i}_x"), true);
        patterns.push(Pattern::BranchNullDeref { p, o, x });
        expected.push(ExpectedDefect::new(
            "null-deref",
            &format!("bn{i}_p"),
            "warning",
        ));
    }
    for i in 0..config.uafs {
        let h = b.global(&format!("uaf{i}_h"), true);
        let q = b.global(&format!("uaf{i}_q"), true);
        let x = b.global(&format!("uaf{i}_x"), true);
        patterns.push(Pattern::Uaf { h, q, x });
        expected.push(ExpectedDefect::new(
            "use-after-free",
            &format!("uaf{i}_q"),
            "error",
        ));
    }
    for i in 0..config.double_frees {
        let h = b.global(&format!("df{i}_h"), true);
        let q = b.global(&format!("df{i}_q"), true);
        patterns.push(Pattern::DoubleFree { h, q });
        expected.push(ExpectedDefect::new(
            "double-free",
            &format!("df{i}_q"),
            "error",
        ));
    }
    for i in 0..config.interproc_uafs {
        let g = b.global(&format!("iu{i}_g"), true);
        let q = b.global(&format!("iu{i}_q"), true);
        let helper = b.declare_func(&format!("release_iu{i}"), 0, false);
        patterns.push(Pattern::Interproc {
            g,
            q,
            helper,
            refree: false,
        });
        expected.push(ExpectedDefect::new(
            "use-after-free",
            &format!("iu{i}_q"),
            "error",
        ));
    }
    for i in 0..config.interproc_double_frees {
        let g = b.global(&format!("idf{i}_g"), true);
        let q = b.global(&format!("idf{i}_q"), true);
        let helper = b.declare_func(&format!("release_idf{i}"), 0, false);
        patterns.push(Pattern::Interproc {
            g,
            q,
            helper,
            refree: true,
        });
        expected.push(ExpectedDefect::new(
            "double-free",
            &format!("idf{i}_q"),
            "error",
        ));
    }
    for i in 0..config.decoys {
        let o = b.global(&format!("dk{i}_o"), false);
        let x = b.global(&format!("dk{i}_x"), true);
        if i % 2 == 0 {
            let p = b.global(&format!("dk{i}_p"), true);
            patterns.push(Pattern::StrongUpdateDecoy { p, o, x });
        } else {
            let h = b.global(&format!("dk{i}_h"), true);
            patterns.push(Pattern::ReallocDecoy { h, o, x });
        }
    }
    for i in 0..config.benign {
        let o = b.global(&format!("ok{i}_o"), false);
        let p0 = b.global(&format!("ok{i}_p0"), true);
        let p1 = b.global(&format!("ok{i}_p1"), true);
        let x = b.global(&format!("ok{i}_x"), true);
        patterns.push(Pattern::Benign { o, p0, p1, x });
    }
    for i in 0..config.races {
        let c = b.global(&format!("rc{i}_c"), false);
        let p = b.global(&format!("rc{i}_p"), true);
        let worker = b.declare_func(&format!("rc{i}_worker"), 0, false);
        patterns.push(Pattern::Race {
            c,
            p,
            worker,
            mutex: None,
        });
        expected.push(ExpectedDefect::new("race", &format!("rc{i}_p"), "error"));
    }
    for i in 0..config.locked_decoys {
        let c = b.global(&format!("lc{i}_c"), false);
        let p = b.global(&format!("lc{i}_p"), true);
        let mx = b.global(&format!("lc{i}_m"), false);
        let worker = b.declare_func(&format!("lc{i}_worker"), 0, false);
        patterns.push(Pattern::Race {
            c,
            p,
            worker,
            mutex: Some(mx),
        });
    }
    for i in 0..config.aliased_lock_decoys {
        let c = b.global(&format!("al{i}_c"), false);
        let p = b.global(&format!("al{i}_p"), true);
        let mx = b.global(&format!("al{i}_m"), false);
        let lk1 = b.global(&format!("al{i}_lk1"), true);
        let lk2 = b.global(&format!("al{i}_lk2"), true);
        let worker = b.declare_func(&format!("al{i}_worker"), 0, false);
        patterns.push(Pattern::AliasedLock {
            c,
            p,
            mx,
            lk1,
            lk2,
            worker,
        });
    }

    {
        let mut fb = b.build_func(main);
        for pat in &patterns {
            match *pat {
                Pattern::NullDeref { p, x } => {
                    // p = NULL; x = *p;   -> unconditional null deref.
                    fb.null(p);
                    fb.load(x, p);
                }
                Pattern::BranchNullDeref { p, o, x } => {
                    // if (...) p = &o; else p = NULL; x = *p;
                    fb.begin_if();
                    fb.addr_of(p, o);
                    fb.else_arm();
                    fb.null(p);
                    fb.end_if();
                    fb.load(x, p);
                }
                Pattern::Uaf { h, q, x } => {
                    // h = malloc(); q = h; free(h); x = *q;
                    fb.alloc(h);
                    fb.copy(q, h);
                    fb.free(h);
                    fb.load(x, q);
                }
                Pattern::DoubleFree { h, q } => {
                    // h = malloc(); q = h; free(h); free(q);
                    fb.alloc(h);
                    fb.copy(q, h);
                    fb.free(h);
                    fb.free(q);
                }
                Pattern::Interproc {
                    g,
                    q,
                    helper,
                    refree,
                } => {
                    fb.alloc(g);
                    fb.copy(q, g);
                    fb.call(helper, &[], None);
                    if refree {
                        fb.free(q);
                    } else {
                        let x = fb.temp();
                        fb.load(x, q);
                    }
                }
                Pattern::StrongUpdateDecoy { p, o, x } => {
                    // The NULL is killed before the dereference: flow-
                    // insensitively p may be NULL; the FSCS walk must not
                    // flag it.
                    fb.null(p);
                    fb.addr_of(p, o);
                    fb.load(x, p);
                }
                Pattern::ReallocDecoy { h, o, x } => {
                    // Freed, then repointed before use: clean.
                    fb.alloc(h);
                    fb.free(h);
                    fb.addr_of(h, o);
                    fb.load(x, h);
                }
                Pattern::Benign { o, p0, p1, x } => {
                    fb.addr_of(p0, o);
                    fb.copy(p1, p0);
                    fb.load(x, p1);
                }
                Pattern::Race {
                    c,
                    p,
                    worker,
                    mutex,
                } => {
                    fb.addr_of(p, c);
                    fb.spawn(worker, &[]);
                    match mutex {
                        None => emit_counter_bump(&mut fb, p),
                        Some(mx) => emit_locked_bump(&mut fb, p, mx),
                    }
                }
                Pattern::AliasedLock {
                    c,
                    p,
                    mx,
                    lk1,
                    lk2,
                    worker,
                } => {
                    fb.addr_of(p, c);
                    fb.addr_of(lk1, mx);
                    fb.copy(lk2, lk1);
                    fb.spawn(worker, &[]);
                    fb.lock(lk2);
                    emit_counter_bump(&mut fb, p);
                    fb.unlock(lk2);
                }
            }
        }
        fb.finish();
    }

    for pat in &patterns {
        match *pat {
            Pattern::Interproc { g, helper, .. } => {
                let mut fb = b.build_func(helper);
                fb.free(g);
                fb.finish();
            }
            Pattern::Race {
                p, worker, mutex, ..
            } => {
                let mut fb = b.build_func(worker);
                match mutex {
                    None => emit_counter_bump(&mut fb, p),
                    Some(mx) => emit_locked_bump(&mut fb, p, mx),
                }
                fb.finish();
            }
            Pattern::AliasedLock { p, lk1, worker, .. } => {
                let mut fb = b.build_func(worker);
                fb.lock(lk1);
                emit_counter_bump(&mut fb, p);
                fb.unlock(lk1);
                fb.finish();
            }
            _ => {}
        }
    }

    expected.sort();
    BuggyProgram {
        program: b.finish(),
        expected,
    }
}

/// A labeled preset whose defect is reachable **only** through an
/// indirect call via a struct-field function pointer.
///
/// `main` parks `sfp_p` on a real object, then calls `sfp_ops.reset()`
/// — which (and only which) re-points it at NULL — and dereferences.
/// If lowering or devirtualization drops the `sfp_ops.reset → sfp_clear`
/// call edge, the flow-sensitive walk sees only the healthy assignment
/// and the labeled null-deref becomes a false negative. The caller must
/// devirtualize (any resolver stage keeps the true edge) before running
/// the checkers.
pub fn struct_fp_preset() -> BuggyProgram {
    let source = r#"
        struct ops { void (*reset)(); };
        struct ops sfp_ops;
        int *sfp_p;
        int sfp_o;
        int sfp_x;
        void sfp_clear() { sfp_p = null; }
        void main() {
            sfp_p = &sfp_o;
            sfp_ops.reset = sfp_clear;
            sfp_ops.reset();
            sfp_x = *sfp_p;
        }
    "#;
    let program = bootstrap_ir::parse_program(source).expect("embedded preset parses");
    BuggyProgram {
        program,
        expected: vec![ExpectedDefect::new("null-deref", "sfp_p", "error")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_labels_every_pattern() {
        let buggy = generate(&BuggyConfig::default());
        let c = BuggyConfig::default();
        assert_eq!(
            buggy.expected.len(),
            c.null_derefs
                + c.branch_null_derefs
                + c.uafs
                + c.interproc_uafs
                + c.double_frees
                + c.interproc_double_frees
                + c.races
        );
        assert!(buggy.program.entry().is_some());
    }

    #[test]
    fn zero_defect_config_has_no_labels() {
        let config = BuggyConfig {
            null_derefs: 0,
            branch_null_derefs: 0,
            uafs: 0,
            interproc_uafs: 0,
            double_frees: 0,
            interproc_double_frees: 0,
            races: 0,
            decoys: 4,
            benign: 4,
            locked_decoys: 2,
            aliased_lock_decoys: 2,
        };
        let buggy = generate(&config);
        assert!(buggy.expected.is_empty());
        assert!(buggy.program.stmt_count() > 0);
    }
}
