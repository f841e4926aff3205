//! Client checkers over the bootstrapped alias engine.
//!
//! The paper's motivation for making flow- and context-sensitive (FSCS)
//! alias analysis scale is precisely this layer: bug-finding clients that
//! consume per-statement points-to facts. This crate implements three
//! flow- and context-sensitive checkers over Mini-C programs:
//!
//! * **null-pointer dereference** — a dereference of `p` at `L` where the
//!   FSCS sources of `p` at `L` include `NULL`. Strong updates in the
//!   backward walk (a `p = &a` kills an earlier `p = NULL`) suppress the
//!   false positives a flow-insensitive checker would report.
//! * **use-after-free** — a dereference of a pointer whose points-to set
//!   at `L` contains a heap object freed at an earlier-executing free
//!   site.
//! * **double-free** — a free site releasing a heap object already
//!   released by a distinct free site that may execute before it.
//! * **data race** ([`race`]) — concurrent conflicting accesses to a
//!   thread-escaped object without a common lock provably held at both
//!   sites, over the `spawn`/`lock`/`unlock` extended IR.
//!
//! A batch runs in two phases. Phase 1 resolves every dereference and
//! free site through [`Session::query_at_loc`], one group of sites per
//! Steensgaard alias partition, so each partition's `St_P` slice and
//! engine are built once. The groups go through the core worker pool: the
//! calling thread starts alone and starts helpers only once it has been
//! resolving for [`SPAWN_AFTER`], each worker with its own [`Analyzer`],
//! all sharing the session-wide FSCI cache. Phase 2 runs the checkers
//! sequentially over the resolved sites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod order;
mod race;
mod report;
mod resolve;

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use bootstrap_core::parallel::PoolStats;
use bootstrap_core::{
    Analyzer, DegradeReason, FsciCacheStats, InternerStats, PhaseSnapshot, Precision, QueryLimits,
    Session, SolverStats, Source, StoreCounters,
};
use bootstrap_ir::{Loc, Program, Stmt, VarId, VarKind};
use order::Reach;
use resolve::Resolver;

pub use report::{interner_occupancy, render_json, render_text};
pub use resolve::SPAWN_AFTER;

/// The individual checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckerKind {
    /// Dereference of a possibly-NULL pointer.
    NullDeref,
    /// Dereference of a pointer to a freed heap object.
    UseAfterFree,
    /// Second free of an already-freed heap object.
    DoubleFree,
    /// Concurrent conflicting accesses to a shared object without a
    /// common lock.
    Race,
}

impl CheckerKind {
    /// All checkers, in canonical reporting order.
    pub const ALL: [CheckerKind; 4] = [
        CheckerKind::NullDeref,
        CheckerKind::UseAfterFree,
        CheckerKind::DoubleFree,
        CheckerKind::Race,
    ];

    /// The checker's stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::NullDeref => "null-deref",
            CheckerKind::UseAfterFree => "use-after-free",
            CheckerKind::DoubleFree => "double-free",
            CheckerKind::Race => "race",
        }
    }

    /// Parses a command-line name (`uaf` is accepted as an alias).
    pub fn parse(s: &str) -> Option<CheckerKind> {
        match s {
            "null-deref" | "nullderef" | "null" => Some(CheckerKind::NullDeref),
            "uaf" | "use-after-free" => Some(CheckerKind::UseAfterFree),
            "double-free" | "doublefree" | "df" => Some(CheckerKind::DoubleFree),
            "race" | "data-race" | "races" => Some(CheckerKind::Race),
            _ => None,
        }
    }
}

/// How certain a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The defect may occur on some path (other clean values also reach
    /// the site).
    Warning,
    /// Every resolvable value reaching the site exhibits the defect.
    Error,
}

impl Severity {
    /// Lower-case label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic produced by a checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The checker that produced it.
    pub checker: CheckerKind,
    /// Error when the defect is unconditional, warning when path-dependent.
    pub severity: Severity,
    /// Name of the function containing the site.
    pub func: String,
    /// The IR location of the offending statement.
    pub loc: Loc,
    /// 1-based source line of the statement, when the program was lowered
    /// from source.
    pub line: Option<u32>,
    /// Source-level name of the dereferenced / freed pointer.
    pub var: String,
    /// The freed heap object (use-after-free and double-free only).
    pub object: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Confidence tier: the coarsest precision ladder tier consulted for
    /// any site resolution this finding is built from. [`Precision::Fscs`]
    /// findings are full-precision; coarser tiers over-approximate, so the
    /// finding may be a false positive of the degradation (never a missed
    /// defect).
    pub precision: Precision,
}

/// Per-checker work counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckerStats {
    /// The checker these counters describe.
    pub kind: CheckerKind,
    /// Dereference / free sites the checker examined.
    pub sites: usize,
    /// `query_at_loc` resolutions the checker consumed (shared resolutions
    /// count for every checker that used them).
    pub queries: usize,
    /// Findings reported.
    pub findings: usize,
}

/// The result of one checker run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All findings, sorted by function, statement and checker.
    pub findings: Vec<Finding>,
    /// One entry per requested checker, in [`CheckerKind::ALL`] order.
    pub stats: Vec<CheckerStats>,
    /// Shared FSCI cache counters at the end of the run.
    pub cache: FsciCacheStats,
    /// Session interner counters at the end of the run (interned
    /// conditions / dead sets plus memo hit rates).
    pub interner: InternerStats,
    /// Per-phase wall time and step counters accumulated by the session
    /// (times summed over the threads that resolved sites).
    pub phases: PhaseSnapshot,
    /// Aggregate Andersen solver counters (worklist pops, cycles
    /// collapsed, wave rounds) across every cluster the session solved.
    pub solver: SolverStats,
    /// Per-tier and per-reason accounting of the batch's site resolutions.
    pub degrade: DegradeSummary,
    /// Persistent-store counters for the run (all zero when the session
    /// has no store configured).
    pub store: StoreCounters,
}

/// How the precision ladder answered a checker batch's site queries: one
/// count per tier (unique `(pointer, loc)` resolutions, memoized across
/// checkers) plus the distinct degradation reasons observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradeSummary {
    /// Resolutions answered at full FSCS precision.
    pub fscs_queries: usize,
    /// Resolutions degraded to the Andersen tier.
    pub andersen_queries: usize,
    /// Resolutions degraded to the Steensgaard tier.
    pub steensgaard_queries: usize,
    /// Distinct degradation reasons with occurrence counts, sorted by
    /// reason.
    pub reasons: Vec<(DegradeReason, usize)>,
}

impl DegradeSummary {
    /// Resolutions that fell below full precision.
    pub fn degraded_queries(&self) -> usize {
        self.andersen_queries + self.steensgaard_queries
    }

    /// Total resolutions across all tiers.
    pub fn total_queries(&self) -> usize {
        self.fscs_queries + self.degraded_queries()
    }
}

/// A dereference or free site.
#[derive(Clone, Copy, Debug)]
struct Site {
    ptr: VarId,
    loc: Loc,
}

/// Runs the requested checkers over the session's program.
///
/// Pass [`CheckerKind::ALL`] (or any subset) as `kinds`; duplicates are
/// ignored. The report's findings are deduplicated and deterministically
/// ordered.
pub fn run_checks(session: &Session<'_>, kinds: &[CheckerKind]) -> CheckReport {
    run_checks_limited(session, kinds, &QueryLimits::none())
}

/// [`run_checks`] with per-request [`QueryLimits`] (a wall deadline
/// and/or a cancellation flag) threaded into every site resolution. The
/// analysis daemon runs client `check` requests through this so a slow
/// batch degrades tier-by-tier instead of wedging a worker, and a
/// disconnected client's batch is abandoned at the next budget
/// checkpoint.
pub fn run_checks_limited(
    session: &Session<'_>,
    kinds: &[CheckerKind],
    limits: &QueryLimits,
) -> CheckReport {
    run_checks_with(session, kinds, limits, session.analyzer())
}

/// [`run_checks_limited`] resolving through a caller-supplied analyzer.
///
/// The daemon's per-request isolation retries a panicked batch on a
/// fresh analyzer with a doubled interning arena (mirroring the parallel
/// driver's cluster retry); this entry point is what makes that retry
/// possible without reaching into the resolver. Phase 1's workers resolve
/// on siblings of `az`, so a private arena carries over to them.
pub fn run_checks_with<'a>(
    session: &'a Session<'_>,
    kinds: &[CheckerKind],
    limits: &QueryLimits,
    az: Analyzer<'a>,
) -> CheckReport {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_checks_scheduled(session, kinds, limits, az, threads, SPAWN_AFTER).0
}

/// [`run_checks_with`] with phase 1 on up to `threads` workers, helpers
/// starting after `spawn_after` instead of [`SPAWN_AFTER`]. This is the
/// differential oracle across schedules: findings, [`CheckerStats`] and
/// [`DegradeSummary`] must not depend on either argument. The pool
/// counters say how many helpers phase 1 started.
pub fn run_checks_scheduled<'a>(
    session: &'a Session<'_>,
    kinds: &[CheckerKind],
    limits: &QueryLimits,
    az: Analyzer<'a>,
    threads: usize,
    spawn_after: Duration,
) -> (CheckReport, PoolStats) {
    let program = session.program();
    let want = |k: CheckerKind| kinds.contains(&k);
    let want_null = want(CheckerKind::NullDeref);
    let want_uaf = want(CheckerKind::UseAfterFree);
    let want_df = want(CheckerKind::DoubleFree);
    let want_race = want(CheckerKind::Race);
    let need_deref = want_null || want_uaf;
    let need_free = want_uaf || want_df;

    let mut deref_sites: Vec<Site> = Vec::new();
    let mut free_sites: Vec<Site> = Vec::new();
    for f in program.functions() {
        for (loc, s) in f.locs() {
            match s {
                Stmt::Load { src, .. } => deref_sites.push(Site { ptr: *src, loc }),
                Stmt::Store { dst, .. } => deref_sites.push(Site { ptr: *dst, loc }),
                Stmt::Free { dst } => free_sites.push(Site { ptr: *dst, loc }),
                _ => {}
            }
        }
    }
    // Query in Steensgaard-partition order: consecutive sites then share
    // the same per-cluster engine and relevant-statement slice.
    let cluster_order = |s: &Site| {
        (
            session.steens().partition_key(s.ptr),
            s.loc.func,
            s.loc.stmt,
        )
    };
    deref_sites.sort_by_key(cluster_order);
    free_sites.sort_by_key(cluster_order);

    // Phase 1: resolve every site the requested checkers read, in
    // parallel once the batch proves big enough.
    let mut pairs: Vec<(VarId, Loc)> = Vec::new();
    if need_deref {
        pairs.extend(deref_sites.iter().map(|s| (s.ptr, s.loc)));
    }
    if need_free {
        pairs.extend(free_sites.iter().map(|s| (s.ptr, s.loc)));
    }
    pairs.sort_by_key(|&(ptr, loc)| cluster_order(&Site { ptr, loc }));
    pairs.dedup();
    let mut rs = Resolver::new(session, az, limits);
    let pool = rs.resolve_all(&pairs, threads, spawn_after);

    // Phase 2: the checkers, sequentially, over the resolved sites.
    let mut stats: HashMap<CheckerKind, CheckerStats> = CheckerKind::ALL
        .iter()
        .filter(|k| want(**k))
        .map(|&kind| {
            (
                kind,
                CheckerStats {
                    kind,
                    sites: 0,
                    queries: 0,
                    findings: 0,
                },
            )
        })
        .collect();
    let bump = |stats: &mut HashMap<CheckerKind, CheckerStats>, k: CheckerKind, on: bool| {
        if on {
            let s = stats.get_mut(&k).expect("requested checker");
            s.sites += 1;
            s.queries += 1;
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: HashSet<(CheckerKind, Loc, VarId, Option<VarId>)> = HashSet::new();

    // Resolve dereference sites once; null-deref findings fall out inline.
    if need_deref {
        for site in &deref_sites {
            bump(&mut stats, CheckerKind::NullDeref, want_null);
            bump(&mut stats, CheckerKind::UseAfterFree, want_uaf);
            let (sources, precision) = rs.sources(site.ptr, site.loc);
            if !want_null {
                continue;
            }
            let nulls = sources.iter().filter(|(s, _)| *s == Source::Null).count();
            if nulls == 0 || !seen.insert((CheckerKind::NullDeref, site.loc, site.ptr, None)) {
                continue;
            }
            let severity = if nulls == sources.len() {
                Severity::Error
            } else {
                Severity::Warning
            };
            let var = program.var(site.ptr).name().to_string();
            let message = match severity {
                Severity::Error => format!("dereference of `{var}` which is NULL"),
                Severity::Warning => format!("dereference of `{var}` which may be NULL"),
            };
            findings.push(Finding {
                checker: CheckerKind::NullDeref,
                severity,
                func: program.func(site.loc.func).name().to_string(),
                loc: site.loc,
                line: program.line_of(site.loc),
                var,
                object: None,
                message,
                precision,
            });
        }
    }

    // Freed heap objects per free site: the heap (allocation-site) objects
    // among the FSCS sources of the freed pointer at the free statement.
    let mut freed: Vec<(Site, Vec<VarId>, Precision)> = Vec::new();
    if need_free {
        for site in &free_sites {
            bump(&mut stats, CheckerKind::UseAfterFree, want_uaf);
            bump(&mut stats, CheckerKind::DoubleFree, want_df);
            let (sources, precision) = rs.sources(site.ptr, site.loc);
            let heap: Vec<VarId> = sources
                .iter()
                .filter_map(|(s, _)| match s {
                    Source::Addr(o) if matches!(program.var(*o).kind(), VarKind::AllocSite(_)) => {
                        Some(*o)
                    }
                    _ => None,
                })
                .collect();
            if !heap.is_empty() {
                freed.push((*site, heap, precision));
            }
        }
    }

    // Pair by freed object: for each dereference or free site and each
    // freed object among its sources, the *first* free site in `freed`
    // order that frees the object and may execute before the site.
    if !freed.is_empty() {
        let reach = Reach::build(session, freed.iter().map(|(site, _, _)| site.loc));
        let mut frees_of: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (k, (_, objs, _)) in freed.iter().enumerate() {
            for &o in objs {
                let ks = frees_of.entry(o).or_default();
                if ks.last() != Some(&k) {
                    ks.push(k);
                }
            }
        }
        // `skip` excludes a free site from pairing with itself: in the
        // modeled semantics free nulls its operand, so a loop re-executing
        // one free(p) re-frees nothing (p is NULL or reassigned).
        let first_free = |obj: VarId, loc: Loc, skip: Option<usize>| {
            frees_of
                .get(&obj)?
                .iter()
                .copied()
                .find(|&k| Some(k) != skip && reach.after(k, loc))
        };

        if want_uaf {
            for dsite in &deref_sites {
                let (sources, dprec) = rs.sources(dsite.ptr, dsite.loc);
                for (s, _) in sources {
                    let Source::Addr(obj) = *s else { continue };
                    let Some(k) = first_free(obj, dsite.loc, None) else {
                        continue;
                    };
                    if !seen.insert((CheckerKind::UseAfterFree, dsite.loc, dsite.ptr, Some(obj))) {
                        continue;
                    }
                    let (fsite, objs, fprec) = &freed[k];
                    // Unconditional when every resolvable source is a
                    // freed object from this free site.
                    let hits = sources
                        .iter()
                        .filter(|(s, _)| matches!(s, Source::Addr(o) if objs.contains(o)))
                        .count();
                    let severity = if hits == sources.len() {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    let var = program.var(dsite.ptr).name().to_string();
                    let object = program.var(obj).name().to_string();
                    findings.push(Finding {
                        checker: CheckerKind::UseAfterFree,
                        severity,
                        func: program.func(dsite.loc.func).name().to_string(),
                        loc: dsite.loc,
                        line: program.line_of(dsite.loc),
                        message: format!(
                            "dereference of `{var}` may access `{object}` freed at {}",
                            site_label(program, fsite.loc),
                        ),
                        var,
                        object: Some(object),
                        precision: (*fprec).max(dprec),
                    });
                }
            }
        }

        if want_df {
            for (j, (f2, objs2, prec2)) in freed.iter().enumerate() {
                for &obj in objs2 {
                    let Some(i) = first_free(obj, f2.loc, Some(j)) else {
                        continue;
                    };
                    if !seen.insert((CheckerKind::DoubleFree, f2.loc, f2.ptr, Some(obj))) {
                        continue;
                    }
                    let (f1, objs1, prec1) = &freed[i];
                    let common = objs2.iter().filter(|o| objs1.contains(o)).count();
                    let severity = if common == objs2.len() {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    let var = program.var(f2.ptr).name().to_string();
                    let object = program.var(obj).name().to_string();
                    findings.push(Finding {
                        checker: CheckerKind::DoubleFree,
                        severity,
                        func: program.func(f2.loc.func).name().to_string(),
                        loc: f2.loc,
                        line: program.line_of(f2.loc),
                        message: format!(
                            "`{var}` frees `{object}` already freed at {}",
                            site_label(program, f1.loc),
                        ),
                        var,
                        object: Some(object),
                        precision: (*prec1).max(*prec2),
                    });
                }
            }
        }
    }

    if want_race {
        let (race_findings, sites, queries) = race::check(session, &mut rs);
        let s = stats
            .get_mut(&CheckerKind::Race)
            .expect("requested checker");
        s.sites = sites;
        s.queries = queries;
        findings.extend(race_findings);
    }

    findings.sort_by(|a, b| {
        (a.loc.func, a.loc.stmt, a.checker, &a.var, &a.object)
            .cmp(&(b.loc.func, b.loc.stmt, b.checker, &b.var, &b.object))
    });
    for f in &findings {
        if let Some(s) = stats.get_mut(&f.checker) {
            s.findings += 1;
        }
    }
    let stats: Vec<CheckerStats> = CheckerKind::ALL
        .iter()
        .filter_map(|k| stats.get(k).copied())
        .collect();
    // Flush every clean per-partition engine built by the batch's queries
    // into the persistent store (no-op without one), so the next run over
    // the same program warm-starts.
    rs.az.publish_store();
    let report = CheckReport {
        findings,
        stats,
        cache: session.fsci_cache_stats(),
        interner: session.interner_stats(),
        phases: session.phase_stats(),
        solver: session.solver_stats(),
        degrade: rs.summary(),
        store: session.store_counters(),
    };
    (report, pool)
}

/// A human-readable label for a program location: `func:line` when source
/// lines are known, `func@stmt` otherwise.
pub fn site_label(program: &Program, loc: Loc) -> String {
    let func = program.func(loc.func).name();
    match program.line_of(loc) {
        Some(line) => format!("{func}:{line}"),
        None => format!("{func}@{}", loc.stmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_core::{Config, FaultKind, FaultPhase, FaultPlan};
    use bootstrap_workloads::buggy::{self, BuggyConfig};

    /// The parts of a report that must not depend on the schedule.
    fn answers(r: &CheckReport) -> (&[Finding], &[CheckerStats], &DegradeSummary) {
        (&r.findings, &r.stats, &r.degrade)
    }

    /// A buggy corpus with every checker's patterns, races included.
    fn corpus() -> Program {
        buggy::generate(&BuggyConfig::default().scaled(3)).program
    }

    #[test]
    fn thread_count_does_not_change_the_answers() {
        let program = corpus();
        let mut plans = vec![None];
        for kind in FaultKind::ALL {
            for at_tick in [1, 2, 4] {
                plans.push(Some(FaultPlan {
                    phase: FaultPhase::Query,
                    kind,
                    at_tick,
                    cluster: None,
                }));
            }
        }
        for fault_plan in plans {
            let config = Config {
                fault_plan,
                ..Config::default()
            };
            let run = |threads| {
                let session = Session::new(&program, config.clone());
                let (report, pool) = run_checks_scheduled(
                    &session,
                    &CheckerKind::ALL,
                    &QueryLimits::none(),
                    session.analyzer(),
                    threads,
                    Duration::ZERO,
                );
                assert_eq!(pool.workers.len(), threads, "{fault_plan:?}");
                report
            };
            let one = run(1);
            if fault_plan.is_some() {
                assert!(
                    one.degrade.degraded_queries() > 0,
                    "{fault_plan:?} never fired"
                );
            }
            for threads in [2, 4] {
                let many = run(threads);
                assert_eq!(
                    answers(&one),
                    answers(&many),
                    "{threads} threads under {fault_plan:?}"
                );
            }
        }
    }

    #[test]
    fn a_poisoned_group_does_not_degrade_the_next() {
        // A panic at the first tick poisons the analyzer mid-group. The
        // group's remaining queries degrade without walking, but the next
        // group starts on a fresh sibling and walks (and panics) again.
        let program = corpus();
        let config = Config {
            fault_plan: Some(FaultPlan {
                phase: FaultPhase::Query,
                kind: FaultKind::Panic,
                at_tick: 1,
                cluster: None,
            }),
            ..Config::default()
        };
        let session = Session::new(&program, config);
        let (report, pool) = run_checks_scheduled(
            &session,
            &CheckerKind::ALL,
            &QueryLimits::none(),
            session.analyzer(),
            1,
            Duration::ZERO,
        );
        let injected = DegradeReason::Panicked {
            class: bootstrap_core::PanicClass::Injected,
        };
        assert!(report
            .findings
            .iter()
            .all(|f| f.precision != Precision::Fscs));
        assert_eq!(report.degrade.fscs_queries, 0);
        assert_eq!(
            report.degrade.reasons,
            vec![(injected, report.degrade.total_queries())]
        );
        // One walk per group (the rest of a group skips tier 1), plus the
        // race checker's on-demand lock sites on the caller's analyzer.
        let groups = pool.workers[0].tasks;
        assert!(groups > 1);
        assert!(report.phases.fscs.invocations >= groups as u64);
        assert!(report.phases.fscs.invocations < report.degrade.total_queries() as u64);
    }
}
