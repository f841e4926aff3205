//! Differential test for the use-after-free / double-free pairing.
//!
//! The checkers pair free sites with later dereference and free sites by
//! freed heap object, over one SCC-condensed may-execute-after order. This
//! test keeps the direct formulation as an oracle — one breadth-first ICFG
//! walk per free site, then every free site against every dereference site
//! and every other free site, keeping the first free site (in free-site
//! order) that pairs with a given site and object — and asserts that both
//! produce the same findings, field by field, the same [`CheckerStats`]
//! and the same [`DegradeSummary`].

use std::collections::{HashMap, HashSet};

use bootstrap_analyses::escape;
use bootstrap_checks::{
    run_checks, site_label, CheckReport, CheckerKind, CheckerStats, DegradeSummary, Severity,
};
use bootstrap_core::{Analyzer, Cond, DegradeReason, Precision, QueryLimits, Session, Source};
use bootstrap_ir::{parse_program, CallTarget, Loc, Program, Stmt, VarId, VarKind};
use bootstrap_workloads::buggy::{self, BuggyConfig};
use bootstrap_workloads::minic::{self, MiniCConfig};

/// Every field of a finding, in the report's sort order.
type Row = (
    u32,
    u32,
    CheckerKind,
    String,
    Option<String>,
    Severity,
    String,
    Option<u32>,
    String,
    Precision,
);

#[allow(clippy::too_many_arguments)]
fn row(
    program: &Program,
    checker: CheckerKind,
    severity: Severity,
    loc: Loc,
    var: String,
    object: Option<String>,
    message: String,
    precision: Precision,
) -> Row {
    (
        loc.func.index() as u32,
        loc.stmt,
        checker,
        var,
        object,
        severity,
        program.func(loc.func).name().to_string(),
        program.line_of(loc),
        message,
        precision,
    )
}

fn rows(program: &Program, report: &CheckReport) -> Vec<Row> {
    report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.func, program.func(f.loc.func).name());
            assert_eq!(f.line, program.line_of(f.loc));
            row(
                program,
                f.checker,
                f.severity,
                f.loc,
                f.var.clone(),
                f.object.clone(),
                f.message.clone(),
                f.precision,
            )
        })
        .collect()
}

/// The pre-SCC ordering: all locations that may execute strictly after
/// `from`, by one worklist walk over the ICFG.
fn reachable_after(session: &Session<'_>, from: Loc) -> HashSet<Loc> {
    let program = session.program();
    let mut seen: HashSet<Loc> = HashSet::new();
    let mut work: Vec<Loc> = Vec::new();
    let push_succs = |l: Loc, work: &mut Vec<Loc>| {
        for &s in program.func(l.func).succs(l.stmt) {
            work.push(Loc::new(l.func, s));
        }
    };
    push_succs(from, &mut work);
    while let Some(l) = work.pop() {
        if !seen.insert(l) {
            continue;
        }
        let f = program.func(l.func);
        if let Stmt::Call(c) | Stmt::Spawn(c) = f.stmt(l.stmt) {
            if let CallTarget::Direct(g) = c.target {
                work.push(program.func(g).entry());
            }
        }
        if l == f.exit() {
            for &call in session.callers_of(l.func) {
                push_succs(call, &mut work);
            }
        }
        push_succs(l, &mut work);
    }
    seen
}

/// One site's sources and the ladder tier that produced them.
type Resolution = (Vec<(Source, Cond)>, Precision);

/// Memoized site resolutions, counted per tier the way the checker batch
/// counts them.
struct Resolutions<'a, 'p> {
    session: &'a Session<'p>,
    az: Analyzer<'a>,
    resolved: HashMap<(VarId, Loc), Resolution>,
    tiers: [usize; 3],
    reasons: HashMap<DegradeReason, usize>,
}

impl Resolutions<'_, '_> {
    fn sources(&mut self, ptr: VarId, loc: Loc) -> Resolution {
        if !self.resolved.contains_key(&(ptr, loc)) {
            let ans = self
                .session
                .query_at_loc_limited(&self.az, ptr, loc, &QueryLimits::none());
            let slot = Precision::ALL
                .iter()
                .position(|&p| p == ans.precision)
                .expect("known tier");
            self.tiers[slot] += 1;
            if let Some(r) = ans.reason {
                *self.reasons.entry(r).or_insert(0) += 1;
            }
            self.resolved
                .insert((ptr, loc), (ans.sources, ans.precision));
        }
        self.resolved[&(ptr, loc)].clone()
    }

    fn summary(&self) -> DegradeSummary {
        let mut reasons: Vec<(DegradeReason, usize)> =
            self.reasons.iter().map(|(&r, &c)| (r, c)).collect();
        reasons.sort();
        DegradeSummary {
            fscs_queries: self.tiers[0],
            andersen_queries: self.tiers[1],
            steensgaard_queries: self.tiers[2],
            reasons,
        }
    }
}

/// The sites the race checker resolves, in its resolution order (lock
/// and unlock operands plus dereferences in functions some thread runs).
fn race_sites(session: &Session<'_>) -> Vec<(VarId, Loc)> {
    let program = session.program();
    let spawns = program.all_locs().any(|(_, s)| matches!(s, Stmt::Spawn(_)));
    if !spawns {
        return Vec::new();
    }
    let esc = escape::analyze(program, |v| session.steens().points_to_vars(v).to_vec());
    if esc.thread_count() < 2 {
        return Vec::new();
    }
    let mut sites = Vec::new();
    for f in program.functions() {
        if esc.threads_of(f.id()).is_empty() {
            continue;
        }
        for (loc, s) in f.locs() {
            match s {
                Stmt::Lock { m } | Stmt::Unlock { m } => sites.push((*m, loc)),
                Stmt::Load { src, .. } => sites.push((*src, loc)),
                Stmt::Store { dst, .. } | Stmt::Free { dst } => sites.push((*dst, loc)),
                _ => {}
            }
        }
    }
    sites.sort_by_key(|&(p, loc)| (session.steens().partition_key(p), loc.func, loc.stmt));
    sites
}

/// The expected report for `kinds`: null-deref, use-after-free and
/// double-free by the direct formulation; race findings and counters from
/// a race-only run (the pairing never touches them).
fn oracle(
    program: &Program,
    kinds: &[CheckerKind],
) -> (Vec<Row>, Vec<CheckerStats>, DegradeSummary) {
    let session = Session::new(program, bootstrap_core::Config::default());
    let want = |k: CheckerKind| kinds.contains(&k);
    let (want_null, want_uaf, want_df) = (
        want(CheckerKind::NullDeref),
        want(CheckerKind::UseAfterFree),
        want(CheckerKind::DoubleFree),
    );
    let mut deref_sites: Vec<(VarId, Loc)> = Vec::new();
    let mut free_sites: Vec<(VarId, Loc)> = Vec::new();
    for (loc, s) in program.all_locs() {
        match s {
            Stmt::Load { src, .. } => deref_sites.push((*src, loc)),
            Stmt::Store { dst, .. } => deref_sites.push((*dst, loc)),
            Stmt::Free { dst } => free_sites.push((*dst, loc)),
            _ => {}
        }
    }
    let cluster_order =
        |&(p, loc): &(VarId, Loc)| (session.steens().partition_key(p), loc.func, loc.stmt);
    deref_sites.sort_by_key(cluster_order);
    free_sites.sort_by_key(cluster_order);

    let mut rs = Resolutions {
        session: &session,
        az: session.analyzer(),
        resolved: HashMap::new(),
        tiers: [0; 3],
        reasons: HashMap::new(),
    };
    let mut out: Vec<Row> = Vec::new();
    if want_null || want_uaf {
        for &(ptr, loc) in &deref_sites {
            let (sources, precision) = rs.sources(ptr, loc);
            let nulls = sources.iter().filter(|(s, _)| *s == Source::Null).count();
            if !want_null || nulls == 0 {
                continue;
            }
            let var = program.var(ptr).name().to_string();
            let (severity, message) = if nulls == sources.len() {
                (
                    Severity::Error,
                    format!("dereference of `{var}` which is NULL"),
                )
            } else {
                (
                    Severity::Warning,
                    format!("dereference of `{var}` which may be NULL"),
                )
            };
            out.push(row(
                program,
                CheckerKind::NullDeref,
                severity,
                loc,
                var,
                None,
                message,
                precision,
            ));
        }
    }

    let mut freed: Vec<((VarId, Loc), Vec<VarId>, Precision)> = Vec::new();
    if want_uaf || want_df {
        for &(ptr, loc) in &free_sites {
            let (sources, precision) = rs.sources(ptr, loc);
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
                freed.push(((ptr, loc), heap, precision));
            }
        }
    }
    let follow: Vec<HashSet<Loc>> = freed
        .iter()
        .map(|((_, loc), _, _)| reachable_after(&session, *loc))
        .collect();
    let mut seen: HashSet<(CheckerKind, Loc, VarId, VarId)> = HashSet::new();
    if want_uaf {
        for (k, ((_, floc), objs, fprec)) in freed.iter().enumerate() {
            for &(dptr, dloc) in &deref_sites {
                if !follow[k].contains(&dloc) {
                    continue;
                }
                let (sources, dprec) = rs.sources(dptr, dloc);
                let hit: Vec<VarId> = sources
                    .iter()
                    .filter_map(|(s, _)| match s {
                        Source::Addr(o) if objs.contains(o) => Some(*o),
                        _ => None,
                    })
                    .collect();
                let severity = if hit.len() == sources.len() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                for obj in hit {
                    if !seen.insert((CheckerKind::UseAfterFree, dloc, dptr, obj)) {
                        continue;
                    }
                    let var = program.var(dptr).name().to_string();
                    let object = program.var(obj).name().to_string();
                    let message = format!(
                        "dereference of `{var}` may access `{object}` freed at {}",
                        site_label(program, *floc)
                    );
                    out.push(row(
                        program,
                        CheckerKind::UseAfterFree,
                        severity,
                        dloc,
                        var,
                        Some(object),
                        message,
                        (*fprec).max(dprec),
                    ));
                }
            }
        }
    }
    if want_df {
        for (i, ((_, l1), objs1, prec1)) in freed.iter().enumerate() {
            for (j, ((p2, l2), objs2, prec2)) in freed.iter().enumerate() {
                if i == j || !follow[i].contains(l2) {
                    continue;
                }
                let common: Vec<VarId> = objs2
                    .iter()
                    .copied()
                    .filter(|o| objs1.contains(o))
                    .collect();
                let severity = if common.len() == objs2.len() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                for obj in common {
                    if !seen.insert((CheckerKind::DoubleFree, *l2, *p2, obj)) {
                        continue;
                    }
                    let var = program.var(*p2).name().to_string();
                    let object = program.var(obj).name().to_string();
                    let message = format!(
                        "`{var}` frees `{object}` already freed at {}",
                        site_label(program, *l1)
                    );
                    out.push(row(
                        program,
                        CheckerKind::DoubleFree,
                        severity,
                        *l2,
                        var,
                        Some(object),
                        message,
                        (*prec1).max(*prec2),
                    ));
                }
            }
        }
    }

    let mut stats: Vec<CheckerStats> = Vec::new();
    for kind in CheckerKind::ALL.into_iter().filter(|&k| want(k)) {
        let sites = match kind {
            CheckerKind::NullDeref => deref_sites.len(),
            CheckerKind::UseAfterFree => deref_sites.len() + free_sites.len(),
            CheckerKind::DoubleFree => free_sites.len(),
            CheckerKind::Race => continue,
        };
        let findings = out.iter().filter(|r| r.2 == kind).count();
        stats.push(CheckerStats {
            kind,
            sites,
            queries: sites,
            findings,
        });
    }
    if want(CheckerKind::Race) {
        for (p, loc) in race_sites(&session) {
            rs.sources(p, loc);
        }
        let race_session = Session::new(program, bootstrap_core::Config::default());
        let race = run_checks(&race_session, &[CheckerKind::Race]);
        out.extend(rows(program, &race));
        stats.extend(race.stats);
    }
    out.sort_by(|a, b| (a.0, a.1, a.2, &a.3, &a.4).cmp(&(b.0, b.1, b.2, &b.3, &b.4)));
    (out, stats, rs.summary())
}

fn stats_key(stats: &[CheckerStats]) -> Vec<(CheckerKind, usize, usize, usize)> {
    stats
        .iter()
        .map(|s| (s.kind, s.sites, s.queries, s.findings))
        .collect()
}

/// Checks `program` under every checker set; returns the number of
/// use-after-free and double-free findings of the full run.
fn assert_pairing_matches(name: &str, program: &Program) -> usize {
    let sets: [&[CheckerKind]; 3] = [
        &CheckerKind::ALL,
        &[CheckerKind::UseAfterFree],
        &[CheckerKind::DoubleFree],
    ];
    let mut paired = 0;
    for kinds in sets {
        let session = Session::new(program, bootstrap_core::Config::default());
        let report = run_checks(&session, kinds);
        let (want_rows, want_stats, want_degrade) = oracle(program, kinds);
        let got = rows(program, &report);
        assert_eq!(got, want_rows, "{name} {kinds:?}: findings differ");
        assert_eq!(
            stats_key(&report.stats),
            stats_key(&want_stats),
            "{name} {kinds:?}: checker stats differ"
        );
        assert_eq!(
            report.degrade, want_degrade,
            "{name} {kinds:?}: degrade summary differs"
        );
        if kinds.len() == CheckerKind::ALL.len() {
            paired = got
                .iter()
                .filter(|r| matches!(r.2, CheckerKind::UseAfterFree | CheckerKind::DoubleFree))
                .count();
        }
    }
    paired
}

#[test]
fn pairing_matches_the_per_site_walks_on_the_buggy_corpus() {
    for m in [1, 3, 10] {
        let generated = buggy::generate(&BuggyConfig::default().scaled(m));
        let paired = assert_pairing_matches(&format!("buggy x{m}"), &generated.program);
        let labeled = generated
            .expected
            .iter()
            .filter(|e| e.checker == "use-after-free" || e.checker == "double-free")
            .count();
        assert!(paired >= labeled, "buggy x{m}: {paired} < {labeled} labels");
    }
}

/// Generated programs with plain `free(p)` (no reassigning decoy) free
/// heap objects that loops, recursion and callees reach again.
#[test]
fn pairing_matches_the_per_site_walks_on_generated_programs() {
    let mut paired = 0;
    let mut programs_with_pairs = 0;
    for seed in 0..240 {
        let cfg = MiniCConfig {
            seed,
            free_null_decoys: false,
            stmts_per_func: 20,
            globals_per_level: 2,
            ..MiniCConfig::default()
        };
        let src = minic::generate(&cfg).render();
        let program = parse_program(&src).expect("generated program parses");
        let n = assert_pairing_matches(&format!("minic seed {seed}"), &program);
        paired += n;
        programs_with_pairs += usize::from(n > 0);
    }
    assert!(
        programs_with_pairs >= 60,
        "only {programs_with_pairs} programs ({paired} findings) exercised the pairing"
    );
}
