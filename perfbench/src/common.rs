//! Pieces shared by the workloads: run settings, the seeded generator,
//! and the layer breakdown of one cold check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bootstrap_checks::{run_checks, CheckReport, CheckerKind};
use bootstrap_core::{Config, Session, Store, StoreConfig, StoreCounters};
use bootstrap_ir::{Loc, Program, Stmt, VarId};

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Settings of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, sockets and the trace file.
    pub work: PathBuf,
}

/// Set-up is repeated this many times; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Named sample lists, reduced to medians at the end of a run.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Sets every list's median on `report`, with its unit from `units`
    /// (names missing there must end in `_s`, for seconds).
    pub fn medians_into(&self, report: &mut Report, units: &[(&'static str, &'static str)]) {
        for (name, xs) in &self.0 {
            let unit = match units.iter().find(|(n, _)| n == name) {
                Some((_, u)) => *u,
                None if name.ends_with("_s") => "s",
                None => panic!("no unit known for sample list {name}"),
            };
            report.set(name, median(xs), unit, format!("median of n={}", xs.len()));
        }
    }
}

/// Times `Session::new` plus `run_checks(ALL)` under `config`, as spans
/// `check` > `core.session`, `checks.run`.
pub fn cold_check<'p>(
    tr: &mut Tracer,
    req: u64,
    program: &'p Program,
    config: Config,
) -> ColdCheck<'p> {
    let ((session, session_s, report, run_s), total_s) = tr.span("check", req, |tr| {
        let (session, session_s) = tr.span("core.session", req, |_| Session::new(program, config));
        let (report, run_s) = tr.span("checks.run", req, |_| {
            run_checks(&session, &CheckerKind::ALL)
        });
        (session, session_s, report, run_s)
    });
    ColdCheck {
        session,
        report,
        session_s,
        run_s,
        total_s,
    }
}

pub struct ColdCheck<'p> {
    pub session: Session<'p>,
    pub report: CheckReport,
    pub session_s: f64,
    pub run_s: f64,
    pub total_s: f64,
}

impl ColdCheck<'_> {
    /// Pushes the layer breakdown of this check: cascade timings and
    /// shape, phase stats and cache ratios.
    pub fn push_layers(&self, s: &mut Samples) {
        let (session, r) = (&self.session, &self.report);
        let t = session.timings();
        let (steens, andersen) = (t.steensgaard.as_secs_f64(), t.clustering.as_secs_f64());
        let (relevant, fscs) = (
            r.phases.relevant.wall.as_secs_f64(),
            r.phases.fscs.wall.as_secs_f64(),
        );
        s.push("ir.stmts", session.program().stmt_count() as f64);
        s.push("analyses.steensgaard_s", steens);
        s.push("analyses.andersen_s", andersen);
        s.push("analyses.andersen_pops", r.solver.pops as f64);
        s.push("analyses.clusters", session.cover().len() as f64);
        let max = session
            .cover()
            .clusters()
            .iter()
            .map(|c| c.members.len())
            .max();
        s.push("analyses.max_cluster", max.unwrap_or(0) as f64);
        s.push("core.session_s", self.session_s);
        s.push("core.relevant_s", relevant);
        s.push("core.fscs_s", fscs);
        s.push("core.fscs_steps", r.phases.fscs.steps as f64);
        let fsci = r.cache.hits + r.cache.misses;
        s.push(
            "core.fsci_hit_ratio",
            crate::report::ratio(r.cache.hits, fsci),
        );
        s.push("core.fsci_lookups", fsci as f64);
        let interned = r.interner.hits + r.interner.misses;
        s.push(
            "core.interner_hit_ratio",
            crate::report::ratio(r.interner.hits, interned),
        );
        s.push("core.interner_lookups", interned as f64);
        s.push("checks.run_s", self.run_s);
        s.push("checks.self_s", self.run_s - relevant - fscs);
    }

    /// The part of the check no layer accounts for. Attributed are
    /// Steensgaard and Andersen inside the session and the whole checker
    /// batch (relevant + FSCS + checker self time).
    pub fn unattributed_s(&self) -> f64 {
        let t = self.session.timings();
        self.total_s - t.steensgaard.as_secs_f64() - t.clustering.as_secs_f64() - self.run_s
    }
}

/// Pushes a run's store counters and the store's size on disk (all zero
/// without a store).
pub fn push_store(s: &mut Samples, c: StoreCounters, dir: Option<&Path>) {
    s.push("store.hits", c.hits as f64);
    s.push("store.misses", c.misses as f64);
    s.push("store.invalidated", c.invalidated as f64);
    let store = dir.map(|d| Store::open(StoreConfig::new(d)).expect("store directory opens"));
    s.push(
        "store.entries",
        store.as_ref().map_or(0, Store::entry_count) as f64,
    );
    s.push(
        "store.bytes",
        store.as_ref().map_or(0, Store::total_bytes) as f64,
    );
}

/// Each checker alone on a fresh no-store session: the per-checker cost.
pub const SINGLE_KINDS: [(CheckerKind, &str); 4] = [
    (CheckerKind::NullDeref, "checks.null_deref_s"),
    (CheckerKind::UseAfterFree, "checks.uaf_s"),
    (CheckerKind::DoubleFree, "checks.double_free_s"),
    (CheckerKind::Race, "checks.race_s"),
];

pub fn single_kind_checks(tr: &mut Tracer, req: u64, program: &Program, s: &mut Samples) {
    for (kind, name) in SINGLE_KINDS {
        let (session, _) = tr.span("core.session", req, |_| {
            Session::new(program, Config::default())
        });
        let (_, secs) = tr.span(name, req, |_| run_checks(&session, &[kind]));
        s.push(name, secs);
    }
}

/// Every pointer dereference `(pointer, location)` of the program: the
/// sites a point query asks about.
pub fn deref_sites(program: &Program) -> Vec<(VarId, Loc)> {
    let mut sites = Vec::new();
    for f in program.functions() {
        for (loc, stmt) in f.locs() {
            let p = match stmt {
                Stmt::Load { src, .. } => *src,
                Stmt::Store { dst, .. } => *dst,
                _ => continue,
            };
            if program.var(p).is_pointer() {
                sites.push((p, loc));
            }
        }
    }
    sites
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
