//! The workloads over generated IR programs: `sendmail` and
//! `buggy-checkers`.
//!
//! Neither has an edit path (the programs have no sources), so an edit
//! costs a cold check: their `turnaround_*` percentiles are taken over
//! the cold-check samples. The traced `sendmail` run adds one pass
//! through the persistent store (cold into a fresh store, then warm).

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use bootstrap_checks::{run_checks, CheckReport, CheckerKind, Finding};
use bootstrap_core::{
    diff_and_adopt, snapshot, Config, Precision, Session, StoreConfig, StoreCounters,
};
use bootstrap_ir::{Loc, Program, VarId};
use bootstrap_workloads::buggy::{self, BuggyConfig};
use bootstrap_workloads::presets;

use crate::answers::{self, Key};
use crate::common::{self, cold_check, Rng, Run, Samples, SETUP_REPEATS};
use crate::report::{peak_rss_mb, Report, PER_LAYER};
use crate::stats::{describe, median, percentile};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Sendmail,
    BuggyCheckers,
}

/// The labeled corpus is `BuggyConfig::default()` scaled by this factor.
const BUGGY_SCALE: usize = 40;
/// Point queries per iteration.
const QUERIES: usize = 64;
/// Sendmail programs (seeds) one run measures.
const PROGRAMS_PER_RUN: usize = 4;

/// The workload's input: the program and, for the labeled corpus, its
/// known answer.
struct Input {
    program: Program,
    labels: Option<BTreeSet<Key>>,
}

fn generate(kind: Kind, seed: u64) -> Input {
    match kind {
        Kind::Sendmail => {
            let mut preset = presets::by_name("sendmail").expect("sendmail preset exists");
            preset.config.seed = seed;
            Input {
                program: preset.generate(),
                labels: None,
            }
        }
        Kind::BuggyCheckers => {
            let d = BuggyConfig::default();
            let m = BUGGY_SCALE;
            let generated = buggy::generate(&BuggyConfig {
                null_derefs: d.null_derefs * m,
                branch_null_derefs: d.branch_null_derefs * m,
                uafs: d.uafs * m,
                interproc_uafs: d.interproc_uafs * m,
                double_frees: d.double_frees * m,
                interproc_double_frees: d.interproc_double_frees * m,
                decoys: d.decoys * m,
                benign: d.benign * m,
                races: d.races * m,
                locked_decoys: d.locked_decoys * m,
                aliased_lock_decoys: d.aliased_lock_decoys * m,
            });
            let labels = generated
                .expected
                .iter()
                .map(|e| (e.checker.clone(), e.var.clone(), e.severity.clone()))
                .collect();
            Input {
                program: generated.program,
                labels: Some(labels),
            }
        }
    }
}

/// Checks a report against the known answer: the exact label set for
/// the corpus, no findings at all for the sendmail preset.
fn check_answer(input: &Input, report: &CheckReport, what: &str, rep: &mut Report) {
    let expected = input.labels.clone().unwrap_or_default();
    let diff = answers::label_diff(&answers::keys(report).into_iter().collect(), &expected);
    rep.wrong(diff, format!("{what}: {diff} findings missed or extra"));
    rep.degraded += report.degrade.degraded_queries() as u64;
    rep.resolutions += report.degrade.total_queries() as u64;
}

fn same_findings(a: &[Finding], b: &CheckReport) -> bool {
    answers::full_findings(a) == answers::full_findings(&b.findings)
}

pub fn run(kind: Kind, run: &Run, tr: &mut Tracer, rep: &mut Report) {
    // Set-up: generate the input and run one priming check, repeated.
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let generated = generate(kind, run.seed);
        let prime = cold_check(tr, 0, &generated.program, Config::default());
        setups.push(common::since(t0));
        rep.calibrate();
        rep.attempted += 1;
        check_answer(&generated, &prime.report, "priming check", rep);
        drop(prime);
        input = Some(generated);
    }
    let input = input.expect("set-up ran");
    rep.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPEATS} generate + priming check"),
    );

    let mut rng = Rng::new(run.seed);
    let mut req = 1;
    let phase_s = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };

    // Sendmail programs drawn from different seeds differ by about 10% in
    // check time, so a run spreads its time over several of them (the
    // first is the set-up's); the corpus has no seed.
    let programs = if kind == Kind::Sendmail {
        PROGRAMS_PER_RUN
    } else {
        1
    };
    let mut program_seeds = Rng::new(!run.seed);
    let mut untraced = Phase::default();
    for k in 0..programs {
        let drawn = (k > 0).then(|| generate(kind, program_seeds.next()));
        let this = drawn.as_ref().unwrap_or(&input);
        let share = phase_s / programs as f64;
        phase(
            this,
            share,
            tr,
            &mut rng,
            &mut req,
            rep,
            &mut untraced,
            None,
        );
    }
    untraced.e2e_into(rep);
    if run.trace {
        tr.set_recording(true);
        let mut layers = Samples::default();
        let mut traced = Phase::default();
        let out = &mut traced;
        phase(
            &input,
            phase_s,
            tr,
            &mut rng,
            &mut req,
            rep,
            out,
            Some(&mut layers),
        );
        tr.set_recording(false);
        let overhead = median(&traced.check) - median(&untraced.check);
        rep.set(
            "tracing_overhead_s",
            overhead,
            "s",
            format!(
                "traced minus untraced check_s, n={} / n={}",
                traced.check.len(),
                untraced.check.len()
            ),
        );
        // Once per run, not per iteration: both take seconds on sendmail.
        incremental_self_diff(&input.program, tr, req, rep, &mut layers);
        if kind == Kind::Sendmail {
            store_pass(&input, run, tr, req, rep, &mut layers);
        } else {
            common::push_store(&mut layers, StoreCounters::default(), None);
        }
        layers.medians_into(rep, &PER_LAYER);
    }
}

/// The samples of one measuring phase.
#[derive(Default)]
struct Phase {
    check: Vec<f64>,
    warm: Vec<f64>,
    query: Vec<f64>,
}

impl Phase {
    fn e2e_into(&self, rep: &mut Report) {
        let n = self.check.len();
        rep.set(
            "check_s",
            median(&self.check),
            "s",
            format!("median of n={n} cold checks, no store"),
        );
        rep.set(
            "warm_check_s",
            median(&self.warm),
            "s",
            format!(
                "median of n={}, re-check in the resident session",
                self.warm.len()
            ),
        );
        rep.set(
            "turnaround_p50_s",
            percentile(&self.check, 50),
            "s",
            format!("no edit path: a cold check; {}", describe(50, n)),
        );
        rep.set(
            "turnaround_p90_s",
            percentile(&self.check, 90),
            "s",
            format!("no edit path: a cold check; {}", describe(90, n)),
        );
        rep.set(
            "query_p50_s",
            percentile(&self.query, 50),
            "s",
            describe(50, self.query.len()),
        );
        rep.set(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "VmHWM of the benchmark process",
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    input: &Input,
    seconds: f64,
    tr: &mut Tracer,
    rng: &mut Rng,
    req: &mut u64,
    rep: &mut Report,
    out: &mut Phase,
    mut layers: Option<&mut Samples>,
) {
    let sites = common::deref_sites(&input.program);
    let t0 = Instant::now();
    loop {
        let r = *req;
        *req += 1;
        iteration(input, &sites, tr, rng, r, rep, out, layers.as_deref_mut());
        if common::since(t0) >= seconds {
            break;
        }
    }
}

/// A cold no-store check, a re-check in the resident session, and point
/// queries against it.
#[allow(clippy::too_many_arguments)]
fn iteration(
    input: &Input,
    sites: &[(VarId, Loc)],
    tr: &mut Tracer,
    rng: &mut Rng,
    req: u64,
    rep: &mut Report,
    out: &mut Phase,
    layers: Option<&mut Samples>,
) {
    rep.calibrate();
    let cold = cold_check(tr, req, &input.program, Config::default());
    rep.attempted += 1;
    out.check.push(cold.total_s);
    check_answer(input, &cold.report, "cold check", rep);

    let (again, warm_s) = tr.span("check.resident", req, |_| {
        run_checks(&cold.session, &CheckerKind::ALL)
    });
    rep.attempted += 1;
    out.warm.push(warm_s);
    if !same_findings(&cold.report.findings, &again) {
        rep.wrong(1, "resident re-check findings differ from the cold check");
    }
    queries(
        &input.program,
        Config::default(),
        sites,
        tr,
        rng,
        req,
        rep,
        out,
    );

    if let Some(s) = layers {
        cold.push_layers(s);
        s.push("unattributed_s", cold.unattributed_s());
        common::single_kind_checks(tr, req, &input.program, s);
    }
}

/// Point queries at seeded dereference sites on a fresh session (built
/// untimed), each on a fresh analyzer: the demand-driven cost of asking
/// one question of a program nothing has been computed for yet.
#[allow(clippy::too_many_arguments)]
fn queries(
    program: &Program,
    config: Config,
    sites: &[(VarId, Loc)],
    tr: &mut Tracer,
    rng: &mut Rng,
    req: u64,
    rep: &mut Report,
    out: &mut Phase,
) {
    if sites.is_empty() {
        return;
    }
    let (session, _) = tr.span("core.session", req, |_| Session::new(program, config));
    for _ in 0..QUERIES {
        let (p, loc) = sites[rng.below(sites.len())];
        let (answer, secs) = tr.span("query", req, |_| {
            let az = session.analyzer();
            session.query_at_loc(&az, p, loc)
        });
        rep.attempted += 1;
        rep.resolutions += 1;
        if answer.precision != Precision::Fscs {
            rep.degraded += 1;
        }
        out.query.push(secs);
    }
}

/// One pass through the persistent store, for the traced run: a no-store
/// check, a cold check into a fresh store, the same with the store's size
/// cap lifted (to attribute the eviction scans), and a warm re-check from
/// the populated store.
fn store_pass(
    input: &Input,
    run: &Run,
    tr: &mut Tracer,
    req: u64,
    rep: &mut Report,
    s: &mut Samples,
) {
    let (dir, uncapped_dir) = (run.work.join("store"), run.work.join("store-uncapped"));
    let config = |d: &Path, max_bytes: u64| {
        let mut store = StoreConfig::new(d);
        store.max_bytes = max_bytes;
        Config {
            store: Some(store),
            ..Config::default()
        }
    };
    let cap = StoreConfig::new(&dir).max_bytes;

    let nostore = cold_check(tr, req, &input.program, Config::default());
    let cold = cold_check(tr, req, &input.program, config(&dir, cap));
    let uncapped = cold_check(tr, req, &input.program, config(&uncapped_dir, u64::MAX));
    let warm = cold_check(tr, req, &input.program, config(&dir, cap));
    rep.attempted += 4;
    for (what, check) in [
        ("no-store", &nostore),
        ("cold store", &cold),
        ("uncapped store", &uncapped),
        ("warm store", &warm),
    ] {
        check_answer(input, &check.report, &format!("{what} check"), rep);
    }
    if cold.report.store.hits != 0 || cold.report.store.misses == 0 {
        rep.wrong(
            1,
            format!("cold store check must only miss: {:?}", cold.report.store),
        );
    }
    let w = warm.report.store;
    if w.misses != 0 || w.invalidated != 0 || w.hits == 0 {
        rep.wrong(1, format!("warm store check must hit every consult: {w:?}"));
    }
    if !same_findings(&cold.report.findings, &warm.report)
        || !same_findings(&nostore.report.findings, &warm.report)
    {
        rep.wrong(1, "cold, warm and no-store findings differ");
    }

    rep.set(
        "store.nostore_check_s",
        nostore.total_s,
        "s",
        "the same program with no store, this pass",
    );
    rep.set(
        "store.warm_check_s",
        warm.total_s,
        "s",
        "fresh session on the populated store",
    );
    rep.set(
        "store.cold_check_s",
        cold.total_s,
        "s",
        "cold check into a fresh store",
    );
    rep.set(
        "store.cold_uncapped_s",
        uncapped.total_s,
        "s",
        "the same with StoreConfig::max_bytes lifted",
    );
    rep.set(
        "store.evict_s",
        cold.total_s - uncapped.total_s,
        "s",
        "cold minus uncapped: the eviction scans",
    );
    rep.set(
        "store.publish_s",
        cold.run_s - nostore.run_s,
        "s",
        "cold-store checks.run_s minus no-store checks.run_s",
    );
    drop((nostore, cold, uncapped, warm));
    common::push_store(s, w, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&uncapped_dir);
}

/// The incremental layer on an unchanged program: fingerprint a fresh
/// session, then diff it against itself (nothing may come out dirty).
fn incremental_self_diff(
    program: &Program,
    tr: &mut Tracer,
    req: u64,
    rep: &mut Report,
    s: &mut Samples,
) {
    let (session, _) = tr.span("core.session", req, |_| {
        Session::new(program, Config::default())
    });
    let session = &session;
    let (snap, snap_s) = tr.span("incremental.snapshot", req, |_| snapshot(session));
    let (dirty, diff_s) = tr.span("incremental.diff_and_adopt", req, |_| {
        diff_and_adopt(&snap, session)
    });
    s.push("incremental.snapshot_s", snap_s);
    s.push("incremental.diff_and_adopt_s", diff_s);
    if dirty.dirty_clusters != 0 || dirty.dirty_partitions != 0 {
        rep.wrong(
            1,
            format!("self-diff of an unchanged program is dirty: {dirty:?}"),
        );
    }
}
