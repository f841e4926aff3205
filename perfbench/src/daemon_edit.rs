//! The `daemon-edit` workload: a 64-file workspace served by `serve`
//! over a Unix socket (2 workers, with a store), driven by one client
//! in a closed loop. Each iteration edits one seeded file, re-checks,
//! and sends point queries into the edited file and an untouched one.
//!
//! The traced run also replays every edit in-process through the public
//! functions the server calls, to split the edit barrier into stages.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bootstrap_checks::{run_checks, CheckerKind};
use bootstrap_client::{Client, DirtySummary, Json, Request, Response};
use bootstrap_core::{diff_and_adopt, snapshot, Config, PartitionSnapshot, Session, StoreConfig};
use bootstrap_daemon::{journal, serve, ServeOptions, Workspace};

use crate::answers::{daemon_expected, keys, multiset_diff, parse_findings_text};
use crate::common::{self, cold_check, push_store, Rng, Run, Samples, SETUP_REPEATS};
use crate::report::{peak_rss_mb, ratio, Report, PER_LAYER};
use crate::stats::{describe, median, percentile};
use crate::trace::Tracer;

/// Files in the workspace (besides `main.c`).
const N_FILES: usize = 64;
/// Chained pointers per file-local network.
const CHAIN: usize = 64;
/// Branchy helper functions per file (context-sensitive call depth).
const HELPERS: usize = 8;
/// Turnaround samples a run collects at least, so that p90 has ten
/// samples beyond it.
const MIN_TURNAROUNDS: usize = 100;
/// Think time before each query is uniform in `[0, QUERY_THINK_US)`, so
/// that request arrival does not lock onto a fixed phase of the daemon's
/// accept loop (it polls every 2 ms).
const QUERY_THINK_US: usize = 2_000;
/// Point queries per iteration: this many pairs of (edited file, some
/// untouched file).
const QUERY_PAIRS: usize = 4;
/// Attempts per request before giving up.
const ATTEMPTS: u32 = 8;

/// One file-local pointer network: a chain of `CHAIN` pointers threaded
/// through `HELPERS` branchy identity helpers. Variant 1 adds a
/// branch-dependent NULL at the end of the chain, which the null-deref
/// checker reports as one warning on `f{i}_p63`.
fn file_source(i: usize, variant: u8) -> String {
    let p = format!("f{i}_");
    let mut s = format!("int {p}a; int {p}b; int {p}c; int {p}x;\n");
    for k in 0..CHAIN {
        s.push_str(&format!("int *{p}p{k};\n"));
    }
    for h in 0..HELPERS {
        s.push_str(&format!(
            "int *{p}id{h}(int *{p}r{h}) {{ if ({p}c) {{ return {p}r{h}; }} return {p}r{h}; }}\n"
        ));
    }
    s.push_str(&format!("void {p}ent() {{\n    {p}p0 = {p}id0(&{p}a);\n"));
    for k in 1..CHAIN {
        s.push_str(&format!(
            "    {p}p{k} = {p}id{}({p}p{});\n",
            k % HELPERS,
            k - 1
        ));
        if k == CHAIN / 2 {
            s.push_str(&format!("    if ({p}c) {{ {p}p{k} = &{p}b; }}\n"));
        }
    }
    if variant == 1 {
        s.push_str(&format!("    if ({p}c) {{ {p}p{} = NULL; }}\n", CHAIN - 1));
    }
    s.push_str(&format!("    {p}x = *{p}p{};\n}}\n", CHAIN - 1));
    s
}

fn file_name(i: usize) -> String {
    format!("net{i:02}.c")
}

fn workspace_files(variants: &[u8]) -> BTreeMap<String, String> {
    let mut files: BTreeMap<String, String> = variants
        .iter()
        .enumerate()
        .map(|(i, &v)| (file_name(i), file_source(i, v)))
        .collect();
    let calls: String = (0..variants.len())
        .map(|i| format!("f{i}_ent(); "))
        .collect();
    files.insert("main.c".into(), format!("void main() {{ {calls}}}\n"));
    files
}

/// The sources `f{i}_p63` may hold at the exit of `f{i}_ent`, by variant.
fn expected_sources(i: usize, variant: u8) -> Vec<String> {
    let mut v = vec![format!("&f{i}_a"), format!("&f{i}_b")];
    if variant == 1 {
        v.push("NULL".into());
    }
    v.sort();
    v
}

/// A running daemon and its client.
struct Daemon {
    client: Client,
    handle: JoinHandle<std::io::Result<()>>,
    cache: PathBuf,
}

impl Daemon {
    fn start(work: &Path, tag: usize, files: BTreeMap<String, String>) -> Daemon {
        let socket = work.join(format!("d{tag}.sock"));
        let cache = work.join(format!("daemon-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&cache);
        let mut opts = ServeOptions::new(&socket);
        opts.cache_dir = Some(cache.clone());
        opts.workers = 2;
        opts.seed_files = files;
        let _ = std::fs::remove_file(&socket);
        let handle = std::thread::spawn(move || serve(opts));
        // The socket file appears at bind(2), a moment before listen(2),
        // so its existence is no readiness signal: wait for an answer.
        let client = Client::new(&socket);
        let t0 = Instant::now();
        while !matches!(
            client.request_once(&Request::Stats),
            Ok(Response::StatsOk(_))
        ) {
            assert!(!handle.is_finished(), "daemon exited during start-up");
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "daemon never answered"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        Daemon {
            client,
            handle,
            cache,
        }
    }

    /// Sends `req` on a fresh connection, retrying refused attempts;
    /// every attempt counts as attempted, every refused or failed one
    /// as failed.
    fn request(&self, req: &Request, rep: &mut Report) -> Option<Response> {
        for _ in 0..ATTEMPTS {
            rep.attempted += 1;
            match self.client.request_once(req) {
                Ok(Response::Overloaded { retry_after_ms }) => {
                    rep.failed += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
                Ok(Response::Error { kind, message }) => {
                    rep.failed += 1;
                    rep.problems
                        .push(format!("request failed: {kind}: {message}"));
                    return None;
                }
                Ok(resp) => return Some(resp),
                Err(e) => {
                    rep.failed += 1;
                    rep.problems.push(format!("request error: {e}"));
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        None
    }

    fn stop(self, rep: &mut Report) {
        self.request(&Request::Shutdown, rep);
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => rep.problems.push(format!("daemon exited with error: {e}")),
            Err(_) => rep.problems.push("daemon thread panicked".into()),
        }
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

fn check_request() -> Request {
    Request::Check {
        kinds: vec![],
        deadline_ms: None,
    }
}

/// Sends a `check` and compares its findings with the variants' answer.
fn daemon_check(
    d: &Daemon,
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    variants: &[u8],
    rep: &mut Report,
) -> f64 {
    let (resp, secs) = tr.span(name, req, |_| d.request(&check_request(), rep));
    match resp {
        Some(Response::CheckOk { text, .. }) => {
            let diff = multiset_diff(&parse_findings_text(&text), &daemon_expected(variants));
            rep.wrong(
                diff,
                format!("{name} #{req}: {diff} findings missed or extra"),
            );
        }
        other => rep.wrong(
            1,
            format!("{name} #{req}: expected check_ok, got {other:?}"),
        ),
    }
    secs
}

/// The samples of one measuring phase.
#[derive(Default)]
struct Phase {
    edit: Vec<f64>,
    recheck: Vec<f64>,
    turnaround: Vec<f64>,
    warm: Vec<f64>,
    check: Vec<f64>,
    query: Vec<f64>,
    dirty_clusters: u64,
    total_clusters: u64,
}

/// One acknowledged edit and what the daemon reported for it.
struct Edited {
    file: String,
    content: String,
    dirty: DirtySummary,
    edit_s: f64,
    recheck_s: f64,
}

impl Phase {
    fn e2e_into(&self, rep: &mut Report) {
        let n = self.turnaround.len();
        rep.set(
            "check_s",
            median(&self.check),
            "s",
            format!(
                "median of n={}, in-process parse + lower + session + checks",
                self.check.len()
            ),
        );
        rep.set(
            "warm_check_s",
            median(&self.warm),
            "s",
            format!(
                "median of n={}, daemon check with no edit since the last",
                self.warm.len()
            ),
        );
        rep.set(
            "turnaround_p50_s",
            percentile(&self.turnaround, 50),
            "s",
            format!("edit + re-check; {}", describe(50, n)),
        );
        rep.set(
            "turnaround_p90_s",
            percentile(&self.turnaround, 90),
            "s",
            format!("edit + re-check; {}", describe(90, n)),
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
            "VmHWM of the benchmark process (daemon in-process)",
        );
        rep.set(
            "edit_p50_s",
            percentile(&self.edit, 50),
            "s",
            format!("until edit_ok; {}", describe(50, self.edit.len())),
        );
        rep.set(
            "recheck_p50_s",
            percentile(&self.recheck, 50),
            "s",
            format!("check after an edit; {}", describe(50, self.recheck.len())),
        );
        rep.set(
            "cold_over_turnaround",
            ratio_f(median(&self.check), percentile(&self.turnaround, 50)),
            "ratio",
            "check_s / turnaround_p50_s; above 1 means an edit beats a cold check",
        );
    }
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// In-process mirror of the daemon's epoch loop, for the traced run.
struct Replay {
    ws: Workspace,
    prev: PartitionSnapshot,
    store: PathBuf,
    journal: PathBuf,
    epoch: u64,
}

impl Replay {
    fn new(work: &Path, files: &BTreeMap<String, String>) -> Replay {
        let store = work.join("replay-store");
        let _ = std::fs::remove_dir_all(&store);
        let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .expect("workspace builds");
        let program = ws.lower().expect("workspace lowers");
        let session = Session::new(&program, store_config(&store));
        run_checks(&session, &CheckerKind::ALL);
        let prev = snapshot(&session);
        drop(session);
        Replay {
            ws,
            prev,
            store,
            journal: work.join("replay-journal.bin"),
            epoch: 0,
        }
    }
}

fn store_config(dir: &Path) -> Config {
    Config {
        store: Some(StoreConfig::new(dir)),
        ..Config::default()
    }
}

pub fn run(run: &Run, tr: &mut Tracer, rep: &mut Report) {
    let mut rng = Rng::new(run.seed);
    let mut variants: Vec<u8> = (0..N_FILES).map(|_| (rng.next() & 1) as u8).collect();
    let exit_stmt = [0u8, 1].map(exit_stmt_of);

    // Set-up: generate the workspace, start the daemon, priming check;
    // repeated, the last daemon stays up.
    let mut setups = Vec::new();
    let mut daemon = None;
    for tag in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d, rep);
        }
        let t0 = Instant::now();
        let d = Daemon::start(&run.work, tag, workspace_files(&variants));
        daemon_check(&d, tr, "daemon.prime", 0, &variants, rep);
        setups.push(common::since(t0));
        rep.calibrate();
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran");
    rep.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPEATS} generate + daemon start + priming check"),
    );

    let mut req = 1;
    let mut ctx = Loop {
        daemon: &daemon,
        variants: &mut variants,
        exit_stmt,
        rng: &mut rng,
        req: &mut req,
        rep,
    };
    let untraced = ctx.phase(run, tr, None);
    untraced.e2e_into(ctx.rep);
    if run.trace {
        tr.set_recording(true);
        let mut layers = Samples::default();
        let traced = ctx.phase(run, tr, Some(&mut layers));
        tr.set_recording(false);
        layers.medians_into(ctx.rep, &PER_LAYER);
        let overhead = median(&traced.turnaround) - median(&untraced.turnaround);
        ctx.rep.set(
            "tracing_overhead_s",
            overhead,
            "s",
            format!(
                "traced minus untraced turnaround_p50_s, n={} / n={}",
                traced.turnaround.len(),
                untraced.turnaround.len()
            ),
        );
        ctx.rep.set(
            "daemon.dirty_fraction",
            ratio(traced.dirty_clusters, traced.total_clusters),
            "ratio",
            format!(
                "{} dirty of {} clusters over {} edits",
                traced.dirty_clusters,
                traced.total_clusters,
                traced.turnaround.len()
            ),
        );
        if let Some(Response::StatsOk(stats)) = daemon.request(&Request::Stats, ctx.rep) {
            for (key, name) in [
                ("shed", "daemon.shed"),
                ("retried", "daemon.retried"),
                ("panics", "daemon.panics"),
            ] {
                let v = stats.get(key).and_then(Json::as_u64).unwrap_or(0);
                ctx.rep
                    .set(name, v as f64, "count", "daemon stats, whole run");
            }
        }
    }
    daemon.stop(rep);
}

/// Statement index of the exit of `f{i}_ent` in a file of `variant`
/// (the same for every `i`).
fn exit_stmt_of(variant: u8) -> u64 {
    let files = BTreeMap::from([
        (file_name(0), file_source(0, variant)),
        (
            "main.c".to_string(),
            "void main() { f0_ent(); }\n".to_string(),
        ),
    ]);
    let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .expect("one-file workspace builds");
    let program = ws.lower().expect("one-file workspace lowers");
    let f = program.func_named("f0_ent").expect("f0_ent exists");
    u64::from(program.func(f).exit().stmt)
}

/// The closed loop's state across phases.
struct Loop<'a> {
    daemon: &'a Daemon,
    variants: &'a mut Vec<u8>,
    exit_stmt: [u64; 2],
    rng: &'a mut Rng,
    req: &'a mut u64,
    rep: &'a mut Report,
}

impl Loop<'_> {
    fn phase(&mut self, run: &Run, tr: &mut Tracer, mut layers: Option<&mut Samples>) -> Phase {
        let mut out = Phase::default();
        let mut replay = layers
            .is_some()
            .then(|| Replay::new(&run.work, &workspace_files(self.variants)));
        let seconds = if run.trace {
            run.seconds / 2.0
        } else {
            run.seconds
        };
        // The run's untraced phase also waits for enough samples for p90.
        let min_samples = if run.trace { 1 } else { MIN_TURNAROUNDS };
        let t0 = Instant::now();
        while out.turnaround.len() < min_samples || common::since(t0) < seconds {
            let r = *self.req;
            *self.req += 1;
            self.iteration(r, tr, &mut out, replay.as_mut(), layers.as_deref_mut());
        }
        if let Some(replay) = replay {
            let _ = std::fs::remove_dir_all(&replay.store);
            let _ = std::fs::remove_file(&replay.journal);
        }
        out
    }

    fn iteration(
        &mut self,
        r: u64,
        tr: &mut Tracer,
        out: &mut Phase,
        replay: Option<&mut Replay>,
        mut layers: Option<&mut Samples>,
    ) {
        self.rep.calibrate();
        let i = self.rng.below(N_FILES);
        self.variants[i] ^= 1;
        let content = file_source(i, self.variants[i]);
        let edit = Request::Edit {
            file: file_name(i),
            content: Some(content.clone()),
        };
        let (resp, edit_s) = tr.span("daemon.edit", r, |_| self.daemon.request(&edit, self.rep));
        let dirty = match resp {
            Some(Response::EditOk { dirty, .. }) => dirty,
            other => {
                self.variants[i] ^= 1;
                self.rep
                    .wrong(1, format!("edit #{r}: expected edit_ok, got {other:?}"));
                return;
            }
        };
        if dirty.dirty_clusters == 0 || dirty.dirty_clusters >= dirty.total_clusters {
            self.rep.wrong(
                1,
                format!("edit #{r} must dirty a strict subset of clusters: {dirty:?}"),
            );
        }
        let recheck_s = daemon_check(
            self.daemon,
            tr,
            "daemon.recheck",
            r,
            self.variants,
            self.rep,
        );
        out.edit.push(edit_s);
        out.recheck.push(recheck_s);
        out.turnaround.push(edit_s + recheck_s);

        for _ in 0..QUERY_PAIRS {
            let mut j = self.rng.below(N_FILES - 1);
            if j >= i {
                j += 1;
            }
            self.query(i, r, tr, out);
            self.query(j, r, tr, out);
        }
        if r % 2 == 1 {
            out.warm.push(daemon_check(
                self.daemon,
                tr,
                "daemon.check",
                r,
                self.variants,
                self.rep,
            ));
        } else {
            self.cold_in_process(r, tr, out, layers.as_deref_mut());
        }
        if let (Some(replay), Some(s)) = (replay, layers) {
            let edit = Edited {
                file: file_name(i),
                content,
                dirty,
                edit_s,
                recheck_s,
            };
            self.replay_edit(replay, &edit, r, tr, s, out);
        }
    }

    /// The cold path a plain `check` takes over the current sources:
    /// parse, lower, `Session::new`, `run_checks(ALL)`, no store.
    fn cold_in_process(
        &mut self,
        r: u64,
        tr: &mut Tracer,
        out: &mut Phase,
        layers: Option<&mut Samples>,
    ) {
        let files = workspace_files(self.variants);
        let expected = daemon_expected(self.variants);
        let (diff, secs) = tr.span("check.cold", r, |tr| {
            let (ws, parse_s) = tr.span("ir.parse", r, |_| {
                Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
                    .expect("workspace builds")
            });
            let (program, lower_s) =
                tr.span("ir.lower", r, |_| ws.lower().expect("workspace lowers"));
            let cold = cold_check(tr, r, &program, Config::default());
            if let Some(s) = layers {
                cold.push_layers(s);
                s.push("ir.parse_s", parse_s);
                s.push("ir.lower_s", lower_s);
                common::single_kind_checks(tr, r, &program, s);
            }
            multiset_diff(&keys(&cold.report), &expected)
        });
        self.rep.attempted += 1;
        self.rep.wrong(
            diff,
            format!("in-process check #{r}: {diff} findings missed or extra"),
        );
        out.check.push(secs);
    }

    /// Replays one edit through the public functions the server calls
    /// (validate, journal, re-lower, session, diff, snapshot, re-check)
    /// and checks that the replay dirties exactly what the daemon did.
    fn replay_edit(
        &mut self,
        replay: &mut Replay,
        e: &Edited,
        r: u64,
        tr: &mut Tracer,
        s: &mut Samples,
        out: &mut Phase,
    ) {
        let (next, validate_s) = tr.span("daemon.validate", r, |_| {
            replay
                .ws
                .with_edit(&e.file, Some(&e.content))
                .and_then(|ws| ws.lower().map(|_| ws))
                .expect("edit validates")
        });
        replay.epoch += 1;
        let (saved, journal_s) = tr.span("daemon.journal", r, |_| {
            journal::save(&replay.journal, replay.epoch, &next.sources())
        });
        if let Err(err) = saved {
            self.rep
                .wrong(1, format!("replay journal write failed: {err}"));
        }
        let (program, relower_s) =
            tr.span("daemon.relower", r, |_| next.lower().expect("edit lowers"));
        let (session, session_s) = tr.span("daemon.session", r, |_| {
            Session::new(&program, store_config(&replay.store))
        });
        let (dirty, diff_s) = tr.span("incremental.diff_and_adopt", r, |_| {
            diff_and_adopt(&replay.prev, &session)
        });
        let (snap, snap_s) = tr.span("incremental.snapshot", r, |_| snapshot(&session));
        let mirrored = DirtySummary {
            total_partitions: dirty.total_partitions as u64,
            dirty_partitions: dirty.dirty_partitions as u64,
            total_clusters: dirty.total_clusters as u64,
            dirty_clusters: dirty.dirty_clusters as u64,
            adopted: dirty.adopted,
        };
        if mirrored != e.dirty {
            self.rep.wrong(
                1,
                format!("replay #{r} dirtied {mirrored:?}, the daemon {:?}", e.dirty),
            );
        }
        let (report, run_s) = tr.span("daemon.recheck_run", r, |_| {
            run_checks(&session, &CheckerKind::ALL)
        });
        let diff = multiset_diff(&keys(&report), &daemon_expected(self.variants));
        self.rep.wrong(
            diff,
            format!("replayed re-check #{r}: {diff} findings missed or extra"),
        );
        drop(session);

        let stages = validate_s + journal_s + relower_s + session_s + diff_s + snap_s;
        s.push("daemon.validate_s", validate_s);
        s.push("daemon.journal_s", journal_s);
        s.push("daemon.relower_s", relower_s);
        s.push("daemon.session_s", session_s);
        s.push("incremental.diff_and_adopt_s", diff_s);
        s.push("incremental.snapshot_s", snap_s);
        s.push("daemon.residual_s", e.edit_s - stages);
        s.push("daemon.recheck_run_s", run_s);
        s.push("daemon.recheck_residual_s", e.recheck_s - run_s);
        s.push("unattributed_s", e.edit_s + e.recheck_s - stages - run_s);
        push_store(s, report.store, Some(&replay.store));
        out.dirty_clusters += e.dirty.dirty_clusters;
        out.total_clusters += e.dirty.total_clusters;
        replay.ws = next;
        replay.prev = snap;
    }

    fn query(&mut self, i: usize, r: u64, tr: &mut Tracer, out: &mut Phase) {
        let v = self.variants[i];
        let q = Request::Query {
            func: format!("f{i}_ent"),
            stmt: self.exit_stmt[usize::from(v)],
            var: format!("f{i}_p63"),
            deadline_ms: None,
        };
        let think = self.rng.below(QUERY_THINK_US) as u64;
        std::thread::sleep(Duration::from_micros(think));
        let (resp, secs) = tr.span("daemon.query", r, |_| self.daemon.request(&q, self.rep));
        out.query.push(secs);
        self.rep.resolutions += 1;
        match resp {
            Some(Response::QueryOk {
                sources, precision, ..
            }) => {
                if precision != "fscs" {
                    self.rep.degraded += 1;
                }
                let mut names: Vec<String> = sources
                    .iter()
                    .map(|s| s.split(" under ").next().unwrap_or(s).to_string())
                    .collect();
                names.sort();
                names.dedup();
                let diff = multiset_diff(&names, &expected_sources(i, v));
                self.rep
                    .wrong(diff, format!("query #{r} on f{i}_p63: got {sources:?}"));
            }
            other => self
                .rep
                .wrong(1, format!("query #{r}: expected query_ok, got {other:?}")),
        }
    }
}
