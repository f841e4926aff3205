//! Cold single-process `check` vs warm daemon re-check after an edit.
//!
//! The workload is a multi-file workspace of file-local pointer
//! networks (disjoint Steensgaard partitions) stitched together by a
//! `main.c`. The bench measures three regimes:
//!
//! * **cold** — one full in-process `check` over the merged program,
//!   no store, no residency: what a plain CLI invocation pays;
//! * **edit barrier** — the daemon's epoch turnover after a one-file
//!   edit: the one lowering of the edited workspace, partition diff,
//!   carrying the adoption ledger forward over every clean cluster, the
//!   journal write, and the deferred `edit_ok` reply;
//! * **warm re-check** — the `check` request against the rebuilt
//!   resident session, where clean clusters answer from store entries
//!   the ledger adopts without rewriting them.
//!
//! For every edit the daemon's dirty accounting is recorded; the bench
//! asserts the dirty fraction stays proportional to the single-file
//! footprint (strictly below 1) and reports latency percentiles.
//! Dumps `BENCH_daemon.json` at the repo root, with the machine's core
//! count and `rustc -V`. Run with:
//! `cargo bench --bench daemon` (add `-- --quick` for a short pass).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bootstrap_bench::rustc_version;
use bootstrap_checks::{run_checks, CheckerKind};
use bootstrap_client::{Client, Request, Response};
use bootstrap_core::{Config, Session};
use bootstrap_daemon::{serve, ServeOptions, Workspace};

/// Files in the workspace (besides `main.c`).
const N_FILES: usize = 16;
/// Chained pointers per file-local network.
const CHAIN: usize = 64;
/// Branchy helper functions per file (context-sensitive call depth).
const HELPERS: usize = 8;

/// One file-local pointer network: a chain of `CHAIN` pointers threaded
/// through `HELPERS` branchy identity helpers (each call a distinct
/// context for the FSCS summaries). `variant` 1 adds a branch-dependent
/// NULL into the middle of the chain, moving a finding in and out.
fn file_source(i: usize, variant: u64) -> String {
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

fn workspace_files(variants: &[u64]) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    let mut main_body = String::new();
    for (i, &v) in variants.iter().enumerate() {
        files.insert(format!("net{i:02}.c"), file_source(i, v));
        main_body.push_str(&format!("f{i}_ent(); "));
    }
    files.insert(
        "main.c".to_string(),
        format!("void main() {{ {main_body}}}\n"),
    );
    files
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bootstrap_daemon_bench_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// One cold single-process check: lower + session + full checker batch.
fn cold_check(files: &BTreeMap<String, String>) -> (Duration, usize) {
    let t0 = Instant::now();
    let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .expect("workspace builds");
    let program = ws.lower().expect("workspace lowers");
    let session = Session::new(&program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    (t0.elapsed(), report.findings.len())
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct EditSample {
    edit: Duration,
    check: Duration,
    dirty_clusters: u64,
    total_clusters: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cold_samples = if quick { 1 } else { 5 };
    let edit_samples = if quick { 4 } else { 24 };

    let mut variants = vec![0u64; N_FILES];
    let files = workspace_files(&variants);

    // Cold baseline.
    let mut cold_times = Vec::new();
    let mut findings = 0;
    for _ in 0..cold_samples {
        let (t, f) = cold_check(&files);
        cold_times.push(t);
        findings = f;
    }
    cold_times.sort();
    let cold = cold_times[cold_times.len() / 2];

    // Resident daemon over a persistent cache.
    let cache = scratch("cache");
    let socket = std::env::temp_dir().join(format!(
        "bootstrap_daemon_bench_{}.sock",
        std::process::id()
    ));
    let mut opts = ServeOptions::new(&socket);
    opts.cache_dir = Some(cache.clone());
    opts.workers = 2;
    opts.seed_files = files.clone();
    let handle = std::thread::spawn(move || serve(opts));
    while !socket.exists() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let client = Client::new(&socket);

    // Populate the store once so adoption has something to splice.
    match client
        .request(&Request::Check {
            kinds: vec![],
            deadline_ms: None,
        })
        .expect("priming check")
    {
        Response::CheckOk { .. } => {}
        other => panic!("expected check_ok, got {other:?}"),
    }

    // Edit storm: toggle one file per sample, measure the barrier and
    // the warm re-check it unlocks.
    let mut samples = Vec::new();
    for s in 0..edit_samples {
        let i = s % N_FILES;
        variants[i] ^= 1;
        let content = file_source(i, variants[i]);
        let t0 = Instant::now();
        let resp = client
            .request(&Request::Edit {
                file: format!("net{i:02}.c"),
                content: Some(content),
            })
            .expect("edit");
        let edit = t0.elapsed();
        let Response::EditOk { dirty, .. } = resp else {
            panic!("expected edit_ok, got {resp:?}");
        };
        assert!(
            dirty.dirty_clusters > 0 && dirty.dirty_clusters < dirty.total_clusters,
            "one-file edit must dirty a strict subset of clusters: {dirty:?}"
        );
        let t1 = Instant::now();
        match client
            .request(&Request::Check {
                kinds: vec![],
                deadline_ms: None,
            })
            .expect("warm check")
        {
            Response::CheckOk { .. } => {}
            other => panic!("expected check_ok, got {other:?}"),
        }
        let check = t1.elapsed();
        samples.push(EditSample {
            edit,
            check,
            dirty_clusters: dirty.dirty_clusters,
            total_clusters: dirty.total_clusters,
        });
    }

    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().unwrap().expect("daemon exits cleanly");

    let mut edit_times: Vec<Duration> = samples.iter().map(|s| s.edit).collect();
    let mut check_times: Vec<Duration> = samples.iter().map(|s| s.check).collect();
    edit_times.sort();
    check_times.sort();
    let dirty_sum: u64 = samples.iter().map(|s| s.dirty_clusters).sum();
    let total_sum: u64 = samples.iter().map(|s| s.total_clusters).sum();
    let dirty_fraction = dirty_sum as f64 / total_sum.max(1) as f64;
    let warm_p50 = percentile(&check_times, 0.5);
    let turnaround_p50 = percentile(&edit_times, 0.5) + warm_p50;

    println!(
        concat!(
            "daemon ({} files, {} findings, {} edits): cold check {:?} | ",
            "edit barrier p50 {:?} p90 {:?} | warm re-check p50 {:?} p90 {:?} | ",
            "dirty fraction {:.3} | cold/warm-recheck {:.2}x | cold/turnaround {:.2}x"
        ),
        N_FILES + 1,
        findings,
        samples.len(),
        cold,
        percentile(&edit_times, 0.5),
        percentile(&edit_times, 0.9),
        warm_p50,
        percentile(&check_times, 0.9),
        dirty_fraction,
        cold.as_secs_f64() / warm_p50.as_secs_f64().max(1e-9),
        cold.as_secs_f64() / turnaround_p50.as_secs_f64().max(1e-9),
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"daemon\",\n",
            "  \"compare\": \"cold-check-vs-warm-daemon-recheck-after-1-file-edit\",\n",
            "  \"unit\": \"seconds\",\n",
            "  \"cores\": {},\n",
            "  \"rustc\": \"{}\",\n",
            "  \"files\": {}, \"chain\": {}, \"findings\": {}, \"edits\": {},\n",
            "  \"cold_check_secs\": {:.6},\n",
            "  \"edit_barrier_secs\": {{\"p50\": {:.6}, \"p90\": {:.6}, \"max\": {:.6}}},\n",
            "  \"warm_recheck_secs\": {{\"p50\": {:.6}, \"p90\": {:.6}, \"max\": {:.6}}},\n",
            "  \"dirty_cluster_fraction\": {:.4},\n",
            "  \"cold_over_warm_recheck\": {:.2},\n",
            "  \"cold_over_warm_turnaround\": {:.2}\n}}\n"
        ),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc_version(),
        N_FILES + 1,
        CHAIN,
        findings,
        samples.len(),
        cold.as_secs_f64(),
        percentile(&edit_times, 0.5).as_secs_f64(),
        percentile(&edit_times, 0.9).as_secs_f64(),
        percentile(&edit_times, 1.0).as_secs_f64(),
        warm_p50.as_secs_f64(),
        percentile(&check_times, 0.9).as_secs_f64(),
        percentile(&check_times, 1.0).as_secs_f64(),
        dirty_fraction,
        cold.as_secs_f64() / warm_p50.as_secs_f64().max(1e-9),
        cold.as_secs_f64() / turnaround_p50.as_secs_f64().max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daemon.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_daemon.json: {e}"),
    }
    let _ = std::fs::remove_dir_all(&cache);
}
