//! SIGKILL-mid-storm recovery through the real binary: start `serve`
//! as a subprocess, apply acknowledged edits, kill -9, restart on the
//! same socket and cache dir, and require the replayed warm findings to
//! be byte-identical to both the pre-kill response and a cold in-process
//! run of the same workspace, with every store entry the first check
//! needs accepted from the journaled adoption ledger. Also drives
//! `check --remote` end to end.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use bootstrap_checks::{render_text, run_checks, CheckerKind};
use bootstrap_client::{Client, Request, Response};
use bootstrap_core::{Config, Session};
use bootstrap_daemon::Workspace;

const BIN: &str = env!("CARGO_BIN_EXE_bootstrap-alias");

/// A file-local pointer network; `v1` plants a null dereference.
fn variant(prefix: &str, v: u64) -> String {
    let p = prefix;
    let body = match v {
        0 => format!("{p}p = {p}id(&{p}a); {p}x = *{p}p;"),
        _ => format!("{p}p = NULL; {p}x = *{p}p;"),
    };
    format!(
        "int {p}a; int {p}x;\nint *{p}p;\n\
         int *{p}id(int *{p}arg) {{ return {p}arg; }}\n\
         void {p}ent() {{ {body} }}\n"
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsa-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cold_text(files: &BTreeMap<String, String>) -> String {
    let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .expect("workspace builds");
    let program = ws.lower().expect("workspace lowers");
    let session = Session::new(&program, Config::default());
    render_text(&run_checks(&session, &CheckerKind::ALL), None)
}

fn spawn_serve(socket: &Path, cache: &Path, seeds: &[PathBuf]) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--cache-dir")
        .arg(cache)
        .arg("--workers")
        .arg("2")
        .args(seeds)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn().expect("spawn bootstrap-alias serve")
}

/// Polls the daemon subprocess until it answers `stats`.
fn wait_ready(client: &Client, child: &mut Child) {
    for _ in 0..1_000 {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("daemon exited prematurely: {status}");
        }
        if let Ok(Response::StatsOk(_)) = client.request_once(&Request::Stats) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never became ready");
}

fn stat(client: &Client, key: &str) -> u64 {
    match client.request(&Request::Stats).unwrap() {
        Response::StatsOk(json) => json.get(key).and_then(|v| v.as_u64()).unwrap(),
        other => panic!("expected stats_ok, got {other:?}"),
    }
}

fn warm_text(client: &Client) -> String {
    match client
        .request(&Request::Check {
            kinds: vec![],
            deadline_ms: None,
        })
        .unwrap()
    {
        Response::CheckOk { text, .. } => text,
        other => panic!("expected check_ok, got {other:?}"),
    }
}

#[test]
fn sigkill_restart_replays_to_identical_findings() {
    let dir = scratch("kill9");
    let cache = dir.join("cache");
    let socket = dir.join("d.sock");

    // Seed files on disk, as the CLI consumes them.
    let mut files = BTreeMap::new();
    let mut seed_paths = Vec::new();
    for prefix in ["a", "b"] {
        let name = format!("{prefix}.c");
        let source = variant(prefix, 0);
        let path = dir.join(&name);
        std::fs::write(&path, &source).unwrap();
        files.insert(name, source);
        seed_paths.push(path);
    }
    let main_src = "void main() { aent(); bent(); }\n".to_string();
    let main_path = dir.join("main.c");
    std::fs::write(&main_path, &main_src).unwrap();
    files.insert("main.c".to_string(), main_src);
    seed_paths.push(main_path);

    let mut child = spawn_serve(&socket, &cache, &seed_paths);
    let client = Client::new(&socket);
    wait_ready(&client, &mut child);

    // Two acknowledged edits: each EditOk implies the journal publish
    // that preceded it, so both must survive the kill. Each epoch is
    // checked, so the last one adopts `a`'s entries written in epoch 1.
    for (prefix, v, expect_epoch) in [("a", 1, 1), ("b", 1, 2)] {
        let _ = warm_text(&client);
        match client
            .request(&Request::Edit {
                file: format!("{prefix}.c"),
                content: Some(variant(prefix, v)),
            })
            .unwrap()
        {
            Response::EditOk { epoch, .. } => assert_eq!(epoch, expect_epoch),
            other => panic!("expected edit_ok, got {other:?}"),
        }
        files.insert(format!("{prefix}.c"), variant(prefix, v));
    }
    let before = warm_text(&client);
    assert!(
        !before.is_empty(),
        "null-deref variants must produce findings"
    );

    // SIGKILL: no shutdown handshake, no journal flush beyond the
    // publishes already acknowledged.
    child.kill().unwrap();
    child.wait().unwrap();

    let mut child = spawn_serve(&socket, &cache, &seed_paths);
    wait_ready(&client, &mut child);
    assert_eq!(stat(&client, "epoch"), 2, "journal must replay both edits");
    let after = warm_text(&client);
    assert_eq!(after, before, "post-kill findings diverged from pre-kill");
    assert_eq!(after, cold_text(&files), "warm findings diverged from cold");
    // Fully warm: every entry the check consulted was on disk and valid,
    // including the ones written under epoch 1's program hash.
    assert!(stat(&client, "store_hits") > 0);
    assert_eq!(stat(&client, "store_misses"), 0);
    assert_eq!(stat(&client, "store_invalidated"), 0);

    // `check --remote` re-sends a.c (same content) and runs the suite
    // through the daemon; findings mean exit code 1.
    let edited_a = dir.join("a.c");
    std::fs::write(&edited_a, variant("a", 1)).unwrap();
    let out = Command::new(BIN)
        .arg("check")
        .arg(&edited_a)
        .arg("--remote")
        .arg(&socket)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings must exit 1 (stdout: {stdout})"
    );
    assert!(stdout.contains("daemon epoch"), "stdout: {stdout}");

    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShutdownOk
    ));
    child.wait().unwrap();
}
