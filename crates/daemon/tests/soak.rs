//! Chaos soak: seeded edit/query storms against the daemon with
//! `FaultPhase::Serve` faults armed, across restarts.
//!
//! The harness drives a model workspace (per-file variant assignment)
//! and asserts, for every iteration:
//!
//! * the daemon's `check` text is **byte-identical** to a cold,
//!   store-less single-process run of the same workspace — across
//!   adopted clusters, injected connection drops, worker stalls, and
//!   journal corruption;
//! * `edit_ok` dirty accounting is bounded by the edit's partition
//!   footprint: identical content dirties nothing, and a single-file
//!   change dirties a strict subset of the partitions;
//! * point queries at each network's exit report exactly the sources
//!   the variant implies.
//!
//! Each round restarts the daemon with a fresh fault plan, so journal
//! replay (and the corrupt-journal demotion path, when an `arena-full`
//! serve fault garbled the last publish) is exercised repeatedly. The
//! scale knobs honor `SOAK_ROUNDS` / `SOAK_ITERS` so CI can run a quick
//! smoke while the default run covers ≥ 200 iterations across 1/2/4
//! worker threads.

mod common;

use std::collections::{BTreeMap, HashMap};

use bootstrap_client::{parse_hex_u64, Client, Request, Response};
use bootstrap_core::{FaultKind, FaultPhase, FaultPlan};
use bootstrap_daemon::ServeOptions;

use common::*;

const FILES: [&str; 3] = ["a.c", "b.c", "c.c"];

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Soak {
    client: Client,
    /// The soak's model of the resident workspace.
    state: BTreeMap<&'static str, u64>,
    expected_epoch: u64,
    /// Cold ground truth memoized per variant assignment.
    cold: HashMap<Vec<u64>, Cold>,
    iterations: u64,
    edits: u64,
}

impl Soak {
    fn cold(&mut self) -> &Cold {
        let key: Vec<u64> = self.state.values().copied().collect();
        let files = files_for(&self.state);
        self.cold.entry(key).or_insert_with(|| cold_eval(&files))
    }

    fn stats(&self) -> bootstrap_client::Json {
        match self.client.request(&Request::Stats).expect("stats") {
            Response::StatsOk(json) => json,
            other => panic!("expected stats_ok, got {other:?}"),
        }
    }

    /// Re-learns the daemon's state after a restart: either the journal
    /// replayed the model, or a corrupt journal demoted it to the seed.
    fn resync(&mut self) {
        let stats = self.stats();
        let hash = stats
            .get("program_hash")
            .and_then(parse_hex_u64)
            .expect("program_hash in stats");
        let epoch = stats.get("epoch").and_then(|v| v.as_u64()).unwrap();
        if hash == self.cold().hash {
            assert_eq!(epoch, self.expected_epoch, "journal replayed a stale epoch");
            return;
        }
        let seed_hash = {
            let key: Vec<u64> = seed_state().values().copied().collect();
            let files = files_for(&seed_state());
            self.cold
                .entry(key)
                .or_insert_with(|| cold_eval(&files))
                .hash
        };
        assert_eq!(
            hash, seed_hash,
            "daemon recovered to neither the journaled workspace nor the seed"
        );
        assert_eq!(epoch, 0, "seed fallback must restart the epoch counter");
        self.state = seed_state();
        self.expected_epoch = 0;
    }

    fn edit(&mut self, file: &'static str, v: u64) {
        let unchanged = self.state[file] == v;
        let prefix = &file[..1];
        let resp = self
            .client
            .request(&Request::Edit {
                file: file.to_string(),
                content: Some(variant(prefix, v)),
            })
            .expect("edit survives injected faults via retry");
        let Response::EditOk { epoch, dirty } = resp else {
            panic!("expected edit_ok, got {resp:?}");
        };
        self.expected_epoch += 1;
        self.edits += 1;
        assert_eq!(epoch, self.expected_epoch, "epochs must be dense");
        assert!(dirty.total_partitions > 0);
        if unchanged {
            assert_eq!(
                dirty.dirty_partitions, 0,
                "identical content must dirty nothing: {dirty:?}"
            );
            assert_eq!(dirty.dirty_clusters, 0);
        } else {
            assert!(
                dirty.dirty_partitions > 0,
                "a changed file must dirty its own partition: {dirty:?}"
            );
            assert!(
                dirty.dirty_partitions < dirty.total_partitions,
                "a single-file edit must leave the other networks clean: {dirty:?}"
            );
        }
        self.state.insert(file, v);
    }

    fn check(&mut self) {
        let resp = self
            .client
            .request(&Request::Check {
                kinds: vec![],
                deadline_ms: None,
            })
            .expect("check survives injected faults via retry");
        let Response::CheckOk { text, findings, .. } = resp else {
            panic!("expected check_ok, got {resp:?}");
        };
        let state = format!("{:?}", self.state);
        let cold = self.cold();
        assert_eq!(
            text, cold.text,
            "warm findings diverged from the cold run for {state}"
        );
        assert_eq!(findings, cold.findings);
        self.iterations += 1;
    }

    /// Queries one network's pointer at its entry function's exit and
    /// checks the sources against what the variant implies.
    fn query(&mut self, file: &'static str) {
        let prefix = &file[..1];
        let files = files_for(&self.state);
        let stmt = exit_stmt(&files, &format!("{prefix}ent"));
        let resp = self
            .client
            .request(&Request::Query {
                func: format!("{prefix}ent"),
                stmt,
                var: format!("{prefix}p"),
                deadline_ms: Some(60_000),
            })
            .expect("query survives injected faults via retry");
        let Response::QueryOk {
            sources, precision, ..
        } = resp
        else {
            panic!("expected query_ok, got {resp:?}");
        };
        if precision != "fscs" {
            return; // degraded answers over-approximate; nothing sharp to assert
        }
        let joined = sources.join(" | ");
        match self.state[file] {
            0 => assert!(
                joined.contains(&format!("&{prefix}a")),
                "{file} v0: {joined}"
            ),
            1 => assert!(joined.contains("NULL"), "{file} v1: {joined}"),
            2 => assert!(
                joined.contains("NULL") && joined.contains(&format!("&{prefix}a")),
                "{file} v2: {joined}"
            ),
            _ => assert!(
                joined.contains(&format!("&{prefix}b")),
                "{file} v3: {joined}"
            ),
        }
        self.iterations += 1;
    }
}

/// One worker-count configuration: `rounds` daemon generations sharing
/// a cache dir, each generation a seeded storm with one serve fault.
fn soak_config(workers: usize, rounds: u64, iters: u64, seed: u64) -> (u64, u64) {
    let tag = format!("soak-w{workers}");
    let socket = tmp_socket(&tag);
    let cache = tmp_dir(&format!("{tag}-cache"));
    let mut rng = seed;

    let mut soak = Soak {
        client: Client::new(&socket),
        state: seed_state(),
        expected_epoch: 0,
        cold: HashMap::new(),
        iterations: 0,
        edits: 0,
    };
    soak.client.seed = seed;
    soak.client.max_attempts = 10;

    let mut last_totals = (0, 0);
    for round in 0..rounds {
        let kind = match round % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Budget,
            _ => FaultKind::ArenaFull,
        };
        let mut opts = ServeOptions::new(&socket);
        opts.workers = workers;
        opts.queue_cap = 4;
        opts.cache_dir = Some(cache.clone());
        opts.seed_files = files_for(&seed_state());
        opts.fault_plan = Some(FaultPlan {
            phase: FaultPhase::Serve,
            kind,
            at_tick: splitmix(&mut rng) % 24 + 1,
            cluster: None,
        });
        let handle = spawn_daemon(opts);
        wait_socket(&socket);

        soak.resync();
        for _ in 0..iters {
            let file = FILES[(splitmix(&mut rng) % 3) as usize];
            let v = splitmix(&mut rng) % VARIANTS;
            soak.edit(file, v);
            soak.check();
            if splitmix(&mut rng).is_multiple_of(4) {
                soak.query(file);
            }
        }

        let stats = soak.stats();
        let get = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap();
        assert_eq!(get("epoch"), soak.expected_epoch);
        assert!(get("requests") > 0);
        assert_eq!(get("edits_rejected"), 0);
        last_totals = (get("dirty_clusters_total"), get("clusters_total"));

        soak.client.request(&Request::Shutdown).expect("shutdown");
        handle.join().unwrap().unwrap();
    }

    // Recompute work across the whole config must be bounded by the
    // partition overlap of the edits: plenty of clusters were diffed,
    // strictly fewer were dirtied (identical-content edits and the
    // untouched networks stay clean).
    let (dirty, total) = last_totals;
    assert!(total > 0, "soak never exercised an edit barrier");
    assert!(dirty > 0, "soak never dirtied a cluster");
    assert!(
        dirty < total,
        "dirty clusters ({dirty}) must stay a strict subset of diffed clusters ({total})"
    );
    (soak.iterations, soak.edits)
}

#[test]
fn chaos_soak_warm_equals_cold_under_faults() {
    let rounds = env_or("SOAK_ROUNDS", 5);
    let iters = env_or("SOAK_ITERS", 16);
    let mut iterations = 0;
    let mut edits = 0;
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let (it, ed) = soak_config(workers, rounds, iters, 0x5eed_0000 + i as u64);
        iterations += it;
        edits += ed;
    }
    let floor = rounds * iters * 3;
    assert!(
        iterations >= floor,
        "soak ran {iterations} verified iterations, expected at least {floor}"
    );
    eprintln!("chaos soak: {iterations} verified iterations, {edits} edit barriers");
}
