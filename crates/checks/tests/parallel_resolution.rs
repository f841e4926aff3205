//! Phase 1 of a checker batch at realistic size: the parallel site
//! resolution must give the answers of the single-threaded one, and a
//! batch the size of the benchmark's labeled corpus must stay on the
//! calling thread. Meant to run in release (`cargo test --release -p
//! bootstrap-checks --test parallel_resolution`), where the timings that
//! drive the spawn rule match the benchmark's.

use std::time::Duration;

use bootstrap_checks::{run_checks_scheduled, CheckReport, CheckerKind, SPAWN_AFTER};
use bootstrap_core::parallel::PoolStats;
use bootstrap_core::{Config, QueryLimits, Session};
use bootstrap_workloads::buggy::{self, BuggyConfig};
use bootstrap_workloads::presets;

fn scheduled(
    session: &Session<'_>,
    threads: usize,
    spawn_after: Duration,
) -> (CheckReport, PoolStats) {
    let limits = QueryLimits::none();
    run_checks_scheduled(
        session,
        &CheckerKind::ALL,
        &limits,
        session.analyzer(),
        threads,
        spawn_after,
    )
}

#[test]
fn autofs_answers_match_at_one_and_two_threads() {
    let program = presets::by_name("autofs")
        .expect("autofs preset exists")
        .generate();
    let run = |threads| {
        let session = Session::new(&program, Config::default());
        scheduled(&session, threads, Duration::ZERO)
    };
    let (one, _) = run(1);
    let (two, pool) = run(2);
    assert_eq!(pool.helpers(), 1, "a zero threshold starts the helper");
    assert!(
        pool.workers.iter().all(|w| w.tasks > 0),
        "both workers resolved groups: {:?}",
        pool.workers
    );
    assert!(one.degrade.total_queries() > 0);
    assert_eq!(one.findings, two.findings);
    assert_eq!(one.stats, two.stats);
    assert_eq!(one.degrade, two.degrade);
}

#[test]
fn the_benchmark_corpus_stays_on_the_calling_thread() {
    // The benchmark checks the corpus at 40x. An unoptimized build
    // resolves an order of magnitude slower than the benchmark's release
    // build, so it checks the 1x corpus instead.
    let scale = if cfg!(debug_assertions) { 1 } else { 40 };
    let program = buggy::generate(&BuggyConfig::default().scaled(scale)).program;
    let session = Session::new(&program, Config::default());
    // The first batch of a process also pays for growing the heap; the
    // claim is about the batches after it.
    scheduled(&session, 1, SPAWN_AFTER);
    let (report, pool) = scheduled(&session, 4, SPAWN_AFTER);
    assert!(!report.findings.is_empty());
    assert_eq!(pool.helpers(), 0, "resolving took {:?}", pool.wall);
}
