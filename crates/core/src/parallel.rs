//! Per-cluster drivers: serial, pooled threaded, and the paper's
//! 5-machine simulation.
//!
//! Clusters can be analyzed independently of each other (§1: "the analysis
//! for each of the subsets can be carried out independently of others
//! thereby allowing us to leverage parallelization"). [`run_pool`] is the
//! workspace's one worker pool: workers take tasks in [`lpt_order`] from a
//! shared cursor, so an idle worker always starts the largest task left and
//! a straggler (or a retry) never holds queued work hostage. The cluster
//! driver and the checkers' site resolution both run on it.
//! [`list_schedule`] models that schedule from measured per-cluster
//! durations; [`greedy_bins`] is retained as the paper's *static*
//! contiguous binning (an upper bound on the makespan the pool achieves,
//! reported for Table-1 comparability).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::analyzer::Analyzer;
use crate::cover::Cluster;
use crate::degrade::{classify_panic, DegradeReason, PanicClass};
use crate::intern::Interner;
use crate::session::Session;

/// The result of analyzing one cluster.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The cluster's id within its cover.
    pub cluster_id: usize,
    /// Number of member pointers.
    pub size: usize,
    /// Size of the relevant-statement slice `St_P`.
    pub relevant_stmts: usize,
    /// Number of `(function, target)` summary entries computed.
    pub summary_entries: usize,
    /// Total summary tuples.
    pub summary_tuples: usize,
    /// Wall-clock time for the cluster.
    pub duration: Duration,
    /// Why the cluster fell short of a complete FSCS result, if it did
    /// (budget exhaustion, arena overflow, or a panic). `None` means every
    /// summary and every member query completed.
    pub degraded: Option<DegradeReason>,
}

impl ClusterReport {
    /// A report for a cluster that produced no usable engine counters —
    /// its analysis panicked or its worker vanished.
    fn stub(cluster: &Cluster, duration: Duration, reason: DegradeReason) -> Self {
        ClusterReport {
            cluster_id: cluster.id,
            size: cluster.members.len(),
            relevant_stmts: 0,
            summary_entries: 0,
            summary_tuples: 0,
            duration,
            degraded: Some(reason),
        }
    }
}

/// Runs one cluster under a panic guard. Returns the report plus whether
/// the analyzer was poisoned (the caller must replace it before reusing
/// it: a panic can leave partially-fixpointed summaries behind).
fn run_cluster_guarded(
    session: &Session<'_>,
    az: &Analyzer<'_>,
    cluster: &Cluster,
    steps: u64,
) -> (ClusterReport, bool) {
    let budget = session.config().cluster_budget(steps, cluster.id);
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| az.process_cluster(cluster, budget))) {
        Ok(report) => (report, false),
        Err(payload) => {
            let class = classify_panic(payload.as_ref());
            az.poison(class);
            let reason = DegradeReason::Panicked { class };
            (ClusterReport::stub(cluster, t0.elapsed(), reason), true)
        }
    }
}

/// One retry for a panicked or arena-full cluster: a fresh analyzer over a
/// private arena with doubled id capacity, isolated from the session's
/// shared interner (siblings keep theirs untouched). Deterministic
/// injected faults re-fire here, so a fault-injected cluster converges to
/// a degraded report instead of flapping.
fn retry_cluster(session: &Session<'_>, cluster: &Cluster, steps: u64) -> ClusterReport {
    let arena = Arc::new(Interner::with_max_ids(
        session.config().cond_cap,
        session.interner().max_ids().saturating_mul(2),
    ));
    let az = session.analyzer_with_arena(arena);
    run_cluster_guarded(session, &az, cluster, steps).0
}

/// Whether a degraded first attempt earns the one retry: panics and arena
/// overflow can be cured by fresh state and a bigger arena; a blown step
/// or wall budget cannot.
fn retryable(degraded: Option<DegradeReason>) -> bool {
    matches!(
        degraded,
        Some(DegradeReason::ArenaFull | DegradeReason::Panicked { .. })
    )
}

/// Analyzes every cluster serially with one shared analyzer (and therefore
/// a shared FSCI cache). Each cluster is panic-guarded: a panicking or
/// arena-full cluster is retried once on a fresh analyzer with a
/// doubled-capacity private arena, and if it still fails only that
/// cluster's report is degraded — siblings are unaffected.
pub fn process_clusters(
    session: &Session<'_>,
    clusters: &[Cluster],
    steps_per_cluster: u64,
) -> Vec<ClusterReport> {
    let mut analyzer = session.analyzer();
    let mut out = Vec::with_capacity(clusters.len());
    for c in clusters {
        let (mut report, poisoned) = run_cluster_guarded(session, &analyzer, c, steps_per_cluster);
        if poisoned {
            analyzer = session.analyzer();
        }
        if retryable(report.degraded) {
            report = retry_cluster(session, c, steps_per_cluster);
        }
        out.push(report);
    }
    out
}

/// Largest-processing-time-first schedule: cluster indices in descending
/// member-count order (ties broken by ascending index, so the schedule is
/// deterministic). Per-cluster cost grows super-linearly with member count,
/// so starting the big clusters first minimizes the makespan — a small
/// cluster arriving last pads the tail by little, a big one by a lot.
pub fn lpt_order(clusters: &[Cluster]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(clusters[i].members.len()), i));
    order
}

/// Counters for one worker of a [`run_pool`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker ran.
    pub tasks: usize,
    /// Time spent inside tasks, as opposed to starting up or waiting for
    /// siblings to finish.
    pub busy: Duration,
}

/// Scheduler-level counters from one [`run_pool`] run.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// One entry per worker that ran: the calling thread first, then each
    /// helper it started.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock for the whole run (first task to last join).
    pub wall: Duration,
}

impl PoolStats {
    /// Helper threads started besides the calling thread.
    pub fn helpers(&self) -> usize {
        self.workers.len().saturating_sub(1)
    }

    /// Pool utilization in `[0, 1]`: summed busy time over
    /// `workers × wall`. On a single hardware thread the OS serializes the
    /// workers, so this measures scheduling overhead, not speedup.
    pub fn utilization(&self) -> f64 {
        let busy: Duration = self.workers.iter().map(|w| w.busy).sum();
        let capacity = self.wall.as_secs_f64() * self.workers.len().max(1) as f64;
        if capacity == 0.0 {
            0.0
        } else {
            (busy.as_secs_f64() / capacity).min(1.0)
        }
    }
}

/// The one worker pool of the workspace: runs tasks `0..order.len()` in
/// the priority `order` gives (a permutation, largest task first — see
/// [`lpt_order`]), each worker taking the next task from one shared
/// cursor. An idle worker therefore always starts the largest task left,
/// the list schedule [`list_schedule`] models.
///
/// The calling thread is the first worker. Once it has been running for
/// `spawn_after` (checked each time it takes a task) and tasks remain, it
/// starts `threads - 1` scoped helpers on the same cursor; a run that
/// finishes sooner never pays for a thread. `Duration::ZERO` starts the
/// helpers at the first task.
///
/// Every worker builds its own state with `init` on its own thread (so
/// the state need not be `Send`), passes it to `task` for each task it
/// takes, and hands it to `finish` before it ends. A task that must not
/// leak state into the next one (a poisoned analyzer) resets it inside
/// `task`. Results come back indexed by task, whatever worker ran it; a
/// slot is `None` only if its helper died, which callers report or
/// recompute rather than trust.
pub fn run_pool<S, R, I, T, F>(
    order: &[usize],
    threads: usize,
    spawn_after: Duration,
    init: I,
    task: T,
    finish: F,
) -> (Vec<Option<R>>, PoolStats)
where
    R: Send,
    I: Fn() -> S + Sync,
    T: Fn(&mut S, usize) -> R + Sync,
    F: Fn(S) + Sync,
{
    let t0 = Instant::now();
    let cursor = AtomicUsize::new(0);
    let worker = |on_take: &mut dyn FnMut()| {
        let mut state = init();
        let mut done: Vec<(usize, R)> = Vec::new();
        let mut stats = WorkerStats::default();
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            on_take();
            let start = Instant::now();
            done.push((i, task(&mut state, i)));
            stats.tasks += 1;
            stats.busy += start.elapsed();
        }
        finish(state);
        (done, stats)
    };
    std::thread::scope(|scope| {
        let mut helpers = Vec::new();
        let spawn = |helpers: &mut Vec<_>| {
            if helpers.is_empty()
                && threads > 1
                && cursor.load(Ordering::Relaxed) < order.len()
                && t0.elapsed() >= spawn_after
            {
                helpers.extend((1..threads).map(|_| scope.spawn(|| worker(&mut || {}))));
            }
        };
        let mine = worker(&mut || spawn(&mut helpers));
        let mut out: Vec<Option<R>> = (0..order.len()).map(|_| None).collect();
        let mut workers = Vec::with_capacity(1 + helpers.len());
        let joined = helpers.into_iter().map(|h| h.join().unwrap_or_default());
        for (done, stats) in std::iter::once(mine).chain(joined) {
            for (i, r) in done {
                out[i] = Some(r);
            }
            workers.push(stats);
        }
        let wall = t0.elapsed();
        (out, PoolStats { workers, wall })
    })
}

/// Analyzes clusters on up to `threads` OS threads through [`run_pool`],
/// largest cluster first ([`lpt_order`]). Each worker owns its own
/// analyzer, but all of them consult the session's shared FSCI cache
/// ([`Session::fsci_cache_stats`] counts the sharing). Reports come back
/// in cluster order regardless of which worker ran what, so output is
/// deterministic even though the schedule is not.
///
/// Fault isolation matches the serial driver: every cluster is
/// panic-guarded and retried once (fresh analyzer, doubled private arena)
/// on panic or arena overflow; a worker whose analyzer was poisoned
/// replaces it with a sibling before its next cluster. A retry only delays
/// the one worker that hit it — the others keep taking clusters. Every
/// cluster slot always gets a report — if a worker vanishes without
/// delivering one (which the panic guard should make impossible), the
/// slot is filled with a [`DegradeReason::Panicked`] stub tagged
/// [`PanicClass::WorkerLost`] rather than silently dropped or turned into
/// a driver panic.
pub fn process_clusters_parallel_with_stats(
    session: &Session<'_>,
    clusters: &[Cluster],
    threads: usize,
    steps_per_cluster: u64,
) -> (Vec<ClusterReport>, PoolStats) {
    let (reports, stats) = run_pool(
        &lpt_order(clusters),
        threads,
        Duration::ZERO,
        || session.analyzer(),
        |az, i| {
            let (mut report, poisoned) =
                run_cluster_guarded(session, az, &clusters[i], steps_per_cluster);
            if poisoned {
                *az = az.sibling();
            }
            if retryable(report.degraded) {
                report = retry_cluster(session, &clusters[i], steps_per_cluster);
            }
            report
        },
        drop,
    );
    let reports = reports
        .into_iter()
        .zip(clusters)
        .map(|(r, c)| {
            r.unwrap_or_else(|| {
                let lost = DegradeReason::Panicked {
                    class: PanicClass::WorkerLost,
                };
                ClusterReport::stub(c, Duration::ZERO, lost)
            })
        })
        .collect();
    (reports, stats)
}

/// [`process_clusters_parallel_with_stats`] without the scheduler counters.
pub fn process_clusters_parallel(
    session: &Session<'_>,
    clusters: &[Cluster],
    threads: usize,
    steps_per_cluster: u64,
) -> Vec<ClusterReport> {
    process_clusters_parallel_with_stats(session, clusters, threads, steps_per_cluster).0
}

/// The paper's *static* machine-distribution heuristic, kept for Table-1
/// comparability: clusters are processed one-by-one, accumulating pointer
/// counts; once a part's cumulative size exceeds `total/parts`, the part
/// is closed. Returns the summed duration of each part. Because the parts
/// are contiguous and fixed up front, the maximum bin is an *upper* bound
/// on what the pool achieves — use [`list_schedule`] /
/// [`simulated_parallel_time`] for the schedule the live driver runs.
pub fn greedy_bins(reports: &[ClusterReport], parts: usize) -> Vec<Duration> {
    let parts = parts.max(1);
    let total: usize = reports.iter().map(|r| r.size).sum();
    let target = total.div_ceil(parts).max(1);
    let mut bins = Vec::new();
    let mut acc_size = 0usize;
    let mut acc_time = Duration::ZERO;
    for r in reports {
        acc_size += r.size;
        acc_time += r.duration;
        if acc_size >= target {
            bins.push(acc_time);
            acc_size = 0;
            acc_time = Duration::ZERO;
        }
    }
    if acc_time > Duration::ZERO || bins.is_empty() {
        bins.push(acc_time);
    }
    bins
}

/// Models [`run_pool`] over measured per-cluster durations: a greedy list
/// schedule in longest-processing-time order (ties by cluster index), each
/// cluster going to the earliest-free worker — what the shared cursor
/// does, a worker only idling once the cursor is exhausted. Unlike the
/// live pool's task placement, the model is deterministic. Returns per-worker busy times;
/// the makespan is the maximum entry.
pub fn list_schedule(reports: &[ClusterReport], workers: usize) -> Vec<Duration> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..reports.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(reports[i].duration), i));
    let mut loads = vec![Duration::ZERO; workers];
    for i in order {
        let w = (0..workers)
            .min_by_key(|&k| loads[k])
            .expect("workers >= 1");
        loads[w] += reports[i].duration;
    }
    loads
}

/// The simulated parallel time over `parts` machines under the pool's
/// schedule model ([`list_schedule`]) — the makespan the
/// pool converges to given the measured per-cluster durations. (The
/// paper's Table 1 reports the same quantity for its static 5-machine
/// split; [`greedy_bins`] reproduces that older, looser model.)
pub fn simulated_parallel_time(reports: &[ClusterReport], parts: usize) -> Duration {
    list_schedule(reports, parts)
        .into_iter()
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Measures the wall-clock of running `f` (bench helper).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::parse_program;

    fn demo_program() -> bootstrap_ir::Program {
        let mut src = String::new();
        for i in 0..6 {
            src.push_str(&format!("int o{i}; int *p{i};\n"));
        }
        src.push_str("void main() {\n");
        for i in 0..6 {
            src.push_str(&format!("p{i} = &o{i};\n"));
        }
        src.push_str("}\n");
        parse_program(&src).unwrap()
    }

    #[test]
    fn serial_processes_every_cluster() {
        let p = demo_program();
        let s = Session::new(&p, Config::default());
        let clusters = s.cover().clusters().to_vec();
        let reports = process_clusters(&s, &clusters, 1_000_000);
        assert_eq!(reports.len(), clusters.len());
        assert!(reports.iter().all(|r| r.degraded.is_none()));
        assert!(reports.iter().all(|r| r.size >= 1));
    }

    #[test]
    fn parallel_matches_serial_reports() {
        let p = demo_program();
        let s = Session::new(&p, Config::default());
        let clusters = s.cover().clusters().to_vec();
        let serial = process_clusters(&s, &clusters, 1_000_000);
        let parallel = process_clusters_parallel(&s, &clusters, 4, 1_000_000);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.cluster_id, b.cluster_id);
            assert_eq!(a.size, b.size);
            assert_eq!(a.summary_tuples, b.summary_tuples);
            assert_eq!(a.degraded, b.degraded);
        }
    }

    #[test]
    fn lpt_order_is_descending_by_size() {
        use crate::cover::ClusterOrigin;
        use bootstrap_ir::VarId;
        let mk = |id: usize, n: usize| {
            Cluster::new(
                id,
                ClusterOrigin::WholeProgram,
                (0..n).map(VarId::new).collect(),
            )
        };
        let clusters = vec![mk(0, 2), mk(1, 7), mk(2, 7), mk(3, 1), mk(4, 5)];
        assert_eq!(lpt_order(&clusters), vec![1, 2, 4, 0, 3]);
        let sizes: Vec<usize> = lpt_order(&clusters)
            .into_iter()
            .map(|i| clusters[i].members.len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(lpt_order(&[]).is_empty());
    }

    #[test]
    fn lpt_order_breaks_size_ties_by_cluster_index() {
        use crate::cover::ClusterOrigin;
        use bootstrap_ir::VarId;
        let mk = |id: usize, n: usize| {
            Cluster::new(
                id,
                ClusterOrigin::WholeProgram,
                (0..n).map(VarId::new).collect(),
            )
        };
        // All equal sizes: the order must be exactly the cluster indices,
        // so parallel runs schedule (and report) reproducibly.
        let equal = vec![mk(0, 3), mk(1, 3), mk(2, 3), mk(3, 3)];
        assert_eq!(lpt_order(&equal), vec![0, 1, 2, 3]);
        // Mixed: ties broken by index within each size band, and the
        // result is identical across repeated invocations.
        let mixed = vec![mk(0, 5), mk(1, 9), mk(2, 5), mk(3, 9), mk(4, 5)];
        let first = lpt_order(&mixed);
        assert_eq!(first, vec![1, 3, 0, 2, 4]);
        for _ in 0..10 {
            assert_eq!(lpt_order(&mixed), first);
        }
    }

    #[test]
    fn parallel_workers_publish_to_shared_fsci_cache() {
        // Multi-level pointers force the engine to consult the FSCI oracle
        // while processing clusters; clean results land in the session's
        // shared cache where every worker can see them.
        let p = parse_program(
            "int a; int b; int *x; int *y; int **z; int **w;
             void main() { x = &a; z = &x; w = z; *z = &b; y = *w; }",
        )
        .unwrap();
        let s = Session::new(&p, Config::default());
        let clusters = s.cover().clusters().to_vec();
        let reports = process_clusters_parallel(&s, &clusters, 4, 1_000_000);
        assert_eq!(reports.len(), clusters.len());
        let stats = s.fsci_cache_stats();
        assert!(
            stats.entries > 0,
            "cluster processing should publish FSCI results: {stats:?}"
        );
    }

    #[test]
    fn injected_faults_degrade_only_the_target_cluster() {
        use crate::degrade::{FaultKind, FaultPhase, FaultPlan};
        let p = demo_program();
        let clean_session = Session::new(&p, Config::default());
        let clean_clusters = clean_session.cover().clusters().to_vec();
        let clean = process_clusters(&clean_session, &clean_clusters, 1_000_000);
        assert!(clean.iter().all(|r| r.degraded.is_none()));
        let target = 2usize;
        for kind in FaultKind::ALL {
            let config = Config {
                fault_plan: Some(FaultPlan {
                    phase: FaultPhase::Summaries,
                    kind,
                    at_tick: 1,
                    cluster: Some(target),
                }),
                ..Config::default()
            };
            let s = Session::new(&p, config);
            let clusters = s.cover().clusters().to_vec();
            assert_eq!(clusters.len(), clean_clusters.len());
            for threads in [1usize, 2, 4] {
                let reports = process_clusters_parallel(&s, &clusters, threads, 1_000_000);
                assert_eq!(reports.len(), clean.len());
                for (r, c) in reports.iter().zip(clean.iter()) {
                    if r.cluster_id == target {
                        let reason = r.degraded.unwrap_or_else(|| {
                            panic!("faulted cluster must degrade under {kind:?}")
                        });
                        let expected = match kind {
                            FaultKind::Panic => DegradeReason::Panicked {
                                class: PanicClass::Injected,
                            },
                            FaultKind::Budget => DegradeReason::Injected,
                            FaultKind::ArenaFull => DegradeReason::ArenaFull,
                        };
                        assert_eq!(reason, expected);
                    } else {
                        assert_eq!(
                            r.degraded, c.degraded,
                            "sibling {} affected by {kind:?} fault on {target}",
                            r.cluster_id
                        );
                        assert_eq!(r.size, c.size);
                        assert_eq!(r.relevant_stmts, c.relevant_stmts);
                        assert_eq!(r.summary_entries, c.summary_entries);
                        assert_eq!(r.summary_tuples, c.summary_tuples);
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_arena_degrades_gracefully_with_retry() {
        // A branch-heavy program over a 2-id arena: walks overflow the
        // interner, the driver retries on a doubled private arena, and
        // whatever still overflows degrades as ArenaFull — never a panic,
        // never a lost report.
        let p = parse_program(
            "int a; int b; int c1; int c2; int c3; int *x; int *y;
             void main() {
               if (c1) { x = &a; } else { x = &b; }
               if (c2) { y = x; } else { y = &a; }
               if (c3) { x = y; }
             }",
        )
        .unwrap();
        let config = Config {
            interner_max_ids: 2,
            ..Config::default()
        };
        let s = Session::new(&p, config);
        let clusters = s.cover().clusters().to_vec();
        let reports = process_clusters(&s, &clusters, 1_000_000);
        assert_eq!(reports.len(), clusters.len());
        for r in &reports {
            assert!(
                r.degraded.is_none() || r.degraded == Some(DegradeReason::ArenaFull),
                "unexpected degradation: {:?}",
                r.degraded
            );
        }
    }

    #[test]
    fn pooled_reports_stay_in_deterministic_cluster_order() {
        // Across 1/2/4 threads — and across repeated runs at each width —
        // the pooled driver must return the same reports in cluster order;
        // only durations may differ (they depend on the schedule).
        let p = demo_program();
        let s = Session::new(&p, Config::default());
        let clusters = s.cover().clusters().to_vec();
        let baseline = process_clusters(&s, &clusters, 1_000_000);
        for threads in [1usize, 2, 4] {
            for _ in 0..3 {
                let (reports, stats) =
                    process_clusters_parallel_with_stats(&s, &clusters, threads, 1_000_000);
                assert_eq!(reports.len(), baseline.len());
                for (r, b) in reports.iter().zip(baseline.iter()) {
                    assert_eq!(
                        r.cluster_id, b.cluster_id,
                        "order broke at {threads} threads"
                    );
                    assert_eq!(r.size, b.size);
                    assert_eq!(r.relevant_stmts, b.relevant_stmts);
                    assert_eq!(r.summary_entries, b.summary_entries);
                    assert_eq!(r.summary_tuples, b.summary_tuples);
                    assert_eq!(r.degraded, b.degraded);
                }
                // Scheduler accounting: every cluster ran exactly once,
                // somewhere, and a zero spawn threshold starts every helper.
                assert_eq!(stats.workers.len(), threads);
                assert_eq!(
                    stats.workers.iter().map(|w| w.tasks).sum::<usize>(),
                    clusters.len()
                );
            }
        }
    }

    #[test]
    fn pool_spawns_only_after_the_threshold_with_work_left() {
        let order: Vec<usize> = (0..8).collect();
        let run = |threads, spawn_after| {
            run_pool(
                &order,
                threads,
                spawn_after,
                || 0usize,
                |n, i| {
                    *n += 1;
                    i * 10
                },
                drop,
            )
        };
        // A threshold no batch reaches: the calling thread runs it all.
        let (out, stats) = run(4, Duration::from_secs(3600));
        assert_eq!(stats.helpers(), 0);
        assert_eq!(stats.workers[0].tasks, 8);
        let want: Vec<Option<usize>> = (0..8).map(|i| Some(i * 10)).collect();
        assert_eq!(out, want);
        // Zero: helpers start at the first task; results keep task order.
        let (out, stats) = run(4, Duration::ZERO);
        assert_eq!(stats.helpers(), 3);
        assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<usize>(), 8);
        assert_eq!(out, want);
        // One task left for nobody else: no helper.
        let (_, stats) = run_pool(&[0], 4, Duration::ZERO, || (), |_, _| (), drop);
        assert_eq!(stats.helpers(), 0);
    }

    #[test]
    fn pool_hands_each_worker_state_to_finish() {
        use std::sync::atomic::AtomicUsize;
        let finished = AtomicUsize::new(0);
        let order: Vec<usize> = (0..16).collect();
        let (_, stats) = run_pool(
            &order,
            3,
            Duration::ZERO,
            Vec::new,
            |seen: &mut Vec<usize>, i| seen.push(i),
            |seen| {
                finished.fetch_add(seen.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(finished.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn list_schedule_balances_skewed_durations() {
        let mk = |id, ms| ClusterReport {
            cluster_id: id,
            size: 1,
            relevant_stmts: 0,
            summary_entries: 0,
            summary_tuples: 0,
            duration: Duration::from_millis(ms),
            degraded: None,
        };
        // One 8ms straggler plus seven 1ms clusters on 2 workers: the
        // list model puts the straggler alone (makespan 8ms) while the
        // static contiguous binning can do no better than lump the
        // straggler with neighbours.
        let reports: Vec<ClusterReport> = std::iter::once(mk(0, 8))
            .chain((1..8).map(|i| mk(i, 1)))
            .collect();
        let loads = list_schedule(&reports, 2);
        assert_eq!(loads.len(), 2);
        let total: Duration = loads.iter().sum();
        assert_eq!(total, Duration::from_millis(15), "all work scheduled");
        assert_eq!(
            simulated_parallel_time(&reports, 2),
            Duration::from_millis(8)
        );
        // LPT classic: 4+3+3+2 on 2 workers -> 6/6.
        let lpt = vec![mk(0, 4), mk(1, 3), mk(2, 3), mk(3, 2)];
        assert_eq!(simulated_parallel_time(&lpt, 2), Duration::from_millis(6));
        assert_eq!(simulated_parallel_time(&[], 4), Duration::ZERO);
        // More workers than work: makespan is the longest single cluster.
        assert_eq!(simulated_parallel_time(&lpt, 16), Duration::from_millis(4));
    }

    #[test]
    fn greedy_bins_cover_all_clusters() {
        let mk = |size, ms| ClusterReport {
            cluster_id: 0,
            size,
            relevant_stmts: 0,
            summary_entries: 0,
            summary_tuples: 0,
            duration: Duration::from_millis(ms),
            degraded: None,
        };
        let reports = vec![mk(10, 5), mk(10, 5), mk(10, 5), mk(10, 5), mk(10, 5)];
        let bins = greedy_bins(&reports, 5);
        assert_eq!(bins.len(), 5);
        let total: Duration = bins.iter().sum();
        assert_eq!(total, Duration::from_millis(25));
        assert_eq!(
            simulated_parallel_time(&reports, 5),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn greedy_bins_handles_empty_and_single() {
        assert_eq!(greedy_bins(&[], 5).len(), 1);
        let r = vec![ClusterReport {
            cluster_id: 0,
            size: 3,
            relevant_stmts: 0,
            summary_entries: 0,
            summary_tuples: 0,
            duration: Duration::from_millis(7),
            degraded: None,
        }];
        assert_eq!(simulated_parallel_time(&r, 5), Duration::from_millis(7));
    }
}
