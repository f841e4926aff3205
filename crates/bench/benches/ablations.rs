//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Andersen threshold sweep** (§2: "This threshold can be determined
//!    empirically. For our benchmark suite it turned out to be 60") — total
//!    and max-part FSCS time as the threshold moves;
//! 2. **Constraint cap** (Definition 8 widening) — summary tuple counts
//!    and time as the conjunction cap grows;
//! 3. **Real-thread parallel speedup** (§1's parallelization claim).

use std::time::Duration;

use bootstrap_bench::fmt_secs;
use bootstrap_core::{parallel, Config, Session};
use bootstrap_workloads::presets;

fn main() {
    let preset = presets::by_name("autofs").expect("autofs preset");
    let program = preset.generate();
    let steps = 2_000_000;

    println!("== Ablation 1: Andersen threshold sweep (autofs-like workload) ==");
    println!(
        "{:>10} {:>9} {:>7} {:>10} {:>10}",
        "threshold", "clusters", "max", "total", "max-part/5"
    );
    for threshold in [0usize, 10, 30, 60, 120, usize::MAX] {
        let session = Session::new(
            &program,
            Config {
                andersen_threshold: threshold,
                ..Config::default()
            },
        );
        let cover = session.cover().clone();
        let (reports, total) =
            parallel::timed(|| parallel::process_clusters(&session, cover.clusters(), steps));
        let sim = parallel::simulated_parallel_time(&reports, 5);
        let label = if threshold == usize::MAX {
            "inf".to_string()
        } else {
            threshold.to_string()
        };
        println!(
            "{label:>10} {:>9} {:>7} {:>10} {:>10}",
            cover.len(),
            cover.max_cluster_size(),
            fmt_secs(total),
            fmt_secs(sim)
        );
    }

    println!();
    println!("== Ablation 2: constraint conjunction cap (churn workload) ==");
    // A store-churn workload: chains of ambiguous stores force long
    // Definition-8 conjunctions, so the cap genuinely trades precision
    // (tuple count) against time.
    let churn_program = bootstrap_workloads::generate(&bootstrap_workloads::GenConfig {
        name: "churn".into(),
        seed: 77,
        n_funcs: 12,
        big_partitions: vec![],
        small_partitions: 8,
        small_max: 4,
        singletons: 0,
        call_percent: 10,
        churn_communities: 24,
        control_flow: true,
    });
    println!("{:>5} {:>12} {:>10}", "cap", "tuples", "time");
    for cap in [1usize, 2, 4, 8, 16] {
        let session = Session::new(
            &churn_program,
            Config {
                cond_cap: cap,
                ..Config::default()
            },
        );
        let cover = session.cover().clone();
        let (reports, total) =
            parallel::timed(|| parallel::process_clusters(&session, cover.clusters(), steps));
        let tuples: usize = reports.iter().map(|r| r.summary_tuples).sum();
        println!("{cap:>5} {tuples:>12} {:>10}", fmt_secs(total));
    }

    println!();
    println!("== Ablation 3: real-thread parallel speedup (clamd workload) ==");
    let clamd = presets::by_name("clamd").expect("clamd preset").generate();
    let session = Session::new(&clamd, Config::default());
    let cover = session.cover().clone();
    let mut base = Duration::ZERO;
    println!("{:>8} {:>10} {:>8}", "threads", "wall", "speedup");
    for threads in [1usize, 2, 4, 8] {
        let (_, wall) = parallel::timed(|| {
            parallel::process_clusters_parallel(&session, cover.clusters(), threads, steps)
        });
        if threads == 1 {
            base = wall;
        }
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        println!("{threads:>8} {:>10} {speedup:>7.2}x", fmt_secs(wall));
    }
}
