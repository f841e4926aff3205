//! Cluster scheduler benchmark.
//!
//! Runs the cluster drivers over the largest Table 1 preset (sendmail):
//! one serial pass to measure per-cluster durations, then the live
//! shared-cursor pool (`run_pool`) at 1/2/4/8 threads (utilization,
//! wall-clock), alongside the deterministic list-schedule *model* — a
//! longest-processing-time list schedule over the measured durations,
//! which is what the pool's largest-task-left cursor converges to. The
//! model is what the thread-scaling curve is read from: live wall-clock
//! only shows real scaling when the host actually has that many cores
//! (the `cores` and `rustc` fields in the JSON record the host), whereas
//! the model curve is hardware-independent, exactly like the paper's
//! Table 1 "time on 5 machines" column. Results are dumped as
//! `BENCH_parallel.json` at the repo root.
//!
//! Run with: `cargo bench -p bootstrap-bench --bench parallel`
//! (add `-- --quick` for a subsampled cluster set and one live run).

use std::time::Duration;

use bootstrap_core::parallel::{
    greedy_bins, list_schedule, process_clusters, process_clusters_parallel_with_stats, timed,
};
use bootstrap_core::{Config, Session};
use bootstrap_workloads::presets;

/// Per-cluster step budget: the Table-1 quick-profile budget — generous
/// enough that sendmail clusters complete, small enough that a runaway
/// summary cannot stall a worker.
const STEPS_PER_CLUSTER: u64 = 2_000_000;

struct Row {
    threads: usize,
    live_wall: Duration,
    utilization: f64,
    model_makespan: Duration,
    model_speedup: f64,
    static_makespan: Duration,
}

/// The compiler that built this bench, as `rustc --version` prints it.
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn json(preset: &str, cores: usize, n_clusters: usize, serial: Duration, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        concat!(
            "  \"preset\": \"{}\",\n  \"scheduler\": \"shared-cursor LPT pool\",\n",
            "  \"unit\": \"seconds\",\n  \"cores\": {},\n  \"rustc\": \"{}\",\n",
            "  \"clusters\": {},\n",
            "  \"serial_secs\": {:.6},\n",
            "  \"note\": \"model_* columns are the deterministic LPT ",
            "list-schedule model over measured per-cluster durations; ",
            "live_* columns depend on the cores actually present\",\n",
            "  \"threads\": [\n"
        ),
        preset,
        cores,
        rustc_version(),
        n_clusters,
        serial.as_secs_f64(),
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"threads\": {}, \"live_wall_secs\": {:.6}, ",
                "\"utilization\": {:.3}, ",
                "\"model_makespan_secs\": {:.6}, \"model_speedup\": {:.2}, ",
                "\"static_bin_makespan_secs\": {:.6}}}{}\n"
            ),
            r.threads,
            r.live_wall.as_secs_f64(),
            r.utilization,
            r.model_makespan.as_secs_f64(),
            r.model_speedup,
            r.static_makespan.as_secs_f64(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let preset = presets::all()
        .into_iter()
        .max_by_key(|p| p.paper.pointers)
        .expect("presets exist");
    let name = preset.paper.name;
    println!(
        "generating preset '{name}' ({} pointers)...",
        preset.paper.pointers
    );
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    let mut clusters = session.cover().clusters().to_vec();
    if quick {
        // Keep the skew (the big clusters lead the LPT order) but drop
        // most of the long tail of tiny clusters so CI smoke stays fast.
        let mut keep: Vec<_> = clusters.iter().step_by(64).cloned().collect();
        let mut biggest: Vec<_> = clusters.to_vec();
        biggest.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
        keep.extend(biggest.into_iter().take(8));
        keep.sort_by_key(|c| c.id);
        keep.dedup_by_key(|c| c.id);
        clusters = keep;
    }
    println!("processing {} clusters...", clusters.len());

    // Serial pass: the measured per-cluster durations every model row is
    // computed from, and the single-thread reference time.
    let (serial_reports, serial_wall) =
        timed(|| process_clusters(&session, &clusters, STEPS_PER_CLUSTER));
    let degraded = serial_reports
        .iter()
        .filter(|r| r.degraded.is_some())
        .count();
    println!(
        "serial: {serial_wall:?} ({} clusters, {degraded} degraded)",
        serial_reports.len()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_busy: Duration = serial_reports.iter().map(|r| r.duration).sum();
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (reports, stats) =
            process_clusters_parallel_with_stats(&session, &clusters, threads, STEPS_PER_CLUSTER);
        assert_eq!(reports.len(), serial_reports.len());
        let model_makespan = list_schedule(&serial_reports, threads)
            .into_iter()
            .max()
            .unwrap_or(Duration::ZERO);
        let static_makespan = greedy_bins(&serial_reports, threads)
            .into_iter()
            .max()
            .unwrap_or(Duration::ZERO);
        let model_speedup = serial_busy.as_secs_f64() / model_makespan.as_secs_f64().max(1e-9);
        println!(
            "threads {threads}: live {:?} (util {:.0}%), \
             model makespan {:?} ({:.2}x), static bins {:?}",
            stats.wall,
            stats.utilization() * 100.0,
            model_makespan,
            model_speedup,
            static_makespan
        );
        rows.push(Row {
            threads,
            live_wall: stats.wall,
            utilization: stats.utilization(),
            model_makespan,
            model_speedup,
            static_makespan,
        });
    }

    let out = json(name, cores, clusters.len(), serial_wall, &rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_parallel.json: {e}"),
    }
}
