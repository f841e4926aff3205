//! Naive vs difference-propagation Andersen solver benchmark.
//!
//! Runs both solver variants over the largest Table 1 preset (sendmail):
//! once on the relevant-statement slice of the biggest Steensgaard
//! partition (the unit of work the bootstrapping cascade actually hands to
//! Andersen), and once on the whole program. Both rows go through the
//! library entry point exactly as the cascade calls it: the solver numbers
//! the slice's variables itself, so there is no renumbering here. Prints
//! one speedup line per workload and dumps the numbers, with the core
//! count and `rustc -V`, as `BENCH_andersen.json` at the repo root.
//!
//! Run with: `cargo bench --bench solver` (add `-- --quick` for one
//! sample per measurement).

use std::time::{Duration, Instant};

use bootstrap_analyses::andersen::{self, SolverMode, SolverStats};
use bootstrap_analyses::steensgaard;
use bootstrap_bench::rustc_version;
use bootstrap_core::relevant::relevant_statements;
use bootstrap_ir::Stmt;
use bootstrap_workloads::presets;

struct Measurement {
    label: String,
    /// Variables the slice mentions (the solver's own numbering).
    n_vars: usize,
    /// Statements handed to the solver, of every kind.
    n_stmts: usize,
    naive: Duration,
    delta: Duration,
    /// Solve-phase-only wall time (constraint build and result
    /// construction excluded — those are identical code for both
    /// configurations, so the solve phase is where the solvers differ).
    naive_solve: Duration,
    delta_solve: Duration,
    /// Build-phase (table allocation + constraint ingestion) wall time.
    /// Identical code for both configurations; reported so ingestion
    /// improvements are visible as a before/after row across bench runs.
    naive_build: Duration,
    delta_build: Duration,
    naive_stats: SolverStats,
    delta_stats: SolverStats,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / self.delta.as_secs_f64().max(1e-9)
    }

    fn solve_speedup(&self) -> f64 {
        self.naive_solve.as_secs_f64() / self.delta_solve.as_secs_f64().max(1e-9)
    }
}

fn time_solver(
    stmts: &[&Stmt],
    mode: SolverMode,
    samples: usize,
) -> (Duration, Duration, Duration, SolverStats, usize) {
    // One warmup, then the run with the *minimum* end-to-end time (its
    // solve phase reported alongside, so the two numbers are consistent).
    // The minimum is the standard noise-resistant estimator for a shared
    // machine: every disturbance only ever adds time, so the smallest
    // sample is the closest to the solver's intrinsic cost — medians here
    // still jumped ~2x between invocations under host noise.
    let (result, stats, _) = andersen::analyze_stmts_profiled(stmts.iter().copied(), mode);
    let mut times: Vec<(Duration, Duration, Duration)> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let (_, _, phases) = andersen::analyze_stmts_profiled(stmts.iter().copied(), mode);
            (
                t0.elapsed(),
                Duration::from_secs_f64(phases.solve_secs),
                Duration::from_secs_f64(phases.build_secs),
            )
        })
        .collect();
    times.sort();
    let (total, solve, build) = times[0];
    (total, solve, build, stats, result.var_count())
}

fn measure(label: &str, stmts: &[&Stmt], samples: usize) -> Measurement {
    let (naive, naive_solve, naive_build, naive_stats, n_vars) =
        time_solver(stmts, SolverMode::Naive, samples);
    let (delta, delta_solve, delta_build, delta_stats, _) =
        time_solver(stmts, SolverMode::Adaptive, samples);
    Measurement {
        label: label.to_string(),
        n_vars,
        n_stmts: stmts.len(),
        naive,
        delta,
        naive_solve,
        delta_solve,
        naive_build,
        delta_build,
        naive_stats,
        delta_stats,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(preset_name: &str, rows: &[Measurement]) -> std::io::Result<String> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        concat!(
            "  \"preset\": \"{}\",\n  \"solver\": \"andersen\",\n  \"unit\": \"seconds\",\n",
            "  \"cores\": {},\n  \"rustc\": \"{}\",\n  \"workloads\": [\n"
        ),
        json_escape(preset_name),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_escape(&rustc_version()),
    ));
    for (i, m) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"label\": \"{}\", \"vars\": {}, \"stmts\": {}, ",
                "\"naive_secs\": {:.6}, \"delta_secs\": {:.6}, \"speedup\": {:.2}, ",
                "\"naive_solve_secs\": {:.6}, \"delta_solve_secs\": {:.6}, ",
                "\"solve_speedup\": {:.2}, ",
                "\"naive_build_secs\": {:.6}, \"delta_build_secs\": {:.6}, ",
                "\"dup_constraints\": {}, ",
                "\"naive_pops\": {}, \"delta_pops\": {}, \"delta_stale_pops\": {}, ",
                "\"naive_edges\": {}, \"delta_edges\": {}, ",
                "\"delta_sccs_offline\": {}, \"delta_sccs_online\": {}, ",
                "\"delta_wave_rounds\": {}, \"delta_edges_pruned\": {}}}{}\n"
            ),
            json_escape(&m.label),
            m.n_vars,
            m.n_stmts,
            m.naive.as_secs_f64(),
            m.delta.as_secs_f64(),
            m.speedup(),
            m.naive_solve.as_secs_f64(),
            m.delta_solve.as_secs_f64(),
            m.solve_speedup(),
            m.naive_build.as_secs_f64(),
            m.delta_build.as_secs_f64(),
            m.delta_stats.dup_constraints,
            m.naive_stats.pops,
            m.delta_stats.pops,
            m.delta_stats.stale_pops,
            m.naive_stats.edges,
            m.delta_stats.edges,
            m.delta_stats.sccs_offline,
            m.delta_stats.sccs_online,
            m.delta_stats.wave_rounds,
            m.delta_stats.edges_pruned,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_andersen.json");
    std::fs::write(path, out)?;
    Ok(path.to_string())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 1 } else { 9 };

    // Largest preset by paper pointer count (sendmail, 65k pointers).
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
    let st = steensgaard::analyze(&program);

    // Biggest Steensgaard alias partition -> its relevant slice St_P: the
    // exact workload the cascade hands to the bootstrapped Andersen stage.
    let partitions = st.alias_partitions(&program);
    let (_, members) = partitions
        .iter()
        .max_by_key(|(_, m)| m.len())
        .expect("non-empty program");
    let rel = relevant_statements(&program, &st, members);
    // Sort by location so the slice's statement order (and hence the
    // solver's worklist order and pop counts) is deterministic — the
    // partition map iterates in hash order, which varies per process.
    let mut locs: Vec<_> = rel.stmts().collect();
    locs.sort();
    let slice: Vec<&Stmt> = locs.iter().map(|&l| program.stmt_at(l)).collect();
    let whole: Vec<&Stmt> = program.all_locs().map(|(_, s)| s).collect();

    let rows = vec![
        measure("biggest-partition-slice", &slice, samples),
        measure("whole-program", &whole, samples),
    ];
    println!(
        "biggest partition: {} members, {} relevant stmts, {} slice vars (program: {})",
        members.len(),
        rows[0].n_stmts,
        rows[0].n_vars,
        program.var_count()
    );

    for m in &rows {
        println!(
            "solver/{}: naive {:?} ({} pops) -> delta {:?} ({} pops)  \
             speedup {:.2}x total, {:.2}x solve phase",
            m.label,
            m.naive,
            m.naive_stats.pops,
            m.delta,
            m.delta_stats.pops,
            m.speedup(),
            m.solve_speedup()
        );
    }
    match write_json(name, &rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_andersen.json: {e}"),
    }
}
