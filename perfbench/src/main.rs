//! One benchmark for the bootstrap-alias workspace: cold check, cached
//! check, checker load and daemon edit turnaround, each checked against
//! a known answer, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sendmail|buggy-checkers|daemon-edit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when a known-answer check fails. See
//! `NOTES.md` for the workloads and metric definitions.

mod answers;
mod common;
mod daemon_edit;
mod programs;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use common::Run;
use programs::Kind;
use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["sendmail", "buggy-checkers", "daemon-edit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // All scratch state lives under the benchmark's own directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::env::set_current_dir(root) {
        eprintln!("perfbench: cannot enter {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let work = Path::new(".work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }

    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        // Only the checkout's own repository, if it has one.
        (
            "commit",
            command_line("git", &["--git-dir", "../.git", "rev-parse", "HEAD"]),
        ),
    ];
    for (k, v) in &provenance {
        println!("provenance  {k} = {v}");
    }

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let mut tracer = Tracer::new(false);
    let mut report = Report::default();
    match args.workload.as_str() {
        "sendmail" => programs::run(Kind::Sendmail, &run, &mut tracer, &mut report),
        "buggy-checkers" => programs::run(Kind::BuggyCheckers, &run, &mut tracer, &mut report),
        "daemon-edit" => daemon_edit::run(&run, &mut tracer, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    report.finish_shares();
    let (calibration, factor) = report.normalize();
    println!(
        "calibration  median loop {calibration:.6} s, nominal {:.6} s: every time below is scaled by {factor:.4}",
        report::NOMINAL_CALIBRATION_S
    );
    report.print(&args.workload);

    if args.trace {
        let path =
            Path::new(".work").join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tracer.write_json(&path, &provenance) {
            Ok(()) => println!(
                "trace  {} spans written to perfbench/{}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    let names = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    match report.result_json(names) {
        Ok(line) => {
            println!("{line}");
            if report.wrong == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
