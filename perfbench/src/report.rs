//! Metric collection, the printed report, and the result line.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// End-to-end metrics: every workload reports each of them, untraced.
/// Must match `end_to_end` in `BENCHMARK.json`. The other end-to-end
/// figures (tail percentiles, edit and re-check split, shares) are
/// printed but not part of the result line.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("check_s", "s"),
    ("warm_check_s", "s"),
    ("turnaround_p50_s", "s"),
    ("query_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports from its traced run. Must
/// match `per_layer` in `BENCHMARK.json`. Layer metrics that only one
/// workload can measure are printed but not part of the result line.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("ir.stmts", "count"),
    ("analyses.steensgaard_s", "s"),
    ("analyses.andersen_s", "s"),
    ("analyses.andersen_pops", "count"),
    ("analyses.clusters", "count"),
    ("analyses.max_cluster", "count"),
    ("core.session_s", "s"),
    ("core.relevant_s", "s"),
    ("core.fscs_s", "s"),
    ("core.fscs_steps", "count"),
    ("core.fsci_hit_ratio", "ratio"),
    ("core.fsci_lookups", "count"),
    ("core.interner_hit_ratio", "ratio"),
    ("core.interner_lookups", "count"),
    ("checks.run_s", "s"),
    ("checks.self_s", "s"),
    ("checks.null_deref_s", "s"),
    ("checks.uaf_s", "s"),
    ("checks.double_free_s", "s"),
    ("checks.race_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.invalidated", "count"),
    ("store.entries", "count"),
    ("store.bytes", "count"),
    ("incremental.snapshot_s", "s"),
    ("incremental.diff_and_adopt_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
];

/// Median time of [`calibration_loop`] on the quiet development machine
/// (see `NOTES.md`). Every time a run reports is scaled by this over the
/// run's own median calibration time, so that a machine running slower
/// or faster as a whole (other tenants, frequency) shifts both alike.
pub const NOMINAL_CALIBRATION_S: f64 = 0.010;

/// A fixed piece of work that does not touch the program under test:
/// xorshift keys into a `HashMap`, then a sort. Returns its wall time.
pub fn calibration_loop() -> f64 {
    let t0 = Instant::now();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut keys = Vec::with_capacity(200_000);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x % 50_000).or_default() += x;
        keys.push(x);
    }
    keys.sort_unstable();
    std::hint::black_box((&counts, &keys));
    t0.elapsed().as_secs_f64()
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (estimator, sample count, base).
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations sent (checks, queries, edits, requests).
    pub attempted: u64,
    /// Operations that failed or were refused (errors, `overloaded`,
    /// retries).
    pub failed: u64,
    /// Missed plus extra findings (or mismatched accounting) against the
    /// known answers.
    pub wrong: u64,
    /// Site resolutions answered below FSCS precision.
    pub degraded: u64,
    /// All site resolutions.
    pub resolutions: u64,
    pub metrics: Vec<Metric>,
    /// Known-answer mismatches and request failures, for the printed
    /// report.
    pub problems: Vec<String>,
    /// Calibration loop times, one per iteration.
    calibration: Vec<f64>,
}

impl Report {
    pub fn set(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Runs the calibration loop once and keeps its time.
    pub fn calibrate(&mut self) {
        self.calibration.push(calibration_loop());
    }

    /// Scales every time (unit `s`) by [`NOMINAL_CALIBRATION_S`] over the
    /// median calibration time; returns `(median, factor)`.
    pub fn normalize(&mut self) -> (f64, f64) {
        let measured = median(&self.calibration);
        let factor = if measured > 0.0 {
            NOMINAL_CALIBRATION_S / measured
        } else {
            1.0
        };
        for m in self.metrics.iter_mut().filter(|m| m.unit == "s") {
            m.value *= factor;
        }
        (measured, factor)
    }

    /// Records a known-answer mismatch of `count` entries.
    pub fn wrong(&mut self, count: u64, what: impl Into<String>) {
        if count > 0 {
            self.wrong += count;
            self.problems.push(what.into());
        }
    }

    /// Adds the shares every workload prints besides its metrics.
    pub fn finish_shares(&mut self) {
        let wrong = self.wrong as f64;
        let degraded = ratio(self.degraded, self.resolutions);
        let failed = ratio(self.failed, self.attempted);
        self.set(
            "wrong_findings",
            wrong,
            "count",
            "missed + extra against the known answer",
        );
        self.set(
            "degraded_share",
            degraded,
            "ratio",
            format!(
                "{} of {} resolutions below FSCS",
                self.degraded, self.resolutions
            ),
        );
        self.set(
            "failed_share",
            failed,
            "ratio",
            format!(
                "{} of {} operations failed or refused",
                self.failed, self.attempted
            ),
        );
    }

    /// Human-readable lines: every metric by name and unit.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{workload}  {:<32} {:>16} {}{note}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        for p in &self.problems {
            println!("{workload}  problem: {p}");
        }
    }

    /// The result line: the listed metrics only, in list order.
    pub fn result_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit || !m.value.is_finite() {
                return Err(format!("metric {name} = {} {} is invalid", m.value, m.unit));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let (e2e, layers) = json.split_once("\"per_layer\"").expect("per_layer section");
        for (list, section) in [(&END_TO_END[..], e2e), (&PER_LAYER[..], layers)] {
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{entry} missing from its section");
            }
            assert_eq!(section.matches("\"unit\"").count(), list.len());
        }
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut r = Report::default();
        r.set("a_s", 0.5, "s", "");
        r.set("extra", 3.0, "count", "");
        r.attempted = 4;
        assert_eq!(
            r.result_json(&[("a_s", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(r.result_json(&[("missing", "s")]).is_err());
        r.wrong(2, "two extra findings");
        assert!(r
            .result_json(&[("a_s", "s")])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
