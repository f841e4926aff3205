//! Golden-file and corpus tests for the client checker suite.
//!
//! Three properties are pinned down:
//!
//! 1. On the buggy corpus ([`bootstrap_workloads::buggy`]) the checkers
//!    find **exactly** the labeled defects — misses are false negatives,
//!    extras are false positives.
//! 2. On the clean synthetic presets the checkers report nothing.
//! 3. On the mini-C fixtures under `tests/fixtures/` the rendered text
//!    output matches the checked-in golden files byte for byte
//!    (set `BLESS=1` to regenerate).

use std::collections::BTreeSet;
use std::path::Path;

use bootstrap_checks::{run_checks, CheckerKind};
use bootstrap_core::{Config, Session};
use bootstrap_workloads::buggy::{self, BuggyConfig};

/// The checkers must report exactly the labeled defects of the buggy
/// corpus generated from `config`, as (checker, variable, severity)
/// triples.
fn assert_findings_match_labels(config: &BuggyConfig) {
    let generated = buggy::generate(config);
    let session = Session::new(&generated.program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    assert_eq!(
        report.degrade.degraded_queries(),
        0,
        "queries must not degrade"
    );

    let found: BTreeSet<(String, String, String)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.checker.name().to_string(),
                f.var.clone(),
                f.severity.label().to_string(),
            )
        })
        .collect();
    let labeled: BTreeSet<(String, String, String)> = generated
        .expected
        .iter()
        .map(|e| (e.checker.clone(), e.var.clone(), e.severity.clone()))
        .collect();

    let missed: Vec<_> = labeled.difference(&found).collect();
    let extra: Vec<_> = found.difference(&labeled).collect();
    assert!(
        missed.is_empty() && extra.is_empty(),
        "false negatives: {missed:?}\nfalse positives: {extra:?}"
    );
}

/// The buggy corpus: the checkers must report exactly the labeled
/// defects.
#[test]
fn buggy_corpus_findings_match_labels_exactly() {
    assert_findings_match_labels(&BuggyConfig::default());
}

/// The same at the benchmark's scale (`BuggyConfig::default()` x 40:
/// 4.7k statements, 440 labels), the `buggy-checkers` input.
#[test]
fn buggy_corpus_at_benchmark_scale_matches_labels_exactly() {
    assert_findings_match_labels(&BuggyConfig::default().scaled(40));
}

/// The struct-field function-pointer preset: the labeled null-deref is
/// visible only through the devirtualized `sfp_ops.reset → sfp_clear`
/// edge. Losing the edge (the old lowering collapsed `s.fp()` into a
/// fresh temp with no targets) turns it into a false negative.
#[test]
fn struct_fp_preset_fires_through_the_field_call() {
    use bootstrap_alias::analyses::fpresolve::{self, FpResolver};
    use bootstrap_alias::ir::{CallTarget, Stmt};

    let mut preset = buggy::struct_fp_preset();
    let clear = preset.program.func_named("sfp_clear").unwrap();

    // Devirtualize at the most precise stage and keep the true edge.
    let r = fpresolve::resolve_calls(&mut preset.program, FpResolver::PointsTo);
    assert_eq!(r.sites, 1);
    assert!(r.edges >= 1, "the reset() site must keep at least one edge");
    let main = preset
        .program
        .func(preset.program.func_named("main").unwrap());
    let has_edge = main
        .body()
        .iter()
        .any(|s| matches!(s, Stmt::Call(c) if c.target == CallTarget::Direct(clear)));
    assert!(has_edge, "devirtualized call edge to sfp_clear must exist");

    let session = Session::new(&preset.program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    let found: BTreeSet<(String, String, String)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.checker.name().to_string(),
                f.var.clone(),
                f.severity.label().to_string(),
            )
        })
        .collect();
    let labeled: BTreeSet<(String, String, String)> = preset
        .expected
        .iter()
        .map(|e| (e.checker.clone(), e.var.clone(), e.severity.clone()))
        .collect();
    assert_eq!(
        found, labeled,
        "exactly the labeled defect, through the fp call"
    );
}

/// A defect-free buggy-generator configuration (decoys and benign
/// communities only) must yield zero findings.
#[test]
fn decoy_only_corpus_is_clean() {
    let config = BuggyConfig {
        null_derefs: 0,
        branch_null_derefs: 0,
        uafs: 0,
        interproc_uafs: 0,
        double_frees: 0,
        interproc_double_frees: 0,
        races: 0,
        decoys: 6,
        benign: 6,
        locked_decoys: 2,
        aliased_lock_decoys: 2,
    };
    let generated = buggy::generate(&config);
    let session = Session::new(&generated.program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    assert!(
        report.findings.is_empty(),
        "false positives on decoys: {:?}",
        report.findings
    );
}

/// The clean synthetic presets (no injected defects) must stay clean:
/// every finding would be a false positive.
#[test]
fn clean_preset_has_zero_false_positives() {
    let preset = bootstrap_workloads::presets::by_name("sock").expect("preset");
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    assert!(
        report.findings.is_empty(),
        "false positives on clean preset: {:?}",
        report.findings
    );
}

fn golden_check(fixture: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src_path = dir.join(fixture);
    let source = std::fs::read_to_string(&src_path).expect("fixture");
    let program = bootstrap_ir::parse_program(&source).expect("fixture parses");
    let session = Session::new(&program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    let rendered = bootstrap_checks::render_text(&report, Some(fixture));

    let golden_path = dir.join(format!("{}.golden.txt", fixture.trim_end_matches(".c")));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|_| panic!("missing golden file {golden_path:?}; run with BLESS=1"));
    assert_eq!(
        rendered, golden,
        "checker output for {fixture} diverges from golden file"
    );
}

#[test]
fn bugs_fixture_matches_golden() {
    golden_check("bugs.c");
}

#[test]
fn clean_fixture_matches_golden() {
    golden_check("clean.c");
}
