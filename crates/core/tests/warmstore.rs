//! End-to-end tests of the persistent warm-start path: a second session
//! over the same program and cache directory must answer every query
//! identically to the cold run while skipping (nearly) all FSCS solve
//! work, and any corruption of the on-disk entries must degrade to a
//! silent recompute — never a panic, never a stale answer.

use std::fs;
use std::path::{Path, PathBuf};

use bootstrap_core::parallel::process_clusters_parallel;
use bootstrap_core::{
    Config, FaultKind, FaultPhase, FaultPlan, LadderAnswer, Precision, Session, StoreConfig,
};
use bootstrap_ir::{parse_program, VarId};

/// A program big enough that summaries, interprocedural splicing and the
/// FSCI oracle all do real work: pointer chains through an identity
/// function, a global setter, and a double-pointer store.
fn source() -> String {
    let mut src = String::from("int *g; int **zz;\nint *id(int *q) { return q; }\n");
    src.push_str("void set(int *v) { g = v; zz = &g; *zz = v; }\n");
    for i in 0..10 {
        src.push_str(&format!("int a{i}; int *p{i};\n"));
    }
    src.push_str("void main() {\n");
    for i in 0..10 {
        src.push_str(&format!("p{i} = id(&a{i});\nset(p{i});\n"));
    }
    src.push_str("}\n");
    src
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bootstrap_warmstore_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config_with_store(dir: &Path) -> Config {
    Config {
        store: Some(StoreConfig::new(dir)),
        ..Config::default()
    }
}

/// Runs every pointer-at-main-exit query through the ladder and collects
/// the answers (order fixed by the session's pointer list).
fn query_all(session: &Session<'_>) -> Vec<(VarId, LadderAnswer)> {
    let az = session.analyzer();
    let exit = session.program().entry().unwrap().exit();
    let answers = session
        .pointers()
        .iter()
        .map(|&p| (p, session.query_at_loc(&az, p, exit)))
        .collect();
    az.publish_store();
    answers
}

fn assert_same_answers(cold: &[(VarId, LadderAnswer)], warm: &[(VarId, LadderAnswer)]) {
    assert_eq!(cold.len(), warm.len());
    for ((pc, ac), (pw, aw)) in cold.iter().zip(warm) {
        assert_eq!(pc, pw);
        assert_eq!(ac.sources, aw.sources, "sources differ for {pc:?}");
        assert_eq!(ac.precision, aw.precision, "precision differs for {pc:?}");
    }
}

#[test]
fn warm_run_matches_cold_and_skips_the_solve() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("roundtrip");

    let cold_session = Session::new(&program, config_with_store(&dir));
    let cold = query_all(&cold_session);
    let cold_counters = cold_session.store_counters();
    assert!(cold_counters.misses > 0, "cold run must miss");
    assert_eq!(cold_counters.hits, 0);
    let cold_steps = cold_session.phase_stats().fscs.steps;
    assert!(cold_steps > 0, "cold run must do FSCS work");
    assert!(cold.iter().all(|(_, a)| a.precision == Precision::Fscs));
    drop(cold_session);

    let warm_session = Session::new(&program, config_with_store(&dir));
    let warm = query_all(&warm_session);
    let warm_counters = warm_session.store_counters();
    assert!(
        warm_counters.hits > 0,
        "warm run must hit: {warm_counters:?}"
    );
    assert_eq!(warm_counters.invalidated, 0);
    let warm_steps = warm_session.phase_stats().fscs.steps;
    assert!(
        warm_steps * 10 <= cold_steps,
        "warm run should skip >=90% of FSCS steps (cold {cold_steps}, warm {warm_steps})"
    );
    assert_same_answers(&cold, &warm);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_corruption_mode_degrades_to_a_silent_recompute() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("corrupt");

    let cold = {
        let s = Session::new(&program, config_with_store(&dir));
        query_all(&s)
    };
    let entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bsa"))
        .collect();
    assert!(!entries.is_empty(), "cold run must publish entries");

    // Mode 1: truncate every entry to half.
    for p in &entries {
        let raw = fs::read(p).unwrap();
        fs::write(p, &raw[..raw.len() / 2]).unwrap();
    }
    let s = Session::new(&program, config_with_store(&dir));
    let truncated = query_all(&s);
    assert!(s.store_counters().invalidated > 0);
    assert_same_answers(&cold, &truncated);
    drop(s);

    // The recompute overwrote the truncated entries: warm again.
    let s = Session::new(&program, config_with_store(&dir));
    let rewarmed = query_all(&s);
    assert!(s.store_counters().hits > 0, "overwrite must restore hits");
    assert_same_answers(&cold, &rewarmed);
    drop(s);

    // Mode 2: garbage bytes.
    for p in &entries {
        fs::write(p, vec![0x5au8; 97]).unwrap();
    }
    let s = Session::new(&program, config_with_store(&dir));
    assert_same_answers(&cold, &query_all(&s));
    assert!(s.store_counters().invalidated > 0);
    drop(s);

    // Mode 3: wrong magic (flip the first byte of an otherwise valid
    // entry).
    for p in &entries {
        let mut raw = fs::read(p).unwrap();
        raw[4] ^= 0xff;
        fs::write(p, raw).unwrap();
    }
    let s = Session::new(&program, config_with_store(&dir));
    assert_same_answers(&cold, &query_all(&s));
    assert!(s.store_counters().invalidated > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn option_mismatch_recomputes_instead_of_reusing() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("options");
    {
        let s = Session::new(&program, config_with_store(&dir));
        let _ = query_all(&s);
    }
    // A different result-affecting option derives different keys *and* a
    // different options hash: nothing from the first run may be reused.
    let changed = Config {
        cond_cap: 4,
        ..config_with_store(&dir)
    };
    let s = Session::new(&program, changed.clone());
    let answers = query_all(&s);
    assert_eq!(s.store_counters().hits, 0, "no cross-option reuse");
    drop(s);
    // And a fresh cold session with the same changed options agrees.
    let dir2 = temp_dir("options_ref");
    let reference = Session::new(
        &program,
        Config {
            store: Some(StoreConfig::new(dir2.clone())),
            ..changed
        },
    );
    assert_same_answers(&query_all(&reference), &answers);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn program_change_with_equal_slice_is_gated_by_the_program_hash() {
    // The second program keeps every original cluster's relevant slice
    // byte-identical (it only adds an unrelated function), so the content
    // keys collide — exactly the case the whole-program hash must catch,
    // because summaries may consult cross-partition FSCI facts.
    let p1 = parse_program(&source()).unwrap();
    let mut src2 = source();
    src2.push_str("int extra; int *pe;\nvoid other() { pe = &extra; }\n");
    let p2 = parse_program(&src2).unwrap();
    let dir = temp_dir("gate");
    {
        let s = Session::new(&p1, config_with_store(&dir));
        let _ = query_all(&s);
    }
    let s = Session::new(&p2, config_with_store(&dir));
    let warm = query_all(&s);
    let counters = s.store_counters();
    assert!(
        counters.invalidated > 0,
        "colliding keys from a different program must demote: {counters:?}"
    );
    drop(s);
    // The answers equal a from-scratch run over the changed program.
    let dir2 = temp_dir("gate_ref");
    let reference = Session::new(&p2, config_with_store(&dir2));
    assert_same_answers(&query_all(&reference), &warm);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn warm_parallel_drivers_match_cold_across_thread_counts() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("parallel");

    let cold_session = Session::new(&program, config_with_store(&dir));
    let clusters = cold_session.cover().clusters().to_vec();
    let cold_reports = process_clusters_parallel(&cold_session, &clusters, 1, u64::MAX);
    let cold_answers = query_all(&cold_session);
    assert!(cold_reports.iter().all(|r| r.degraded.is_none()));
    drop(cold_session);

    for threads in [1, 2, 4] {
        let s = Session::new(&program, config_with_store(&dir));
        let reports = process_clusters_parallel(&s, &clusters, threads, u64::MAX);
        assert!(s.store_counters().hits > 0, "{threads} threads must hit");
        for (c, w) in cold_reports.iter().zip(&reports) {
            assert_eq!(c.cluster_id, w.cluster_id);
            assert_eq!(c.summary_entries, w.summary_entries, "{threads} threads");
            assert_eq!(c.summary_tuples, w.summary_tuples, "{threads} threads");
            assert!(w.degraded.is_none());
        }
        assert_same_answers(&cold_answers, &query_all(&s));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_fault_forces_recompute_and_overwrite() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("fault");
    {
        let s = Session::new(&program, config_with_store(&dir));
        let _ = query_all(&s);
    }
    let faulted_config = Config {
        fault_plan: Some(FaultPlan {
            phase: FaultPhase::Store,
            kind: FaultKind::Panic,
            at_tick: 0,
            cluster: None,
        }),
        ..config_with_store(&dir)
    };
    let cold_reference = {
        let dir2 = temp_dir("fault_ref");
        let s = Session::new(
            &program,
            Config {
                store: Some(StoreConfig::new(dir2.clone())),
                ..Config::default()
            },
        );
        let a = query_all(&s);
        drop(s);
        let _ = fs::remove_dir_all(&dir2);
        a
    };
    let s = Session::new(&program, faulted_config);
    let answers = query_all(&s);
    let counters = s.store_counters();
    assert_eq!(counters.hits, 0, "faulted consults never hit");
    assert!(
        counters.invalidated > 0,
        "present entries count invalidated"
    );
    assert_same_answers(&cold_reference, &answers);
    drop(s);
    // The forced recompute overwrote the entries; a clean session hits.
    let s = Session::new(&program, config_with_store(&dir));
    let _ = query_all(&s);
    assert!(s.store_counters().hits > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_store_consults_but_never_creates() {
    let program = parse_program(&source()).unwrap();
    let dir = temp_dir("readonly");
    let ro = Config {
        store: Some(StoreConfig {
            read_only: true,
            ..StoreConfig::new(dir.clone())
        }),
        ..Config::default()
    };
    let s = Session::new(&program, ro);
    let _ = query_all(&s);
    assert!(!dir.exists(), "read-only store must not create the dir");
    drop(s);

    // Interner occupancy stays observable after store splices: a warm
    // session's arena is populated by install_summary re-interning.
    let dir = temp_dir("occupancy");
    {
        let s = Session::new(&program, config_with_store(&dir));
        let _ = query_all(&s);
    }
    let s = Session::new(&program, config_with_store(&dir));
    let _ = query_all(&s);
    let stats = s.interner_stats();
    assert_eq!(stats.max_ids, u32::MAX);
    assert!(stats.conds > 0, "spliced conditions occupy the arena");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn field_path_keys_warm_start_without_collisions() {
    // Field-sensitive locations put structured paths (`s.f`, `a[*]`) into
    // the variable names that content keys derive from. Sibling fields
    // with disjoint points-to sets must warm-start to *their own* cold
    // answers — a key collision between them would splice one field's
    // summary into the other and flip an answer.
    let src = r#"
        struct pair { int *fst; int *snd; };
        struct pair g; struct pair h;
        int a; int b; int c; int d;
        int *pa; int *pb;
        int buf[4]; int *pe;
        void main() {
            g.fst = &a; g.snd = &b;
            h.fst = &c; h.snd = &d;
            pa = g.fst; pb = g.snd;
            pe = buf;
            *pe = 0;
        }
    "#;
    let program = parse_program(src).unwrap();
    let dir = temp_dir("fieldkeys");

    let cold_session = Session::new(&program, config_with_store(&dir));
    let cold = query_all(&cold_session);
    assert!(cold_session.store_counters().misses > 0);
    drop(cold_session);

    let warm_session = Session::new(&program, config_with_store(&dir));
    let warm = query_all(&warm_session);
    let counters = warm_session.store_counters();
    assert!(counters.hits > 0, "warm run must hit: {counters:?}");
    assert_eq!(counters.invalidated, 0, "no key collisions: {counters:?}");
    assert_same_answers(&cold, &warm);

    // And the warm answers keep the sibling fields apart: pa sees only &a,
    // pb only &b (field sensitivity survives the store round-trip).
    let pa = program.var_named("pa").unwrap();
    let pb = program.var_named("pb").unwrap();
    let srcs = |answers: &[(VarId, LadderAnswer)], v: VarId| {
        answers
            .iter()
            .find(|(p, _)| *p == v)
            .map(|(_, a)| a.sources.clone())
            .unwrap()
    };
    assert_ne!(srcs(&warm, pa), srcs(&warm, pb));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn findings_stay_identical_when_program_actually_changes() {
    // Sanity check of content addressing itself: editing a relevant
    // statement moves the key, so the store silently cold-runs the new
    // version (and answers reflect the *new* program).
    let p1 = parse_program(&source()).unwrap();
    let src2 = source().replace("p3 = id(&a3);", "p3 = id(&a4);");
    assert_ne!(source(), src2);
    let p2 = parse_program(&src2).unwrap();
    let dir = temp_dir("edit");
    {
        let s = Session::new(&p1, config_with_store(&dir));
        let _ = query_all(&s);
    }
    let s = Session::new(&p2, config_with_store(&dir));
    let answers = query_all(&s);
    let p3 = p2.var_named("p3").unwrap();
    let a4 = p2.var_named("a4").unwrap();
    let (_, ans) = answers.iter().find(|(v, _)| *v == p3).unwrap();
    assert!(
        ans.sources
            .iter()
            .any(|(src, _)| matches!(src, bootstrap_core::Source::Addr(o) if *o == a4)),
        "answers must reflect the edited program"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Three file-local pointer networks, each behind its own entry point;
/// `edited` names the networks rerouted through a second object.
fn networks(edited: &[&str]) -> String {
    let mut src = String::new();
    for n in ["a", "b", "c"] {
        let body = if edited.contains(&n) {
            format!("{n}q = &{n}b; {n}p = {n}id({n}q);")
        } else {
            format!("{n}p = {n}id(&{n}a);")
        };
        src.push_str(&format!(
            "int {n}a; int {n}b; int *{n}p; int *{n}q;\n\
             int *{n}id(int *{n}r) {{ return {n}r; }}\n\
             void {n}ent() {{ {body} }}\n"
        ));
    }
    src.push_str("void main() { aent(); bent(); cent(); }\n");
    src
}

/// Every store entry file in `dir` with its bytes.
fn entry_files(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bsa"))
        .map(|p| {
            let bytes = fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

/// The program hash an entry's envelope carries (magic, format version,
/// key, options hash, program hash).
fn envelope_program_hash(bytes: &[u8]) -> u64 {
    let mut r = bootstrap_store::codec::Reader::new(bytes);
    r.bytes().unwrap();
    r.u32().unwrap();
    r.u64().unwrap();
    r.u64().unwrap();
    r.u64().unwrap()
}

#[test]
fn ledger_adopts_clean_clusters_across_an_unchecked_epoch() {
    use bootstrap_core::{diff_and_adopt, snapshot};
    let p1 = parse_program(&networks(&[])).unwrap();
    let p2 = parse_program(&networks(&["a"])).unwrap();
    let p3 = parse_program(&networks(&["a", "b"])).unwrap();
    let dir = temp_dir("ledger");

    // Epoch 1: checked, every cluster is written under its hash.
    let s1 = Session::new(&p1, config_with_store(&dir));
    let h1 = s1.program_content_hash();
    let _ = query_all(&s1);
    let snap1 = snapshot(&s1);
    drop(s1);
    let written = entry_files(&dir);
    assert!(!written.is_empty());

    // Epoch 2: `a` edited, nothing checked.
    let s2 = Session::new(&p2, config_with_store(&dir));
    assert!(diff_and_adopt(&snap1, &s2).adopted);
    let snap2 = snapshot(&s2);
    drop(s2);

    // Epoch 3: `b` edited, checked. `c` stayed clean through both edits.
    let s3 = Session::new(&p3, config_with_store(&dir));
    let report = diff_and_adopt(&snap2, &s3);
    assert!(report.dirty_partitions > 0 && report.dirty_partitions < report.total_partitions);
    let warm = query_all(&s3);
    let counters = s3.store_counters();
    assert!(counters.hits > 0, "clean clusters must hit: {counters:?}");
    assert_eq!(counters.invalidated, 0, "{counters:?}");

    // The clean clusters' entries were accepted under epoch 1's hash and
    // not rewritten: their files are byte-identical to epoch 1's.
    let adopted: Vec<_> = s3
        .ledger()
        .entries()
        .into_iter()
        .filter(|e| e.program_hash != s3.program_content_hash())
        .collect();
    assert!(!adopted.is_empty(), "no entry was adopted");
    let now = entry_files(&dir);
    for e in &adopted {
        assert_eq!(e.program_hash, h1);
        let path = dir.join(format!("{:016x}.bsa", e.key));
        assert_eq!(envelope_program_hash(&now[&path]), h1);
        assert_eq!(now[&path], written[&path], "adopted entry was rewritten");
    }
    drop(s3);

    // And the answers equal a cold, store-less run of epoch 3.
    let cold = query_all(&Session::new(&p3, Config::default()));
    assert_same_answers(&cold, &warm);
    let _ = fs::remove_dir_all(&dir);
}
