//! Incremental invalidation across program edit epochs.
//!
//! The paper's cluster-independence theorem (clusters of a disjoint alias
//! cover can be analyzed in isolation) is exactly an *invalidation
//! boundary*: after an edit, a cluster whose inputs are untouched needs no
//! recompute. This module derives that dirty set.
//!
//! The unit of tracking is the Steensgaard **alias partition** (every
//! cluster of the bootstrapped cover descends from exactly one). Each
//! partition gets a content **fingerprint** over everything its analyses
//! can observe:
//!
//! * its sorted member-variable names (membership change ⇒ new identity);
//! * the body hash of every function its relevant slice touches,
//!   *closed upward over the call graph* — the FSCS climb (Algorithm 3)
//!   walks backward through callers, so a caller body edit can change a
//!   warm query's answer even when the slice lines are untouched. A
//!   body hash covers the function's name, arity and every statement's
//!   rendered text, and is computed once per session;
//! * the pointer-ness of every slice variable.
//!
//! Partitions also carry **dependency edges** to the partitions owning
//! their slice variables: summary fixpoints consult the cross-partition
//! FSCI oracle for those variables, and the oracle resolves through the
//! owner partition's engine. Dirtiness propagates along these edges to a
//! fixpoint, so a clean partition's entire oracle closure is clean too.
//!
//! The units are built once per session and shared by [`diff_and_adopt`]
//! and [`snapshot`], so an epoch barrier that calls both fingerprints
//! once.
//!
//! Between epochs, [`diff_and_adopt`] matches partitions by *canonical
//! id* (hash of sorted member names), compares fingerprints, closes the
//! changed set under dependencies, and carries the previous epoch's
//! [`AdoptionLedger`] forward: every ledger entry whose partitions are all
//! clean stays valid for the new program, so the store accepts that
//! cluster's entry under the program hash it was written with. Nothing
//! is rewritten on disk; a clean cluster's entry is written once and
//! then adopted for as many epochs as its partitions stay clean.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

use bootstrap_analyses::ClassId;
use bootstrap_ir::{FuncId, Program, VarId};
use bootstrap_store::{FxHashMap, FxHasher64, FORMAT_VERSION};
use parking_lot::Mutex;

use crate::cover::ClusterOrigin;
use crate::relevant::relevant_statements_indexed;
use crate::session::Session;

/// A per-partition content snapshot of one program epoch: canonical
/// partition id → fingerprint, and a handle on the epoch's adoption
/// ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Canonical partition id → content fingerprint.
    pub fingerprints: BTreeMap<u64, u64>,
    /// The snapshotted session's ledger. A shared handle, not a copy:
    /// entries the session records after the snapshot (its checks run
    /// later) are visible to the next epoch's [`diff_and_adopt`].
    pub ledger: AdoptionLedger,
}

/// One store entry a session accepted or published: the cluster's store
/// key, the program hash the entry's envelope carries, and the canonical
/// ids of the alias partitions the cluster's members belong to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The cluster's content-addressed store key.
    pub key: u64,
    /// The whole-program hash the entry was written under.
    pub program_hash: u64,
    /// Sorted canonical ids of the partitions the cluster spans.
    pub partitions: Vec<u64>,
}

/// Which store entries are valid for the current program although their
/// envelope carries an older program hash.
///
/// A session records every entry it accepts or publishes. At an epoch
/// barrier, [`diff_and_adopt`] carries forward the previous ledger's
/// entries whose partitions are all clean: by cluster independence a
/// cluster's artifacts depend only on its partitions and their oracle
/// closure, and a clean fingerprint pins those byte for byte. The store
/// accepts an entry when its hash is the current program hash or the
/// ledger maps its key to exactly that hash.
///
/// Cloning yields another handle on the same ledger.
#[derive(Clone, Default)]
pub struct AdoptionLedger {
    entries: Arc<Mutex<FxHashMap<u64, LedgerEntry>>>,
}

impl AdoptionLedger {
    /// Every entry, sorted by key.
    pub fn entries(&self) -> Vec<LedgerEntry> {
        let mut v: Vec<LedgerEntry> = self.entries.lock().values().cloned().collect();
        v.sort_by_key(|e| e.key);
        v
    }

    /// `true` when the ledger vouches for the entry at `key` written
    /// under `program_hash`.
    pub(crate) fn admits(&self, key: u64, program_hash: u64) -> bool {
        self.entries
            .lock()
            .get(&key)
            .is_some_and(|e| e.program_hash == program_hash)
    }

    /// Records an entry this session accepted or wrote, replacing any
    /// older record of the same key.
    pub(crate) fn record(&self, entry: LedgerEntry) {
        self.entries.lock().insert(entry.key, entry);
    }

    /// Adds entries carried over from elsewhere (an earlier epoch or a
    /// journal). A key this session already recorded keeps its record:
    /// that one describes the file as this session left it.
    pub(crate) fn carry(&self, entries: impl IntoIterator<Item = LedgerEntry>) {
        let mut map = self.entries.lock();
        for e in entries {
            map.entry(e.key).or_insert(e);
        }
    }
}

impl PartialEq for AdoptionLedger {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries) || self.entries() == other.entries()
    }
}

impl Eq for AdoptionLedger {}

impl fmt::Debug for AdoptionLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdoptionLedger({} entries)", self.entries.lock().len())
    }
}

/// What an epoch diff concluded: how much of the partition space (and of
/// the cluster cover above it) survives the edit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirtyReport {
    /// Alias partitions in the new epoch.
    pub total_partitions: usize,
    /// Partitions whose fingerprint changed (or that are new), closed
    /// transitively under oracle dependencies.
    pub dirty_partitions: usize,
    /// Clusters in the new epoch's cover.
    pub total_clusters: usize,
    /// Clusters descending from a dirty partition (these recompute; the
    /// rest answer from resident engines or adopted store entries).
    pub dirty_clusters: usize,
    /// `true` when the session has a store and some partition is clean,
    /// so the previous ledger's clean entries were carried forward.
    pub adopted: bool,
}

impl DirtyReport {
    /// `true` when nothing survived (every partition recomputes).
    pub fn all_dirty(&self) -> bool {
        self.dirty_partitions == self.total_partitions
    }
}

/// An epoch's tracking units by canonical partition id.
pub(crate) type Units = BTreeMap<u64, Unit>;

/// One partition's derived tracking state within an epoch.
pub(crate) struct Unit {
    class: ClassId,
    fingerprint: u64,
    deps: Vec<u64>,
    /// `true` for units reached only as oracle dependencies (classes with
    /// no pointer members); they fingerprint and propagate but are not
    /// alias partitions of the cover.
    dep_only: bool,
}

/// Takes the partition snapshot of `session`'s epoch, for diffing against
/// a later epoch with [`diff_and_adopt`].
pub fn snapshot(session: &Session<'_>) -> PartitionSnapshot {
    PartitionSnapshot {
        fingerprints: session
            .units()
            .iter()
            .map(|(&id, u)| (id, u.fingerprint))
            .collect(),
        ledger: session.ledger().clone(),
    }
}

/// Diffs `session`'s epoch against `prev`, carries the previous ledger's
/// entries for clusters proven clean into the session's ledger, and
/// reports the dirty footprint.
///
/// Sound because a clean fingerprint pins the partition's members, its
/// relevant slice, and every function body its walks can traverse — so
/// the store's content-addressed cluster key and the recorded artifacts
/// are byte-identical to what a cold run of the new epoch would produce —
/// and dirtiness closes transitively over the partitions whose engines
/// the FSCI oracle consults.
pub fn diff_and_adopt(prev: &PartitionSnapshot, session: &Session<'_>) -> DirtyReport {
    let units = session.units();
    // Seed: new identity or changed content.
    let mut dirty: HashSet<u64> = units
        .iter()
        .filter(|(id, u)| prev.fingerprints.get(*id) != Some(&u.fingerprint))
        .map(|(id, _)| *id)
        .collect();
    // Propagate along dependency edges to a fixpoint.
    loop {
        let before = dirty.len();
        for (id, u) in units {
            if !dirty.contains(id) && u.deps.iter().any(|d| dirty.contains(d)) {
                dirty.insert(*id);
            }
        }
        if dirty.len() == before {
            break;
        }
    }

    let clean: HashSet<u64> = units
        .keys()
        .filter(|id| !dirty.contains(*id))
        .copied()
        .collect();
    let dirty_classes: HashSet<ClassId> = units
        .iter()
        .filter(|(id, _)| dirty.contains(*id))
        .map(|(_, u)| u.class)
        .collect();

    let partitions: Vec<&Unit> = units.values().filter(|u| !u.dep_only).collect();
    let total_partitions = partitions.len();
    let dirty_partitions = partitions
        .iter()
        .filter(|u| dirty_classes.contains(&u.class))
        .count();

    let clusters = session.cover().clusters();
    let total_clusters = clusters.len();
    let dirty_clusters = clusters
        .iter()
        .filter(|c| match cluster_class(&c.origin) {
            Some(class) => dirty_classes.contains(&class),
            // A whole-program cluster has no partition boundary to hide
            // behind: dirty unless nothing changed at all.
            None => !dirty_classes.is_empty(),
        })
        .count();

    let adopted = !clean.is_empty() && session.cluster_store().is_some();
    if adopted {
        // Copy out first: `prev.ledger` may be this session's own ledger.
        let carried: Vec<LedgerEntry> = prev
            .ledger
            .entries()
            .into_iter()
            .filter(|e| e.partitions.iter().all(|p| clean.contains(p)))
            .collect();
        session.ledger().carry(carried);
    }
    DirtyReport {
        total_partitions,
        dirty_partitions,
        total_clusters,
        dirty_clusters,
        adopted,
    }
}

/// The parent alias partition of a cluster, if it has one.
fn cluster_class(origin: &ClusterOrigin) -> Option<ClassId> {
    match origin {
        ClusterOrigin::Steensgaard(class) => Some(*class),
        ClusterOrigin::Andersen { partition, .. } => Some(*partition),
        ClusterOrigin::WholeProgram => None,
    }
}

/// Builds the epoch's tracking units: every alias partition, plus every
/// class reached as an oracle dependency, fingerprinted and linked. Use
/// the session's memo ([`Session::units`]) instead of calling this.
pub(crate) fn build_units(session: &Session<'_>) -> Units {
    let program = session.program();
    let steens = session.steens();
    let mut units = Units::new();
    let mut seen: HashSet<ClassId> = HashSet::new();
    let mut queue: VecDeque<(ClassId, bool)> = session
        .alias_partitions()
        .iter()
        .map(|(class, _)| (*class, false))
        .collect();
    seen.extend(queue.iter().map(|(c, _)| *c));

    while let Some((class, dep_only)) = queue.pop_front() {
        let members = unit_members(session, class);
        if members.is_empty() {
            continue;
        }
        let id = session.partition_id(class);
        let rel = relevant_statements_indexed(program, steens, session.relevant_index(), members);

        // Close the slice's function set upward over the call graph: the
        // climb visits callers, whose bodies feed the fingerprint.
        let mut funcs: Vec<FuncId> = rel.funcs().collect();
        let mut func_seen: HashSet<FuncId> = funcs.iter().copied().collect();
        let mut i = 0;
        while i < funcs.len() {
            for caller_loc in session.callers_of(funcs[i]) {
                if func_seen.insert(caller_loc.func) {
                    funcs.push(caller_loc.func);
                }
            }
            i += 1;
        }

        let mut h = FxHasher64::default();
        h.write_u64(u64::from(FORMAT_VERSION));
        let mut names: Vec<&str> = members.iter().map(|&m| program.var(m).name()).collect();
        names.sort_unstable();
        h.write_u64(names.len() as u64);
        for n in names {
            hash_str(&mut h, n);
        }
        let mut slice_vars: Vec<(String, bool)> = rel
            .vars()
            .map(|v| {
                let info = program.var(v);
                (info.name().to_string(), info.is_pointer())
            })
            .collect();
        slice_vars.sort();
        h.write_u64(slice_vars.len() as u64);
        for (name, ptr) in &slice_vars {
            hash_str(&mut h, name);
            h.write_u64(u64::from(*ptr));
        }
        let mut bodies: Vec<u64> = funcs.iter().map(|&f| session.body_hash(f)).collect();
        bodies.sort_unstable();
        h.write_u64(bodies.len() as u64);
        for b in bodies {
            h.write_u64(b);
        }

        // Oracle dependencies: the owner partitions of every slice var.
        let mut dep_classes: Vec<ClassId> = rel
            .vars()
            .map(|v| steens.partition_key(v))
            .filter(|&k| k != class)
            .collect();
        dep_classes.sort();
        dep_classes.dedup();
        let mut deps = Vec::with_capacity(dep_classes.len());
        for dep in dep_classes {
            if unit_members(session, dep).is_empty() {
                continue;
            }
            deps.push(session.partition_id(dep));
            if seen.insert(dep) {
                queue.push_back((dep, true));
            }
        }

        units.insert(
            id,
            Unit {
                class,
                fingerprint: h.finish(),
                deps,
                dep_only,
            },
        );
    }
    units
}

/// Hash of one function's body: its name, arity and statement hashes
/// (`lines`, from [`crate::persist::line_hashes`]) in order. Use the
/// session's memo ([`Session::body_hash`]) instead of calling this.
pub(crate) fn body_hash(program: &Program, f: FuncId, lines: &[u64]) -> u64 {
    let func = program.func(f);
    let mut h = FxHasher64::default();
    hash_str(&mut h, func.name());
    h.write_u64(func.params().len() as u64);
    h.write_u64(lines.len() as u64);
    for &l in lines {
        h.write_u64(l);
    }
    h.finish()
}

/// The member set a partition's tiers answer over: the alias partition's
/// pointers when it has any, else the raw Steensgaard class (mirrors the
/// session's tier-member fallback).
fn unit_members<'s>(session: &'s Session<'_>, class: ClassId) -> &'s [VarId] {
    let members = session.partition_members(class);
    if !members.is_empty() {
        return members;
    }
    session.steens().members(class)
}

/// Epoch-stable identity of `class`: hash of its sorted member names.
/// Use the session's memo ([`Session::partition_id`]) instead of calling
/// this.
pub(crate) fn partition_id(session: &Session<'_>, class: ClassId) -> u64 {
    canonical_id(session.program(), unit_members(session, class))
}

fn canonical_id(program: &Program, members: &[VarId]) -> u64 {
    let mut h = FxHasher64::default();
    let mut names: Vec<&str> = members.iter().map(|&m| program.var(m).name()).collect();
    names.sort_unstable();
    h.write_u64(names.len() as u64);
    for n in names {
        hash_str(&mut h, n);
    }
    h.finish()
}

fn hash_str(h: &mut FxHasher64, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::parse_program;

    const TWO_NETWORKS: &str = "int a; int b; int *x; int *y;
         int *idx(int *q) { return q; }
         int *idy(int *r) { return r; }
         void main() { x = idx(&a); y = idy(&b); }";

    #[test]
    fn snapshot_is_deterministic() {
        let p = parse_program(TWO_NETWORKS).unwrap();
        let s1 = Session::new(&p, Config::default());
        let s2 = Session::new(&p, Config::default());
        assert_eq!(snapshot(&s1), snapshot(&s2));
    }

    #[test]
    fn snapshot_after_diff_equals_a_fresh_snapshot() {
        // The barrier calls diff_and_adopt then snapshot on one session;
        // the shared unit memo must not change what the snapshot says.
        let p1 = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p1, Config::default()));
        let p2 = parse_program(
            "int a; int b; int *x; int *y;
             int *idx(int *q) { return q; }
             int *idy(int *r) { int *t; t = r; return t; }
             void main() { x = idx(&a); y = idy(&b); }",
        )
        .unwrap();
        let s2 = Session::new(&p2, Config::default());
        let report = diff_and_adopt(&prev, &s2);
        assert!(report.dirty_partitions > 0);
        let fresh = snapshot(&Session::new(&p2, Config::default()));
        assert_eq!(snapshot(&s2), fresh);
        assert_ne!(fresh, prev);
    }

    #[test]
    fn identical_programs_diff_clean() {
        let p = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p, Config::default()));
        let s = Session::new(&p, Config::default());
        let report = diff_and_adopt(&prev, &s);
        assert_eq!(report.dirty_partitions, 0);
        assert_eq!(report.dirty_clusters, 0);
        assert!(report.total_partitions > 0);
        // No store configured: nothing to adopt.
        assert!(!report.adopted);
    }

    #[test]
    fn touched_network_dirties_only_its_partitions() {
        let p1 = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p1, Config::default()));
        // Edit only y's network: route it through a fresh variable.
        let p2 = parse_program(
            "int a; int b; int *x; int *y;
             int *idx(int *q) { return q; }
             int *idy(int *r) { int *t; t = r; return t; }
             void main() { x = idx(&a); y = idy(&b); }",
        )
        .unwrap();
        let s2 = Session::new(&p2, Config::default());
        let report = diff_and_adopt(&prev, &s2);
        assert!(report.dirty_partitions > 0, "y's partition must dirty");
        assert!(
            report.dirty_partitions < report.total_partitions,
            "x's untouched network must stay clean ({report:?})"
        );
        assert!(report.dirty_clusters < report.total_clusters);
    }

    /// A loop whose second iteration makes `z` point to `a`; turning the
    /// `while` into an `if` keeps every statement's text and removes only
    /// the back edge, so `z` can no longer reach `&a`.
    const LOOPED: &str = "int a; int c; int w; int *x; int *y; int *z;
         void main() { y = NULL; while (c) { x = y; y = &a; } z = x; w = *z; }";

    #[test]
    fn loop_to_branch_edit_dirties_its_partition_and_answers_cold() {
        let p1 = parse_program(LOOPED).unwrap();
        let p2 = parse_program(&LOOPED.replace("while", "if")).unwrap();
        let dir = std::env::temp_dir().join(format!("bsa-incr-loop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_store = || Config {
            store: Some(bootstrap_store::StoreConfig::new(&dir)),
            ..Config::default()
        };
        let z_at_exit = |s: &Session<'_>| {
            let p = s.program();
            let az = s.analyzer();
            let answer = s.query_at_loc(&az, p.var_named("z").unwrap(), p.entry().unwrap().exit());
            az.publish_store();
            answer.sources
        };

        let s1 = Session::new(&p1, with_store());
        let looped = z_at_exit(&s1);
        let prev = snapshot(&s1);
        drop(s1);
        let s2 = Session::new(&p2, with_store());
        let report = diff_and_adopt(&prev, &s2);
        assert!(
            report.dirty_partitions > 0,
            "the removed back edge must dirty z's partition"
        );
        let warm = z_at_exit(&s2);
        drop(s2);
        let cold = z_at_exit(&Session::new(&p2, Config::default()));
        assert_eq!(warm, cold);
        assert_ne!(warm, looped, "the loop's extra source must be gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_against_its_own_snapshot_keeps_the_ledger() {
        // A session diffed against its own snapshot carries its ledger
        // into itself: every entry is kept, nothing is duplicated.
        let p = parse_program(TWO_NETWORKS).unwrap();
        let dir = std::env::temp_dir().join(format!("bsa-incr-self-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config {
            store: Some(bootstrap_store::StoreConfig::new(&dir)),
            ..Config::default()
        };
        let s = Session::new(&p, config);
        let az = s.analyzer();
        let exit = p.entry().unwrap().exit();
        for &v in s.pointers() {
            let _ = s.query_at_loc(&az, v, exit);
        }
        az.publish_store();
        let before = s.ledger().entries();
        assert!(!before.is_empty(), "publishes must be recorded");
        let report = diff_and_adopt(&snapshot(&s), &s);
        assert!(report.adopted && report.dirty_partitions == 0);
        assert_eq!(s.ledger().entries(), before);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_ledger_needs_a_store_and_the_same_program() {
        let p = parse_program(TWO_NETWORKS).unwrap();
        let entry = LedgerEntry {
            key: 7,
            program_hash: 11,
            partitions: vec![1],
        };
        let plain = Session::new(&p, Config::default());
        plain.restore_ledger(plain.program_content_hash(), vec![entry.clone()]);
        assert!(plain.ledger().entries().is_empty(), "no store, no ledger");

        let dir = std::env::temp_dir().join(format!("bsa-incr-restore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config {
            store: Some(bootstrap_store::StoreConfig::new(&dir)),
            ..Config::default()
        };
        let s = Session::new(&p, config);
        s.restore_ledger(s.program_content_hash() ^ 1, vec![entry.clone()]);
        assert!(s.ledger().entries().is_empty(), "another program's ledger");
        s.restore_ledger(s.program_content_hash(), vec![entry.clone()]);
        assert_eq!(s.ledger().entries(), vec![entry]);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caller_edit_dirties_callee_partition() {
        // main is a caller of idx; editing main's call structure must
        // dirty x's partition even though idx's body is untouched,
        // because the FSCS climb walks through main.
        let p1 = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p1, Config::default()));
        let p2 = parse_program(
            "int a; int b; int *x; int *y;
             int *idx(int *q) { return q; }
             int *idy(int *r) { return r; }
             void main() { x = idx(&b); y = idy(&b); }",
        )
        .unwrap();
        let s2 = Session::new(&p2, Config::default());
        let report = diff_and_adopt(&prev, &s2);
        assert!(report.all_dirty(), "a caller edit reaches every walk");
    }
}
