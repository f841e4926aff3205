//! Bridge between a [`Session`] and the content-addressed persistent
//! store (`bootstrap-store`): key derivation, the relocatable payload
//! codec, and the consult/publish protocol (DESIGN.md §12).
//!
//! The store crate owns the on-disk envelope; this module owns what goes
//! inside it and how it is keyed:
//!
//! * **Key** — fxhash of (format version, result-affecting options, the
//!   cluster's sorted member names, the sorted hashes of its
//!   relevant-statement slice, each the hash of the statement's
//!   `func@index: text`, its successor list and its branch variable).
//!   Content-addressed: editing any relevant statement or control-flow
//!   edge moves the key, so stale entries are simply never found.
//!   Statement hashes come from a per-session table, and each member
//!   set's key is derived once per session.
//! * **Payload** — name tables (IR variable and function names are
//!   globally unique mangled strings, e.g. `func::name`, `heap@func:3`,
//!   `&func`, so a name is a position-independent reference) followed by
//!   the cluster's summary tuples, its recorded FSCS query answers, and
//!   the FSCI oracle results over its slice. Conditions are stored
//!   structurally and re-interned on load — the `CondId` remap.
//! * **Gate** — summaries consult the cross-partition FSCI oracle during
//!   their fixpoint, so the payload is only valid for the exact program
//!   it was computed from. Loads are gated on the whole-program hash
//!   recorded in the envelope, unless the session's adoption ledger
//!   ([`crate::incremental::AdoptionLedger`]) vouches for the entry's
//!   hash; per-cluster keys still give eviction and corruption isolation
//!   at cluster granularity.
//!
//! Every failure past the envelope (program-hash mismatch, undecodable
//! payload, a name that no longer resolves) demotes the hit to an
//! invalidation and falls back to a recompute — the store can cost time,
//! never an answer.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;

use bootstrap_ir::{display::stmt_to_string, FuncId, Loc, Program, VarId};
use bootstrap_store::codec::{Reader, Writer};
use bootstrap_store::{FxHasher64, LoadOutcome, Store, StoreConfig, StoreCounters, FORMAT_VERSION};
use parking_lot::RwLock;

use crate::constraint::{Atom, Cond};
use crate::degrade::FaultPhase;
use crate::engine::ClusterEngine;
use crate::incremental::LedgerEntry;
use crate::session::{Config, QueryRecord, Session};
use crate::summary::{Source, SummaryKey, Value};

/// The session-side face of the persistent store: one per session,
/// shared (behind `&Session`) by every analyzer and worker thread.
pub(crate) struct ClusterStore {
    store: Store,
    options_hash: u64,
    /// Memo of [`ClusterStore::cluster_key`] by member set: consult and
    /// publish of one cluster share a single derivation.
    keys: RwLock<HashMap<Vec<VarId>, Option<u64>>>,
    /// Keys installed warm this run. A warm engine's recorded artifacts
    /// are a subset of the cold ones (queries answered from the store
    /// are not re-recorded), so publishing them back would shrink the
    /// entry; hits are therefore never re-published.
    hit_keys: RwLock<HashSet<u64>>,
    /// A store-phase fault is armed: every consult treats its entry as
    /// corrupt without reading it, forcing the recompute-and-overwrite
    /// path the fuzz matrix checks.
    faulted: bool,
}

impl ClusterStore {
    /// Opens the session's store. `None` (persistence disabled) when the
    /// directory cannot be opened: a missing cache may cost time, never
    /// a run.
    pub(crate) fn open(sc: StoreConfig, config: &Config) -> Option<Self> {
        let store = Store::open(sc).ok()?;
        // Phase-only match (ignoring any cluster scope): store consults
        // have no stable cluster slot to scope by.
        let faulted = config
            .fault_plan
            .is_some_and(|p| p.phase == FaultPhase::Store);
        Some(ClusterStore {
            store,
            options_hash: options_hash(config),
            keys: RwLock::new(HashMap::new()),
            hit_keys: RwLock::new(HashSet::new()),
            faulted,
        })
    }

    /// This opening's hit/miss/invalidated counters.
    pub(crate) fn counters(&self) -> StoreCounters {
        self.store.counters()
    }

    /// The content address of one cluster's artifacts, or `None` when a
    /// member name fails to round-trip through the program's name table
    /// (never the case for parsed or builder-made programs — names are
    /// mangled to be unique — but cheap to verify instead of trust).
    fn cluster_key(&self, session: &Session<'_>, engine: &ClusterEngine) -> Option<u64> {
        if let Some(&key) = self.keys.read().get(engine.members()) {
            return key;
        }
        let key = self.derive_key(session, engine);
        self.keys.write().insert(engine.members().to_vec(), key);
        key
    }

    fn derive_key(&self, session: &Session<'_>, engine: &ClusterEngine) -> Option<u64> {
        let program = session.program();
        let mut h = FxHasher64::default();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write_u64(self.options_hash);
        let mut names: Vec<&str> = Vec::with_capacity(engine.members().len());
        for &m in engine.members() {
            let name = program.var(m).name();
            if program.var_named(name) != Some(m) {
                return None;
            }
            names.push(name);
        }
        names.sort_unstable();
        h.write_u64(names.len() as u64);
        for n in names {
            hash_str(&mut h, n);
        }
        let mut lines: Vec<u64> = engine
            .relevant()
            .stmts()
            .map(|loc| session.line_hashes(loc.func)[loc.stmt as usize])
            .collect();
        lines.sort_unstable();
        h.write_u64(lines.len() as u64);
        for l in lines {
            h.write_u64(l);
        }
        Some(h.finish())
    }

    /// Consults the store for a freshly built engine, splicing any valid
    /// entry into it (summaries), the session (query answers), and the
    /// shared FSCI cache. Called by the analyzer right after Algorithm 1
    /// builds the slice, before any solving.
    pub(crate) fn consult(&self, session: &Session<'_>, engine: &mut ClusterEngine) {
        let program = session.program();
        let Some(key) = self.cluster_key(session, engine) else {
            return;
        };
        if self.faulted {
            self.store.probe_invalidated(key);
            return;
        }
        let (payload, entry_program_hash) = match self.store.load(key, self.options_hash) {
            LoadOutcome::Hit {
                payload,
                program_hash,
            } => (payload, program_hash),
            LoadOutcome::Miss | LoadOutcome::Invalidated => return,
        };
        // A content-equal slice from a different program: the summaries
        // may have consulted FSCI facts that no longer hold — unless the
        // ledger records that every partition this cluster spans stayed
        // clean since the epoch that wrote the entry.
        if entry_program_hash != session.program_content_hash()
            && !session.ledger().admits(key, entry_program_hash)
        {
            self.store.demote_hit();
            return;
        }
        let Some(entry) = decode_payload(&payload, program) else {
            self.store.demote_hit();
            return;
        };
        for (skey, tuples) in &entry.summaries {
            if engine.install_summary(*skey, tuples).is_err() {
                // Arena full mid-splice. Installed entries are final
                // fixpoint values and stay; the engine computes the rest
                // organically (degrading through the ladder if the arena
                // stays full, exactly as a cold run would).
                break;
            }
        }
        for ((v, loc), sources) in entry.queries {
            session.install_warm_query(v, loc, sources);
        }
        for ((v, loc), pts) in entry.fsci {
            session.fsci_cache().insert(v, loc, pts.map(Arc::new));
        }
        record(session, engine, key, entry_program_hash);
        self.hit_keys.write().insert(key);
    }

    /// Publishes one clean engine's artifacts (summaries, recorded query
    /// answers over its members, FSCI results over its slice). Skips
    /// keys installed warm this run; overwrites invalidated entries with
    /// the forced recompute's results.
    pub(crate) fn publish(&self, session: &Session<'_>, engine: &ClusterEngine) {
        let Some(key) = self.cluster_key(session, engine) else {
            return;
        };
        if self.hit_keys.read().contains(&key) {
            return;
        }
        let Some(payload) = encode_payload(session, engine) else {
            return;
        };
        let program_hash = session.program_content_hash();
        if self
            .store
            .save(key, self.options_hash, program_hash, &payload)
            .is_ok()
        {
            record(session, engine, key, program_hash);
        }
    }
}

/// Notes in the session's ledger that the entry at `key`, carrying
/// `program_hash`, is valid for this epoch.
fn record(session: &Session<'_>, engine: &ClusterEngine, key: u64, program_hash: u64) {
    session.ledger().record(LedgerEntry {
        key,
        program_hash,
        partitions: session.partition_ids_of(engine.members()),
    });
}

fn hash_str(h: &mut FxHasher64, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// Hash of every configuration knob that can change an analysis result.
/// `fault_plan` is deliberately excluded (faults force recomputes through
/// their own path) and so is the store config itself.
fn options_hash(config: &Config) -> u64 {
    let mut h = FxHasher64::default();
    h.write_u64(config.andersen_threshold as u64);
    h.write_u64(config.cond_cap as u64);
    h.write_u64(u64::from(config.alias_on_entry_garbage));
    h.write_u64(u64::from(config.alias_on_null));
    h.write_u64(config.oracle_step_budget);
    h.write_u64(config.query_step_budget);
    h.write_u64(u64::from(config.path_sensitive));
    h.write_u64(u64::from(config.interner_max_ids));
    h.finish()
}

/// Whole-program hash, from the session's statement-hash table: per
/// function in id order, its name, its parameter names and its body hash
/// (which covers every statement's text and successors). Together these
/// determine the program's canonical rendering (`Program`'s `Display`),
/// so two programs that render differently hash differently.
pub(crate) fn program_hash(session: &Session<'_>) -> u64 {
    let program = session.program();
    let mut h = FxHasher64::default();
    h.write_u64(program.func_count() as u64);
    for func in program.functions() {
        hash_str(&mut h, func.name());
        h.write_u64(func.params().len() as u64);
        for &p in func.params() {
            hash_str(&mut h, program.var(p).name());
        }
        h.write_u64(session.body_hash(func.id()));
    }
    h.finish()
}

/// One hash per statement of `f`, indexed by statement: the fxhash of
/// its `func@index: text` rendering, its successor list and the variable
/// it branches on (path-sensitive mode reads it). Store keys, body
/// hashes, partition fingerprints and the program hash are built from
/// these instead of re-rendering text.
pub(crate) fn line_hashes(program: &Program, f: FuncId) -> Box<[u64]> {
    let func = program.func(f);
    func.locs()
        .map(|(loc, stmt)| {
            let mut h = FxHasher64::default();
            hash_str(&mut h, func.name());
            h.write_u64(u64::from(loc.stmt));
            hash_str(&mut h, &stmt_to_string(program, stmt));
            let succs = func.succs(loc.stmt);
            h.write_u64(succs.len() as u64);
            for &s in succs {
                h.write_u64(u64::from(s));
            }
            match func.branch_cond(loc.stmt) {
                Some(v) => {
                    h.write_u8(1);
                    hash_str(&mut h, program.var(v).name());
                }
                None => h.write_u8(0),
            }
            h.finish()
        })
        .collect()
}

/// Name tables under construction during encoding. Interning verifies the
/// name round-trips through the program's lookup maps — the property the
/// decode side relies on — and refuses the publish otherwise.
struct Names<'p> {
    program: &'p Program,
    vars: Vec<&'p str>,
    var_index: HashMap<VarId, u32>,
    funcs: Vec<&'p str>,
    func_index: HashMap<FuncId, u32>,
}

impl<'p> Names<'p> {
    fn new(program: &'p Program) -> Self {
        Names {
            program,
            vars: Vec::new(),
            var_index: HashMap::new(),
            funcs: Vec::new(),
            func_index: HashMap::new(),
        }
    }

    fn var(&mut self, v: VarId) -> Option<u32> {
        if let Some(&i) = self.var_index.get(&v) {
            return Some(i);
        }
        let name = self.program.var(v).name();
        if self.program.var_named(name) != Some(v) {
            return None;
        }
        let i = self.vars.len() as u32;
        self.vars.push(name);
        self.var_index.insert(v, i);
        Some(i)
    }

    fn func(&mut self, f: FuncId) -> Option<u32> {
        if let Some(&i) = self.func_index.get(&f) {
            return Some(i);
        }
        let name = self.program.func(f).name();
        if self.program.func_named(name) != Some(f) {
            return None;
        }
        let i = self.funcs.len() as u32;
        self.funcs.push(name);
        self.func_index.insert(f, i);
        Some(i)
    }

    fn loc(&mut self, w: &mut Writer, loc: Loc) -> Option<()> {
        let f = self.func(loc.func)?;
        w.u32(f);
        w.u32(loc.stmt);
        Some(())
    }

    fn cond(&mut self, w: &mut Writer, c: &Cond) -> Option<()> {
        w.u8(u8::from(c.is_widened()));
        w.u32(c.atoms().len() as u32);
        for &atom in c.atoms() {
            match atom {
                Atom::PointsTo { loc, ptr, obj } => {
                    w.u8(0);
                    self.loc(w, loc)?;
                    w.u32(self.var(ptr)?);
                    w.u32(self.var(obj)?);
                }
                Atom::NotPointsTo { loc, ptr, obj } => {
                    w.u8(1);
                    self.loc(w, loc)?;
                    w.u32(self.var(ptr)?);
                    w.u32(self.var(obj)?);
                }
                Atom::Eq { loc, a, b } => {
                    w.u8(2);
                    self.loc(w, loc)?;
                    w.u32(self.var(a)?);
                    w.u32(self.var(b)?);
                }
                Atom::NotEq { loc, a, b } => {
                    w.u8(3);
                    self.loc(w, loc)?;
                    w.u32(self.var(a)?);
                    w.u32(self.var(b)?);
                }
                Atom::BranchTrue { var } => {
                    w.u8(4);
                    w.u32(self.var(var)?);
                }
                Atom::BranchFalse { var } => {
                    w.u8(5);
                    w.u32(self.var(var)?);
                }
            }
        }
        Some(())
    }
}

/// Encodes a clean engine's artifacts. `None` when some referenced name
/// does not round-trip (the cluster is then simply not cached).
///
/// Layout — all integers little-endian, all sections count-prefixed:
///
/// ```text
/// var names | func names | summaries | queries | fsci
/// ```
///
/// The record sections are encoded into a scratch buffer first (interning
/// names on the fly, in record order, so the table is deterministic) and
/// appended after the finished tables, keeping decode single-pass.
fn encode_payload(session: &Session<'_>, engine: &ClusterEngine) -> Option<Vec<u8>> {
    encode_records(
        session.program(),
        &engine.summary_snapshot(),
        &session.pending_queries_of(engine.members()),
        &session.fsci_cache().entries_of(engine.relevant().vars()),
    )
}

/// Encodes one cluster's gathered records (see [`encode_payload`]).
fn encode_records(
    program: &Program,
    summaries: &[(SummaryKey, Vec<(Value, Cond)>)],
    queries: &[QueryRecord],
    fsci: &[FsciRecord],
) -> Option<Vec<u8>> {
    let mut names = Names::new(program);
    let mut body = Writer::new();
    body.u32(summaries.len() as u32);
    for ((f, target), tuples) in summaries {
        body.u32(names.func(*f)?);
        body.u32(names.var(*target)?);
        body.u32(tuples.len() as u32);
        for (value, cond) in tuples {
            match value {
                Value::Ptr(q) => {
                    body.u8(0);
                    body.u32(names.var(*q)?);
                }
                Value::Addr(o) => {
                    body.u8(1);
                    body.u32(names.var(*o)?);
                }
                Value::Null => body.u8(2),
            }
            names.cond(&mut body, cond)?;
        }
    }
    body.u32(queries.len() as u32);
    for ((v, loc), sources) in queries {
        body.u32(names.var(*v)?);
        names.loc(&mut body, *loc)?;
        body.u32(sources.len() as u32);
        for (source, cond) in sources {
            match source {
                Source::Addr(o) => {
                    body.u8(0);
                    body.u32(names.var(*o)?);
                }
                Source::Null => body.u8(1),
                Source::EntryVar(q) => {
                    body.u8(2);
                    body.u32(names.var(*q)?);
                }
            }
            names.cond(&mut body, cond)?;
        }
    }
    body.u32(fsci.len() as u32);
    for ((v, loc), pts) in fsci {
        body.u32(names.var(*v)?);
        names.loc(&mut body, *loc)?;
        match pts {
            Some(pts) => {
                body.u8(1);
                body.u32(pts.len() as u32);
                for &o in pts.iter() {
                    body.u32(names.var(o)?);
                }
            }
            None => body.u8(0),
        }
    }

    let mut w = Writer::new();
    w.u32(names.vars.len() as u32);
    for n in &names.vars {
        w.str(n);
    }
    w.u32(names.funcs.len() as u32);
    for n in &names.funcs {
        w.str(n);
    }
    let mut out = w.finish();
    out.extend_from_slice(&body.finish());
    Some(out)
}

/// One FSCI fact as snapshotted from the live cache: `None` marks a
/// recorded oracle degradation (a negative answer worth persisting too).
type FsciRecord = ((VarId, Loc), Option<Arc<Vec<VarId>>>);
/// The same fact decoded from disk, before re-wrapping in `Arc`.
type DecodedFsciRecord = ((VarId, Loc), Option<Vec<VarId>>);

/// A fully decoded entry, staged before anything is installed: a payload
/// that fails to decode (or resolve) installs *nothing*.
pub(crate) struct DecodedEntry {
    pub(crate) summaries: Vec<(SummaryKey, Vec<(Value, Cond)>)>,
    pub(crate) queries: Vec<QueryRecord>,
    pub(crate) fsci: Vec<DecodedFsciRecord>,
}

/// Decodes a payload against the live program, resolving every name
/// through the program's lookup maps (the relocation). `None` on any
/// malformed byte or unresolvable name.
fn decode_payload(raw: &[u8], program: &Program) -> Option<DecodedEntry> {
    let mut r = Reader::new(raw);
    let n_vars = r.u32().ok()?;
    let mut vars: Vec<VarId> = Vec::with_capacity(n_vars.min(65_536) as usize);
    for _ in 0..n_vars {
        vars.push(program.var_named(r.str().ok()?)?);
    }
    let n_funcs = r.u32().ok()?;
    let mut funcs: Vec<FuncId> = Vec::with_capacity(n_funcs.min(65_536) as usize);
    for _ in 0..n_funcs {
        funcs.push(program.func_named(r.str().ok()?)?);
    }
    let var = |i: u32| vars.get(i as usize).copied();
    let func = |i: u32| funcs.get(i as usize).copied();
    let loc = |r: &mut Reader<'_>| -> Option<Loc> {
        let f = func(r.u32().ok()?)?;
        Some(Loc::new(f, r.u32().ok()?))
    };
    let cond = |r: &mut Reader<'_>| -> Option<Cond> {
        let widened = r.u8().ok()? != 0;
        let n = r.u32().ok()?;
        let mut atoms = Vec::with_capacity(n.min(65_536) as usize);
        for _ in 0..n {
            let atom = match r.u8().ok()? {
                0 => Atom::PointsTo {
                    loc: loc(r)?,
                    ptr: var(r.u32().ok()?)?,
                    obj: var(r.u32().ok()?)?,
                },
                1 => Atom::NotPointsTo {
                    loc: loc(r)?,
                    ptr: var(r.u32().ok()?)?,
                    obj: var(r.u32().ok()?)?,
                },
                2 => Atom::Eq {
                    loc: loc(r)?,
                    a: var(r.u32().ok()?)?,
                    b: var(r.u32().ok()?)?,
                },
                3 => Atom::NotEq {
                    loc: loc(r)?,
                    a: var(r.u32().ok()?)?,
                    b: var(r.u32().ok()?)?,
                },
                4 => Atom::BranchTrue {
                    var: var(r.u32().ok()?)?,
                },
                5 => Atom::BranchFalse {
                    var: var(r.u32().ok()?)?,
                },
                _ => return None,
            };
            atoms.push(atom);
        }
        Some(Cond::from_parts(atoms, widened))
    };

    let n_summaries = r.u32().ok()?;
    let mut summaries = Vec::with_capacity(n_summaries.min(65_536) as usize);
    for _ in 0..n_summaries {
        let f = func(r.u32().ok()?)?;
        let target = var(r.u32().ok()?)?;
        let n_tuples = r.u32().ok()?;
        let mut tuples = Vec::with_capacity(n_tuples.min(65_536) as usize);
        for _ in 0..n_tuples {
            let value = match r.u8().ok()? {
                0 => Value::Ptr(var(r.u32().ok()?)?),
                1 => Value::Addr(var(r.u32().ok()?)?),
                2 => Value::Null,
                _ => return None,
            };
            tuples.push((value, cond(&mut r)?));
        }
        summaries.push(((f, target), tuples));
    }
    let n_queries = r.u32().ok()?;
    let mut queries = Vec::with_capacity(n_queries.min(65_536) as usize);
    for _ in 0..n_queries {
        let v = var(r.u32().ok()?)?;
        let at = loc(&mut r)?;
        let n_sources = r.u32().ok()?;
        let mut sources = Vec::with_capacity(n_sources.min(65_536) as usize);
        for _ in 0..n_sources {
            let source = match r.u8().ok()? {
                0 => Source::Addr(var(r.u32().ok()?)?),
                1 => Source::Null,
                2 => Source::EntryVar(var(r.u32().ok()?)?),
                _ => return None,
            };
            sources.push((source, cond(&mut r)?));
        }
        queries.push(((v, at), sources));
    }
    let n_fsci = r.u32().ok()?;
    let mut fsci = Vec::with_capacity(n_fsci.min(65_536) as usize);
    for _ in 0..n_fsci {
        let v = var(r.u32().ok()?)?;
        let at = loc(&mut r)?;
        let pts = match r.u8().ok()? {
            0 => None,
            _ => {
                let n = r.u32().ok()?;
                let mut p = Vec::with_capacity(n.min(65_536) as usize);
                for _ in 0..n {
                    p.push(var(r.u32().ok()?)?);
                }
                Some(p)
            }
        };
        fsci.push(((v, at), pts));
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(DecodedEntry {
        summaries,
        queries,
        fsci,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::parse_program;
    use bootstrap_store::StoreConfig;

    fn program() -> Program {
        parse_program(
            "int a; int b; int *x; int *y;
             int *id(int *q) { return q; }
             void main() { x = id(&a); y = id(&b); }",
        )
        .unwrap()
    }

    fn hash_of(p: &Program) -> u64 {
        Session::new(p, Config::default()).program_content_hash()
    }

    #[test]
    fn option_and_program_hashes_are_sensitive() {
        let p = program();
        let c1 = Config::default();
        let c2 = Config {
            cond_cap: 16,
            ..Config::default()
        };
        assert_ne!(options_hash(&c1), options_hash(&c2));
        assert_eq!(options_hash(&c1), options_hash(&c1.clone()));
        let p2 = parse_program("int a; int *x; void main() { x = &a; }").unwrap();
        assert_ne!(hash_of(&p), hash_of(&p2));
        assert_eq!(hash_of(&p), hash_of(&program()));
    }

    #[test]
    fn line_and_program_hashes_see_control_flow_edges() {
        // Same statements, same text per line: only the edges differ.
        let looped = parse_program(
            "int a; int c; int *x; int *y;
             void main() { while (c) { x = &a; } y = x; }",
        )
        .unwrap();
        let branched = parse_program(
            "int a; int c; int *x; int *y;
             void main() { if (c) { x = &a; } y = x; }",
        )
        .unwrap();
        let main = |p: &Program| p.func_named("main").unwrap();
        let texts = |p: &Program| {
            p.func(main(p))
                .body()
                .iter()
                .map(|s| stmt_to_string(p, s))
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&looped), texts(&branched));
        assert_ne!(
            line_hashes(&looped, main(&looped)),
            line_hashes(&branched, main(&branched))
        );
        assert_ne!(hash_of(&looped), hash_of(&branched));
    }

    /// The programs of `tests/warmstore.rs`: pointer chains through an
    /// identity function and a global setter, and sibling struct fields.
    fn warmstore_programs() -> Vec<Program> {
        let mut chain = String::from("int *g; int **zz;\nint *id(int *q) { return q; }\n");
        chain.push_str("void set(int *v) { g = v; zz = &g; *zz = v; }\n");
        for i in 0..10 {
            chain.push_str(&format!("int a{i}; int *p{i};\n"));
        }
        chain.push_str("void main() {\n");
        for i in 0..10 {
            chain.push_str(&format!("p{i} = id(&a{i});\nset(p{i});\n"));
        }
        chain.push_str("}\n");
        let fields = "struct pair { int *fst; int *snd; };
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
            }";
        vec![
            parse_program(&chain).unwrap(),
            parse_program(fields).unwrap(),
        ]
    }

    #[test]
    fn payload_bytes_match_the_full_table_scan() {
        for (i, p) in warmstore_programs().iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("bsa-persist-scan-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = Config {
                store: Some(StoreConfig::new(&dir)),
                ..Config::default()
            };
            let session = Session::new(p, config);
            let az = session.analyzer();
            let exit = p.entry().unwrap().exit();
            for &v in session.pointers() {
                let _ = session.query_at_loc(&az, v, exit);
            }
            let mut encoded = 0;
            for (class, _) in session.steens().alias_partitions(p) {
                let engine_rc = az.engine_for(class);
                let engine = engine_rc.borrow();
                // The scan every publish used to make: the whole tables,
                // filtered down to this cluster.
                let members: HashSet<VarId> = engine.members().iter().copied().collect();
                let queries: Vec<QueryRecord> = session
                    .pending_queries_all()
                    .into_iter()
                    .filter(|((v, _), _)| members.contains(v))
                    .collect();
                let slice: HashSet<VarId> = engine.relevant().vars().collect();
                let fsci: Vec<FsciRecord> = session
                    .fsci_cache()
                    .snapshot()
                    .into_iter()
                    .filter(|((v, _), _)| slice.contains(v))
                    .collect();
                let scanned =
                    encode_records(p, &engine.summary_snapshot(), &queries, &fsci).unwrap();
                assert_eq!(encode_payload(&session, &engine).unwrap(), scanned);
                encoded += usize::from(!queries.is_empty() && !fsci.is_empty());
            }
            assert!(
                encoded > 0,
                "program {i}: no payload carried queries and FSCI facts"
            );
            drop(session);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn payload_roundtrips_through_names() {
        let p = program();
        let config = Config::default();
        let session = Session::new(&p, config);
        // Drive a query through the session so there is something to
        // record, then encode/decode against the same program.
        let az = session.analyzer();
        let x = p.var_named("x").unwrap();
        let exit = p.entry().unwrap().exit();
        let mut budget = crate::budget::AnalysisBudget::unlimited();
        let _ = az.sources(x, exit, &mut budget);
        let engine_rc = az.engine_for(session.steens().partition_key(x));
        let engine = engine_rc.borrow();
        let payload = encode_payload(&session, &engine).expect("relocatable");
        let decoded = decode_payload(&payload, &p).expect("decodes");
        let snap = engine.summary_snapshot();
        assert_eq!(decoded.summaries, snap);
        // Tampering with any single byte either fails decode or yields
        // a *different* structure — never a panic.
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0x40;
            let _ = decode_payload(&bad, &p);
        }
    }

    #[test]
    fn decode_rejects_unknown_names() {
        let p = program();
        let mut w = Writer::new();
        w.u32(1);
        w.str("no_such::var");
        w.u32(0);
        w.u32(0);
        w.u32(0);
        w.u32(0);
        assert!(decode_payload(&w.finish(), &p).is_none());
    }
}
