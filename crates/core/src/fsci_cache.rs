//! A sharded, concurrently readable FSCI points-to cache shared by every
//! analyzer of a [`crate::session::Session`].
//!
//! Only *clean* top-level FSCI computations land here (see
//! [`crate::analyzer::Analyzer::fsci_pts`]): their results are independent
//! of query order and of which thread computed them, so sharing them across
//! worker threads cannot change any answer — it only removes duplicated
//! work when parallel cluster processing asks for the same `(variable,
//! location)` set from several workers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bootstrap_ir::{Loc, VarId};
use parking_lot::RwLock;

/// Number of independently locked shards. A small power of two: enough to
/// keep a handful of worker threads from serializing on one lock, cheap
/// enough to iterate for stats.
const SHARDS: usize = 16;

type Key = (VarId, Loc);
/// `None` records a computation that degraded (budget exhausted) — also
/// deterministic for a clean run, so also shareable.
type CachedPts = Option<Arc<Vec<VarId>>>;

/// Hit/miss counters for the shared cache (monotonic, process lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsciCacheStats {
    /// Lookups answered from the shared cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Sharded concurrent map from `(variable, location)` to the FSCI
/// may-points-to set computed for it.
#[derive(Default)]
pub struct SharedFsciCache {
    shards: [RwLock<Shard>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One shard: every key of a variable lands in the same shard, which
/// also lists the locations cached per variable, so a store publish
/// reads only its slice's entries.
#[derive(Default)]
struct Shard {
    map: HashMap<Key, CachedPts>,
    locs: HashMap<VarId, Vec<Loc>>,
}

impl SharedFsciCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, v: VarId) -> &RwLock<Shard> {
        // Cheap mix of the variable id; shard count is a power of two.
        let h = (v.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 56) as usize & (SHARDS - 1)]
    }

    /// Looks up a cached result, bumping the hit/miss counters.
    pub fn get(&self, v: VarId, loc: Loc) -> Option<CachedPts> {
        let found = self.shard(v).read().map.get(&(v, loc)).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a clean computation's result. Last write wins; concurrent
    /// writers for the same key computed the same value (clean FSCI results
    /// are order-independent), so the race is benign.
    pub fn insert(&self, v: VarId, loc: Loc, pts: CachedPts) {
        let mut shard = self.shard(v).write();
        if shard.map.insert((v, loc), pts).is_none() {
            shard.locs.entry(v).or_default().push(loc);
        }
    }

    /// Every cached entry of the variables in `vars`, sorted by key, for
    /// publishing to the persistent store. Degraded (`None`) results are
    /// included: they are deterministic for a clean run too, and caching
    /// the "budget ran out here" outcome keeps warm and cold answers
    /// identical.
    pub(crate) fn entries_of(
        &self,
        vars: impl IntoIterator<Item = VarId>,
    ) -> Vec<(Key, CachedPts)> {
        let mut vars: Vec<VarId> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        let mut out = Vec::new();
        for v in vars {
            let shard = self.shard(v).read();
            let Some(locs) = shard.locs.get(&v) else {
                continue;
            };
            let start = out.len();
            out.extend(
                locs.iter()
                    .map(|&loc| ((v, loc), shard.map[&(v, loc)].clone())),
            );
            out[start..].sort_unstable_by_key(|(k, _)| *k);
        }
        out
    }

    /// A sorted snapshot of every cached entry: the oracle for
    /// [`SharedFsciCache::entries_of`].
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<(Key, CachedPts)> {
        let mut all: Vec<(Key, CachedPts)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .map
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }

    /// A snapshot of the hit/miss counters and entry count.
    pub fn stats(&self) -> FsciCacheStats {
        FsciCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().map.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_ir::FuncId;

    fn key(i: usize) -> (VarId, Loc) {
        (VarId::new(i), Loc::new(FuncId::new(0), i as u32))
    }

    #[test]
    fn miss_then_hit() {
        let cache = SharedFsciCache::new();
        let (v, loc) = key(1);
        assert!(cache.get(v, loc).is_none());
        cache.insert(v, loc, Some(Arc::new(vec![VarId::new(9)])));
        let got = cache.get(v, loc).expect("cached");
        assert_eq!(got.as_deref().map(|p| p.len()), Some(1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn negative_results_are_cached_too() {
        let cache = SharedFsciCache::new();
        let (v, loc) = key(2);
        cache.insert(v, loc, None);
        assert_eq!(cache.get(v, loc), Some(None));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache = SharedFsciCache::new();
        for i in 0..256 {
            let (v, loc) = key(i);
            cache.insert(v, loc, None);
        }
        assert_eq!(cache.stats().entries, 256);
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.read().map.is_empty())
            .count();
        assert!(populated > 1, "all 256 keys landed in one shard");
    }

    #[test]
    fn entries_of_reads_only_the_named_variables_in_key_order() {
        let cache = SharedFsciCache::new();
        for i in (0..64).rev() {
            let v = VarId::new(i % 8);
            cache.insert(v, Loc::new(FuncId::new(i % 3), i as u32), None);
        }
        let wanted = [VarId::new(5), VarId::new(2), VarId::new(5)];
        let scanned: Vec<_> = cache
            .snapshot()
            .into_iter()
            .filter(|((v, _), _)| wanted.contains(v))
            .collect();
        assert_eq!(scanned.len(), 16);
        assert_eq!(cache.entries_of(wanted), scanned);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let cache = SharedFsciCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..64 {
                        let (v, loc) = key(t * 64 + i);
                        cache.insert(v, loc, Some(Arc::new(vec![VarId::new(i)])));
                        assert!(cache.get(v, loc).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 256);
    }
}
