//! Site resolution for a checker batch: a memo over
//! [`Session::query_at_loc_limited`], filled in two phases.
//!
//! Phase 1 ([`Resolver::resolve_all`]) takes the batch's unique
//! `(pointer, loc)` pairs, cuts them into one group per Steensgaard alias
//! partition and runs the groups through the core worker pool
//! ([`run_pool`]), largest partition first. Each worker owns one
//! analyzer, so a partition's engine is built once, by the worker that
//! takes its group. The calling thread starts alone and only starts
//! helpers once it has been resolving for [`SPAWN_AFTER`]. Phase 2 is
//! the checkers themselves, reading the memo on the calling thread; a
//! pair phase 1 did not cover (the race checker's lock sites) resolves
//! there on demand, through the caller's analyzer.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Duration;

use bootstrap_core::parallel::{run_pool, PoolStats};
use bootstrap_core::{
    Analyzer, Cond, DegradeReason, LadderAnswer, Precision, QueryLimits, Session, Source,
};
use bootstrap_ir::{Loc, VarId};

use crate::DegradeSummary;

/// How long the calling thread resolves a batch alone before it starts
/// helper threads.
///
/// Measured on a 2-core x86-64 box (release build), one thread resolves
/// sendmail's batch (3,514 pairs in 3,448 partition groups) in
/// 106–116 ms, the benchmark's buggy corpus (2,220 pairs in 840 groups)
/// in 4.0–4.6 ms (up to 15.6 ms for the first batch of a process, while
/// the heap grows) and a daemon re-check (64 pairs) in 3.7–6.2 ms. A
/// helper costs a thread and its malloc arena (about 3 MB of peak RSS on
/// sendmail) and buys nothing on a batch that is nearly done. 16 ms is
/// about three times the slowest small batch and still takes sendmail's
/// batch to 63–71 ms on two threads, against 56–73 ms with helpers
/// started at once.
pub const SPAWN_AFTER: Duration = Duration::from_millis(16);

/// One resolved site: the sources and the ladder tier that produced them.
/// Every site resolves — degraded answers are consumed at lower confidence
/// instead of being dropped.
type Resolution = (Vec<(Source, Cond)>, Precision);

/// Memoizing wrapper around [`Session::query_at_loc_limited`]: one
/// resolution per `(pointer, loc)` pair for the whole batch.
pub(crate) struct Resolver<'a, 'p> {
    session: &'a Session<'p>,
    /// The caller's analyzer: phase 2's on-demand resolutions and the
    /// final store publish. Phase 1 never touches it, so its state does
    /// not depend on how phase 1 was scheduled.
    pub(crate) az: Analyzer<'a>,
    limits: QueryLimits,
    resolved: HashMap<(VarId, Loc), Resolution>,
    /// Unique resolutions per tier, [`Precision::ALL`] order.
    tiers: [usize; 3],
    reasons: HashMap<DegradeReason, usize>,
}

fn tier_slot(p: Precision) -> usize {
    match p {
        Precision::Fscs => 0,
        Precision::Andersen => 1,
        Precision::Steensgaard => 2,
    }
}

impl<'a, 'p> Resolver<'a, 'p> {
    pub(crate) fn new(session: &'a Session<'p>, az: Analyzer<'a>, limits: &QueryLimits) -> Self {
        Resolver {
            session,
            az,
            limits: limits.clone(),
            resolved: HashMap::new(),
            tiers: [0; 3],
            reasons: HashMap::new(),
        }
    }

    fn record(&mut self, ptr: VarId, loc: Loc, ans: LadderAnswer) {
        self.tiers[tier_slot(ans.precision)] += 1;
        if let Some(r) = ans.reason {
            *self.reasons.entry(r).or_insert(0) += 1;
        }
        self.resolved
            .insert((ptr, loc), (ans.sources, ans.precision));
    }

    pub(crate) fn sources(&mut self, ptr: VarId, loc: Loc) -> (&[(Source, Cond)], Precision) {
        if !self.resolved.contains_key(&(ptr, loc)) {
            let ans = self
                .session
                .query_at_loc_limited(&self.az, ptr, loc, &self.limits);
            self.record(ptr, loc, ans);
        }
        let (sources, precision) = &self.resolved[&(ptr, loc)];
        (sources.as_slice(), *precision)
    }

    /// Phase 1: resolves every pair in `pairs` on up to `threads` workers,
    /// helpers starting once the calling thread has run for
    /// `spawn_after`. `pairs` must be unique and sorted by
    /// `(partition_key, func, stmt)`.
    ///
    /// Every worker, the calling thread included, resolves on its own
    /// sibling of the caller's analyzer, takes whole partition groups and
    /// swaps a poisoned analyzer for a fresh sibling before its next
    /// group. A group's answers therefore depend only on the group, not
    /// on which worker ran it or what that worker ran before. Each worker
    /// publishes its engines to the store (if any) before it ends.
    pub(crate) fn resolve_all(
        &mut self,
        pairs: &[(VarId, Loc)],
        threads: usize,
        spawn_after: Duration,
    ) -> PoolStats {
        let session = self.session;
        let key = |p: VarId| session.steens().partition_key(p);
        let groups: Vec<&[(VarId, Loc)]> = pairs.chunk_by(|a, b| key(a.0) == key(b.0)).collect();
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| {
            let size = session.partition_members(key(groups[g][0].0)).len();
            (Reverse(size), g)
        });
        let limits = &self.limits;
        let (answers, stats) = run_pool(
            &order,
            threads,
            spawn_after,
            self.az.siblings(),
            |az, g| {
                let answers: Vec<LadderAnswer> = groups[g]
                    .iter()
                    .map(|&(p, loc)| session.query_at_loc_limited(az, p, loc, limits))
                    .collect();
                if az.poison_class().is_some() {
                    *az = az.sibling();
                }
                answers
            },
            |az| az.publish_store(),
        );
        // A group whose helper died has no answers here; phase 2 resolves
        // its pairs on demand.
        for (group, answers) in groups.iter().zip(answers) {
            for (&(p, loc), ans) in group.iter().zip(answers.into_iter().flatten()) {
                self.record(p, loc, ans);
            }
        }
        stats
    }

    pub(crate) fn summary(&self) -> DegradeSummary {
        let mut reasons: Vec<(DegradeReason, usize)> =
            self.reasons.iter().map(|(&r, &c)| (r, c)).collect();
        reasons.sort();
        DegradeSummary {
            fscs_queries: self.tiers[0],
            andersen_queries: self.tiers[1],
            steensgaard_queries: self.tiers[2],
            reasons,
        }
    }
}
