//! Alias covers: the cluster decompositions produced by the cascade (§2).
//!
//! A family of pointer subsets `P1 .. Pm` is a **disjunctive alias cover**
//! when (i) it covers every pointer and (ii) the aliases of any pointer `p`
//! are the union of its aliases computed within each subset containing it
//! (Theorems 6 and 7 of the paper establish this for Steensgaard
//! partitions and Andersen clusters respectively). When the subsets are
//! pairwise disjoint — Steensgaard partitions — the cover is a **disjoint
//! alias cover**.

use std::collections::BTreeMap;

use bootstrap_analyses::ClassId;
use bootstrap_ir::VarId;

/// Where a cluster came from in the cascade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterOrigin {
    /// The entire pointer set (the unclustered baseline of Table 1).
    WholeProgram,
    /// A Steensgaard partition (equivalence class of pointers).
    Steensgaard(ClassId),
    /// An Andersen cluster refined out of a Steensgaard partition: the
    /// pointers of the partition that may point to `object` (`None` for
    /// the singleton cluster of a points-to-nothing pointer).
    Andersen {
        /// The parent Steensgaard partition.
        partition: ClassId,
        /// The shared pointed-to object.
        object: Option<VarId>,
    },
}

/// One pointer cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Index of this cluster within its [`AliasCover`].
    pub id: usize,
    /// Provenance in the cascade.
    pub origin: ClusterOrigin,
    /// The member pointers, sorted and deduplicated.
    pub members: Vec<VarId>,
}

impl Cluster {
    /// Creates a cluster, normalizing the member list.
    pub fn new(id: usize, origin: ClusterOrigin, mut members: Vec<VarId>) -> Self {
        members.sort();
        members.dedup();
        Self {
            id,
            origin,
            members,
        }
    }

    /// Number of member pointers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: VarId) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

/// A family of clusters forming an alias cover.
///
/// # Examples
///
/// ```
/// use bootstrap_core::cover::{AliasCover, Cluster, ClusterOrigin};
/// use bootstrap_ir::VarId;
///
/// let c0 = Cluster::new(0, ClusterOrigin::WholeProgram, vec![VarId::new(0), VarId::new(1)]);
/// let cover = AliasCover::new(vec![c0]);
/// assert!(cover.covers(&[VarId::new(0), VarId::new(1)]));
/// assert!(cover.is_disjoint());
/// assert_eq!(cover.max_cluster_size(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AliasCover {
    clusters: Vec<Cluster>,
}

impl AliasCover {
    /// Creates a cover from clusters (re-indexing their ids).
    pub fn new(mut clusters: Vec<Cluster>) -> Self {
        for (i, c) in clusters.iter_mut().enumerate() {
            c.id = i;
        }
        Self { clusters }
    }

    /// The clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The clusters containing `v` (more than one for disjunctive covers).
    pub fn clusters_containing(&self, v: VarId) -> impl Iterator<Item = &Cluster> + '_ {
        self.clusters.iter().filter(move |c| c.contains(v))
    }

    /// Checks cover condition (i): every pointer in `pointers` belongs to
    /// at least one cluster.
    pub fn covers(&self, pointers: &[VarId]) -> bool {
        pointers
            .iter()
            .all(|&p| self.clusters.iter().any(|c| c.contains(p)))
    }

    /// Returns `true` if no pointer appears in two clusters (a *disjoint*
    /// alias cover, e.g. Steensgaard partitions).
    pub fn is_disjoint(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        for c in &self.clusters {
            for &m in &c.members {
                if !seen.insert(m) {
                    return false;
                }
            }
        }
        true
    }

    /// The size of the largest cluster (0 for an empty cover) — the paper's
    /// "Max" columns in Table 1.
    pub fn max_cluster_size(&self) -> usize {
        self.clusters.iter().map(Cluster::len).max().unwrap_or(0)
    }

    /// Histogram of cluster sizes (`size -> how many clusters`), the data
    /// behind Figure 1.
    pub fn size_histogram(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for c in &self.clusters {
            *h.entry(c.len()).or_insert(0) += 1;
        }
        h
    }

    /// Total membership count (with multiplicity across overlapping
    /// clusters) — the denominator of the parallel binning heuristic.
    pub fn total_members(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn cluster_normalizes_members() {
        let c = Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(3), v(1), v(3)]);
        assert_eq!(c.members, vec![v(1), v(3)]);
        assert!(c.contains(v(1)));
        assert!(!c.contains(v(2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disjoint_detection() {
        let a = Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(0), v(1)]);
        let b = Cluster::new(1, ClusterOrigin::WholeProgram, vec![v(2)]);
        let cover = AliasCover::new(vec![a.clone(), b]);
        assert!(cover.is_disjoint());
        let overlapping = Cluster::new(2, ClusterOrigin::WholeProgram, vec![v(1), v(2)]);
        let cover2 = AliasCover::new(vec![a, overlapping]);
        assert!(!cover2.is_disjoint());
    }

    #[test]
    fn covers_checks_every_pointer() {
        let a = Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(0)]);
        let cover = AliasCover::new(vec![a]);
        assert!(cover.covers(&[v(0)]));
        assert!(!cover.covers(&[v(0), v(1)]));
    }

    #[test]
    fn histogram_counts_sizes() {
        let cover = AliasCover::new(vec![
            Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(0)]),
            Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(1)]),
            Cluster::new(0, ClusterOrigin::WholeProgram, vec![v(2), v(3)]),
        ]);
        let h = cover.size_histogram();
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
        assert_eq!(cover.max_cluster_size(), 2);
        assert_eq!(cover.total_members(), 4);
    }

    #[test]
    fn ids_reindexed() {
        let cover = AliasCover::new(vec![
            Cluster::new(7, ClusterOrigin::WholeProgram, vec![v(0)]),
            Cluster::new(9, ClusterOrigin::WholeProgram, vec![v(1)]),
        ]);
        assert_eq!(cover.clusters()[0].id, 0);
        assert_eq!(cover.clusters()[1].id, 1);
    }
}
