//! Pins the bootstrapped cover of two Table 1 presets to literal hashes.
//!
//! The persistent store keys every cluster by its position in the cover,
//! its origin and its members, so any change to how Andersen numbers or
//! orders a partition's slice that moved a cluster would make every entry
//! written by an earlier build miss. The hash covers, per cluster in cover
//! order: the cluster id, the origin (partition and object for Andersen
//! clusters) and the sorted members. The literals were computed by the
//! solver that numbered variables over the whole program, before slices
//! were numbered locally.

use bootstrap_alias::core::cover::ClusterOrigin;
use bootstrap_alias::core::{Config, Session};
use bootstrap_alias::workloads::presets;

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// Hash of the session cover of preset `name`, generated with `seed`.
fn cover_hash(name: &str, seed: u64) -> (u64, usize) {
    let mut preset = presets::by_name(name).expect("known preset");
    preset.config.seed = seed;
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    assert!(
        session
            .cover()
            .clusters()
            .iter()
            .any(|c| matches!(c.origin, ClusterOrigin::Andersen { .. })),
        "{name} must have a partition refined by Andersen"
    );
    let mut h = Fnv(0xcbf29ce484222325);
    for c in session.cover().clusters() {
        h.word(c.id as u64);
        match &c.origin {
            ClusterOrigin::WholeProgram => h.word(0),
            ClusterOrigin::Steensgaard(class) => {
                h.word(1);
                h.word(class.0 as u64);
            }
            ClusterOrigin::Andersen { partition, object } => {
                h.word(2);
                h.word(partition.0 as u64);
                h.word(object.map_or(u64::MAX, |o| o.index() as u64));
            }
        }
        h.word(c.members.len() as u64);
        for m in &c.members {
            h.word(m.index() as u64);
        }
    }
    (h.0, session.cover().len())
}

#[test]
fn autofs_cover_is_pinned() {
    assert_eq!(cover_hash("autofs", 7), (4577657854132239435, 642));
    assert_eq!(cover_hash("autofs", 701), (9932470195685617914, 642));
}

#[test]
fn sendmail_cover_is_pinned() {
    assert_eq!(cover_hash("sendmail", 7), (14589198162552420096, 21257));
}
