//! Bootstrapped flow- and context-sensitive pointer alias analysis
//! (reproduction of Kahlon, PLDI 2008).
//!
//! The framework combines three strategies (§1 of the paper):
//!
//! 1. **Divide and conquer** — a cascade of flow/context-insensitive
//!    analyses ([`bootstrap_analyses`]) partitions the program's pointers
//!    into small clusters ([`cover`], [`session`]), each with a relevant
//!    statement slice ([`relevant`], Algorithm 1);
//! 2. **Summarization** — a flow- and context-sensitive analysis tracks
//!    maximally complete update sequences backwards per cluster
//!    ([`engine`], [`summary`], [`constraint`]; Algorithms 2–5), with
//!    interprocedural drivers and queries in [`analyzer`];
//! 3. **Parallelization** — clusters are independent; [`parallel`] shards
//!    them over threads and reproduces the paper's 5-machine simulation.
//!
//! # Quick start
//!
//! ```
//! use bootstrap_core::{Config, Session};
//!
//! let program = bootstrap_ir::parse_program(
//!     "int a; int b; int *p; int *q;
//!      void main() { p = &a; if (b) { q = p; } else { q = &b; } }",
//! )
//! .unwrap();
//! let session = Session::new(&program, Config::default());
//! let az = session.analyzer();
//! let exit = program.entry().unwrap().exit();
//! let p = program.var_named("p").unwrap();
//! let q = program.var_named("q").unwrap();
//! assert!(az.may_alias(p, q, exit).unwrap());
//! assert!(!az.must_alias(p, q, exit).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod bdd;
pub mod budget;
pub mod constraint;
pub mod cover;
pub mod degrade;
pub mod engine;
pub mod fsci_cache;
pub mod incremental;
pub mod intern;
pub mod parallel;
mod persist;
pub mod profile;
pub mod relevant;
pub mod session;
pub mod summary;

pub use analyzer::{Analyzer, QueryError};
pub use bootstrap_analyses::andersen::SolverStats;
pub use bootstrap_store::{read_lifetime_counters, Store, StoreConfig, StoreCounters};
pub use budget::{AnalysisBudget, Outcome};
pub use constraint::Cond;
pub use cover::{AliasCover, Cluster, ClusterOrigin};
pub use degrade::{
    classify_panic, DegradeReason, FaultKind, FaultPhase, FaultPlan, LadderAnswer, PanicClass,
    Precision, INJECTED_PANIC_MSG,
};
pub use engine::{ClusterEngine, EngineCx, EngineOptions, NoOracle, PtsOracle};
pub use fsci_cache::FsciCacheStats;
pub use incremental::{
    diff_and_adopt, snapshot, AdoptionLedger, DirtyReport, LedgerEntry, PartitionSnapshot,
};
pub use intern::{ArenaFull, CondId, DeadId, Interner, InternerStats};
pub use parallel::ClusterReport;
pub use profile::{Phase, PhaseSnapshot, PhaseStats};
pub use relevant::{relevant_statements, RelevantSet};
pub use session::{CascadeTimings, Config, QueryLimits, Session};
pub use summary::{Source, SummaryTuple, Value};
