//! Mini-C frontend and four-form pointer IR for bootstrapped alias analysis.
//!
//! This crate provides the program representation that the PLDI 2008
//! *Bootstrapping* paper (Kahlon) assumes as input. Per Remark 1 of the
//! paper, every pointer assignment in the analyzed program is reduced to one
//! of four forms:
//!
//! * `x = y` — [`Stmt::Copy`]
//! * `x = &y` — [`Stmt::AddrOf`]
//! * `x = *y` — [`Stmt::Load`]
//! * `*x = y` — [`Stmt::Store`]
//!
//! plus calls, returns and skips. Heap allocations become `p = &alloc_loc`
//! ([`Stmt::AddrOf`] of a per-site heap variable), deallocations become
//! `p = NULL` ([`Stmt::Null`]), structs are field-flattened, and pointer
//! arithmetic is handled naively by aliasing the result with its pointer
//! operands.
//!
//! The crate contains:
//!
//! * a hand-written lexer ([`lex`]) and recursive-descent parser ([`parse`])
//!   for *mini-C*, a C subset rich enough for the paper's examples;
//! * the lowering pass ([`lower`]) that normalizes the AST into the IR,
//!   introducing temporaries for nested dereferences and building
//!   statement-level control-flow graphs;
//! * the IR itself ([`prog`]) with its variable table and per-function CFGs;
//! * call-graph construction and the one Tarjan SCC pass ([`callgraph`])
//!   that also serves per-function CFG and interprocedural CFG clients;
//! * a programmatic [`builder`] used by the synthetic workload generator;
//! * Graphviz export ([`dot`]) and pretty printing ([`display`]).
//!
//! # Examples
//!
//! ```
//! use bootstrap_ir::parse_program;
//!
//! let program = parse_program(
//!     r#"
//!     int *p; int a;
//!     void main() {
//!         p = &a;
//!     }
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(program.functions().count(), 1);
//! assert!(program.var_named("p").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod callgraph;
pub mod display;
pub mod dot;
pub mod ids;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod prog;

pub use builder::{FuncBodyBuilder, ProgramBuilder};
pub use callgraph::{tarjan, CallGraph, Sccs};
pub use ids::{CallSiteId, FuncId, Loc, StmtIdx, VarId};
pub use prog::{AbsLoc, CallTarget, Function, PathSeg, Program, Stmt, VarInfo, VarKind};

/// Parses mini-C source text and lowers it to the four-form IR.
///
/// This is the main entry point of the crate: it runs the lexer, the parser
/// and the lowering pass in sequence.
///
/// # Errors
///
/// Returns a [`parse::ParseError`] if the source is not valid mini-C (the
/// error includes a line/column position and a human-readable message).
///
/// # Examples
///
/// ```
/// let program = bootstrap_ir::parse_program("void main() { int *x; int y; x = &y; }").unwrap();
/// assert_eq!(program.entry().map(|f| f.name()), Some("main"));
/// ```
pub fn parse_program(source: &str) -> Result<Program, parse::ParseError> {
    let ast = parse::parse(source)?;
    Ok(lower::lower(&ast))
}
