//! `tintin-logic` — the logical core of the TINTIN reproduction.
//!
//! This crate implements the paper's rewriting pipeline:
//!
//! 1. **Assertions → denials** ([`translate_assertion`]): each SQL
//!    `CREATE ASSERTION` (a `NOT EXISTS` over the relational-algebra
//!    fragment) becomes one or more logic denials `L1 ∧ … ∧ Ln → ⊥`.
//! 2. **Denials → Event Dependency Constraints** ([`EdcGenerator`]): each
//!    denial is expanded with the paper's formulas (2)/(3) into the set of
//!    rules that enumerate exactly how insertion/deletion events can violate
//!    it, with recursive event definitions (`ι_d`, `δ_d`, `dⁿ`) for derived
//!    predicates, grounded in Olivé's event rules.
//! 3. **Semantic optimizations** ([`optimize_bodies`]): disjoint-event and
//!    set-semantics pruning, built-in folding, duplicate elimination, and
//!    the foreign-key pruning the paper illustrates with its EDC 5.
//!
//! The crate is engine-independent: it needs only a [`SchemaCatalog`]
//! describing tables, keys and foreign keys. `tintin-sqlgen` turns the EDCs
//! produced here into executable SQL views.

pub mod analysis;
pub mod catalog;
pub mod edc;
pub mod ir;
pub mod optimize;
pub mod translate;

pub use analysis::{
    analyze_body, residual_gates, BodySummary, ColPredicate, PruneReason, ResidualGate,
};
pub use catalog::{FkInfo, SchemaCatalog, TableInfo};
pub use edc::{referenced_derived, Edc, EdcConfig, EdcError, EdcGenerator, MAX_EDC_BODIES};
pub use ir::{
    positively_bound_vars, subst_body, subst_literal, subst_term, Atom, Bindings, CmpOp, Denial,
    DerivedDef, DerivedId, EventKind, Konst, Literal, Pred, Registry, Rule, Term, Var,
};
pub use optimize::{optimize_bodies, simplify_body, OptimizeOutcome, OptimizerConfig, PrunedBody};
pub use translate::{translate_assertion, Feature, TranslateError, TranslateErrorKind, MAX_BODIES};
