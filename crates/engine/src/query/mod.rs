//! Query compilation and execution.
//!
//! Queries are compiled per execution against the current catalog into a
//! small tree of [`CompiledSelect`]s (one per `UNION` branch), then evaluated
//! by index-nested-loop join with SQL three-valued logic.
//!
//! The design choice that matters for TINTIN's incrementality: `EXISTS` /
//! `IN` subqueries — including union-bodied ones — are evaluated *per outer
//! row* with the outer bindings visible, so equality conditions against
//! outer columns become hash-index probes instead of materializing the
//! subquery, and an `EXISTS` whose outer values repeat those of the previous
//! outer row reuses that row's verdict (its spool). Derived tables in a positive `FROM` position are materialized
//! once per execution (with ad-hoc hash indexes built on demand), which is
//! cheap in TINTIN's generated SQL because positive derived tables are
//! always event-guarded (their rows are bounded by the update size).

pub mod agg;
mod compile;
mod exec;
mod explain;

pub use agg::{AggFunc, AggPlan, AggSpec, GExpr, GOutput};
pub use compile::{
    compile_query, compile_row_predicate, Access, CBody, CExpr, CInSub, COutput, CSource,
    CompiledQuery, CompiledSelect, MatRef, OuterCol, RowExpr, Slots,
};
pub use exec::{
    eval_row_predicate, eval_row_scalar, execute_query as execute, query_returns_rows, ExecCtx,
    Materialized,
};
pub use explain::explain;

use crate::database::{Database, ReadCtx};
use crate::error::Result;
use crate::value::Value;

/// Evaluate a constant (row-independent) expression, e.g. a `VALUES` item.
pub fn eval_const(db: &Database, e: &tintin_sql::Expr) -> Result<Value> {
    let ce = compile::compile_const_expr(db, e)?;
    exec::eval_scalar(&ce, &ExecCtx::new(db, ReadCtx::LATEST))
}
