//! `tintin-engine` — the relational substrate for the TINTIN reproduction.
//!
//! The EDBT 2016 TINTIN paper runs on Microsoft SQL Server; this crate
//! provides the subset of a relational DBMS that TINTIN actually relies on,
//! implemented in memory:
//!
//! * typed tables with primary keys, unique constraints, foreign-key
//!   *metadata*, row-level `CHECK`s, and hash indexes;
//! * a query evaluator for the SQL fragment TINTIN emits: select / project /
//!   join, correlated `EXISTS` / `IN` (and negations) with union-bodied
//!   subqueries, `UNION [ALL]`, `DISTINCT`, SQL three-valued logic;
//! * **event capture** — the `INSTEAD OF` trigger equivalent: once enabled
//!   for a table, `INSERT`/`DELETE` statements are redirected into `ins_T` /
//!   `del_T` event tables, leaving the base table untouched;
//! * the engine half of `safeCommit`: event normalization, the versioned
//!   apply / withdraw / truncate / publish primitives every commit path
//!   runs, and efficient evaluation of the generated incremental views;
//! * **concurrency primitives** — row-version MVCC: every stored row
//!   carries `(begin, end)` commit-timestamp stamps and readers filter
//!   versions by snapshot visibility instead of blocking behind commits
//!   (see [`table`]); [`SharedDatabase`], a cloneable shared handle many
//!   sessions attach to, with a commit lock that serializes committers
//!   *without* excluding readers and a snapshot registry that feeds
//!   garbage collection; and [`TxOverlay`], a transaction's private
//!   pending update that query evaluation composes onto its `BEGIN`-time
//!   snapshot so each transaction reads its own uncommitted writes and
//!   nobody else's (see [`shared`] and [`overlay`]).
//!
//! The performance property that matters for reproducing the paper's
//! numbers: correlated subqueries are evaluated per outer row with
//! hash-index probes, so TINTIN's incremental views run in time proportional
//! to the *update* size while the non-incremental assertion queries run in
//! time proportional to the *database* size.
//!
//! # Example
//!
//! ```
//! use tintin_engine::Database;
//!
//! let mut db = Database::new();
//! db.execute_sql(
//!     "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
//!      CREATE TABLE lineitem (
//!          l_orderkey INT REFERENCES orders,
//!          l_linenumber INT,
//!          PRIMARY KEY (l_orderkey, l_linenumber));
//!      INSERT INTO orders VALUES (1);
//!      INSERT INTO lineitem VALUES (1, 1), (1, 2);",
//! )
//! .unwrap();
//! let rs = db
//!     .query_sql("SELECT l_linenumber FROM lineitem WHERE l_orderkey = 1")
//!     .unwrap();
//! assert_eq!(rs.len(), 2);
//! ```

pub mod copy;
pub mod database;
pub mod error;
pub mod hash;
pub mod overlay;
pub mod prepared;
pub mod query;
pub mod result;
pub mod schema;
pub mod shared;
pub mod table;
pub mod value;

pub use copy::CopyOptions;
pub use database::{
    del_table_name, ins_table_name, AppliedVersions, Database, EventSnapshot, MvccStats,
    NormalizationReport, ReadCtx, StatementResult, TableEvents, Touched,
};
pub use error::{EngineError, Result};
pub use overlay::{DmlDelta, TableDelta, TxOverlay};
pub use prepared::{PreparedQuery, ResolvedPlan};
pub use query::{CompiledQuery, ExecCtx};
pub use result::ResultSet;
pub use schema::{Column, ForeignKey, TableSchema};
pub use shared::{SharedDatabase, Snapshot};
pub use table::{HashIndex, RowId, Table, TS_LATEST, TS_LIVE};
pub use value::{DataType, Row, Truth, Value, R64};
