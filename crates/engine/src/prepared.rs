//! Prepared queries: compile once, re-execute until the catalog changes.
//!
//! Query compilation (name resolution, conjunct placement, index selection)
//! is pure with respect to table *data* — it depends only on the catalog:
//! which tables, views and indexes exist and their column layouts. A
//! [`PreparedQuery`] therefore caches the [`CompiledQuery`] keyed on the
//! database's **catalog generation** (see
//! [`Database::catalog_generation`](crate::Database::catalog_generation)):
//! every DDL or capture change assigns the database a globally unique new
//! generation, and a cached plan is valid exactly while the generation it
//! was compiled at still matches. Generations are drawn from one global
//! counter, so a plan can never be accidentally reused against a *different*
//! database whose catalog merely evolved to the same version number — equal
//! generations imply an identical catalog (clones share the generation of
//! the state they were cloned from until their catalogs diverge).
//!
//! Re-compilation is transparent: [`PreparedQuery::resolve`] returns the
//! cached plan on a generation match and recompiles otherwise, reporting
//! which happened so callers (TINTIN's commit path) can account plan-cache
//! hits and recompiles in their statistics.
//!
//! The cache is internally synchronized (a mutex around one `Option`), so a
//! `PreparedQuery` can be shared behind `&self` across threads — the shape
//! the session layer needs, where installations live behind an `RwLock` and
//! commits resolve plans under the database write lock.

use crate::database::Database;
use crate::error::Result;
use crate::query::{compile_query, CompiledQuery};
use std::sync::{Arc, Mutex, PoisonError};
use tintin_sql as sql;

/// A query with a cached compiled plan, keyed on the catalog generation.
///
/// Create with [`Database::prepare`]; run by resolving the plan and
/// executing it, `db.execute_plan(&p.resolve(&db)?.plan, read)` (see
/// [`Database::execute_plan`]). [`PreparedQuery::resolve`] also reports
/// whether the plan was recompiled.
#[derive(Debug)]
pub struct PreparedQuery {
    query: sql::Query,
    cache: Mutex<Option<CachedPlan>>,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    generation: u64,
    plan: Arc<CompiledQuery>,
}

/// The outcome of resolving a [`PreparedQuery`] against a database: the
/// executable plan plus whether it had to be recompiled.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The plan, valid for the database's current catalog generation.
    pub plan: Arc<CompiledQuery>,
    /// `true` when the cached plan was stale (or absent) and the query was
    /// recompiled; `false` on a cache hit.
    pub recompiled: bool,
}

impl Clone for PreparedQuery {
    fn clone(&self) -> Self {
        // The cached plan is an `Arc`, so cloning shares the compiled tree.
        PreparedQuery {
            query: self.query.clone(),
            cache: Mutex::new(self.lock_cache().clone()),
        }
    }
}

impl PreparedQuery {
    /// Wrap a query with an empty plan cache. Prefer [`Database::prepare`],
    /// which also compiles eagerly to validate the query.
    pub fn new(query: sql::Query) -> Self {
        PreparedQuery {
            query,
            cache: Mutex::new(None),
        }
    }

    /// The SQL query this prepared statement wraps.
    pub fn query(&self) -> &sql::Query {
        &self.query
    }

    /// The generation the cached plan was compiled at, if any (primarily
    /// for tests and diagnostics).
    pub fn cached_generation(&self) -> Option<u64> {
        self.lock_cache().as_ref().map(|c| c.generation)
    }

    /// The plan for `db`'s current catalog: the cached one when the catalog
    /// generation still matches, a fresh compilation otherwise.
    pub fn resolve(&self, db: &Database) -> Result<ResolvedPlan> {
        let generation = db.catalog_generation();
        {
            let cache = self.lock_cache();
            if let Some(c) = cache.as_ref() {
                if c.generation == generation {
                    return Ok(ResolvedPlan {
                        plan: c.plan.clone(),
                        recompiled: false,
                    });
                }
            }
        }
        let plan = Arc::new(compile_query(db, &self.query)?);
        *self.lock_cache() = Some(CachedPlan {
            generation,
            plan: plan.clone(),
        });
        Ok(ResolvedPlan {
            plan,
            recompiled: true,
        })
    }

    // Poisoning is recovered from like everywhere else in the engine: the
    // cache holds only a complete (generation, plan) pair or nothing.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Option<CachedPlan>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn prepared_query_is_send_and_sync() {
        assert_send_sync::<PreparedQuery>();
    }

    #[test]
    fn resolve_caches_until_catalog_changes() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        let p = db
            .prepare(&sql::parse_query("SELECT a FROM t").unwrap())
            .unwrap();
        // prepare() compiles eagerly, so the first resolve is a hit.
        assert!(!p.resolve(&db).unwrap().recompiled);
        db.execute_sql("CREATE TABLE u (b INT)").unwrap();
        assert!(p.resolve(&db).unwrap().recompiled);
        assert!(!p.resolve(&db).unwrap().recompiled);
    }
}
