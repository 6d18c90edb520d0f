//! `tintin` — incremental integrity checking of SQL assertions.
//!
//! A Rust reproduction of *TINTIN: a Tool for INcremental INTegrity checking
//! of Assertions in SQL Server* (EDBT 2016). Given a database and a set of
//! SQL `CREATE ASSERTION` statements, [`Tintin::install`] rewrites each
//! assertion into a set of incremental SQL views over auxiliary event tables
//! (`ins_T` / `del_T`), and [`Tintin::safe_commit`] implements the paper's
//! `safeCommit` procedure: it checks the views against the pending update
//! and either commits the update or reports the violating tuples.
//!
//! The pipeline (paper §2): assertions → logic denials → Event Dependency
//! Constraints (EDCs) → standard SQL queries. Efficiency comes from checking
//! only the assertions that the update can violate (the emptiness shortcut
//! over event tables) and joining the update with the current data instead
//! of re-evaluating the assertion from scratch.
//!
//! There is one commit path. [`Tintin::safe_commit`] on an exclusively
//! owned [`Database`] runs the same engine primitives as a session commit
//! on the server (`tintin-session`), minus the locks: normalize the events,
//! check them, stamp the update as row versions at the next commit
//! timestamp, truncate the events and publish the timestamp.
//! [`Tintin::full_recheck`], the paper's non-incremental comparator, applies
//! the same way and withdraws the versions when the original assertion
//! queries find a violation.
//!
//! ```
//! use tintin_engine::Database;
//! use tintin::{Tintin, CommitOutcome};
//!
//! let mut db = Database::new();
//! db.execute_sql(
//!     "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
//!      CREATE TABLE lineitem (
//!          l_orderkey INT REFERENCES orders, l_linenumber INT,
//!          PRIMARY KEY (l_orderkey, l_linenumber));",
//! ).unwrap();
//!
//! let tintin = Tintin::new();
//! let installation = tintin.install(&mut db, &[
//!     "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
//!          SELECT * FROM orders o WHERE NOT EXISTS (
//!              SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))",
//! ]).unwrap();
//!
//! // An order without a line item is rejected…
//! db.execute_sql("INSERT INTO orders VALUES (1)").unwrap();
//! let outcome = tintin.safe_commit(&mut db, &installation).unwrap();
//! assert!(matches!(outcome, CommitOutcome::Rejected { .. }));
//!
//! // …an order with a line item commits.
//! db.execute_sql("INSERT INTO orders VALUES (1); INSERT INTO lineitem VALUES (1, 1);")
//!     .unwrap();
//! let outcome = tintin.safe_commit(&mut db, &installation).unwrap();
//! assert!(matches!(outcome, CommitOutcome::Committed { .. }));
//! assert_eq!(db.table("orders").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod fk;

pub use error::{Result, TintinError};
pub use fk::assertions_from_foreign_keys;
pub use tintin_logic::{ColPredicate, EdcConfig, OptimizerConfig, ResidualGate};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};
use tintin_engine::{
    del_table_name, ins_table_name, Database, NormalizationReport, PreparedQuery, ReadCtx,
    ResultSet, Touched, TxOverlay, Value,
};
use tintin_logic::{
    CmpOp, EdcGenerator, Feature, Konst, Registry, SchemaCatalog, TranslateError,
    TranslateErrorKind,
};
use tintin_sql as sql;
use tintin_sqlgen::GeneratedView;

/// Top-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct TintinConfig {
    /// EDC generation switches (optimizations, FK pruning).
    pub edc: EdcConfig,
    /// Skip views whose gating event tables are empty (paper §2: queries
    /// joining an empty event table are "immediately discarded").
    pub emptiness_shortcut: bool,
    /// Verify at install time that the current database satisfies the
    /// assertions (the EDC method assumes a consistent old state).
    pub check_initial_state: bool,
    /// Accept assertions with aggregates (the paper's stated future work)
    /// in *fallback* mode: they are checked by re-running the original
    /// query on the hypothetically-updated state, but only when the pending
    /// update touches one of the assertion's tables — so the emptiness
    /// shortcut still applies even though the check itself is not
    /// incremental.
    pub aggregate_fallback: bool,
}

impl Default for TintinConfig {
    fn default() -> Self {
        TintinConfig {
            edc: EdcConfig::default(),
            emptiness_shortcut: true,
            check_initial_state: true,
            aggregate_fallback: true,
        }
    }
}

/// The TINTIN tool.
#[derive(Debug, Clone, Default)]
pub struct Tintin {
    /// Configuration applied by `install` and every check.
    pub config: TintinConfig,
}

/// One installed assertion with its provenance.
#[derive(Debug, Clone)]
pub struct InstalledAssertion {
    /// Assertion name (lower-cased at parse time).
    pub name: String,
    /// Original `CREATE ASSERTION` text.
    pub source_sql: String,
    /// The queries inside the assertion's `NOT EXISTS` clauses — the
    /// non-incremental checks used by the baseline.
    pub original_queries: Vec<sql::Query>,
    /// Number of logic denials the assertion translated into.
    pub denial_count: usize,
    /// Number of Event Dependency Constraints generated from the denials.
    pub edc_count: usize,
    /// Names of the incremental violation views installed for it.
    pub view_names: Vec<String>,
    /// EDC bodies the install-time analysis proved unsatisfiable and
    /// dropped before SQL generation.
    pub edc_pruned: usize,
    /// One human-readable line per pruned body (rule + body text).
    pub prune_reasons: Vec<String>,
    /// The linter's verdict on this assertion.
    pub class: AssertionClass,
    /// Linter warnings surfaced in the `CREATE ASSERTION` outcome (e.g.
    /// "this assertion can never be violated").
    pub warnings: Vec<String>,
}

/// The assertion linter's classification, derived from the install-time
/// constraint analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertionClass {
    /// Ordinary assertion: satisfiable denials, all event rules kept.
    Normal,
    /// Some (not all) event rules were proved unsatisfiable and pruned.
    PartiallyPruned,
    /// The denials are satisfiable, but *every* event rule was pruned: no
    /// update can introduce a violation (given a consistent old state, the
    /// assertion never fires).
    NeverFires,
    /// The assertion's own condition is unsatisfiable: no database state
    /// violates it, so it is trivially true (tautological).
    Tautological,
    /// Aggregate assertion, checked by gated re-execution of the original
    /// query rather than incremental event rules.
    AggregateFallback,
}

impl fmt::Display for AssertionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AssertionClass::Normal => "normal",
            AssertionClass::PartiallyPruned => "partially-pruned",
            AssertionClass::NeverFires => "never-fires",
            AssertionClass::Tautological => "tautological",
            AssertionClass::AggregateFallback => "aggregate-fallback",
        })
    }
}

impl AssertionClass {
    /// Parse the wire/CLI name produced by `Display`.
    pub fn parse(s: &str) -> Option<AssertionClass> {
        Some(match s {
            "normal" => AssertionClass::Normal,
            "partially-pruned" => AssertionClass::PartiallyPruned,
            "never-fires" => AssertionClass::NeverFires,
            "tautological" => AssertionClass::Tautological,
            "aggregate-fallback" => AssertionClass::AggregateFallback,
            _ => return None,
        })
    }
}

/// One installed view, as reported by `EXPLAIN ASSERTION`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewExplain {
    /// View name.
    pub name: String,
    /// Emptiness-shortcut gate: `(is_insertion, base table)`.
    pub gate: Vec<(bool, String)>,
    /// Rendered residual gates ("ins_t where a < 0"), one per gated event
    /// atom; empty when the analysis found no refining predicates.
    pub residual: Vec<String>,
}

/// The full `EXPLAIN ASSERTION` report of one installed assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionExplain {
    /// Assertion name.
    pub name: String,
    /// Linter classification.
    pub class: AssertionClass,
    /// Number of logic denials.
    pub denial_count: usize,
    /// Event rules installed (incremental views).
    pub edc_count: usize,
    /// Event rules proved unsatisfiable and pruned.
    pub edc_pruned: usize,
    /// One line per pruned body (rule + body text).
    pub prune_reasons: Vec<String>,
    /// Per-view gates and residual predicates.
    pub views: Vec<ViewExplain>,
    /// Linter warnings.
    pub warnings: Vec<String>,
}

/// An assertion checked in fallback mode (aggregates): the original query
/// re-runs on the updated state whenever the pending update touches one of
/// the referenced tables.
#[derive(Debug, Clone)]
pub struct FallbackCheck {
    /// The assertion this fallback belongs to.
    pub assertion: String,
    /// The original queries re-run on the hypothetically updated state.
    pub queries: Vec<sql::Query>,
    /// Tables whose events make the check necessary.
    pub tables: Vec<String>,
    /// Prepared plans for `queries`, compiled at install time (one per
    /// query, in order).
    plans: Vec<PreparedQuery>,
}

/// Handle to an installed set of assertions.
#[derive(Debug, Clone)]
pub struct Installation {
    /// The assertions of this installation, with provenance.
    pub assertions: Vec<InstalledAssertion>,
    views: Vec<GeneratedView>,
    /// Prepared plans for the views, compiled once at install time
    /// (parallel to `views`). Re-compilation after DDL is transparent and
    /// accounted in [`CheckStats::plans_recompiled`].
    plans: Vec<PreparedQuery>,
    /// The views' residual gates, resolved for commit time (parallel to
    /// `views`).
    residual: Vec<Vec<EventGate>>,
    /// Aggregate assertions checked non-incrementally (with event gating).
    pub fallbacks: Vec<FallbackCheck>,
    /// Human-readable denial forms, for demos and docs.
    pub denial_texts: Vec<String>,
    /// Table → views relevance index (see [`RelevanceIndex`]).
    relevance: RelevanceIndex,
    /// Base-table column names captured at install time, for rendering
    /// residual gates in `EXPLAIN ASSERTION`.
    table_columns: BTreeMap<String, Vec<String>>,
}

/// The table → check dependency index behind the emptiness shortcut.
///
/// Every incremental view carries a *gate*: the set of event tables that
/// must all be non-empty for the view to possibly return rows (each view
/// joins its gating events positively). Indexing views by their first gate
/// entry turns the commit-time check loop inside out: instead of consulting
/// the gate of every installed view on every commit — O(installed checks) —
/// the checker looks up only the event tables the pending update actually
/// touched and gets the candidate views back, making the write-locked
/// critical section O(touched checks). This is the "relevance" idea of
/// simplified integrity checking: constraints over relations the update
/// does not mention cannot be violated by it.
#[derive(Debug, Clone, Default)]
struct RelevanceIndex {
    /// First gate entry's base table → view indices, bucketed by event
    /// kind. A view whose first gate entry has no pending events has a
    /// closed gate, so each view needs exactly one home; candidates still
    /// verify their full gate (gates are conjunctions). The commit path
    /// looks up only the *touched* tables, never iterating the installed
    /// set.
    by_table: BTreeMap<String, GateBuckets>,
    /// Views with no gating event table — always candidates (defensive:
    /// the EDC generator always emits at least one positive event atom).
    ungated: Vec<usize>,
}

/// Views homed under one base table, split by which event kind gates them.
#[derive(Debug, Clone, Default)]
struct GateBuckets {
    /// Views whose first gate entry is `ins_<table>`.
    ins: Vec<usize>,
    /// Views whose first gate entry is `del_<table>`.
    del: Vec<usize>,
}

impl RelevanceIndex {
    fn build(views: &[GeneratedView]) -> Self {
        let mut idx = RelevanceIndex::default();
        for (i, v) in views.iter().enumerate() {
            match v.gate.first() {
                Some((is_ins, table)) => {
                    let buckets = idx.by_table.entry(table.clone()).or_default();
                    if *is_ins {
                        buckets.ins.push(i);
                    } else {
                        buckets.del.push(i);
                    }
                }
                None => idx.ungated.push(i),
            }
        }
        idx
    }
}

impl Installation {
    /// The generated incremental views (one per EDC).
    pub fn views(&self) -> &[GeneratedView] {
        &self.views
    }

    /// Number of generated incremental views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Keep only the views satisfying the predicate (used when a single
    /// assertion is dropped from an installation). Prepared plans follow
    /// their views, and the relevance index is rebuilt.
    pub fn retain_views(&mut self, f: impl FnMut(&GeneratedView) -> bool) {
        let keep: Vec<bool> = self.views.iter().map(f).collect();
        let mut it = keep.iter();
        self.views.retain(|_| *it.next().unwrap());
        let mut it = keep.iter();
        self.plans.retain(|_| *it.next().unwrap());
        let mut it = keep.iter();
        self.residual.retain(|_| *it.next().unwrap());
        self.relevance = RelevanceIndex::build(&self.views);
    }

    /// The linter/analysis report of one installed assertion, by name —
    /// the data behind `EXPLAIN ASSERTION`.
    pub fn explain_assertion(&self, name: &str) -> Option<AssertionExplain> {
        let a = self.assertions.iter().find(|a| a.name == name)?;
        let views = self
            .views
            .iter()
            .filter(|v| v.assertion == a.name)
            .map(|v| ViewExplain {
                name: v.name.clone(),
                gate: v.gate.clone(),
                residual: v
                    .residual
                    .iter()
                    .filter(|g| !g.preds.is_empty())
                    .map(|g| self.render_residual(g))
                    .collect(),
            })
            .collect();
        Some(AssertionExplain {
            name: a.name.clone(),
            class: a.class,
            denial_count: a.denial_count,
            edc_count: a.edc_count,
            edc_pruned: a.edc_pruned,
            prune_reasons: a.prune_reasons.clone(),
            views,
            warnings: a.warnings.clone(),
        })
    }

    /// Render one residual gate against the column names captured at
    /// install time.
    fn render_residual(&self, gate: &ResidualGate) -> String {
        let cols = self
            .table_columns
            .get(&gate.table)
            .cloned()
            .unwrap_or_default();
        let prefix = if gate.is_ins { "ins_" } else { "del_" };
        let preds: Vec<String> = gate.preds.iter().map(|p| p.display(&cols)).collect();
        format!("{prefix}{} where {}", gate.table, preds.join(" and "))
    }

    /// The base tables whose events can trigger checks of this
    /// installation, with the number of dependent checks (views and
    /// fallbacks) per table — the relevance index, summarized.
    pub fn table_dependencies(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for v in &self.views {
            let mut seen = BTreeSet::new();
            for (_, table) in &v.gate {
                if seen.insert(table.clone()) {
                    *out.entry(table.clone()).or_default() += 1;
                }
            }
        }
        for f in &self.fallbacks {
            for table in &f.tables {
                *out.entry(table.clone()).or_default() += 1;
            }
        }
        out
    }

    /// Export everything TINTIN generated as a portable SQL script: the
    /// event tables and the violation views, with the source assertions as
    /// comments. The paper stresses that the incremental queries are
    /// standard SQL usable "on any relational DBMS"; this script is that
    /// artifact (triggers and the safeCommit procedure remain
    /// vendor-specific and are left to the target system).
    pub fn export_sql(&self, db: &Database) -> String {
        let mut out = String::new();
        out.push_str("-- Generated by tintin-rs: incremental integrity checking views\n");
        out.push_str("-- (EDBT 2016, \"TINTIN: a Tool for INcremental INTegrity checking\")\n\n");
        out.push_str("-- Event tables (populate via INSTEAD OF triggers or application code):\n");
        for t in db.captured_tables() {
            let base = db.table(&t).expect("captured table exists");
            for prefix in ["ins_", "del_"] {
                let cols: Vec<String> = base
                    .schema
                    .columns
                    .iter()
                    .map(|c| format!("{} {}", c.name, c.ty))
                    .collect();
                out.push_str(&format!(
                    "CREATE TABLE {prefix}{t} ({});\n",
                    cols.join(", ")
                ));
            }
        }
        out.push('\n');
        for a in &self.assertions {
            out.push_str(&format!("-- assertion {}:\n", a.name));
            for line in a.source_sql.lines() {
                out.push_str(&format!("--   {}\n", line.trim()));
            }
            for v in self.views.iter().filter(|v| v.assertion == a.name) {
                out.push_str(&v.sql_text);
                out.push_str(";\n");
            }
            if self.fallbacks.iter().any(|f| f.assertion == a.name) {
                out.push_str(
                    "--   (aggregate assertion: checked by re-running the original query, \
                     no incremental view)\n",
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Violating tuples reported by a check.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated assertion.
    pub assertion: String,
    /// The incremental view (or fallback query) that reported the tuples.
    pub view: String,
    /// The violating tuples themselves.
    pub rows: ResultSet,
}

/// Statistics of one incremental check.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// What event normalization removed (paper §2 preconditions).
    pub normalization: NormalizationReport,
    /// Incremental views installed in total.
    pub views_total: usize,
    /// Views skipped by the emptiness shortcut (a gating event table was
    /// empty). Includes the relevance-skipped views.
    pub views_skipped: usize,
    /// Views skipped by the relevance index without even consulting their
    /// gate: no pending event table mapped to them at all (a subset of
    /// `views_skipped`).
    pub views_skipped_relevance: usize,
    /// Views whose event tables were non-empty but where a residual gate
    /// found no qualifying event row, so the full plan was skipped (a
    /// subset of `views_skipped`).
    pub views_skipped_residual: usize,
    /// Views actually evaluated.
    pub views_evaluated: usize,
    /// Prepared plans executed from the cache (no recompilation).
    pub plans_reused: usize,
    /// Prepared plans recompiled because the catalog generation moved
    /// since they were cached (DDL between commits).
    pub plans_recompiled: usize,
    /// Aggregate-fallback assertions skipped (no relevant events).
    pub fallbacks_skipped: usize,
    /// Aggregate-fallback assertions evaluated.
    pub fallbacks_evaluated: usize,
    /// Time spent evaluating views and fallbacks (excludes normalization
    /// and commit).
    pub check_time: Duration,
}

/// Result of `safeCommit`.
#[derive(Debug, Clone)]
pub enum CommitOutcome {
    /// No violation: the update was applied and the event tables truncated.
    Committed {
        /// Rows inserted into base tables (after normalization).
        inserted: usize,
        /// Rows deleted from base tables (after normalization).
        deleted: usize,
        /// Check statistics.
        stats: CheckStats,
    },
    /// Violations found: the update was discarded (events truncated) and the
    /// violating tuples are reported.
    Rejected {
        /// The violating tuples per assertion/view.
        violations: Vec<Violation>,
        /// Check statistics.
        stats: CheckStats,
    },
}

impl CommitOutcome {
    /// Did the update pass every assertion and get applied?
    pub fn is_committed(&self) -> bool {
        matches!(self, CommitOutcome::Committed { .. })
    }

    /// Check statistics, whichever way the commit went.
    pub fn stats(&self) -> &CheckStats {
        match self {
            CommitOutcome::Committed { stats, .. } | CommitOutcome::Rejected { stats, .. } => stats,
        }
    }
}

/// Result of the non-incremental baseline check.
#[derive(Debug, Clone)]
pub struct FullRecheckOutcome {
    /// Did the update pass (and stay applied)?
    pub committed: bool,
    /// Violating tuples found on the updated state.
    pub violations: Vec<Violation>,
    /// Time spent running the original assertion queries on the updated
    /// state (the paper's non-incremental comparator).
    pub query_time: Duration,
}

impl Tintin {
    /// A checker with the default configuration.
    pub fn new() -> Self {
        Tintin::default()
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: TintinConfig) -> Self {
        Tintin { config }
    }

    /// Build the logic-layer catalog from the engine's schema, excluding
    /// event tables.
    pub fn catalog_of(db: &Database) -> SchemaCatalog {
        let mut cat = SchemaCatalog::new();
        for name in db.table_names() {
            if db.is_event_table(&name) {
                continue;
            }
            let t = db.table(&name).expect("listed table exists");
            let mut info = tintin_logic::TableInfo::new(
                t.schema.columns.iter().map(|c| c.name.clone()).collect(),
            );
            info.primary_key = t.schema.primary_key.clone();
            info.foreign_keys = t
                .schema
                .foreign_keys
                .iter()
                .map(|fk| tintin_logic::FkInfo {
                    columns: fk.columns.clone(),
                    ref_table: fk.ref_table.clone(),
                    ref_columns: fk.ref_columns.clone(),
                })
                .collect();
            cat.add_table(name, info);
        }
        cat
    }

    /// Install assertions: create event tables and capture (the trigger
    /// equivalent) for every base table, rewrite the assertions into
    /// incremental views, and store the views in the database.
    ///
    /// Installation is atomic: on any failure (untranslatable assertion,
    /// initial state violated, …) every view created and every capture
    /// enabled by this call is removed again, so a failed install leaves
    /// the database exactly as it was.
    pub fn install(&self, db: &mut Database, assertions: &[&str]) -> Result<Installation> {
        // Parse everything first.
        let mut parsed: Vec<(sql::CreateAssertion, String)> = Vec::new();
        for text in assertions {
            let stmt = sql::parse_statement(text)?;
            match stmt {
                sql::Statement::CreateAssertion(a) => parsed.push((a, text.to_string())),
                other => return Err(TintinError::NotAnAssertion(other.to_string())),
            }
        }
        for (i, (a, _)) in parsed.iter().enumerate() {
            if parsed[..i].iter().any(|(b, _)| b.name == a.name) {
                return Err(TintinError::DuplicateAssertion(a.name.clone()));
            }
        }

        let cat = Self::catalog_of(db);

        // Enable capture for all base tables (the paper builds event tables
        // for every table of the target database), remembering which ones
        // this call enabled so a failure can roll them back.
        let base_tables: Vec<String> = db
            .table_names()
            .into_iter()
            .filter(|t| !db.is_event_table(t))
            .collect();
        let mut newly_captured: Vec<String> = Vec::new();
        for t in &base_tables {
            if !db.is_captured(t) {
                if let Err(e) = db.enable_capture(t) {
                    for c in &newly_captured {
                        let _ = db.disable_capture(c);
                    }
                    return Err(e.into());
                }
                newly_captured.push(t.clone());
            }
        }

        let mut created_views: Vec<String> = Vec::new();
        match self.install_rewrites(db, &cat, &parsed, &mut created_views) {
            Ok(installation) => Ok(installation),
            Err(e) => {
                for v in &created_views {
                    let _ = db.drop_view(v, true);
                }
                for c in &newly_captured {
                    let _ = db.disable_capture(c);
                }
                Err(e)
            }
        }
    }

    /// The fallible tail of [`Tintin::install`]: rewrite the assertions,
    /// store the views (recording each created name in `created_views` for
    /// the caller's cleanup) and verify the initial state.
    fn install_rewrites(
        &self,
        db: &mut Database,
        cat: &SchemaCatalog,
        parsed: &[(sql::CreateAssertion, String)],
        created_views: &mut Vec<String>,
    ) -> Result<Installation> {
        // Rewrite each assertion.
        let mut reg = Registry::new();
        let mut installed = Vec::new();
        let mut all_views = Vec::new();
        let mut denial_texts = Vec::new();
        let mut fallbacks = Vec::new();
        for (assertion, source_sql) in parsed {
            let denials = match tintin_logic::translate_assertion(cat, &mut reg, assertion) {
                Ok(d) => d,
                Err(TranslateError {
                    kind: TranslateErrorKind::Unsupported(Feature::Aggregate | Feature::GroupBy),
                    ..
                }) if self.config.aggregate_fallback => {
                    // Aggregates: fall back to gated re-execution of the
                    // original query (the paper's future work, handled
                    // pragmatically).
                    let queries = split_assertion_queries(&assertion.condition)?;
                    let mut tables = Vec::new();
                    for q in &queries {
                        collect_query_tables(q, &mut tables);
                    }
                    tables.retain(|t| db.table(t).is_some());
                    tables.sort();
                    tables.dedup();
                    installed.push(InstalledAssertion {
                        name: assertion.name.clone(),
                        source_sql: source_sql.clone(),
                        original_queries: queries.clone(),
                        denial_count: 0,
                        edc_count: 0,
                        view_names: Vec::new(),
                        edc_pruned: 0,
                        prune_reasons: Vec::new(),
                        class: AssertionClass::AggregateFallback,
                        warnings: Vec::new(),
                    });
                    fallbacks.push(FallbackCheck {
                        assertion: assertion.name.clone(),
                        queries,
                        tables,
                        plans: Vec::new(), // prepared below, post-DDL
                    });
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            for d in &denials {
                denial_texts.push(format!("{}: {}", assertion.name, reg.denial_str(d)));
            }
            // Linter: an assertion whose denial bodies are all statically
            // unsatisfiable is tautological — no database state violates
            // its condition (checked before EDC expansion, on the denials
            // themselves).
            let analysis_on = self.config.edc.optimize && self.config.edc.analysis;
            let tautological = analysis_on
                && !denials.is_empty()
                && denials
                    .iter()
                    .all(|d| tintin_logic::analyze_body(&d.body, cat, true).is_err());
            let mut edcs = Vec::new();
            let mut prune_reasons = Vec::new();
            for d in &denials {
                let mut generator = EdcGenerator::new(&mut reg, cat, self.config.edc);
                edcs.extend(generator.generate(d)?);
                let pruned = std::mem::take(&mut generator.pruned);
                for p in &pruned {
                    prune_reasons.push(format!("{} [{}]", p.reason, reg.body_str(&p.body)));
                }
            }
            let views = tintin_sqlgen::generate_views(cat, &reg, &edcs)?;
            let original_queries = split_assertion_queries(&assertion.condition)?;
            let class = if tautological {
                AssertionClass::Tautological
            } else if edcs.is_empty() && !prune_reasons.is_empty() {
                AssertionClass::NeverFires
            } else if prune_reasons.is_empty() {
                AssertionClass::Normal
            } else {
                AssertionClass::PartiallyPruned
            };
            let warnings = match class {
                AssertionClass::Tautological => vec![format!(
                    "assertion '{}' is tautological: its condition is statically \
                     unsatisfiable, so it can never be violated",
                    assertion.name
                )],
                AssertionClass::NeverFires => vec![format!(
                    "assertion '{}' can never fire: every event rule was proved \
                     unsatisfiable, so no update can violate it",
                    assertion.name
                )],
                _ => Vec::new(),
            };
            installed.push(InstalledAssertion {
                name: assertion.name.clone(),
                source_sql: source_sql.clone(),
                original_queries,
                denial_count: denials.len(),
                edc_count: edcs.len(),
                view_names: views.iter().map(|v| v.name.clone()).collect(),
                edc_pruned: prune_reasons.len(),
                prune_reasons,
                class,
                warnings,
            });
            all_views.extend(views);
        }

        // Store views in the database (validates that they compile); every
        // created name is recorded so a later failure can remove them.
        for v in &all_views {
            db.create_view(&v.name, v.query.clone())?;
            created_views.push(v.name.clone());
        }

        if self.config.check_initial_state {
            for a in &installed {
                for q in &a.original_queries {
                    let rs = db.query(q, ReadCtx::LATEST)?;
                    if !rs.is_empty() {
                        return Err(TintinError::InitialStateViolated {
                            assertion: a.name.clone(),
                            rows: rs.len(),
                        });
                    }
                }
            }
        }

        // Compile every check once, now that install's own DDL (views,
        // capture) is done: the cached plans stay valid until the next
        // catalog change, so steady-state commits never touch the compiler.
        let plans: Vec<PreparedQuery> = all_views
            .iter()
            .map(|v| db.prepare(&v.query))
            .collect::<std::result::Result<_, _>>()?;
        for f in &mut fallbacks {
            f.plans = f
                .queries
                .iter()
                .map(|q| db.prepare(q))
                .collect::<std::result::Result<_, _>>()?;
        }
        let residual = all_views
            .iter()
            .map(|v| v.residual.iter().map(EventGate::new).collect())
            .collect();
        let relevance = RelevanceIndex::build(&all_views);
        let table_columns = cat
            .table_names()
            .filter_map(|t| Some((t.clone(), cat.table(t)?.columns.clone())))
            .collect();

        Ok(Installation {
            assertions: installed,
            views: all_views,
            plans,
            residual,
            fallbacks,
            denial_texts,
            relevance,
            table_columns,
        })
    }

    /// Remove everything an installation created: the violation views and —
    /// unless another installation still needs them — the event tables and
    /// capture triggers. The inverse of [`Tintin::install`].
    pub fn uninstall(
        &self,
        db: &mut Database,
        installation: &Installation,
        drop_capture: bool,
    ) -> Result<()> {
        for v in &installation.views {
            db.drop_view(&v.name, true)?;
        }
        if drop_capture {
            for t in db.captured_tables() {
                db.disable_capture(&t)?;
            }
        }
        Ok(())
    }

    /// Evaluate the incremental views against the pending events without
    /// committing or truncating anything (a dry run of the check phase).
    ///
    /// Normalizes the events first, then delegates to
    /// [`Tintin::check_normalized`]. Callers checking *several*
    /// installations against one pending update (the session layer's
    /// commit) should normalize once and call `check_normalized` per
    /// installation with the [`Touched`] set normalization returned.
    pub fn check_pending(
        &self,
        db: &mut Database,
        installation: &Installation,
    ) -> Result<(Vec<Violation>, CheckStats)> {
        let (normalization, touched) = db.normalize_events()?;
        let mut stats = CheckStats {
            normalization,
            ..CheckStats::default()
        };
        let violations = self.check_normalized(db, installation, &touched, &mut stats)?;
        Ok((violations, stats))
    }

    /// The check phase proper, over already-normalized events: consult the
    /// installation's relevance index with the `touched` event tables,
    /// evaluate only the checks the pending update can possibly violate,
    /// and run each through its prepared plan. Statistics (including
    /// plan-cache hits/recompiles) accumulate into `stats`.
    ///
    /// `touched` must be what [`Database::normalize_events`] returned:
    /// gating has to reflect the events the check will see, and
    /// normalization can empty an event table, which closes its gates.
    ///
    /// Checking is **read-only** (`&Database`): incremental views join the
    /// staged event tables against the committed state, and aggregate
    /// fallbacks evaluate the hypothetically-updated state by overlay
    /// composition instead of apply-and-undo. The session layer exploits
    /// this by running the whole check phase under the shared *read* lock,
    /// concurrent with other sessions' reads. Every read is at
    /// [`ReadCtx::LATEST`]: the staged events carry the committer's
    /// unpublished timestamp, which no published snapshot sees.
    ///
    /// With the emptiness shortcut disabled every view and fallback is
    /// evaluated — the semantics-preserving baseline the relevance index is
    /// an optimization of.
    pub fn check_normalized(
        &self,
        db: &Database,
        installation: &Installation,
        touched: &Touched,
        stats: &mut CheckStats,
    ) -> Result<Vec<Violation>> {
        stats.views_total += installation.views.len();
        let mut violations = Vec::new();
        let t0 = Instant::now();
        if self.config.emptiness_shortcut {
            // Relevance: a view whose first gate table has no pending
            // events cannot return rows; only views reachable from a
            // touched event table are even looked at — O(touched), not
            // O(installed).
            let mut candidates: Vec<usize> = installation.relevance.ungated.clone();
            for e in touched.iter() {
                if let Some(buckets) = installation.relevance.by_table.get(&e.table) {
                    if e.ins > 0 {
                        candidates.extend(buckets.ins.iter().copied());
                    }
                    if e.del > 0 {
                        candidates.extend(buckets.del.iter().copied());
                    }
                }
            }
            candidates.sort_unstable();
            let skipped_by_relevance = installation.views.len() - candidates.len();
            stats.views_skipped_relevance += skipped_by_relevance;
            stats.views_skipped += skipped_by_relevance;
            for i in candidates {
                // Gates are conjunctions: the remaining entries must hold
                // too.
                let gate = &installation.views[i].gate;
                if !gate.iter().all(|(is_ins, t)| touched.contains(*is_ins, t)) {
                    stats.views_skipped += 1;
                    continue;
                }
                // Residual gates refine the emptiness check to predicate
                // granularity: the view joins each gated event atom with
                // the predicates the analysis proved necessary, so if some
                // event table holds no qualifying row the view is empty and
                // the full plan can be skipped. Sound because a predicate
                // is only emitted when every witnessing row must satisfy it
                // (and NULL fails both SQL `WHERE` and `sql_cmp`).
                let residual = &installation.residual[i];
                if !residual.iter().all(|g| g.is_open(db)) {
                    stats.views_skipped += 1;
                    stats.views_skipped_residual += 1;
                    continue;
                }
                self.eval_view(db, installation, i, stats, &mut violations)?;
            }
        } else {
            for i in 0..installation.views.len() {
                self.eval_view(db, installation, i, stats, &mut violations)?;
            }
        }
        // Aggregate fallbacks: re-run the original query on the
        // hypothetically updated state, but only when the pending update
        // touches one of the assertion's tables.
        if !installation.fallbacks.is_empty() {
            let relevant: Vec<&FallbackCheck> = installation
                .fallbacks
                .iter()
                .filter(|f| {
                    !self.config.emptiness_shortcut || f.tables.iter().any(|t| touched.touches(t))
                })
                .collect();
            stats.fallbacks_skipped += installation.fallbacks.len() - relevant.len();
            stats.fallbacks_evaluated += relevant.len();
            if !relevant.is_empty() {
                // The hypothetically-updated state, by overlay composition:
                // normalized events guarantee `del ⊆ base` and
                // `ins ∩ base = ∅`, so `(base − del) ∪ ins` is exactly what
                // apply-and-undo used to materialize — without mutating the
                // database, which is what lets the whole check run under a
                // shared read lock.
                let overlay = events_as_overlay(db, touched);
                let read = ReadCtx {
                    overlay: Some(&overlay),
                    ..ReadCtx::LATEST
                };
                for f in relevant {
                    for (qi, plan) in f.plans.iter().enumerate() {
                        let resolved = plan.resolve(db)?;
                        if resolved.recompiled {
                            stats.plans_recompiled += 1;
                        } else {
                            stats.plans_reused += 1;
                        }
                        let rs = db.execute_plan(&resolved.plan, read)?;
                        if !rs.is_empty() {
                            violations.push(Violation {
                                assertion: f.assertion.clone(),
                                view: format!("fallback_query_{qi}"),
                                rows: rs,
                            });
                        }
                    }
                }
            }
        }
        stats.check_time += t0.elapsed();
        Ok(violations)
    }

    /// Evaluate one incremental view through its prepared plan.
    fn eval_view(
        &self,
        db: &Database,
        installation: &Installation,
        i: usize,
        stats: &mut CheckStats,
        violations: &mut Vec<Violation>,
    ) -> Result<()> {
        stats.views_evaluated += 1;
        let resolved = installation.plans[i].resolve(db)?;
        if resolved.recompiled {
            stats.plans_recompiled += 1;
        } else {
            stats.plans_reused += 1;
        }
        // Clean commits are the common case: probe for emptiness with an
        // early-exit execution, and materialize the violating tuples only
        // when there are any.
        if db.plan_returns_rows(&resolved.plan, ReadCtx::LATEST)? {
            let rs = db.execute_plan(&resolved.plan, ReadCtx::LATEST)?;
            let view = &installation.views[i];
            violations.push(Violation {
                assertion: view.assertion.clone(),
                view: view.name.clone(),
                rows: rs,
            });
        }
        Ok(())
    }

    /// The paper's `safeCommit` procedure: check the pending update against
    /// every assertion; commit it if no violation is found, otherwise report
    /// the violating tuples. Either way the event tables are truncated so a
    /// new update can be proposed.
    ///
    /// This is the server's commit path run by a single owner: the update
    /// is applied as row versions stamped with the next commit timestamp,
    /// which is then published (so [`Database::current_ts`] advances once
    /// per commit, exactly as a session commit would advance it), and the
    /// touched tables are garbage-collected once enough dead versions
    /// accumulate. With nothing pending the clock does not move. An error
    /// after normalization — a failed check or a failed apply, e.g. a
    /// primary-key conflict — discards the staged events, as the server
    /// does, and leaves the base tables unchanged.
    pub fn safe_commit(
        &self,
        db: &mut Database,
        installation: &Installation,
    ) -> Result<CommitOutcome> {
        // One scan of the captured set (inside normalization) feeds the
        // whole commit: gating, counting, applying and truncating all reuse
        // the touched set, keeping the critical section O(touched).
        let (normalization, touched) = db.normalize_events()?;
        let mut stats = CheckStats {
            normalization,
            ..CheckStats::default()
        };
        let violations = match self.check_normalized(db, installation, &touched, &mut stats) {
            Ok(violations) => violations,
            Err(e) => {
                db.truncate_events(&touched);
                return Err(e);
            }
        };
        if !violations.is_empty() {
            db.truncate_events(&touched);
            return Ok(CommitOutcome::Rejected { violations, stats });
        }
        let (inserted, deleted) = touched.counts();
        if !nothing_pending(&stats.normalization, &touched) {
            let ts = db.next_commit_ts();
            let applied = db.apply_pending_versioned(&touched, ts);
            db.truncate_events(&touched);
            applied?;
            db.publish_commit(ts);
            db.maybe_gc(&touched, ts);
        }
        Ok(CommitOutcome::Committed {
            inserted,
            deleted,
            stats,
        })
    }

    /// Non-incremental baseline: apply the pending update as row versions,
    /// run the original assertion queries on the updated state, and publish
    /// the commit if they find nothing or withdraw the versions if they
    /// find a violation (which leaves [`Database::mvcc_stats`] as it was).
    /// `query_time` isolates the cost the paper compares against. Like
    /// [`Tintin::safe_commit`] it leaves the clock alone when nothing is
    /// pending — recovery runs it on an event-free database to verify the
    /// replayed state, and must not move the replayed clock.
    pub fn full_recheck(
        &self,
        db: &mut Database,
        installation: &Installation,
    ) -> Result<FullRecheckOutcome> {
        let (normalization, touched) = db.normalize_events()?;
        let ts = db.next_commit_ts();
        let applied = match db.apply_pending_versioned(&touched, ts) {
            Ok(applied) => applied,
            Err(e) => {
                db.truncate_events(&touched);
                return Err(e.into());
            }
        };
        let t0 = Instant::now();
        let violations = match self.original_query_violations(db, installation) {
            Ok(violations) => violations,
            Err(e) => {
                db.unapply_pending_versioned(applied);
                db.truncate_events(&touched);
                return Err(e);
            }
        };
        let query_time = t0.elapsed();
        let committed = violations.is_empty();
        if !committed {
            db.unapply_pending_versioned(applied);
        }
        db.truncate_events(&touched);
        if committed && !nothing_pending(&normalization, &touched) {
            db.publish_commit(ts);
            db.maybe_gc(&touched, ts);
        }
        Ok(FullRecheckOutcome {
            committed,
            violations,
            query_time,
        })
    }

    /// The original assertion queries' violating tuples on the live state
    /// ([`tintin_engine::TS_LATEST`], which includes versions stamped with
    /// a not-yet-published timestamp).
    fn original_query_violations(
        &self,
        db: &Database,
        installation: &Installation,
    ) -> Result<Vec<Violation>> {
        let mut violations = Vec::new();
        for a in &installation.assertions {
            for (qi, q) in a.original_queries.iter().enumerate() {
                let rs = db.query(q, ReadCtx::LATEST)?;
                if !rs.is_empty() {
                    violations.push(Violation {
                        assertion: a.name.clone(),
                        view: format!("original_query_{qi}"),
                        rows: rs,
                    });
                }
            }
        }
        Ok(violations)
    }

    /// Run the original (non-incremental) assertion queries against the
    /// *current* state; returns per-assertion violating row counts.
    pub fn check_current_state(
        &self,
        db: &Database,
        installation: &Installation,
    ) -> Result<Vec<(String, usize)>> {
        let mut out = Vec::new();
        for a in &installation.assertions {
            let mut n = 0;
            for q in &a.original_queries {
                n += db.query(q, ReadCtx::LATEST)?.len();
            }
            out.push((a.name.clone(), n));
        }
        Ok(out)
    }
}

/// Were the event tables empty before normalization? Normalization counts
/// every event it drops, so nothing touched after it and nothing dropped by
/// it means nothing was staged — the single-owner twin of the server's
/// no-op commit (an empty transaction), which leaves the clock alone. An
/// update that was staged but normalizes away still commits at a fresh
/// timestamp, as it does on the server.
fn nothing_pending(normalization: &NormalizationReport, touched: &Touched) -> bool {
    touched.is_empty() && normalization.total() == 0
}

/// A residual gate as the commit-time check runs it: its event table's
/// name and its predicates' constants are resolved once, at install, so
/// testing the gate formats and allocates nothing.
#[derive(Debug, Clone)]
struct EventGate {
    /// The gated event table (`ins_<table>` or `del_<table>`).
    table: String,
    /// Conjunction of necessary column predicates.
    preds: Vec<GatePred>,
}

/// One [`ColPredicate`] with its constant as an engine value.
#[derive(Debug, Clone)]
enum GatePred {
    Null { col: usize, negated: bool },
    Cmp { col: usize, op: CmpOp, value: Value },
}

impl EventGate {
    fn new(gate: &ResidualGate) -> Self {
        let table = if gate.is_ins {
            ins_table_name(&gate.table)
        } else {
            del_table_name(&gate.table)
        };
        let preds = gate
            .preds
            .iter()
            .map(|p| match p {
                ColPredicate::Null { col, negated } => GatePred::Null {
                    col: *col,
                    negated: *negated,
                },
                ColPredicate::Cmp { col, op, value } => GatePred::Cmp {
                    col: *col,
                    op: *op,
                    value: konst_value(value),
                },
            })
            .collect();
        EventGate { table, preds }
    }

    /// Is the gate open — does its event table hold at least one row
    /// satisfying all of its predicates? An empty predicate list is always
    /// open (the plain emptiness gate already verified non-emptiness).
    fn is_open(&self, db: &Database) -> bool {
        if self.preds.is_empty() {
            return true;
        }
        let Some(evt) = db.table(&self.table) else {
            // No event table at all: closed (nothing can qualify).
            return false;
        };
        evt.scan()
            .any(|(_, row)| self.preds.iter().all(|p| p.holds(row)))
    }
}

impl GatePred {
    /// Evaluate the predicate against a stored event row, with exactly the
    /// engine's SQL `WHERE` semantics: NULL and cross-class comparisons
    /// never match.
    fn holds(&self, row: &[Value]) -> bool {
        match self {
            GatePred::Null { col, negated } => match row.get(*col) {
                Some(v) => v.is_null() != *negated,
                None => false,
            },
            GatePred::Cmp { col, op, value } => {
                let Some(v) = row.get(*col) else { return false };
                let Some(ord) = v.sql_cmp(value) else {
                    return false;
                };
                match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::NotEq => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::LtEq => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::GtEq => ord != std::cmp::Ordering::Less,
                }
            }
        }
    }
}

/// Convert a logic-layer constant to an engine value (the same mapping the
/// SQL generator's literals go through).
fn konst_value(k: &Konst) -> Value {
    match k {
        Konst::Int(i) => Value::Int(*i),
        Konst::Real(r) => Value::real(*r),
        Konst::Str(s) => Value::str(s.as_str()),
    }
}

/// Build a read-only overlay representing the staged pending update: the
/// contents of the touched `ins_T` / `del_T` event tables as per-table
/// insertion / deletion sets. Composed onto the committed state during
/// evaluation it yields `(base − del) ∪ ins` — the hypothetically-updated
/// state aggregate fallbacks check — without mutating anything.
fn events_as_overlay(db: &Database, touched: &Touched) -> TxOverlay {
    let mut overlay = TxOverlay::new();
    for e in touched.iter() {
        let delta = overlay.delta_mut(&e.table);
        if let Some(base) = db.table(&e.table) {
            // Mirror the base table's indexes, so the fallback's probes
            // find the staged insertions by key.
            delta.index_keys(base.indexes().iter().map(|ix| ix.columns.clone()).collect());
        }
        if let Some(ins) = db.table(&ins_table_name(&e.table)).filter(|_| e.ins > 0) {
            for (_, row) in ins.scan() {
                delta.push_ins(row.clone());
            }
        }
        if let Some(del) = db.table(&del_table_name(&e.table)).filter(|_| e.del > 0) {
            for (_, row) in del.scan() {
                delta.push_del(row.clone());
            }
        }
    }
    overlay
}

/// Collect base-table names referenced anywhere in a query (FROM clauses of
/// all nested selects and subqueries).
fn collect_query_tables(q: &sql::Query, out: &mut Vec<String>) {
    fn walk_tr(tr: &sql::TableRef, out: &mut Vec<String>) {
        match tr {
            sql::TableRef::Named { name, .. } => out.push(name.clone()),
            sql::TableRef::Join {
                left, right, on, ..
            } => {
                walk_tr(left, out);
                walk_tr(right, out);
                if let Some(on) = on {
                    walk_expr(on, out);
                }
            }
            sql::TableRef::Subquery { query, .. } => collect_query_tables(query, out),
        }
    }
    fn walk_expr(e: &sql::Expr, out: &mut Vec<String>) {
        match e {
            sql::Expr::Exists { query, .. } => collect_query_tables(query, out),
            sql::Expr::InSubquery { exprs, query, .. } => {
                for x in exprs {
                    walk_expr(x, out);
                }
                collect_query_tables(query, out);
            }
            sql::Expr::Binary { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            sql::Expr::Unary { expr, .. } => walk_expr(expr, out),
            sql::Expr::IsNull { expr, .. } => walk_expr(expr, out),
            sql::Expr::InList { expr, list, .. } => {
                walk_expr(expr, out);
                for x in list {
                    walk_expr(x, out);
                }
            }
            sql::Expr::Tuple(parts) => {
                for x in parts {
                    walk_expr(x, out);
                }
            }
            sql::Expr::Func { args, .. } => {
                if let sql::FuncArgs::List(list) = args {
                    for x in list {
                        walk_expr(x, out);
                    }
                }
            }
            sql::Expr::Column(_) | sql::Expr::Literal(_) => {}
        }
    }
    for sel in q.selects() {
        for tr in &sel.from {
            walk_tr(tr, out);
        }
        if let Some(w) = &sel.selection {
            walk_expr(w, out);
        }
        if let Some(h) = &sel.having {
            walk_expr(h, out);
        }
        for g in &sel.group_by {
            walk_expr(g, out);
        }
    }
    for item in &q.order_by {
        walk_expr(&item.expr, out);
    }
}

/// Extract the queries inside the assertion's NOT EXISTS conjuncts.
fn split_assertion_queries(cond: &sql::Expr) -> Result<Vec<sql::Query>> {
    let mut out = Vec::new();
    for conj in cond.conjuncts() {
        match conj {
            sql::Expr::Exists {
                query,
                negated: true,
            } => out.push((**query).clone()),
            sql::Expr::Unary {
                op: sql::UnOp::Not,
                expr,
            } => match &**expr {
                sql::Expr::Exists {
                    query,
                    negated: false,
                } => out.push((**query).clone()),
                _ => {
                    return Err(TintinError::Translate(
                        "assertion condition must be a conjunction of NOT EXISTS".into(),
                    ))
                }
            },
            _ => {
                return Err(TintinError::Translate(
                    "assertion condition must be a conjunction of NOT EXISTS".into(),
                ))
            }
        }
    }
    Ok(out)
}
