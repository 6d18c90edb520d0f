//! `tintin-session` — concurrent, transactional sessions over one shared
//! TINTIN database.
//!
//! The EDBT 2016 paper's usage model is *transaction-time* integrity
//! checking: an application opens a transaction, issues updates, and at
//! `COMMIT` the `safeCommit` procedure either applies the whole update or
//! rejects it, reporting the violated assertion. This crate supplies the
//! connection abstraction around that model, scaled from the paper's single
//! client to any number of concurrent ones:
//!
//! * **[`Server`]** holds the [`SharedDatabase`] handle plus the [`Tintin`]
//!   checker and all installed assertion sets; it is cheap to clone and
//!   safe to share across threads;
//! * **[`Session`]** is one connection, created by [`Server::connect`]. Any
//!   number of sessions attach to the same database; assertions installed
//!   through one are enforced on every commit from all of them;
//! * **explicit transactions** — `BEGIN; …; COMMIT` groups any number of
//!   DML statements into one unit. `BEGIN` captures an **MVCC snapshot**
//!   (the latest commit timestamp); every query and DML statement inside
//!   the transaction then observes the visible-state equation
//!   `(snapshot − del) ∪ ins` — the `BEGIN`-time row versions, minus the
//!   transaction's pending deletions, plus its pending insertions
//!   (accumulated in the session's private [`TxOverlay`]). Repeated
//!   `SELECT`s inside a transaction return identical results even while
//!   other sessions commit, and no other session ever observes pending
//!   work — not through base-table reads, and not through `ins_T` /
//!   `del_T` event-table or vio-view reads either: a commit stages its
//!   events stamped with its still-unpublished timestamp, invisible to
//!   every reader until (and unless) the commit publishes. `SAVEPOINT` /
//!   `ROLLBACK TO` / `RELEASE` give partial rollback via cheap overlay
//!   snapshots;
//! * **phased commits** — `COMMIT` serializes against other committers on
//!   the database's commit lock, but holds the *exclusive* write lock only
//!   for two short bookkeeping windows: (1) first-committer-wins conflict
//!   detection on row-version stamps, staging and normalization before the
//!   check, and (3) version stamping, publication and garbage collection
//!   after it. The expensive phase — (2), evaluating every touched
//!   assertion — runs under the shared *read* lock, concurrent with every
//!   other session's reads. Readers never block behind a checked commit;
//!   a violating commit still rolls back atomically, and a commit that
//!   raced a concurrent one loses with a distinct
//!   [`SessionError::SerializationConflict`] (retry on a fresh snapshot);
//! * **autocommit** — outside an explicit transaction every DML statement
//!   is its own transaction: planned, staged, checked and applied (or
//!   rejected) through the same phased commit.
//!
//! Reads outside a transaction see the latest committed state; reads inside
//! one see the transaction's `BEGIN`-time snapshot plus its own pending
//! updates — and never another session's. Old row versions are pruned by
//! commit-piggybacked garbage collection once no live snapshot can see
//! them. Schema changes (`CREATE` / `DROP`) are not transactional and are
//! rejected while a transaction is open, and so is `TRUNCATE`, which
//! otherwise runs as an autocommitted, checked `DELETE` of every row;
//! `CREATE ASSERTION` outside a transaction installs the assertion
//! (incremental views and all) for every attached session on the fly.
//!
//! # Example
//!
//! ```
//! use tintin_session::{Server, StatementOutcome};
//!
//! let server = Server::new();
//! let mut alice = server.connect();
//! let mut bob = server.connect();
//!
//! alice
//!     .execute(
//!         "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
//!          CREATE TABLE lineitem (
//!              l_orderkey INT REFERENCES orders, l_linenumber INT,
//!              PRIMARY KEY (l_orderkey, l_linenumber));
//!          CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
//!              SELECT * FROM orders o WHERE NOT EXISTS (
//!                  SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)));",
//!     )
//!     .unwrap();
//!
//! // Alice's open transaction reads its own writes…
//! alice.execute("BEGIN; INSERT INTO orders VALUES (1); INSERT INTO lineitem VALUES (1, 1);").unwrap();
//! assert_eq!(alice.query_rows("SELECT * FROM orders").unwrap().len(), 1);
//! // …which Bob cannot see until they commit.
//! assert_eq!(bob.query_rows("SELECT * FROM orders").unwrap().len(), 0);
//! let outcomes = alice.execute("COMMIT").unwrap();
//! assert!(matches!(outcomes.last(), Some(StatementOutcome::Committed { .. })));
//! assert_eq!(bob.query_rows("SELECT * FROM orders").unwrap().len(), 1);
//!
//! // Bob's violating commit is rejected and rolled back — the assertion
//! // Alice installed protects every session.
//! let outcomes = bob.execute("BEGIN; INSERT INTO orders VALUES (2); COMMIT;").unwrap();
//! assert!(matches!(outcomes.last(), Some(StatementOutcome::Rejected { .. })));
//! assert_eq!(bob.query_rows("SELECT * FROM orders").unwrap().len(), 1);
//! ```

mod durability;

pub use durability::{
    CheckpointStats, DurabilityFault, DurabilityOptions, RecoverySummary, WalStatus,
};
pub use tintin::{AssertionClass, AssertionExplain, ViewExplain};
pub use tintin_wal::Lsn;

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;
use tintin::{CheckStats, Installation, Tintin, TintinError, Violation};
use tintin_engine::{
    Database, EngineError, ReadCtx, ResultSet, SharedDatabase, Snapshot, Touched, TxOverlay,
};
use tintin_obs::{
    log_warn, Counter, Gauge, Histogram, Registry, Snapshot as MetricsSnapshot, Stopwatch,
};
use tintin_sql as sql;

/// Result of executing one statement through a [`Session`].
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// DDL succeeded.
    Ddl,
    /// An assertion was parsed, rewritten and installed. `warnings` carries
    /// the static-analysis linter's verdicts (tautological / never-fires).
    AssertionInstalled {
        name: String,
        views: usize,
        warnings: Vec<String>,
    },
    /// `EXPLAIN ASSERTION` — the install-time static-analysis report for an
    /// installed assertion (boxed to keep the enum register-sized).
    Explain(Box<AssertionExplain>),
    /// An assertion (and its incremental views) was removed.
    AssertionDropped { name: String },
    /// DML affected this many rows (pending while a transaction is open).
    RowsAffected(usize),
    /// A query returned rows.
    Rows(ResultSet),
    /// `BEGIN` opened a transaction.
    TransactionStarted,
    /// `SAVEPOINT name` was established.
    SavepointCreated(String),
    /// `RELEASE name` discarded a savepoint.
    SavepointReleased(String),
    /// `ROLLBACK TO name` reversed the transaction suffix.
    RolledBackToSavepoint(String),
    /// `ROLLBACK` aborted the transaction.
    RolledBack,
    /// `COMMIT` passed every assertion; the update is applied.
    Committed {
        inserted: usize,
        deleted: usize,
        stats: CheckStats,
    },
    /// `COMMIT` (or an autocommitted statement) violated an assertion; the
    /// transaction was rolled back atomically.
    Rejected {
        violations: Vec<Violation>,
        stats: CheckStats,
    },
}

impl StatementOutcome {
    /// Was this a successful `COMMIT` (or autocommit)?
    pub fn is_committed(&self) -> bool {
        matches!(self, StatementOutcome::Committed { .. })
    }

    /// Was this a rejected (assertion-violating) `COMMIT` or autocommit?
    pub fn is_rejected(&self) -> bool {
        matches!(self, StatementOutcome::Rejected { .. })
    }
}

/// Errors surfaced by [`Session::execute`].
#[derive(Debug, Clone)]
pub enum SessionError {
    /// SQL parsing failed.
    Parse(String),
    /// Engine-level failure (catalog, DML, evaluation).
    Engine(EngineError),
    /// Install / check pipeline failure.
    Tintin(TintinError),
    /// `COMMIT`, `ROLLBACK`, `SAVEPOINT`, … without an open transaction.
    NoActiveTransaction,
    /// `BEGIN` while a transaction is already open.
    TransactionAlreadyOpen,
    /// `ROLLBACK TO` / `RELEASE` an unknown savepoint.
    NoSuchSavepoint(String),
    /// Schema changes are not transactional.
    DdlInTransaction(String),
    /// `CREATE ASSERTION` with a name that is already installed.
    DuplicateAssertion(String),
    /// `DROP ASSERTION` of an unknown name.
    NoSuchAssertion(String),
    /// Write-ahead log / checkpoint / recovery failure. Surfaced when a
    /// durable server cannot log or sync a commit (the commit is failed,
    /// not acknowledged) or when [`Server::open`] finds a damaged
    /// checkpoint or discontinuous log.
    Durability(String),
    /// This transaction lost a first-committer-wins race: a concurrent
    /// commit created or removed row versions its update depends on after
    /// its snapshot was taken. The transaction is fully rolled back (its
    /// overlay discarded, the shared database untouched); retrying on a
    /// fresh snapshot may succeed. Distinct from an assertion violation —
    /// nothing was wrong with the data, only with the interleaving.
    SerializationConflict {
        /// The table the conflicting row versions live in.
        table: String,
        /// What raced.
        detail: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(m) => write!(f, "parse error: {m}"),
            SessionError::Engine(e) => write!(f, "{e}"),
            SessionError::Tintin(e) => write!(f, "{e}"),
            SessionError::NoActiveTransaction => {
                write!(f, "no transaction is open (use BEGIN)")
            }
            SessionError::TransactionAlreadyOpen => {
                write!(
                    f,
                    "a transaction is already open (COMMIT or ROLLBACK first)"
                )
            }
            SessionError::NoSuchSavepoint(n) => write!(f, "no such savepoint: '{n}'"),
            SessionError::DdlInTransaction(stmt) => write!(
                f,
                "{stmt} is not transactional; COMMIT or ROLLBACK the open transaction first"
            ),
            SessionError::DuplicateAssertion(n) => {
                write!(f, "assertion '{n}' is already installed")
            }
            SessionError::NoSuchAssertion(n) => write!(f, "no such assertion: '{n}'"),
            SessionError::Durability(m) => write!(f, "durability error: {m}"),
            SessionError::SerializationConflict { table, detail } => {
                write!(
                    f,
                    "serialization conflict on {table}: {detail} (transaction rolled \
                     back; retry on a fresh snapshot)"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A script failed partway through [`Session::execute`].
///
/// The statements before [`ScriptError::statement_index`] completed — their
/// outcomes are preserved in [`ScriptError::completed`], so the caller can
/// tell what *did* happen: DML may have autocommitted, a transaction may
/// have been opened and left open ([`Session::in_transaction`] tells). The
/// failing statement itself had no effect, and no later statement ran.
#[derive(Debug, Clone)]
pub struct ScriptError {
    /// Outcomes of the statements that completed before the failure, in
    /// script order (empty when the script failed to parse).
    pub completed: Vec<StatementOutcome>,
    /// Zero-based index of the failing statement within the script (`0`
    /// for a script that failed to parse — nothing ran at all).
    pub statement_index: usize,
    /// The failing statement, pretty-printed (empty for a parse error).
    pub statement: String,
    /// The underlying failure.
    pub error: SessionError,
}

impl ScriptError {
    /// A parse failure: nothing ran. (Boxed: the script error is the cold
    /// path of a `Result` whose `Ok` side should stay register-sized.)
    fn parse(error: SessionError) -> Box<Self> {
        Box::new(ScriptError {
            completed: Vec::new(),
            statement_index: 0,
            statement: String::new(),
            error,
        })
    }
}

/// Flatten a failing statement to one readable error-message line:
/// newlines become spaces and anything past 80 characters is elided. The
/// rendering [`ScriptError`] uses — exposed so its wire mirror
/// (`tintin-server`'s `WireScriptError`) prints identically.
pub fn one_line_statement(statement: &str) -> String {
    let mut stmt = statement.replace('\n', " ");
    if stmt.len() > 80 {
        let cut = (0..=77).rev().find(|&i| stmt.is_char_boundary(i)).unwrap();
        stmt.truncate(cut);
        stmt.push_str("...");
    }
    stmt
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.statement.is_empty() {
            return write!(f, "{}", self.error);
        }
        write!(
            f,
            "statement {} ({}) failed: {}",
            self.statement_index + 1,
            one_line_statement(&self.statement),
            self.error
        )
    }
}

impl std::error::Error for ScriptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Dropping the script context recovers the plain session error (lets `?`
/// forward [`Session::execute`] failures from functions returning
/// [`Result`]).
impl From<ScriptError> for SessionError {
    fn from(e: ScriptError) -> Self {
        e.error
    }
}

/// Same as [`From<ScriptError>`], for the boxed form
/// [`Session::execute`] returns.
impl From<Box<ScriptError>> for SessionError {
    fn from(e: Box<ScriptError>) -> Self {
        e.error
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::SerializationConflict { table, detail } => {
                SessionError::SerializationConflict { table, detail }
            }
            e => SessionError::Engine(e),
        }
    }
}

impl From<TintinError> for SessionError {
    fn from(e: TintinError) -> Self {
        SessionError::Tintin(e)
    }
}

impl From<sql::ParseError> for SessionError {
    fn from(e: sql::ParseError) -> Self {
        SessionError::Parse(e.to_string())
    }
}

/// Result alias for session operations.
pub type Result<T> = std::result::Result<T, SessionError>;

/// Pending-event counts for one table of an open transaction (the REPL's
/// `.tx` view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTable {
    /// The base table the events target.
    pub table: String,
    /// Pending insertions.
    pub inserts: usize,
    /// Pending deletions.
    pub deletes: usize,
}

/// Where in the phased commit protocol a [`CommitHook`] fires.
///
/// The boundaries correspond to the lock transitions of
/// [`Session::commit`]: at each of the first two points the commit lock is
/// held but neither the read nor the write lock is — other sessions'
/// *reads* may safely run inside the hook (another `COMMIT` would
/// deadlock on the commit lock). This is the seam the deterministic
/// simulation harness (`tintin-sim`) schedules through: it never relies on
/// OS-thread timing to land a probe inside a commit — the hook *is* the
/// mid-commit interleaving point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhase {
    /// Phase 1 finished: conflicts detected, the overlay staged into the
    /// event tables (stamped with the still-unpublished commit timestamp)
    /// and normalized. The write lock has been released; nothing is
    /// applied yet.
    Staged,
    /// Phase 2 finished: every touched check evaluated under the read
    /// lock; the verdict is computed but not yet acted on. Returning
    /// [`HookAction::Abort`] here simulates a crash after checking but
    /// before publication.
    Checked,
    /// Phase 3 published the commit: the timestamp is live and every new
    /// read observes the update. Informational — [`HookAction::Abort`] is
    /// ignored, the decision is already public.
    Published,
    /// Phase 3 discarded the update (assertion violation). Informational.
    Rejected,
}

/// What a [`CommitHook`] tells the in-flight commit to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HookAction {
    /// Proceed normally.
    #[default]
    Continue,
    /// Abandon the commit: staged events are discarded, nothing is
    /// published, and `COMMIT` fails with an
    /// [`EngineError::Transaction`]-backed error. Only honored at
    /// [`CommitPhase::Staged`] and [`CommitPhase::Checked`]; the commit
    /// must leave no trace (the torn-rollback property the simulation
    /// oracle checks).
    Abort,
}

/// A test/simulation observer invoked at every phase boundary of every
/// non-no-op phased commit, with the committing session's id. See
/// [`Server::set_commit_hook`].
pub type CommitHook = Arc<dyn Fn(u64, CommitPhase) -> HookAction + Send + Sync>;

/// Shared cell holding the server's optional commit hook. A plain
/// mutex-guarded `Option`: the commit path locks it once per phased commit
/// (uncontended — committers already serialize on the commit lock).
#[derive(Default, Clone)]
struct CommitHookCell(Arc<Mutex<Option<CommitHook>>>);

impl CommitHookCell {
    fn get(&self) -> Option<CommitHook> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set(&self, hook: Option<CommitHook>) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = hook;
    }
}

impl fmt::Debug for CommitHookCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some();
        write!(f, "CommitHookCell({})", if set { "set" } else { "unset" })
    }
}

/// Checker state shared by every session of a [`Server`]: the configured
/// [`Tintin`] instance and the assertion sets installed so far.
#[derive(Debug, Default)]
struct ServerState {
    tintin: Tintin,
    installations: Vec<Installation>,
}

/// Pre-resolved metric handles for the session layer's hot paths. Handles
/// are looked up once at server construction — the commit path never takes
/// the registry lock.
#[derive(Debug)]
struct SessionMetrics {
    // Commit-outcome counters. Conservation invariant:
    // attempts == commits + rejects + conflicts + errors.
    attempts: Arc<Counter>,
    commits: Arc<Counter>,
    rejects: Arc<Counter>,
    conflicts: Arc<Counter>,
    errors: Arc<Counter>,
    violations: Arc<Counter>,
    // Prepared-plan cache activity, accumulated from each commit's
    // `CheckStats` (the engine keeps per-check state; the counters give the
    // server-wide cumulative view).
    plans_reused: Arc<Counter>,
    plans_recompiled: Arc<Counter>,
    checks_evaluated: Arc<Counter>,
    // Connections.
    sessions_open: Arc<Gauge>,
    // MVCC / GC state, sampled from the engine by `Server::observe_engine`
    // (the engine already tracks these; sampling avoids an engine→obs
    // dependency).
    mvcc_commit_ts: Arc<Gauge>,
    mvcc_live_versions: Arc<Gauge>,
    mvcc_dead_versions: Arc<Gauge>,
    snapshots_live: Arc<Gauge>,
    gc_runs: Arc<Counter>,
    gc_pruned: Arc<Counter>,
    // Per-phase commit latency. `commit_seconds` covers the whole phased
    // commit (successful, non-no-op commits only, so its count equals the
    // storm test's successful-commit count); the phase histograms cover
    // stage/conflict-detect (write lock), check (read lock), and
    // stamp/publish/GC (write lock).
    commit_seconds: Arc<Histogram>,
    stage_seconds: Arc<Histogram>,
    check_seconds: Arc<Histogram>,
    publish_seconds: Arc<Histogram>,
    // Transaction size: row events (insertions + deletions, after
    // normalization) per successful commit — same population as
    // `commit_seconds`, so latency can be read against the size of the
    // updates that produced it.
    commit_rows: Arc<Histogram>,
}

impl SessionMetrics {
    fn new(registry: &Registry) -> Self {
        SessionMetrics {
            attempts: registry.counter("tintin_commit_attempts_total"),
            commits: registry.counter("tintin_commits_total"),
            rejects: registry.counter("tintin_commit_rejects_total"),
            conflicts: registry.counter("tintin_commit_conflicts_total"),
            errors: registry.counter("tintin_commit_errors_total"),
            violations: registry.counter("tintin_violations_total"),
            plans_reused: registry.counter("tintin_plans_reused_total"),
            plans_recompiled: registry.counter("tintin_plans_recompiled_total"),
            checks_evaluated: registry.counter("tintin_checks_evaluated_total"),
            sessions_open: registry.gauge("tintin_sessions_open"),
            mvcc_commit_ts: registry.gauge("tintin_mvcc_commit_ts"),
            mvcc_live_versions: registry.gauge("tintin_mvcc_live_versions"),
            mvcc_dead_versions: registry.gauge("tintin_mvcc_dead_versions"),
            snapshots_live: registry.gauge("tintin_snapshots_live"),
            gc_runs: registry.counter("tintin_gc_runs_total"),
            gc_pruned: registry.counter("tintin_gc_pruned_total"),
            commit_seconds: registry.histogram("tintin_commit_seconds"),
            stage_seconds: registry.histogram("tintin_commit_stage_seconds"),
            check_seconds: registry.histogram("tintin_commit_check_seconds"),
            publish_seconds: registry.histogram("tintin_commit_publish_seconds"),
            commit_rows: registry.histogram("tintin_commit_rows"),
        }
    }
}

/// The observability side of a [`Server`]: the metrics registry, the
/// session layer's pre-resolved handles, and the slow-commit threshold
/// (nanoseconds; `0` = disabled) shared by every clone of the server.
#[derive(Debug)]
struct ServerObs {
    registry: Registry,
    metrics: SessionMetrics,
    slow_commit_nanos: AtomicU64,
}

impl ServerObs {
    fn with_registry(registry: Registry) -> Self {
        let metrics = SessionMetrics::new(&registry);
        // `TINTIN_SLOW_COMMIT_MS` sets the default threshold; a server flag
        // or `Server::set_slow_commit_threshold` can override it later.
        let slow_ms = std::env::var("TINTIN_SLOW_COMMIT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        ServerObs {
            registry,
            metrics,
            slow_commit_nanos: AtomicU64::new(slow_ms.saturating_mul(1_000_000)),
        }
    }
}

impl Default for ServerObs {
    fn default() -> Self {
        ServerObs::with_registry(Registry::new())
    }
}

/// The shared side of the session layer: one database, one checker, many
/// connections.
///
/// A `Server` is a pair of handles — a [`SharedDatabase`] and the shared
/// checker state — so cloning it (or a [`Session`] holding it) attaches to
/// the *same* database rather than copying it. It is `Send + Sync`;
/// sessions for different threads are created with [`Server::connect`].
#[derive(Debug, Clone, Default)]
pub struct Server {
    db: SharedDatabase,
    state: Arc<RwLock<ServerState>>,
    next_session_id: Arc<AtomicU64>,
    open_sessions: Arc<AtomicUsize>,
    obs: Arc<ServerObs>,
    hook: CommitHookCell,
    /// The durable side (WAL + checkpoints), present only for servers
    /// opened over a data directory ([`Server::open`]). `Server::new()`
    /// and friends stay purely in-memory.
    dura: Option<Arc<durability::Durability>>,
}

impl Server {
    /// A server over a fresh, empty database with the default checker.
    pub fn new() -> Self {
        Server::default()
    }

    /// A server over an existing database, taking ownership.
    pub fn with_database(db: Database) -> Self {
        Server {
            db: SharedDatabase::from_database(db),
            ..Server::default()
        }
    }

    /// A server with an explicit checker configuration.
    pub fn with_database_and_checker(db: Database, tintin: Tintin) -> Self {
        Server {
            db: SharedDatabase::from_database(db),
            state: Arc::new(RwLock::new(ServerState {
                tintin,
                installations: Vec::new(),
            })),
            ..Server::default()
        }
    }

    /// A server recording its metrics into the given registry — pass
    /// [`Registry::noop`] to turn every metric and span into a no-op (the
    /// configuration the instrumentation-overhead bench compares against).
    pub fn with_registry(registry: Registry) -> Self {
        Server {
            obs: Arc::new(ServerObs::with_registry(registry)),
            ..Server::default()
        }
    }

    /// The metrics registry every session of this server records into.
    /// Other layers (the wire front-end) register their own metrics here so
    /// one snapshot covers the whole process.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// Sample the engine's MVCC / garbage-collection state into the
    /// registry's gauges (`tintin_mvcc_*`, `tintin_snapshots_live`) and
    /// cumulative counters (`tintin_gc_*_total`). Called by
    /// [`Server::metrics_snapshot`]; cheap (one read lock, no scans beyond
    /// the version counters the engine already keeps).
    pub fn observe_engine(&self) {
        let stats = self.db.read().mvcc_stats();
        let m = &self.obs.metrics;
        m.mvcc_commit_ts.set(stats.commit_ts as i64);
        m.mvcc_live_versions.set(stats.live_versions as i64);
        m.mvcc_dead_versions.set(stats.dead_versions as i64);
        m.gc_runs.record_absolute(stats.gc_runs);
        m.gc_pruned.record_absolute(stats.gc_pruned);
        m.snapshots_live.set(self.db.live_snapshots() as i64);
    }

    /// A full metrics snapshot: the engine gauges are re-sampled
    /// ([`Server::observe_engine`]) and the registry captured. This is what
    /// the wire protocol's `STATS` command and the REPL's `.stats` render.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.observe_engine();
        self.obs.registry.snapshot()
    }

    /// Set (or, with `None`, disable) the slow-commit threshold: any phased
    /// commit whose total latency reaches it is logged at `WARN` with its
    /// per-phase breakdown. Defaults to the `TINTIN_SLOW_COMMIT_MS`
    /// environment variable (unset or `0` = disabled).
    pub fn set_slow_commit_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.obs.slow_commit_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-commit threshold, if enabled.
    pub fn slow_commit_threshold(&self) -> Option<Duration> {
        match self.obs.slow_commit_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Install a commit-phase hook, shared by every session of this
    /// server (and every clone of the handle).
    ///
    /// The hook fires at each [`CommitPhase`] boundary of every non-no-op
    /// phased commit — explicit `COMMIT` and autocommitted DML alike —
    /// with the committing session's id. At [`CommitPhase::Staged`] and
    /// [`CommitPhase::Checked`] the commit lock is held but the rwlock is
    /// free, so the hook may run *reads* through other sessions (a nested
    /// commit would deadlock on the commit lock); returning
    /// [`HookAction::Abort`] there abandons the commit without a trace.
    ///
    /// This is a testing/simulation seam (the `tintin-sim` harness drives
    /// deterministic mid-commit interleavings and fault injection through
    /// it); production servers leave it unset, which costs one uncontended
    /// mutex lock per checked commit.
    pub fn set_commit_hook(&self, hook: CommitHook) {
        self.hook.set(Some(hook));
    }

    /// Remove the commit-phase hook installed by
    /// [`Server::set_commit_hook`], if any.
    pub fn clear_commit_hook(&self) {
        self.hook.set(None);
    }

    /// The shared database handle (read/write lock it for direct access).
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// Attach a new session to this server's database.
    pub fn connect(&self) -> Session {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.open_sessions.fetch_add(1, Ordering::Relaxed);
        self.obs.metrics.sessions_open.inc();
        Session {
            server: self.clone(),
            id,
            tx: None,
        }
    }

    /// Number of currently attached sessions.
    pub fn session_count(&self) -> usize {
        self.open_sessions.load(Ordering::Relaxed)
    }

    /// The installed assertion sets (cloned snapshot).
    pub fn installations(&self) -> Vec<Installation> {
        self.state_read().installations.clone()
    }

    /// Names of all installed assertions, in installation order.
    pub fn assertion_names(&self) -> Vec<String> {
        self.state_read()
            .installations
            .iter()
            .flat_map(|i| i.assertions.iter().map(|a| a.name.clone()))
            .collect()
    }

    /// A snapshot of the checker configuration.
    pub fn checker(&self) -> Tintin {
        self.state_read().tintin.clone()
    }

    // Lock poisoning is recovered from for the same reason SharedDatabase
    // recovers: every mutation of the state either completes or is
    // compensated before the guard drops.
    fn state_read(&self) -> RwLockReadGuard<'_, ServerState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn state_write(&self) -> RwLockWriteGuard<'_, ServerState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The private state of one open transaction: the `BEGIN`-time MVCC
/// snapshot (which row versions the transaction observes, pinned against
/// garbage collection), the pending-update overlay, plus named savepoints
/// (cheap snapshots of the overlay — pending updates are bounded by the
/// transaction's own statements).
#[derive(Debug)]
struct SessionTx {
    snapshot: Snapshot,
    overlay: TxOverlay,
    savepoints: Vec<(String, TxOverlay)>,
}

/// One connection to a [`Server`]: transactional statement execution over
/// the shared database.
///
/// A session holds no locks between statements. Reads execute against a
/// snapshot of row versions — the transaction's `BEGIN`-time snapshot
/// inside one, the latest committed state outside — taking only the shared
/// read lock, which an in-flight commit's check phase also shares: readers
/// never wait out another session's assertion checking. `COMMIT` (and
/// autocommitted DML) serializes on the commit lock and touches the
/// exclusive write lock only for update-sized bookkeeping. An open
/// transaction's pending updates live in the session's private overlay
/// until commit — visible to this session's own queries
/// (read-your-writes), invisible to every other session.
#[derive(Debug)]
pub struct Session {
    server: Server,
    id: u64,
    tx: Option<SessionTx>,
}

impl Default for Session {
    fn default() -> Self {
        Server::new().connect()
    }
}

/// Cloning a session opens a *new connection* to the same server: the clone
/// shares the database and assertions but starts outside any transaction.
impl Clone for Session {
    fn clone(&self) -> Self {
        self.server.connect()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.server.open_sessions.fetch_sub(1, Ordering::Relaxed);
        self.server.obs.metrics.sessions_open.dec();
    }
}

impl Session {
    /// A single session over a fresh private server (the one-client
    /// convenience constructor; use [`Server::connect`] to share).
    pub fn new() -> Self {
        Session::default()
    }

    /// A session over an existing database (wrapped into a fresh server).
    pub fn with_database(db: Database) -> Self {
        Server::with_database(db).connect()
    }

    /// A session with an explicit checker configuration.
    pub fn with_database_and_checker(db: Database, tintin: Tintin) -> Self {
        Server::with_database_and_checker(db, tintin).connect()
    }

    /// The server this session is attached to.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The shared database handle. Lock it directly for bulk loading
    /// (`.write()`) or inspection (`.read()`); writing to it while this
    /// session's transaction is open bypasses the overlay and voids
    /// read-your-writes.
    pub fn database(&self) -> &SharedDatabase {
        &self.server.db
    }

    /// This connection's server-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A snapshot of the checker configuration.
    pub fn checker(&self) -> Tintin {
        self.server.checker()
    }

    /// The installed assertion sets (cloned snapshot; shared server-wide).
    pub fn installations(&self) -> Vec<Installation> {
        self.server.installations()
    }

    /// Names of all installed assertions, in installation order.
    pub fn assertion_names(&self) -> Vec<String> {
        self.server.assertion_names()
    }

    /// Is an explicit transaction open on this session?
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Pending `(insertions, deletions)` of this session's open
    /// transaction; `(0, 0)` outside one (plus any events staged directly
    /// into the shared event tables by engine-level callers — another
    /// session's in-flight commit staging is never counted).
    pub fn pending_counts(&self) -> (usize, usize) {
        match &self.tx {
            Some(tx) => tx.overlay.counts(),
            None => {
                let db = self.server.db.read();
                db.pending_counts(db.current_ts())
            }
        }
    }

    /// A clone of the open transaction's pending-update overlay — the
    /// exact per-table insertion/deletion sets a `COMMIT` would stage —
    /// or `None` outside a transaction. The simulation harness snapshots
    /// this right before `COMMIT` to replay the same update into its
    /// differential-oracle mirror.
    pub fn pending_overlay(&self) -> Option<TxOverlay> {
        self.tx.as_ref().map(|tx| tx.overlay.clone())
    }

    /// Per-table pending event counts of the open transaction (tables with
    /// no pending events are omitted).
    pub fn pending_by_table(&self) -> Vec<PendingTable> {
        match &self.tx {
            Some(tx) => tx
                .overlay
                .touched_tables()
                .into_iter()
                .map(|t| {
                    let d = tx.overlay.delta(&t).expect("touched implies delta");
                    PendingTable {
                        table: t,
                        inserts: d.ins_rows().len(),
                        deletes: d.del_rows().len(),
                    }
                })
                .collect(),
            None => {
                let db = self.server.db.read();
                // Count at the published clock: a concurrent commit's
                // staged (unpublished-timestamp) rows are not pending
                // events of *this* session's world.
                let s = db.current_ts();
                let mut out = Vec::new();
                for t in db.captured_tables() {
                    let ins = db
                        .table(&tintin_engine::ins_table_name(&t))
                        .map_or(0, |x| x.len_at(s));
                    let del = db
                        .table(&tintin_engine::del_table_name(&t))
                        .map_or(0, |x| x.len_at(s));
                    if ins + del > 0 {
                        out.push(PendingTable {
                            table: t,
                            inserts: ins,
                            deletes: del,
                        });
                    }
                }
                out
            }
        }
    }

    /// Live savepoints of the open transaction, oldest first.
    pub fn savepoints(&self) -> Vec<String> {
        self.tx
            .as_ref()
            .map(|t| t.savepoints.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default()
    }

    /// Install a batch of `CREATE ASSERTION` statements (event tables,
    /// capture, incremental views) for *every* session of the server. Not
    /// allowed inside a transaction.
    pub fn install(&mut self, assertions: &[&str]) -> Result<Installation> {
        if self.in_transaction() {
            return Err(SessionError::DdlInTransaction("CREATE ASSERTION".into()));
        }
        // Lock order everywhere: commit lock, then database, then checker
        // state. The commit lock keeps installs out of the unlocked middle
        // of another session's phased commit.
        let _commit = self.server.db.commit_guard();
        let mut db = self.server.db.write();
        let mut state = self.server.state_write();
        // Reject duplicates against already-installed assertions up front so
        // a failed install leaves the server untouched.
        let installed: Vec<String> = state
            .installations
            .iter()
            .flat_map(|i| i.assertions.iter().map(|a| a.name.clone()))
            .collect();
        for text in assertions {
            if let Ok(sql::Statement::CreateAssertion(a)) = sql::parse_statement(text) {
                if installed.contains(&a.name) {
                    return Err(SessionError::DuplicateAssertion(a.name));
                }
            }
        }
        let inst = state.tintin.install(&mut db, assertions)?;
        state.installations.push(inst.clone());
        if let Some(dura) = &self.server.dura {
            dura.log_install(assertions)?;
        }
        Ok(inst)
    }

    /// Remove one assertion and its incremental views, server-wide.
    pub fn drop_assertion(&mut self, name: &str) -> Result<()> {
        if self.in_transaction() {
            return Err(SessionError::DdlInTransaction("DROP ASSERTION".into()));
        }
        let _commit = self.server.db.commit_guard();
        let mut db = self.server.db.write();
        let mut state = self.server.state_write();
        durability::drop_assertion_in(&mut db, &mut state.installations, name)?;
        if let Some(dura) = &self.server.dura {
            dura.log_drop_assertion(name)?;
        }
        Ok(())
    }

    /// Execute a script of semicolon-separated statements, stopping at the
    /// first error. DML inside an open transaction accumulates in the
    /// session's private overlay; outside one it autocommits (plan → stage
    /// → check → apply/reject under the write lock).
    ///
    /// On failure the returned [`ScriptError`] carries the outcomes of the
    /// statements that *did* complete, the index and text of the failing
    /// one, and the underlying [`SessionError`] — so a caller (a REPL, a
    /// wire-protocol server) can report exactly how far the script got and
    /// whether a transaction was left open. (Boxed so the `Ok` side of the
    /// result stays register-sized; field access works through the box.)
    pub fn execute(
        &mut self,
        script: &str,
    ) -> std::result::Result<Vec<StatementOutcome>, Box<ScriptError>> {
        let stmts =
            sql::parse_statements(script).map_err(|e| ScriptError::parse(SessionError::from(e)))?;
        let mut out = Vec::with_capacity(stmts.len());
        for (i, stmt) in stmts.iter().enumerate() {
            match self.execute_statement(stmt) {
                Ok(outcome) => out.push(outcome),
                Err(error) => {
                    return Err(Box::new(ScriptError {
                        completed: out,
                        statement_index: i,
                        statement: stmt.to_string(),
                        error,
                    }))
                }
            }
        }
        Ok(out)
    }

    /// Run one query and return its rows (a convenience around
    /// [`Session::execute`] for `SELECT`-only callers). Inside an open
    /// transaction the result reflects the transaction's `BEGIN`-time
    /// snapshot plus this session's pending updates — repeated queries
    /// return identical results regardless of concurrent commits.
    pub fn query_rows(&self, query: &str) -> Result<ResultSet> {
        let q = sql::parse_query(query).map_err(SessionError::from)?;
        let db = self.server.db.read();
        Ok(db.query(&q, self.read_ctx(&db))?)
    }

    /// What this session's reads observe: the transaction's `BEGIN`-time
    /// snapshot plus its overlay inside one, the latest *published* commit
    /// timestamp outside.
    ///
    /// Pinning autocommit reads to the published clock (instead of
    /// [`TS_LATEST`](tintin_engine::TS_LATEST), which sees every live
    /// version) is what hides an in-flight commit's staged event rows: they
    /// are stamped with the committer's still-unpublished timestamp, above
    /// any value this can return. The caller must hold `db`'s read guard
    /// across the query so the clock cannot advance under it.
    fn read_ctx(&self, db: &Database) -> ReadCtx<'_> {
        match &self.tx {
            Some(t) => ReadCtx {
                snapshot: t.snapshot.ts(),
                overlay: Some(&t.overlay),
            },
            None => ReadCtx {
                snapshot: db.current_ts(),
                overlay: None,
            },
        }
    }

    /// Execute a single parsed statement.
    pub fn execute_statement(&mut self, stmt: &sql::Statement) -> Result<StatementOutcome> {
        match stmt {
            sql::Statement::Begin => self.begin(),
            sql::Statement::Commit => self.commit(),
            sql::Statement::Rollback { to: None } => self.rollback(),
            sql::Statement::Rollback { to: Some(name) } => self.rollback_to(name),
            sql::Statement::Savepoint { name } => self.savepoint(name),
            sql::Statement::Release { name } => self.release(name),
            sql::Statement::CreateAssertion(a) => {
                let text = stmt.to_string();
                let inst = self.install(&[text.as_str()])?;
                let warnings = inst
                    .assertions
                    .iter()
                    .find(|ia| ia.name == a.name)
                    .map(|ia| ia.warnings.clone())
                    .unwrap_or_default();
                Ok(StatementOutcome::AssertionInstalled {
                    name: a.name.clone(),
                    views: inst.view_count(),
                    warnings,
                })
            }
            sql::Statement::DropAssertion { name } => {
                self.drop_assertion(name)?;
                Ok(StatementOutcome::AssertionDropped { name: name.clone() })
            }
            sql::Statement::ExplainAssertion { name } => {
                let state = self.server.state_read();
                state
                    .installations
                    .iter()
                    .find_map(|i| i.explain_assertion(name))
                    .map(|e| StatementOutcome::Explain(Box::new(e)))
                    .ok_or_else(|| SessionError::NoSuchAssertion(name.clone()))
            }
            // `TRUNCATE` is a planned `DELETE` of every row, checked like
            // any other autocommitted statement; inside a transaction it is
            // fenced out with the schema changes below.
            sql::Statement::TruncateTable { .. } if !self.in_transaction() => self.autocommit(stmt),
            ddl if ddl.is_ddl() => {
                if self.in_transaction() {
                    // The verb phrase comes from the AST variant, not from
                    // the printed SQL's first tokens (`CREATE UNIQUE INDEX
                    // …` must not be reported as "CREATE UNIQUE").
                    return Err(SessionError::DdlInTransaction(ddl.kind().to_string()));
                }
                // DDL takes the commit lock too: a schema change may not
                // slip into the unlocked middle of a phased commit.
                let _commit = self.server.db.commit_guard();
                self.server.db.write().execute(ddl)?;
                if let Some(dura) = &self.server.dura {
                    dura.log_ddl(&ddl.to_string())?;
                }
                Ok(StatementOutcome::Ddl)
            }
            sql::Statement::Query(q) => {
                let db = self.server.db.read();
                let rs = db.query(q, self.read_ctx(&db))?;
                Ok(StatementOutcome::Rows(rs))
            }
            dml => {
                // INSERT / DELETE / UPDATE.
                if let Some(tx) = self.tx.as_mut() {
                    // Planning only reads (against the BEGIN-time snapshot
                    // plus the overlay): a shared lock suffices, so other
                    // sessions keep reading while this one stages work.
                    let delta =
                        self.server
                            .db
                            .read()
                            .plan_dml(dml, &tx.overlay, tx.snapshot.ts())?;
                    let n = delta.rows_affected;
                    tx.overlay.apply_delta(delta);
                    Ok(StatementOutcome::RowsAffected(n))
                } else {
                    self.autocommit(dml)
                }
            }
        }
    }

    /// `BEGIN`: open a transaction. An MVCC snapshot of the latest
    /// committed state is captured (and pinned against garbage collection);
    /// pending updates accumulate in the session's private overlay until
    /// `COMMIT` — nothing touches the shared database, so `ROLLBACK` is
    /// simply discarding the overlay and releasing the snapshot.
    pub fn begin(&mut self) -> Result<StatementOutcome> {
        if self.in_transaction() {
            return Err(SessionError::TransactionAlreadyOpen);
        }
        self.tx = Some(SessionTx {
            snapshot: self.server.db.begin_snapshot(),
            overlay: TxOverlay::new(),
            savepoints: Vec::new(),
        });
        Ok(StatementOutcome::TransactionStarted)
    }

    /// `COMMIT`: run the phased MVCC commit over every installed assertion
    /// set. Committers serialize on the commit lock; the exclusive write
    /// lock is held only for the two update-sized bookkeeping phases —
    /// (1) first-committer-wins conflict detection + staging +
    /// normalization, (3) version stamping + publication + GC — while the
    /// expensive check phase (2) runs under the shared *read* lock,
    /// concurrent with other sessions' reads.
    ///
    /// On success the pending update is applied (as row versions stamped
    /// with a fresh commit timestamp) and the transaction closed; on
    /// violation it is discarded atomically and the violating tuples
    /// reported; on a lost first-committer-wins race it is discarded with
    /// [`SessionError::SerializationConflict`]. No session can observe any
    /// state between "before the commit" and "after the decision": open
    /// snapshots keep reading the pre-commit versions, and the latest state
    /// flips atomically when the timestamp is published.
    pub fn commit(&mut self) -> Result<StatementOutcome> {
        let Some(tx) = self.tx.take() else {
            return Err(SessionError::NoActiveTransaction);
        };
        self.phased_commit(tx.overlay, tx.snapshot.ts())
    }

    /// The three-phase commit protocol (see [`Session::commit`]). The
    /// caller has already detached the transaction: whatever happens here,
    /// the session ends up outside one, with the shared event tables empty.
    fn phased_commit(&self, overlay: TxOverlay, snapshot: u64) -> Result<StatementOutcome> {
        // Read-only fast path, checked *before* queueing on the commit
        // lock: a transaction with nothing pending (and no hand-staged
        // events awaiting a carrier commit) has nothing to check, apply or
        // publish — it must not wait out a concurrent checked commit's
        // expensive phase or bump the commit clock.
        if self.nothing_to_commit(&overlay) {
            // Fast-path commits count toward the conservation invariant
            // (attempts == commits + rejects + conflicts + errors) but not
            // toward the latency histograms — a no-op is not a latency
            // sample.
            let m = &self.server.obs.metrics;
            m.attempts.inc();
            m.commits.inc();
            return Ok(StatementOutcome::Committed {
                inserted: 0,
                deleted: 0,
                stats: CheckStats::default(),
            });
        }
        let commit = self.server.db.commit_guard();
        let res = self.phased_commit_guarded(overlay, snapshot);
        // Group commit: release the commit lock *before* the durability
        // sync, so concurrent committers' fsyncs coalesce on one leader
        // (`finish_durable`). The commit is already published — the sync
        // only gates the acknowledgment.
        drop(commit);
        let (outcome, wal_lsn) = res?;
        self.finish_durable(wal_lsn)?;
        Ok(outcome)
    }

    /// Is there nothing for a commit to do — an empty overlay and empty
    /// shared event tables (engine-level callers may hand-stage events that
    /// any session's next real commit carries)?
    fn nothing_to_commit(&self, overlay: &TxOverlay) -> bool {
        overlay.is_empty() && {
            let db = self.server.db.read();
            // Probe at the published clock, not TS_LATEST: a concurrent
            // commit's staged (unpublished-timestamp) event rows must not
            // defeat this fast path, or an empty COMMIT would queue on the
            // commit lock behind that commit's whole check phase — the
            // stall the fast path exists to avoid. Hand-staged carrier
            // events (`begin = 0`) are still seen and still force a real
            // commit.
            db.pending_counts(db.current_ts()) == (0, 0)
        }
    }

    /// [`Session::phased_commit`] with the commit lock already held by the
    /// caller (autocommit holds it from planning onwards). On a durable
    /// server a successful commit also returns the LSN of its log record;
    /// the *caller* syncs to it after releasing the commit lock
    /// ([`Session::finish_durable`]) — that ordering is the group-commit
    /// amortization.
    fn phased_commit_guarded(
        &self,
        overlay: TxOverlay,
        snapshot: u64,
    ) -> Result<(StatementOutcome, Option<Lsn>)> {
        let state = self.server.state_read();
        let m = &self.server.obs.metrics;
        let hook = self.server.hook.get();
        m.attempts.inc();

        // No-op fast path (autocommitted statements that planned to
        // nothing, e.g. an UPDATE matching zero rows): skip the phases and
        // the clock bump. The guard is already held, so this is cheap.
        if self.nothing_to_commit(&overlay) {
            m.commits.inc();
            return Ok((
                StatementOutcome::Committed {
                    inserted: 0,
                    deleted: 0,
                    stats: CheckStats::default(),
                },
                None,
            ));
        }

        // Per-phase spans: one clock read per phase boundary, and none at
        // all under a no-op registry.
        let mut span = Stopwatch::start_if(self.server.obs.registry.is_enabled());

        // Phase 1 — write lock, O(update): lose now if a concurrent commit
        // invalidated the snapshot this update was planned against, else
        // stage the overlay into the event tables and normalize. Staged
        // event rows are stamped with this commit's still-unpublished
        // timestamp: invisible to every other session's reads (which pin to
        // a registered snapshot or the published clock) until — and only if
        // — phase 3 publishes.
        let (ts, normalization, touched) = {
            let mut db = self.server.db.write();
            let ts = db.next_commit_ts();
            let staged = (|| {
                db.detect_conflicts(&overlay, snapshot)?;
                db.stage_overlay(overlay, ts)?;
                db.normalize_events()
            })();
            match staged {
                Ok((normalization, touched)) => (ts, normalization, touched),
                Err(e) => {
                    // Partial staging is discarded; base tables untouched.
                    let staged = db.touched_event_tables();
                    db.truncate_events(&staged);
                    if matches!(e, EngineError::SerializationConflict { .. }) {
                        m.conflicts.inc();
                    } else {
                        m.errors.inc();
                    }
                    return Err(e.into());
                }
            }
        };
        let stage_time = span.lap();
        m.stage_seconds.record(stage_time);
        // Phase boundary: staged but unchecked, no rwlock held. (Hook time
        // bleeds into the check-phase span; the hook is a test-only seam.)
        if let Some(h) = &hook {
            if h(self.id, CommitPhase::Staged) == HookAction::Abort {
                return self.abort_in_flight(&touched, m).map(|o| (o, None));
            }
        }
        let mut stats = CheckStats {
            normalization,
            ..CheckStats::default()
        };

        // Phase 2 — read lock, the expensive part: evaluate every touched
        // check through its prepared plan. Other sessions read concurrently:
        // base versions are untouched so far, and the staged ins_T/del_T
        // rows carry the unpublished timestamp — so neither base-table nor
        // event-table/vio-view reads can observe this commit mid-flight.
        // (The check itself reads the event tables at TS_LATEST, which sees
        // every live version regardless of its begin stamp.)
        let checked = {
            let db = self.server.db.read();
            let mut all = Vec::new();
            let mut failure = None;
            for inst in &state.installations {
                match state
                    .tintin
                    .check_normalized(&db, inst, &touched, &mut stats)
                {
                    Ok(v) => all.extend(v),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            (all, failure)
        };
        let check_time = span.lap();
        m.check_seconds.record(check_time);
        m.plans_reused.add(stats.plans_reused as u64);
        m.plans_recompiled.add(stats.plans_recompiled as u64);
        m.checks_evaluated
            .add((stats.views_evaluated + stats.fallbacks_evaluated) as u64);

        // Phase boundary: verdict computed, nothing acted on, no rwlock
        // held.
        if let Some(h) = &hook {
            if h(self.id, CommitPhase::Checked) == HookAction::Abort {
                return self.abort_in_flight(&touched, m).map(|o| (o, None));
            }
        }

        // Phase 3 — write lock, O(update): stamp versions and publish, or
        // discard.
        let mut db = self.server.db.write();
        let (violations, failure) = checked;
        if let Some(e) = failure {
            db.truncate_events(&touched);
            m.errors.inc();
            return Err(e.into());
        }
        if violations.is_empty() {
            let (inserted, deleted) = touched.counts();
            // The commit lock has been held since phase 1, so the timestamp
            // reserved there is still the next one to publish.
            debug_assert_eq!(ts, db.next_commit_ts());
            // On a durable server the log record gets its own copy of the
            // normalized effects — taken now, because the apply moves the
            // staged insertions out of the event tables into the base
            // tables.
            let logged = self
                .server
                .dura
                .as_ref()
                .filter(|dura| dura.fault() != DurabilityFault::AckBeforeLog)
                .map(|dura| (dura, db.staged_effects(&touched)));
            let applied = match db.apply_pending_versioned(&touched, ts) {
                Ok(applied) => applied,
                Err(e) => {
                    // Compensated by version un-stamping; ts was never
                    // published, so no session saw anything.
                    db.truncate_events(&touched);
                    m.errors.inc();
                    return Err(e.into());
                }
            };
            // Write-ahead: the effects reach the log before the timestamp
            // publishes. Both happen under the commit lock, so log order
            // equals publish order; the fsync waits until the lock drops
            // (group commit).
            let mut wal_lsn = None;
            if let Some((dura, effects)) = logged {
                match dura.append_commit(ts, effects) {
                    Ok(lsn) => wal_lsn = Some(lsn),
                    Err(e) => {
                        // The record never reached the log: withdraw the
                        // apply (ts is unpublished, so nothing was
                        // observable) and fail the commit.
                        db.unapply_pending_versioned(applied);
                        db.truncate_events(&touched);
                        m.errors.inc();
                        return Err(e);
                    }
                }
            }
            db.truncate_events(&touched);
            db.publish_commit(ts);
            // Commit-piggybacked GC: prune versions no live snapshot can
            // see, on the touched tables, once enough history accumulated.
            let horizon = self.server.db.gc_horizon(ts);
            db.maybe_gc(&touched, horizon);
            drop(db);
            let publish_time = span.lap();
            m.publish_seconds.record(publish_time);
            m.commits.inc();
            let total = stage_time + check_time + publish_time;
            m.commit_seconds.record(total);
            m.commit_rows.record_value((inserted + deleted) as u64);
            self.report_slow_commit(ts, total, stage_time, check_time, publish_time);
            if let Some(h) = &hook {
                h(self.id, CommitPhase::Published);
            }
            Ok((
                StatementOutcome::Committed {
                    inserted,
                    deleted,
                    stats,
                },
                wal_lsn,
            ))
        } else {
            db.truncate_events(&touched);
            drop(db);
            let publish_time = span.lap();
            m.rejects.inc();
            m.violations.add(violations.len() as u64);
            let total = stage_time + check_time + publish_time;
            self.report_slow_commit(ts, total, stage_time, check_time, publish_time);
            if let Some(h) = &hook {
                h(self.id, CommitPhase::Rejected);
            }
            // Rejected commits never reach the log: recovery replays only
            // acknowledged history.
            Ok((StatementOutcome::Rejected { violations, stats }, None))
        }
    }

    /// Make an acknowledged commit durable: group-fsync the log up to its
    /// record, then run the size-triggered checkpoint policy. Called with
    /// the commit lock *released* — concurrent committers coalesce on one
    /// leader fsync. A checkpoint failure is logged, not surfaced: the
    /// commit itself is already durable.
    fn finish_durable(&self, wal_lsn: Option<Lsn>) -> Result<()> {
        let (Some(dura), Some(lsn)) = (&self.server.dura, wal_lsn) else {
            return Ok(());
        };
        dura.sync_to(lsn)?;
        if dura.should_checkpoint() {
            if let Err(e) = self.server.checkpoint() {
                log_warn!("tintin_session", "size-triggered checkpoint failed: {e}");
            }
        }
        Ok(())
    }

    /// A [`HookAction::Abort`] landed mid-commit: discard the staged
    /// events (the base tables were never touched — phase 3 had not run)
    /// and surface a transaction error, exactly the trace-free rollback a
    /// crashed committer must leave behind.
    fn abort_in_flight(&self, touched: &Touched, m: &SessionMetrics) -> Result<StatementOutcome> {
        let mut db = self.server.db.write();
        db.truncate_events(touched);
        drop(db);
        m.errors.inc();
        Err(SessionError::Engine(EngineError::Transaction(
            "commit aborted mid-flight by commit hook (fault injection)".into(),
        )))
    }

    /// Emit the slow-commit `WARN` line when the configured threshold is
    /// enabled and this commit's total phased latency reached it. The line
    /// carries the per-phase breakdown, so a pathological commit is
    /// diagnosable from the log alone (which phase ate the time: staging
    /// under the write lock, checking under the read lock, or
    /// publish/GC under the write lock).
    fn report_slow_commit(
        &self,
        ts: u64,
        total: Duration,
        stage: Duration,
        check: Duration,
        publish: Duration,
    ) {
        let threshold = self.server.obs.slow_commit_nanos.load(Ordering::Relaxed);
        if threshold == 0 || (total.as_nanos() as u64) < threshold {
            return;
        }
        log_warn!(
            "tintin_session",
            "slow commit: session={} ts={ts} total={total:?} stage={stage:?} \
             check={check:?} publish={publish:?} threshold={:?}",
            self.id,
            Duration::from_nanos(threshold),
        );
    }

    /// `ROLLBACK`: abort the open transaction by discarding its overlay.
    /// The shared database was never touched.
    pub fn rollback(&mut self) -> Result<StatementOutcome> {
        if self.tx.take().is_none() {
            return Err(SessionError::NoActiveTransaction);
        }
        Ok(StatementOutcome::RolledBack)
    }

    /// `SAVEPOINT name`: snapshot the overlay. Re-using a name moves the
    /// savepoint (standard SQL semantics).
    pub fn savepoint(&mut self, name: &str) -> Result<StatementOutcome> {
        let tx = self.tx.as_mut().ok_or(SessionError::NoActiveTransaction)?;
        tx.savepoints.retain(|(n, _)| n != name);
        tx.savepoints.push((name.to_string(), tx.overlay.clone()));
        Ok(StatementOutcome::SavepointCreated(name.to_string()))
    }

    /// `ROLLBACK TO name`: restore the overlay snapshot taken at the
    /// savepoint. The savepoint itself survives; later ones are discarded.
    pub fn rollback_to(&mut self, name: &str) -> Result<StatementOutcome> {
        let tx = self.tx.as_mut().ok_or(SessionError::NoActiveTransaction)?;
        let pos = tx
            .savepoints
            .iter()
            .rposition(|(n, _)| n == name)
            .ok_or_else(|| SessionError::NoSuchSavepoint(name.to_string()))?;
        tx.savepoints.truncate(pos + 1);
        tx.overlay = tx.savepoints[pos].1.clone();
        Ok(StatementOutcome::RolledBackToSavepoint(name.to_string()))
    }

    /// `RELEASE name`: discard a savepoint (and any later ones), merging
    /// its changes into the enclosing scope.
    pub fn release(&mut self, name: &str) -> Result<StatementOutcome> {
        let tx = self.tx.as_mut().ok_or(SessionError::NoActiveTransaction)?;
        let pos = tx
            .savepoints
            .iter()
            .rposition(|(n, _)| n == name)
            .ok_or_else(|| SessionError::NoSuchSavepoint(name.to_string()))?;
        tx.savepoints.truncate(pos);
        Ok(StatementOutcome::SavepointReleased(name.to_string()))
    }

    /// Dry-run check of the open transaction's pending update (no commit):
    /// stage the overlay, evaluate the incremental views, and restore the
    /// event-capture state exactly as found — events staged by hand by
    /// engine-level callers survive the dry run untouched (not even
    /// normalized). Outside a transaction the check still runs, over
    /// whatever is staged in the shared event tables.
    pub fn check_pending(&self) -> Result<(Vec<Violation>, CheckStats)> {
        // The commit lock keeps the dry run's staged events from mixing
        // with a concurrent phased commit's.
        let _commit = self.server.db.commit_guard();
        let mut db = self.server.db.write();
        let state = self.server.state_read();
        let saved = db.snapshot_events();
        let result = (|| {
            if let Some(tx) = &self.tx {
                db.stage_overlay(tx.overlay.clone(), 0)?;
            }
            check_staged(&mut db, &state)
        })();
        db.restore_events(saved);
        result
    }

    // ------------------------------------------------------------ internal

    /// Statement-as-transaction: plan the statement's effects, then run the
    /// same phased commit an explicit single-statement transaction would.
    /// The commit lock is held from planning through publication, so the
    /// planned state cannot be invalidated in between. On any error the
    /// staged events are discarded, so a failed statement can never poison
    /// later ones.
    fn autocommit(&mut self, dml: &sql::Statement) -> Result<StatementOutcome> {
        let commit = self.server.db.commit_guard();
        let res = (|| {
            let (overlay, snapshot) = {
                // Planning only reads; concurrent readers are unaffected.
                // It reads the snapshot conflict detection checks against
                // (under the commit lock, the latest published state).
                let db = self.server.db.read();
                let snapshot = db.current_ts();
                let mut overlay = TxOverlay::new();
                let delta = db.plan_dml(dml, &overlay, snapshot)?;
                overlay.apply_delta(delta);
                (overlay, snapshot)
            };
            self.phased_commit_guarded(overlay, snapshot)
        })();
        // Same group-commit ordering as `phased_commit`: lock released,
        // then fsync before the acknowledgment.
        drop(commit);
        let (outcome, wal_lsn) = res?;
        self.finish_durable(wal_lsn)?;
        Ok(outcome)
    }
}

/// The multi-installation check over the staged event tables.
///
/// The write-locked critical section stays O(touched checks): events are
/// normalized exactly once per commit, the touched event tables are scanned
/// once, and each installation's relevance index is consulted with that set
/// — only checks whose gate tables have pending events are evaluated, each
/// through its install-time prepared plan.
fn check_staged(db: &mut Database, state: &ServerState) -> Result<(Vec<Violation>, CheckStats)> {
    let mut all = Vec::new();
    // Normalize unconditionally, as a commit does: the check must see the
    // events a commit would apply. This is the only scan of the captured
    // set; every installation reuses the touched set.
    let (normalization, touched) = db.normalize_events()?;
    let mut stats = CheckStats {
        normalization,
        ..CheckStats::default()
    };
    for inst in &state.installations {
        let violations = state
            .tintin
            .check_normalized(db, inst, &touched, &mut stats)?;
        all.extend(violations);
    }
    Ok((all, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders_session() -> Session {
        let mut s = Session::new();
        s.execute(
            "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_totalprice REAL);
             CREATE TABLE lineitem (
                 l_orderkey INT NOT NULL REFERENCES orders,
                 l_linenumber INT NOT NULL,
                 PRIMARY KEY (l_orderkey, l_linenumber));",
        )
        .unwrap();
        s.install(&["CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
            SELECT * FROM orders o WHERE NOT EXISTS (
                SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))"])
            .unwrap();
        s
    }

    fn table_len(s: &Session, table: &str) -> usize {
        s.database().read().table(table).unwrap().len()
    }

    #[test]
    fn autocommit_rejects_violating_statement() {
        let mut s = orders_session();
        let out = s.execute("INSERT INTO orders VALUES (1, 10.0)").unwrap();
        assert!(out[0].is_rejected());
        assert_eq!(table_len(&s, "orders"), 0);
        assert_eq!(s.pending_counts(), (0, 0));
    }

    #[test]
    fn transaction_commits_consistent_batch() {
        let mut s = orders_session();
        let out = s
            .execute(
                "BEGIN;
                 INSERT INTO orders VALUES (1, 10.0);
                 INSERT INTO lineitem VALUES (1, 1);
                 COMMIT;",
            )
            .unwrap();
        assert!(matches!(out[0], StatementOutcome::TransactionStarted));
        assert!(out[3].is_committed());
        assert_eq!(table_len(&s, "orders"), 1);
        assert!(!s.in_transaction());
    }

    #[test]
    fn rejected_commit_rolls_back_atomically() {
        let mut s = orders_session();
        s.execute(
            "BEGIN; INSERT INTO orders VALUES (1, 10.0);
             INSERT INTO lineitem VALUES (1, 1); COMMIT;",
        )
        .unwrap();
        let out = s
            .execute("BEGIN; INSERT INTO orders VALUES (2, 20.0); COMMIT;")
            .unwrap();
        let StatementOutcome::Rejected { violations, .. } = &out[2] else {
            panic!("expected rejection, got {:?}", out[2]);
        };
        assert_eq!(violations[0].assertion, "atleastonelineitem");
        assert_eq!(table_len(&s, "orders"), 1);
        assert_eq!(s.pending_counts(), (0, 0));
        assert!(!s.in_transaction());
    }

    #[test]
    fn rollback_discards_pending_work() {
        let mut s = orders_session();
        s.execute("BEGIN; INSERT INTO orders VALUES (1, 10.0); ROLLBACK;")
            .unwrap();
        assert_eq!(table_len(&s, "orders"), 0);
        assert_eq!(s.pending_counts(), (0, 0));
    }

    #[test]
    fn savepoints_partial_rollback() {
        let mut s = orders_session();
        let out = s
            .execute(
                "BEGIN;
                 INSERT INTO orders VALUES (1, 10.0);
                 INSERT INTO lineitem VALUES (1, 1);
                 SAVEPOINT consistent;
                 INSERT INTO orders VALUES (2, 20.0);
                 ROLLBACK TO consistent;
                 COMMIT;",
            )
            .unwrap();
        assert!(out.last().unwrap().is_committed());
        assert_eq!(table_len(&s, "orders"), 1);
    }

    #[test]
    fn ddl_rejected_inside_transaction() {
        let mut s = orders_session();
        s.execute("BEGIN").unwrap();
        let err = s.execute("CREATE TABLE x (a INT)").unwrap_err();
        assert!(matches!(err.error, SessionError::DdlInTransaction(_)));
        s.execute("ROLLBACK").unwrap();
        s.execute("CREATE TABLE x (a INT)").unwrap();
    }

    #[test]
    fn create_assertion_statement_installs() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        let out = s
            .execute("CREATE ASSERTION positive CHECK (NOT EXISTS (SELECT * FROM t WHERE a < 0))")
            .unwrap();
        assert!(matches!(
            out[0],
            StatementOutcome::AssertionInstalled { .. }
        ));
        assert_eq!(s.assertion_names(), vec!["positive".to_string()]);
        assert!(s.execute("INSERT INTO t VALUES (-1)").unwrap()[0].is_rejected());
        assert!(s.execute("INSERT INTO t VALUES (1)").unwrap()[0].is_committed());

        // Dropping it lifts the constraint.
        s.execute("DROP ASSERTION positive").unwrap();
        assert!(s.assertion_names().is_empty());
        assert!(s.execute("INSERT INTO t VALUES (-1)").unwrap()[0].is_committed());
    }

    #[test]
    fn duplicate_assertion_rejected() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        s.execute("CREATE ASSERTION a1 CHECK (NOT EXISTS (SELECT * FROM t WHERE a < 0))")
            .unwrap();
        let err = s
            .execute("CREATE ASSERTION a1 CHECK (NOT EXISTS (SELECT * FROM t WHERE a > 9))")
            .unwrap_err();
        assert!(matches!(err.error, SessionError::DuplicateAssertion(_)));
    }

    #[test]
    fn transaction_state_errors_are_precise() {
        let mut s = orders_session();
        assert!(matches!(
            s.execute("COMMIT").unwrap_err().error,
            SessionError::NoActiveTransaction
        ));
        s.execute("BEGIN").unwrap();
        assert!(matches!(
            s.execute("BEGIN").unwrap_err().error,
            SessionError::TransactionAlreadyOpen
        ));
        assert!(matches!(
            s.execute("ROLLBACK TO nope").unwrap_err().error,
            SessionError::NoSuchSavepoint(_)
        ));
        s.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn queries_inside_tx_read_their_own_writes() {
        let mut s = orders_session();
        s.execute("BEGIN; INSERT INTO orders VALUES (1, 10.0);")
            .unwrap();
        // Read-your-writes: the pending insert is visible to this session…
        let out = s.execute("SELECT * FROM orders").unwrap();
        let StatementOutcome::Rows(rs) = &out[0] else {
            panic!()
        };
        assert_eq!(rs.len(), 1, "a transaction must read its own writes");
        // …but lives only in the overlay, not in the shared database…
        assert_eq!(table_len(&s, "orders"), 0);
        let pending = s.pending_by_table();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].table, "orders");
        assert_eq!(pending[0].inserts, 1);
        // …and another session attached to the same database cannot see it.
        let other = s.server().connect();
        assert_eq!(
            other.query_rows("SELECT * FROM orders").unwrap().len(),
            0,
            "pending events must not leak to other sessions"
        );
        s.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn transaction_dml_reads_its_own_writes() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        s.execute("BEGIN; INSERT INTO t VALUES (1, 10); INSERT INTO t VALUES (2, 20);")
            .unwrap();
        // UPDATE of a pending insert retracts and replaces it…
        let out = s.execute("UPDATE t SET b = 11 WHERE a = 1").unwrap();
        assert!(matches!(out[0], StatementOutcome::RowsAffected(1)));
        // …and DELETE of a pending insert un-proposes it.
        let out = s.execute("DELETE FROM t WHERE a = 2").unwrap();
        assert!(matches!(out[0], StatementOutcome::RowsAffected(1)));
        assert_eq!(s.pending_counts(), (1, 0));
        let out = s.execute("COMMIT").unwrap();
        assert!(out[0].is_committed());
        let rs = s.query_rows("SELECT a, b FROM t").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][1], tintin_engine::Value::Int(11));
    }

    #[test]
    fn sessions_without_assertions_still_get_transactions() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        s.execute("BEGIN; INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); COMMIT;")
            .unwrap();
        assert_eq!(table_len(&s, "t"), 2);
        s.execute("BEGIN; DELETE FROM t WHERE a = 1; ROLLBACK;")
            .unwrap();
        assert_eq!(table_len(&s, "t"), 2);
    }

    #[test]
    fn failed_autocommit_apply_does_not_poison_session() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        assert!(s.execute("INSERT INTO t VALUES (1, 10)").unwrap()[0].is_committed());
        // Same PK, different payload: survives normalization (the rows are
        // not identical) but conflicts at apply time.
        assert!(s.execute("INSERT INTO t VALUES (1, 99)").is_err());
        // The failed statement's events must be discarded with it…
        assert_eq!(s.pending_counts(), (0, 0));
        // …so the session keeps working.
        assert!(s.execute("INSERT INTO t VALUES (2, 20)").unwrap()[0].is_committed());
        assert_eq!(table_len(&s, "t"), 2);
    }

    #[test]
    fn duplicate_key_rejected_at_statement_time() {
        use tintin_engine::EngineError;
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        s.execute("BEGIN").unwrap();
        // A key conflict with a committed row fails at statement time (not
        // as an opaque engine error at COMMIT), so the transaction never
        // observes duplicate-key state…
        let err = s.execute("INSERT INTO t VALUES (1, 99)").unwrap_err();
        assert!(matches!(
            err.error,
            SessionError::Engine(EngineError::UniqueViolation { .. })
        ));
        assert_eq!(s.query_rows("SELECT * FROM t").unwrap().len(), 1);
        // …and so does a conflict between two pending rows.
        s.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        assert!(s.execute("INSERT INTO t VALUES (2, 21)").is_err());
        // Re-inserting an identical existing row is the set-semantics no-op.
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        // UPDATE moving a key onto an occupied one is caught too.
        assert!(s.execute("UPDATE t SET a = 1 WHERE a = 2").is_err());
        // Delete-then-reinsert under the same key is legal.
        s.execute("DELETE FROM t WHERE a = 1; INSERT INTO t VALUES (1, 11);")
            .unwrap();
        let out = s.execute("COMMIT").unwrap();
        assert!(out[0].is_committed(), "got {:?}", out[0]);
        let rs = s.query_rows("SELECT b FROM t WHERE a = 1").unwrap();
        assert_eq!(rs.rows[0][0], tintin_engine::Value::Int(11));
    }

    #[test]
    fn deleting_duplicate_rows_is_consistent_between_tx_and_commit() {
        use tintin_engine::Value;
        let mut s = Session::new();
        {
            // Duplicate rows need a PK-less table and the direct loader
            // (the event pipeline itself is set-semantics).
            let mut db = s.database().write();
            db.execute_sql("CREATE TABLE u (a INT)").unwrap();
            db.insert_direct(
                "u",
                vec![
                    vec![Value::Int(7)],
                    vec![Value::Int(7)],
                    vec![Value::Int(8)],
                ],
            )
            .unwrap();
        }
        s.execute("BEGIN").unwrap();
        let out = s.execute("DELETE FROM u WHERE a = 7").unwrap();
        assert!(matches!(out[0], StatementOutcome::RowsAffected(2)));
        // What the transaction sees is what commit produces: the deletion
        // event removes every identical copy.
        assert_eq!(s.query_rows("SELECT * FROM u").unwrap().len(), 1);
        s.execute("COMMIT").unwrap();
        assert_eq!(s.query_rows("SELECT * FROM u").unwrap().len(), 1);
    }

    #[test]
    fn dry_run_check_preserves_hand_staged_events() {
        use tintin_engine::Value;
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        {
            // Engine-level escape hatch: stage an event directly.
            let mut db = s.database().write();
            db.enable_capture("t").unwrap();
            db.insert_rows("t", vec![vec![Value::Int(5)]]).unwrap();
        }
        s.execute("BEGIN; INSERT INTO t VALUES (6);").unwrap();
        let (violations, _) = s.check_pending().unwrap();
        assert!(violations.is_empty());
        // The dry run staged and unstaged the overlay without destroying
        // the hand-staged event.
        assert_eq!(s.database().read().table("ins_t").unwrap().len(), 1);
        s.execute("ROLLBACK").unwrap();
        // The no-transaction dry run is side-effect-free too: the staged
        // event is checked but neither applied nor normalized away.
        s.check_pending().unwrap();
        assert_eq!(s.database().read().table("ins_t").unwrap().len(), 1);
    }

    #[test]
    fn identical_reinsert_is_a_visible_noop_and_commits() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        s.execute("BEGIN; INSERT INTO t VALUES (1, 10); INSERT INTO t VALUES (1, 10);")
            .unwrap();
        // The no-op insertions are dropped at plan time: read-your-writes
        // never shows duplicate rows…
        assert_eq!(s.query_rows("SELECT * FROM t").unwrap().len(), 1);
        assert_eq!(s.pending_counts(), (0, 0));
        // …and COMMIT (with zero assertions installed, so the check loop
        // alone would never normalize) applies cleanly.
        let out = s.execute("COMMIT").unwrap();
        assert!(out[0].is_committed(), "got {:?}", out[0]);
        assert_eq!(s.query_rows("SELECT * FROM t").unwrap().len(), 1);
    }

    #[test]
    fn commit_normalizes_even_without_assertions() {
        use tintin_engine::Value;
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        {
            // Hand-stage an event identical to an existing base row: the
            // set-semantics no-op normalization must drop it even when no
            // assertion is installed. (Capture is already on: the
            // autocommit above enabled it when staging.) Staged straight
            // into `ins_t`: a planned insert would drop the no-op itself.
            let mut db = s.database().write();
            if !db.is_captured("t") {
                db.enable_capture("t").unwrap();
            }
            db.insert_direct("ins_t", vec![vec![Value::Int(1)]])
                .unwrap();
            assert_eq!(db.table("ins_t").unwrap().len(), 1);
        }
        let out = s
            .execute("BEGIN; INSERT INTO t VALUES (2); COMMIT;")
            .unwrap();
        assert!(out.last().unwrap().is_committed(), "got {out:?}");
        assert_eq!(s.query_rows("SELECT * FROM t").unwrap().len(), 2);
    }

    #[test]
    fn dry_run_check_does_not_leak_capture() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        s.execute("BEGIN; INSERT INTO t VALUES (1);").unwrap();
        s.check_pending().unwrap();
        // The dry run staged onto an uncaptured table; restoring must
        // disable the capture it enabled…
        assert!(!s.database().read().is_captured("t"));
        s.execute("ROLLBACK").unwrap();
        // …so the documented direct bulk-load path still hits the base
        // table instead of being diverted into ins_t.
        s.database()
            .write()
            .execute_sql("INSERT INTO t VALUES (9)")
            .unwrap();
        assert_eq!(s.database().read().table("t").unwrap().len(), 1);
    }

    #[test]
    fn read_only_commit_skips_the_commit_machinery() {
        let mut s = orders_session();
        s.execute(
            "BEGIN; INSERT INTO orders VALUES (1, 10.0);
             INSERT INTO lineitem VALUES (1, 1); COMMIT;",
        )
        .unwrap();
        let ts_before = s.database().read().current_ts();
        // A pure-reader transaction commits without publishing a timestamp.
        let out = s.execute("BEGIN; SELECT * FROM orders; COMMIT;").unwrap();
        assert!(matches!(
            out.last(),
            Some(StatementOutcome::Committed {
                inserted: 0,
                deleted: 0,
                ..
            })
        ));
        assert_eq!(s.database().read().current_ts(), ts_before);
        // So does a transaction whose statements planned to nothing.
        let out = s
            .execute("BEGIN; DELETE FROM orders WHERE o_orderkey = 99; COMMIT;")
            .unwrap();
        assert!(out.last().unwrap().is_committed());
        assert_eq!(s.database().read().current_ts(), ts_before);
    }

    #[test]
    fn session_count_tracks_connects_and_drops() {
        let server = Server::new();
        assert_eq!(server.session_count(), 0);
        let a = server.connect();
        let b = server.connect();
        assert_eq!(server.session_count(), 2);
        assert_ne!(a.id(), b.id());
        drop(a);
        assert_eq!(server.session_count(), 1);
        drop(b);
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn assertions_installed_by_one_session_bind_all() {
        let server = Server::new();
        let mut a = server.connect();
        let mut b = server.connect();
        a.execute("CREATE TABLE t (v INT PRIMARY KEY)").unwrap();
        a.execute("CREATE ASSERTION positive CHECK (NOT EXISTS (SELECT * FROM t WHERE v < 0))")
            .unwrap();
        // The other session is bound by it immediately.
        assert!(b.execute("INSERT INTO t VALUES (-1)").unwrap()[0].is_rejected());
        assert!(b.execute("INSERT INTO t VALUES (1)").unwrap()[0].is_committed());
        assert_eq!(b.assertion_names(), vec!["positive".to_string()]);
    }

    #[test]
    fn metrics_track_commit_outcomes_and_phases() {
        let server = Server::new();
        let mut s = server.connect();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        s.execute("CREATE ASSERTION nonneg CHECK (NOT EXISTS (SELECT * FROM t WHERE a < 0))")
            .unwrap();
        assert!(s.execute("INSERT INTO t VALUES (1)").unwrap()[0].is_committed());
        assert!(s
            .execute("BEGIN; INSERT INTO t VALUES (2); COMMIT;")
            .unwrap()[2]
            .is_committed());
        assert!(s.execute("INSERT INTO t VALUES (-1)").unwrap()[0].is_rejected());
        // A no-op commit counts as a commit but not as a latency sample.
        assert!(s.execute("BEGIN; COMMIT;").unwrap()[1].is_committed());

        let m = server.metrics_snapshot();
        assert_eq!(m.counter("tintin_commit_attempts_total"), Some(4));
        assert_eq!(m.counter("tintin_commits_total"), Some(3));
        assert_eq!(m.counter("tintin_commit_rejects_total"), Some(1));
        assert_eq!(m.counter("tintin_commit_conflicts_total"), Some(0));
        assert_eq!(m.counter("tintin_commit_errors_total"), Some(0));
        assert_eq!(m.counter("tintin_violations_total"), Some(1));
        // Histograms: the overall one holds only real successful commits;
        // per-phase ones saw the rejected commit's phases too.
        let commit = m.histogram("tintin_commit_seconds").unwrap();
        assert_eq!(commit.count, 2);
        assert!(commit.quantile(0.5) <= commit.quantile(0.999));
        assert_eq!(m.histogram("tintin_commit_stage_seconds").unwrap().count, 3);
        assert_eq!(m.histogram("tintin_commit_check_seconds").unwrap().count, 3);
        assert_eq!(
            m.histogram("tintin_commit_publish_seconds").unwrap().count,
            2
        );
        // The check phase ran through prepared plans.
        let reused = m.counter("tintin_plans_reused_total").unwrap();
        let recompiled = m.counter("tintin_plans_recompiled_total").unwrap();
        assert!(reused + recompiled > 0, "checks must have used plans");
        // Engine sampling: the clock advanced and live versions exist.
        assert_eq!(m.gauge("tintin_mvcc_commit_ts"), Some(2));
        assert!(m.gauge("tintin_mvcc_live_versions").unwrap() >= 2);
        assert_eq!(m.gauge("tintin_sessions_open"), Some(1));
        assert_eq!(m.gauge("tintin_snapshots_live"), Some(0));
        drop(s);
        assert_eq!(
            server.metrics_snapshot().gauge("tintin_sessions_open"),
            Some(0)
        );
    }

    #[test]
    fn serialization_conflicts_are_counted() {
        let server = Server::new();
        let mut a = server.connect();
        let mut b = server.connect();
        a.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        // Two transactions race on the same row; the second committer loses.
        a.execute("BEGIN; UPDATE t SET b = 11 WHERE a = 1;")
            .unwrap();
        b.execute("BEGIN; UPDATE t SET b = 12 WHERE a = 1;")
            .unwrap();
        assert!(a.execute("COMMIT").unwrap()[0].is_committed());
        let err = b.execute("COMMIT").unwrap_err();
        assert!(matches!(
            err.error,
            SessionError::SerializationConflict { .. }
        ));
        let m = server.metrics_snapshot();
        assert_eq!(m.counter("tintin_commit_conflicts_total"), Some(1));
        // Conservation: attempts == commits + rejects + conflicts + errors.
        assert_eq!(
            m.counter("tintin_commit_attempts_total").unwrap(),
            m.counter("tintin_commits_total").unwrap()
                + m.counter("tintin_commit_rejects_total").unwrap()
                + m.counter("tintin_commit_conflicts_total").unwrap()
                + m.counter("tintin_commit_errors_total").unwrap()
        );
    }

    #[test]
    fn noop_registry_disables_all_session_metrics() {
        let server = Server::with_registry(Registry::noop());
        let mut s = server.connect();
        s.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        assert!(s.execute("INSERT INTO t VALUES (1)").unwrap()[0].is_committed());
        assert!(server.metrics_snapshot().samples.is_empty());
    }
}
