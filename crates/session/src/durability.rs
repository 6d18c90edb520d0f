//! Durability for a [`Server`]: write-ahead logging on the commit path,
//! open-or-recover semantics, and checkpoint/rotation.
//!
//! The protocol (see `docs/ARCHITECTURE.md` § Durability):
//!
//! * **log before publish** — phase 3 of the phased commit appends a
//!   [`WalRecord::Commit`] holding the commit timestamp and the
//!   *normalized* staged effects (the exact `ins_T`/`del_T` rows the
//!   incremental check validated) while still under the commit lock, so
//!   log order equals publish order equals timestamp order;
//! * **group fsync before ack** — the `fdatasync` runs *after* the commit
//!   lock is released and *before* `COMMIT` returns: concurrent
//!   committers coalesce on one leader fsync ([`Wal::sync`]), so the
//!   per-commit fsync cost amortizes across however many commits landed in
//!   the log since the last sync;
//! * **recovery** ([`Server::open`]) — load the checkpoint if present
//!   (replayable DDL log + assertion sources + base rows + commit clock),
//!   then replay the log tail whose LSNs continue it, each commit through
//!   the same stage → normalize → apply → publish pipeline, and verify the
//!   result with [`Tintin::full_recheck`] — recovery restores a state that
//!   is not merely readable but provably assertion-clean;
//! * **checkpoints** ([`Server::checkpoint`]) — a quiescent snapshot
//!   (taken under the commit lock, so no commit is mid-flight) written
//!   atomically, after which the log is truncated; LSNs keep counting
//!   across the rotation so recovery can verify checkpoint↔tail
//!   continuity.
//!
//! Catalog changes (DDL, assertion installs/drops) are logged too, and
//! synced eagerly — they are rare and non-transactional. Rejected,
//! conflicted and hook-aborted commits never reach the log: recovery can
//! replay only acknowledged history.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use tintin::{Installation, Tintin};
use tintin_engine::{Database, EngineError, Row, SharedDatabase, TxOverlay};
use tintin_obs::{log_info, Counter, Registry};
use tintin_sql as sql;
use tintin_wal::{
    read_checkpoint, write_checkpoint, Checkpoint, Lsn, TableEffects, Wal, WalError, WalRecord,
};

use crate::{Result, Server, ServerObs, ServerState, SessionError};

impl From<WalError> for SessionError {
    fn from(e: WalError) -> Self {
        SessionError::Durability(e.to_string())
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corrupt(msg: String) -> SessionError {
    SessionError::Durability(msg)
}

/// An injected durability bug, settable through
/// [`Server::set_durability_fault`]. These are the known-bad mutants the
/// simulation harness proves its crash oracle against; a production server
/// never sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityFault {
    /// Correct behavior.
    #[default]
    None,
    /// `fdatasync` silently skipped: commits are acknowledged while their
    /// log records sit in the OS page cache, so a crash loses acked
    /// history.
    SkipFsync,
    /// The commit is acknowledged without writing its log record at all.
    AckBeforeLog,
    /// Checkpointing rotates the log *before* the checkpoint is durable
    /// and writes the checkpoint in place (no temp + rename), leaving a
    /// torn checkpoint with no log to fall back on.
    TornCheckpoint,
}

impl DurabilityFault {
    /// Parse a CLI fault name (the sim's `--mutant` names).
    pub fn parse(name: &str) -> Option<DurabilityFault> {
        match name {
            "none" => Some(DurabilityFault::None),
            "skip-fsync" => Some(DurabilityFault::SkipFsync),
            "ack-before-log" => Some(DurabilityFault::AckBeforeLog),
            "torn-checkpoint" => Some(DurabilityFault::TornCheckpoint),
            _ => None,
        }
    }
}

/// Configuration for [`Server::open_with`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Run `fdatasync` before acknowledging commits (default). With this
    /// off, commits are acknowledged once their records reach the OS —
    /// faster, but a crash may lose the unsynced tail (the fsync-off bench
    /// configuration).
    pub fsync: bool,
    /// Rotate the log through a checkpoint once it exceeds this many
    /// bytes, checked after each acknowledged commit. `None` (default)
    /// leaves checkpointing to explicit [`Server::checkpoint`] calls.
    pub checkpoint_bytes: Option<u64>,
    /// Metrics registry to record into (WAL counters, recovery time).
    /// `None` creates a fresh enabled registry.
    pub registry: Option<Registry>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: true,
            checkpoint_bytes: None,
            registry: None,
        }
    }
}

/// What [`Server::open`] recovered, for the INFO summary line and
/// [`Server::recovery_summary`].
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// Was a checkpoint loaded?
    pub checkpoint_loaded: bool,
    /// Highest LSN recovered (checkpoint boundary included; 0 = fresh).
    pub recovered_lsn: Lsn,
    /// Commit records replayed from the log tail.
    pub commits_replayed: usize,
    /// Catalog records (DDL, installs, drops) replayed from the log tail.
    pub catalog_replayed: usize,
    /// Torn/corrupt tail bytes truncated off the log.
    pub tail_bytes_truncated: u64,
    /// Duplicated log frames skipped.
    pub duplicates_skipped: usize,
    /// Wall-clock recovery time.
    pub elapsed: Duration,
}

/// A point-in-time view of the log's watermarks (the crash simulator
/// captures this at its injected crash instant to decide which tail bytes
/// the "crash" may lose).
#[derive(Debug, Clone)]
pub struct WalStatus {
    /// LSN of the last appended record.
    pub appended_lsn: Lsn,
    /// LSN up to which the log is durable.
    pub durable_lsn: Lsn,
    /// Bytes appended (logical end of log).
    pub appended_size: u64,
    /// Bytes known durable; a crash may lose anything past this.
    pub durable_size: u64,
    /// Path of the log file.
    pub wal_path: PathBuf,
    /// Path of the checkpoint file.
    pub checkpoint_path: PathBuf,
}

/// What [`Server::checkpoint`] wrote.
#[derive(Debug, Clone)]
pub struct CheckpointStats {
    /// LSN of the last log record folded into the checkpoint.
    pub last_lsn: Lsn,
    /// The commit clock at the snapshot.
    pub commit_ts: u64,
    /// Base tables snapshotted.
    pub tables: usize,
    /// Rows snapshotted.
    pub rows: usize,
}

/// The durable side of a [`Server`]: the log, the checkpoint paths, and
/// the replayable DDL history since database creation.
pub(crate) struct Durability {
    wal: Wal,
    checkpoint_path: PathBuf,
    /// Catalog DDL in execution order — the checkpoint's catalog image.
    ddl_log: Mutex<Vec<String>>,
    fault: Mutex<DurabilityFault>,
    checkpoint_bytes: Option<u64>,
    summary: RecoverySummary,
    checkpoints: Arc<Counter>,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("wal", &self.wal.path())
            .field("checkpoint", &self.checkpoint_path)
            .field("fault", &self.fault())
            .finish()
    }
}

impl Durability {
    pub(crate) fn fault(&self) -> DurabilityFault {
        *lock(&self.fault)
    }

    pub(crate) fn set_fault(&self, fault: DurabilityFault) {
        *lock(&self.fault) = fault;
    }

    /// Append the commit record for `ts` (called under the commit lock,
    /// immediately before publication). Returns the LSN to sync to before
    /// acknowledging.
    pub(crate) fn append_commit(
        &self,
        ts: u64,
        effects: Vec<(String, Vec<Row>, Vec<Row>)>,
    ) -> Result<Lsn> {
        let effects = effects
            .into_iter()
            .map(|(table, ins, del)| TableEffects { table, ins, del })
            .collect();
        Ok(self.wal.append(&WalRecord::Commit { ts, effects })?)
    }

    /// Group-commit sync: block until `lsn` is durable. Runs after the
    /// commit lock is released so concurrent committers share one fsync.
    pub(crate) fn sync_to(&self, lsn: Lsn) -> Result<()> {
        if self.fault() == DurabilityFault::SkipFsync {
            return Ok(());
        }
        Ok(self.wal.sync(lsn)?)
    }

    /// Has the log outgrown the size-triggered checkpoint threshold?
    pub(crate) fn should_checkpoint(&self) -> bool {
        self.checkpoint_bytes
            .is_some_and(|limit| self.wal.appended_size() >= limit)
    }

    /// Log a catalog DDL statement (synced eagerly — DDL is rare).
    pub(crate) fn log_ddl(&self, sql: &str) -> Result<()> {
        let lsn = self.wal.append(&WalRecord::Ddl {
            sql: sql.to_string(),
        })?;
        lock(&self.ddl_log).push(sql.to_string());
        self.sync_to(lsn)
    }

    /// Log an assertion install batch.
    pub(crate) fn log_install(&self, sqls: &[&str]) -> Result<()> {
        let lsn = self.wal.append(&WalRecord::Install {
            sqls: sqls.iter().map(|s| s.to_string()).collect(),
        })?;
        self.sync_to(lsn)
    }

    /// Log an assertion drop.
    pub(crate) fn log_drop_assertion(&self, name: &str) -> Result<()> {
        let lsn = self.wal.append(&WalRecord::DropAssertion {
            name: name.to_string(),
        })?;
        self.sync_to(lsn)
    }
}

/// Drop one assertion (and its incremental views) from `installations`,
/// operating directly on the engine — shared by [`Session::drop_assertion`]
/// and recovery's `DropAssertion` replay.
///
/// [`Session::drop_assertion`]: crate::Session::drop_assertion
pub(crate) fn drop_assertion_in(
    db: &mut Database,
    installations: &mut Vec<Installation>,
    name: &str,
) -> Result<()> {
    let found = installations.iter().enumerate().find_map(|(ii, inst)| {
        inst.assertions
            .iter()
            .position(|a| a.name == name)
            .map(|ai| (ii, ai))
    });
    let Some((ii, ai)) = found else {
        return Err(SessionError::NoSuchAssertion(name.to_string()));
    };
    let mut inst = installations.remove(ii);
    for view in &inst.assertions[ai].view_names {
        db.drop_view(view, true)?;
    }
    inst.assertions.remove(ai);
    inst.fallbacks.retain(|f| f.assertion != name);
    inst.denial_texts
        .retain(|d| !d.starts_with(&format!("{name}:")));
    inst.retain_views(|v| v.assertion != name);
    if !inst.assertions.is_empty() {
        installations.insert(ii, inst);
    }
    Ok(())
}

/// Replay one logged commit: its effects go straight into the base tables
/// as versions of `ts` ([`Database::apply_overlay_versioned`]), and `ts` is
/// published. The effects were logged after normalization and checking, so
/// there is nothing to stage, normalize or check again; replaying effects
/// (not SQL) makes phantoms impossible.
fn replay_commit(db: &mut Database, ts: u64, effects: &[TableEffects]) -> Result<()> {
    let mut overlay = TxOverlay::new();
    for e in effects {
        let d = overlay.delta_mut(&e.table);
        for row in &e.ins {
            d.push_ins(row.clone());
        }
        for row in &e.del {
            d.push_del(row.clone());
        }
    }
    db.apply_overlay_versioned(overlay, ts)
        .map_err(|e| corrupt(format!("commit replay at ts {ts} failed: {e}")))?;
    db.publish_commit(ts);
    Ok(())
}

/// Replay one logged catalog statement. A log written before `TRUNCATE`
/// became a checked commit holds it here, and it keeps the meaning it had
/// then: every row of the table is gone at once, bypassing capture, and
/// the clock does not move (the next logged commit holds the next
/// timestamp). Its rows are stamped dead at the published timestamp, so
/// no read from then on sees them.
fn replay_ddl(db: &mut Database, sql: &str) -> tintin_engine::Result<()> {
    for stmt in sql::parse_statements(sql)? {
        let sql::Statement::TruncateTable { name } = &stmt else {
            db.execute(&stmt)?;
            continue;
        };
        let table = (db.table(name)).ok_or_else(|| EngineError::NoSuchTable(name.clone()))?;
        let mut overlay = TxOverlay::new();
        let d = overlay.delta_mut(name);
        for (_, row) in table.scan() {
            d.push_del(row.clone());
        }
        db.apply_overlay_versioned(overlay, db.current_ts())?;
    }
    Ok(())
}

impl Server {
    /// Open (or create) a durable server over the data directory `dir`
    /// with default options: fsync on, explicit checkpoints only. See
    /// [`Server::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Server> {
        Server::open_with(dir, &DurabilityOptions::default())
    }

    /// Open-or-recover: if `dir` holds a checkpoint and/or write-ahead
    /// log, rebuild the database from them — load the checkpoint (DDL,
    /// rows, assertions, commit clock), replay the log tail to the last
    /// complete record (truncating a torn tail), and verify the recovered
    /// state with [`Tintin::full_recheck`]. A fresh directory yields an
    /// empty durable server. The recovery summary is logged at INFO and
    /// kept ([`Server::recovery_summary`]).
    pub fn open_with(dir: impl AsRef<Path>, opts: &DurabilityOptions) -> Result<Server> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(WalError::from)?;
        // Not `unwrap_or_default()`: `Registry::default()` is the *disabled*
        // no-op registry, while a `None` here must mean "record metrics into
        // a fresh enabled registry" (see `DurabilityOptions::registry`).
        let registry = match opts.registry.clone() {
            Some(r) => r,
            None => Registry::new(),
        };
        let started = Instant::now();
        let checkpoint_path = dir.join("checkpoint");
        let ck = read_checkpoint(&checkpoint_path)?;
        let (wal, walrec) = Wal::open(&dir.join("wal"), &registry)?;
        wal.set_fsync(opts.fsync);

        let mut db = Database::new();
        let tintin = Tintin::new();
        let mut installations: Vec<Installation> = Vec::new();
        let mut ddl_log: Vec<String> = Vec::new();
        let mut commits_replayed = 0usize;
        let mut catalog_replayed = 0usize;
        let mut next_lsn: Lsn = 1;

        if let Some(ck) = &ck {
            // Catalog first (full DDL history), then rows, then assertions
            // — installs may build incremental views over the loaded data.
            for sql in &ck.ddl {
                db.execute_sql(sql)
                    .map_err(|e| corrupt(format!("checkpoint DDL replay failed ({sql}): {e}")))?;
            }
            ddl_log.clone_from(&ck.ddl);
            for (name, rows) in &ck.tables {
                db.insert_direct(name, rows.iter().map(|r| r.to_vec()).collect())
                    .map_err(|e| corrupt(format!("checkpoint rows for '{name}' failed: {e}")))?;
            }
            for batch in &ck.installs {
                let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
                installations.push(
                    tintin.install(&mut db, &refs).map_err(|e| {
                        corrupt(format!("checkpoint assertion reinstall failed: {e}"))
                    })?,
                );
            }
            db.set_commit_clock(ck.commit_ts);
            next_lsn = ck.last_lsn + 1;
        }

        for (lsn, rec) in &walrec.records {
            if *lsn < next_lsn {
                // Already folded into the checkpoint (a crash between
                // checkpoint rename and log rotation leaves these behind).
                continue;
            }
            if *lsn > next_lsn {
                return Err(corrupt(format!(
                    "log does not continue the checkpoint: expected LSN {next_lsn}, log \
                     resumes at {lsn} (torn checkpoint or premature log rotation)"
                )));
            }
            next_lsn += 1;
            match rec {
                WalRecord::Ddl { sql } => {
                    replay_ddl(&mut db, sql)
                        .map_err(|e| corrupt(format!("DDL replay failed ({sql}): {e}")))?;
                    ddl_log.push(sql.clone());
                    catalog_replayed += 1;
                }
                WalRecord::Install { sqls } => {
                    let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
                    installations.push(
                        tintin
                            .install(&mut db, &refs)
                            .map_err(|e| corrupt(format!("assertion reinstall failed: {e}")))?,
                    );
                    catalog_replayed += 1;
                }
                WalRecord::DropAssertion { name } => {
                    drop_assertion_in(&mut db, &mut installations, name)?;
                    catalog_replayed += 1;
                }
                WalRecord::Commit { ts, effects } => {
                    replay_commit(&mut db, *ts, effects)?;
                    commits_replayed += 1;
                }
            }
        }

        // The recovered state must be provably assertion-clean: the
        // paper's trusted non-incremental comparator is the recovery
        // verifier.
        for inst in &installations {
            let out = tintin
                .full_recheck(&mut db, inst)
                .map_err(|e| corrupt(format!("post-recovery full recheck failed: {e}")))?;
            if !out.committed {
                let names: Vec<String> =
                    out.violations.iter().map(|v| v.assertion.clone()).collect();
                return Err(corrupt(format!(
                    "recovered state violates installed assertions: {}",
                    names.join(", ")
                )));
            }
        }

        let elapsed = started.elapsed();
        registry
            .histogram("tintin_recovery_seconds")
            .record(elapsed);
        let summary = RecoverySummary {
            checkpoint_loaded: ck.is_some(),
            recovered_lsn: walrec.last_lsn.max(ck.as_ref().map_or(0, |c| c.last_lsn)),
            commits_replayed,
            catalog_replayed,
            tail_bytes_truncated: walrec.truncated_bytes,
            duplicates_skipped: walrec.duplicates_skipped,
            elapsed,
        };
        log_info!(
            "tintin_session",
            "recovery: dir={} checkpoint_loaded={} recovered_lsn={} commits_replayed={} \
             catalog_replayed={} tail_bytes_truncated={} duplicates_skipped={} elapsed={:?}",
            dir.display(),
            summary.checkpoint_loaded,
            summary.recovered_lsn,
            summary.commits_replayed,
            summary.catalog_replayed,
            summary.tail_bytes_truncated,
            summary.duplicates_skipped,
            summary.elapsed,
        );

        let dura = Durability {
            wal,
            checkpoint_path,
            ddl_log: Mutex::new(ddl_log),
            fault: Mutex::new(DurabilityFault::None),
            checkpoint_bytes: opts.checkpoint_bytes,
            summary,
            checkpoints: registry.counter("tintin_checkpoints_total"),
        };
        Ok(Server {
            db: SharedDatabase::from_database(db),
            state: Arc::new(RwLock::new(ServerState {
                tintin,
                installations,
            })),
            obs: Arc::new(ServerObs::with_registry(registry)),
            dura: Some(Arc::new(dura)),
            ..Server::default()
        })
    }

    /// Is this server durable (opened over a data directory)?
    pub fn is_durable(&self) -> bool {
        self.dura.is_some()
    }

    /// What [`Server::open`] recovered, if this server is durable.
    pub fn recovery_summary(&self) -> Option<RecoverySummary> {
        self.dura.as_ref().map(|d| d.summary.clone())
    }

    /// The log watermarks right now, if this server is durable.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.dura.as_ref().map(|d| WalStatus {
            appended_lsn: d.wal.appended_lsn(),
            durable_lsn: d.wal.durable_lsn(),
            appended_size: d.wal.appended_size(),
            durable_size: d.wal.durable_size(),
            wal_path: d.wal.path().to_path_buf(),
            checkpoint_path: d.checkpoint_path.clone(),
        })
    }

    /// Inject (or clear) a durability mutant. A fault-injection seam for
    /// the simulation harness — see [`DurabilityFault`].
    pub fn set_durability_fault(&self, fault: DurabilityFault) {
        if let Some(d) = &self.dura {
            d.set_fault(fault);
        }
    }

    /// Write a checkpoint and rotate the log: snapshot the base tables,
    /// catalog DDL, assertion sources and commit clock at a quiescent
    /// point (under the commit lock, so no commit is mid-flight), write it
    /// atomically (temp file → fsync → rename), then truncate the log.
    /// LSNs keep counting across the rotation.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let Some(dura) = self.dura.clone() else {
            return Err(SessionError::Durability(
                "server has no data directory (open one with Server::open)".into(),
            ));
        };
        let _commit = self.db.commit_guard();
        let ck = {
            let db = self.db.read();
            let state = self.state_read();
            let mut tables = Vec::new();
            for name in db.table_names() {
                if db.is_event_table(&name) {
                    continue;
                }
                let rows: Vec<Row> = db
                    .table(&name)
                    .map(|t| t.scan().map(|(_, r)| r.clone()).collect())
                    .unwrap_or_default();
                tables.push((name, rows));
            }
            Checkpoint {
                last_lsn: dura.wal.appended_lsn(),
                commit_ts: db.current_ts(),
                ddl: lock(&dura.ddl_log).clone(),
                installs: state
                    .installations
                    .iter()
                    .map(|i| i.assertions.iter().map(|a| a.source_sql.clone()).collect())
                    .collect(),
                tables,
            }
        };
        let stats = CheckpointStats {
            last_lsn: ck.last_lsn,
            commit_ts: ck.commit_ts,
            tables: ck.tables.len(),
            rows: ck.tables.iter().map(|(_, r)| r.len()).sum(),
        };
        if dura.fault() == DurabilityFault::TornCheckpoint {
            // The mutant: rotate the log before the checkpoint is durable
            // and write the checkpoint in place, torn mid-payload — the
            // write-protocol violation the crash oracle must catch.
            dura.wal.reset()?;
            let bytes = tintin_wal::encode_checkpoint(&ck);
            let cut = bytes.len() * 2 / 3;
            std::fs::write(&dura.checkpoint_path, &bytes[..cut]).map_err(WalError::from)?;
            dura.checkpoints.inc();
            return Ok(stats);
        }
        write_checkpoint(&dura.checkpoint_path, &ck)?;
        dura.wal.reset()?;
        dura.checkpoints.inc();
        Ok(stats)
    }
}
