//! The deterministic scheduler + differential oracle.
//!
//! One OS thread drives every logical session. Mid-commit interleavings
//! come from the session layer's commit-phase hook, which fires at every
//! phase boundary of every phased commit on this thread: the scheduler
//! uses it to run read probes (published-clock stability, pinned-reader
//! snapshot stability) and to inject mid-commit aborts and mutants —
//! so an interleaving is a pure function of the seed, not of OS-thread
//! timing.
//!
//! The oracle keeps a **mirror**: a plain single-threaded [`Database`]
//! with the same schema, seed rows and assertions, advanced only by
//! replaying the *overlay effects* of commits the shared server accepted,
//! each through [`Tintin::full_recheck`] — the paper's trusted
//! non-incremental comparator. Replaying effects rather than raw SQL is
//! deliberate: under snapshot isolation a predicate UPDATE re-planned on
//! the mirror could match different rows than it matched on the
//! committer's snapshot (a phantom), so the mirror replays exactly what
//! the committer staged. The full recheck commits through the server's
//! own versioned apply / publish primitives, so the mirror is the same
//! commit code run by a single owner, not a second implementation.

use std::sync::{Arc, Mutex, PoisonError};

use tintin::Tintin;
use tintin_engine::{Database, EngineError, ReadCtx, TxOverlay, Value, TS_LATEST};
use tintin_session::{CommitPhase, HookAction, Server, Session, SessionError, StatementOutcome};
use tintin_sql as sql;

use crate::gen::{op_label, AbortPoint, CommitPlan, Op, Workload};
use crate::{fnv1a, Mutant, SimConfig, SimFailure, SimReport, Tally};

/// State shared between the scheduler and the commit-phase hook.
struct HookShared {
    /// The scheduler arms this immediately before an explicit `COMMIT`
    /// step and disarms it right after; it never applies to autocommits.
    plan: CommitPlan,
    armed: bool,
    mutant: Mutant,
    /// Unique-key counter for mutant-injected rows.
    seq: i64,
    /// Probe failures recorded by the hook (the hook itself never
    /// panics); drained by the scheduler after every commit.
    issues: Vec<String>,
    /// Published-clock dump captured just before the armed commit.
    published_baseline: Option<String>,
    /// Per-reader dump captured when the reader pinned its snapshot.
    reader_baselines: Vec<Option<String>>,
}

type SharedHookState = Arc<Mutex<HookShared>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Canonical dump of `tables` as seen by `sess` (its snapshot: the
/// published clock outside a transaction, the `BEGIN` snapshot inside).
fn dump_via(sess: &Session, tables: &[String]) -> Result<String, String> {
    let mut out = String::new();
    for t in tables {
        let rs = sess
            .query_rows(&format!("SELECT * FROM {t} ORDER BY k"))
            .map_err(|e| format!("dump of {t} failed: {e}"))?;
        push_rows(&mut out, t, &rs.rows);
    }
    Ok(out)
}

/// Canonical dump of `tables` from a plain (mirror / replay) database.
fn dump_db(db: &Database, tables: &[String]) -> Result<String, String> {
    let mut out = String::new();
    for t in tables {
        let q = sql::parse_query(&format!("SELECT * FROM {t} ORDER BY k"))
            .map_err(|e| format!("dump parse of {t} failed: {e}"))?;
        let rs = db
            .query(&q, ReadCtx::LATEST)
            .map_err(|e| format!("mirror dump of {t} failed: {e}"))?;
        push_rows(&mut out, t, &rs.rows);
    }
    Ok(out)
}

fn push_rows(out: &mut String, table: &str, rows: &[Box<[Value]>]) {
    out.push_str(table);
    out.push(':');
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(';');
    }
    out.push('\n');
}

/// How a decided commit ended, as the scheduler classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decided {
    Committed {
        inserted: usize,
        deleted: usize,
    },
    Rejected {
        violations: usize,
    },
    Conflict,
    /// Injected mid-commit abort (fault injection, not a real error).
    Aborted,
}

impl Decided {
    fn label(&self) -> String {
        match self {
            Decided::Committed { inserted, deleted } => {
                format!("committed(+{inserted},-{deleted})")
            }
            Decided::Rejected { violations } => format!("rejected({violations})"),
            Decided::Conflict => "conflict".to_string(),
            Decided::Aborted => "aborted".to_string(),
        }
    }
}

/// Classify a commit result; `None` means an outcome the harness does not
/// expect from a commit (a harness failure).
fn classify(res: &Result<StatementOutcome, SessionError>) -> Option<Decided> {
    match res {
        Ok(StatementOutcome::Committed {
            inserted, deleted, ..
        }) => Some(Decided::Committed {
            inserted: *inserted,
            deleted: *deleted,
        }),
        Ok(StatementOutcome::Rejected { violations, .. }) => Some(Decided::Rejected {
            violations: violations.len(),
        }),
        Err(SessionError::SerializationConflict { .. }) => Some(Decided::Conflict),
        Err(SessionError::Engine(EngineError::Transaction(msg))) if msg.contains("commit hook") => {
            Some(Decided::Aborted)
        }
        _ => None,
    }
}

/// The running simulation.
struct Sim<'a> {
    cfg: &'a SimConfig,
    wl: &'a Workload,
    server: Server,
    workers: Vec<Session>,
    readers: Vec<Arc<Mutex<Session>>>,
    pinned: Vec<bool>,
    /// Dedicated sessions for the forced-conflict choreography.
    fa: Session,
    fb: Session,
    /// Out-of-transaction session used for published-clock dumps (shared
    /// with the hook, hence the mutex).
    probe: Arc<Mutex<Session>>,
    hook_state: SharedHookState,
    /// All user tables, in canonical dump order.
    tables: Vec<String>,
    assertion_texts: Vec<String>,
    mirror_db: Database,
    mirror_tintin: Tintin,
    mirror_inst: tintin::Installation,
    /// Overlay effects of every accepted (non-empty) commit, in commit
    /// order — the accepted history the fresh replay re-validates.
    accepted: Vec<TxOverlay>,
    accepted_since_replay: usize,
    tally: Tally,
    trace: Vec<String>,
    steps_run: usize,
}

impl<'a> Sim<'a> {
    fn fail(&self, step: usize, message: String) -> SimFailure {
        SimFailure {
            seed: self.cfg.seed,
            step,
            message,
            trace: self.trace.clone(),
        }
    }

    fn dump_shared(&self, step: usize) -> Result<String, SimFailure> {
        dump_via(&lock(&self.probe), &self.tables).map_err(|e| self.fail(step, e))
    }

    fn dump_mirror(&self, step: usize) -> Result<String, SimFailure> {
        dump_db(&self.mirror_db, &self.tables).map_err(|e| self.fail(step, e))
    }

    /// Drain probe failures the hook recorded during a commit.
    fn drain_issues(&mut self, step: usize) -> Result<(), SimFailure> {
        let issues = std::mem::take(&mut lock(&self.hook_state).issues);
        if let Some(first) = issues.into_iter().next() {
            return Err(self.fail(step, first));
        }
        Ok(())
    }

    /// The invariant battery after every decided commit.
    fn oracle_after_commit(
        &mut self,
        step: usize,
        decided: Decided,
        overlay: &TxOverlay,
        before: &str,
    ) -> Result<(), SimFailure> {
        self.drain_issues(step)?;
        match decided {
            Decided::Committed { .. } => {
                if overlay.is_empty() {
                    // Fast-path (no-op) commit: nothing may change.
                    let after = self.dump_shared(step)?;
                    if after != before {
                        return Err(self.fail(
                            step,
                            format!(
                                "no-op commit changed published state\nbefore:\n{before}\nafter:\n{after}"
                            ),
                        ));
                    }
                } else {
                    self.mirror_db
                        .stage_overlay(overlay.clone(), 0)
                        .map_err(|e| self.fail(step, format!("mirror staging failed: {e}")))?;
                    let out = self
                        .mirror_tintin
                        .full_recheck(&mut self.mirror_db, &self.mirror_inst)
                        .map_err(|e| self.fail(step, format!("mirror full recheck failed: {e}")))?;
                    if !out.committed {
                        let vs: Vec<String> =
                            out.violations.iter().map(|v| v.assertion.clone()).collect();
                        return Err(self.fail(
                            step,
                            format!(
                                "verdict divergence: incremental check accepted a commit the \
                                 full recheck rejects (violated: {})",
                                vs.join(", ")
                            ),
                        ));
                    }
                    let shared = self.dump_shared(step)?;
                    let mirror = self.dump_mirror(step)?;
                    if shared != mirror {
                        return Err(self.fail(
                            step,
                            format!(
                                "state divergence after accepted commit\nshared:\n{shared}\nmirror:\n{mirror}"
                            ),
                        ));
                    }
                    self.accepted.push(overlay.clone());
                    self.accepted_since_replay += 1;
                    if self.accepted_since_replay >= self.cfg.replay_every.max(1) {
                        self.accepted_since_replay = 0;
                        self.check_fresh_replay(step)?;
                    }
                }
            }
            Decided::Rejected { .. } => {
                // A rejected commit leaves no trace on the shared side, and
                // the full recheck must agree with the rejection.
                if !overlay.is_empty() {
                    self.mirror_db
                        .stage_overlay(overlay.clone(), 0)
                        .map_err(|e| self.fail(step, format!("mirror staging failed: {e}")))?;
                    let out = self
                        .mirror_tintin
                        .full_recheck(&mut self.mirror_db, &self.mirror_inst)
                        .map_err(|e| self.fail(step, format!("mirror full recheck failed: {e}")))?;
                    if out.committed {
                        return Err(self.fail(
                            step,
                            "verdict divergence: incremental check rejected a commit the \
                             full recheck accepts"
                                .to_string(),
                        ));
                    }
                }
                let after = self.dump_shared(step)?;
                if after != before {
                    return Err(self.fail(
                        step,
                        format!("rejected commit left a trace\nbefore:\n{before}\nafter:\n{after}"),
                    ));
                }
            }
            Decided::Conflict | Decided::Aborted => {
                // Conflicted and aborted commits must be trace-free too.
                let after = self.dump_shared(step)?;
                if after != before {
                    return Err(self.fail(
                        step,
                        format!(
                            "{} commit left a trace (torn rollback)\nbefore:\n{before}\nafter:\n{after}",
                            decided.label()
                        ),
                    ));
                }
            }
        }
        self.check_conservation(step)?;
        self.check_mvcc(step)
    }

    /// `attempts == commits + rejects + conflicts + errors`, and every
    /// counter equals the scheduler's independent tally.
    fn check_conservation(&self, step: usize) -> Result<(), SimFailure> {
        let m = self.server.metrics_snapshot();
        let got = Tally {
            attempts: m.counter("tintin_commit_attempts_total").unwrap_or(0),
            commits: m.counter("tintin_commits_total").unwrap_or(0),
            rejects: m.counter("tintin_commit_rejects_total").unwrap_or(0),
            conflicts: m.counter("tintin_commit_conflicts_total").unwrap_or(0),
            errors: m.counter("tintin_commit_errors_total").unwrap_or(0),
        };
        if got != self.tally {
            return Err(self.fail(
                step,
                format!(
                    "outcome-counter divergence: server reports {got:?}, scheduler tallied {:?}",
                    self.tally
                ),
            ));
        }
        if got.attempts != got.commits + got.rejects + got.conflicts + got.errors {
            return Err(self.fail(step, format!("conservation violated: {got:?}")));
        }
        Ok(())
    }

    /// MVCC accounting: live versions equal visible rows, table by table
    /// in aggregate.
    fn check_mvcc(&self, step: usize) -> Result<(), SimFailure> {
        let db = self.server.database().read();
        let stats = db.mvcc_stats();
        let visible: usize = db
            .table_names()
            .iter()
            .filter_map(|n| db.table(n))
            .map(|t| t.len())
            .sum();
        if stats.live_versions != visible {
            return Err(self.fail(
                step,
                format!(
                    "MVCC accounting divergence: {} live versions but {visible} visible rows",
                    stats.live_versions
                ),
            ));
        }
        Ok(())
    }

    /// Replay the accepted history, from scratch, into a fresh database —
    /// every accepted overlay must pass a full recheck again, and the end
    /// state must match the shared server's published state.
    fn check_fresh_replay(&self, step: usize) -> Result<(), SimFailure> {
        let mut db = Database::new();
        let tintin = Tintin::new();
        build_base(&mut db, self.wl).map_err(|e| self.fail(step, e))?;
        let texts: Vec<&str> = self.assertion_texts.iter().map(String::as_str).collect();
        let inst = tintin
            .install(&mut db, &texts)
            .map_err(|e| self.fail(step, format!("replay install failed: {e}")))?;
        for (i, ov) in self.accepted.iter().enumerate() {
            db.stage_overlay(ov.clone(), 0)
                .map_err(|e| self.fail(step, format!("replay staging failed: {e}")))?;
            let out = tintin
                .full_recheck(&mut db, &inst)
                .map_err(|e| self.fail(step, format!("replay full recheck failed: {e}")))?;
            if !out.committed {
                return Err(self.fail(step, format!("fresh replay rejected accepted commit #{i}")));
            }
        }
        let replayed = dump_db(&db, &self.tables).map_err(|e| self.fail(step, e))?;
        let shared = self.dump_shared(step)?;
        if replayed != shared {
            return Err(self.fail(
                step,
                format!(
                    "fresh replay diverged from published state\nshared:\n{shared}\nreplay:\n{replayed}"
                ),
            ));
        }
        Ok(())
    }

    /// Run one commit on `sess` (already known to be in a transaction),
    /// with `plan` armed in the hook, and feed the outcome through the
    /// oracle. Returns the trace label.
    fn commit_with_plan(
        &mut self,
        step: usize,
        sess_idx: usize,
        plan: CommitPlan,
    ) -> Result<String, SimFailure> {
        let overlay = self.workers[sess_idx].pending_overlay().unwrap_or_default();
        let before = self.dump_shared(step)?;
        {
            let mut sh = lock(&self.hook_state);
            sh.plan = plan;
            sh.armed = true;
            sh.published_baseline = plan.probe_staged.then(|| before.clone());
        }
        let res = self.workers[sess_idx].commit();
        {
            let mut sh = lock(&self.hook_state);
            sh.armed = false;
            sh.published_baseline = None;
        }
        self.finish_commit(step, res, &overlay, &before)
    }

    /// Tally + oracle for a commit result obtained without an armed plan
    /// (autocommit DML and the forced-conflict choreography go through
    /// here as well).
    fn finish_commit(
        &mut self,
        step: usize,
        res: Result<StatementOutcome, SessionError>,
        overlay: &TxOverlay,
        before: &str,
    ) -> Result<String, SimFailure> {
        let Some(decided) = classify(&res) else {
            let msg = match res {
                Ok(out) => format!("unexpected commit outcome: {out:?}"),
                Err(e) => format!("unexpected commit error: {e}"),
            };
            return Err(self.fail(step, msg));
        };
        match decided {
            Decided::Committed { .. } => {
                self.tally.attempts += 1;
                self.tally.commits += 1;
            }
            Decided::Rejected { .. } => {
                self.tally.attempts += 1;
                self.tally.rejects += 1;
            }
            Decided::Conflict => {
                self.tally.attempts += 1;
                self.tally.conflicts += 1;
            }
            Decided::Aborted => {
                self.tally.attempts += 1;
                self.tally.errors += 1;
            }
        }
        self.oracle_after_commit(step, decided, overlay, before)?;
        Ok(decided.label())
    }

    /// A DML statement on a worker session: pending inside a transaction,
    /// a full phased commit (with mirror-plan discrimination) outside one.
    fn run_dml(&mut self, step: usize, sess_idx: usize, text: &str) -> Result<String, SimFailure> {
        let stmt = sql::parse_statement(text)
            .map_err(|e| self.fail(step, format!("generated DML failed to parse: {e}")))?;
        if self.workers[sess_idx].in_transaction() {
            return Ok(match self.workers[sess_idx].execute_statement(&stmt) {
                Ok(StatementOutcome::RowsAffected(n)) => format!("rows={n}"),
                Ok(out) => {
                    return Err(self.fail(step, format!("unexpected in-tx DML outcome: {out:?}")))
                }
                Err(e) => format!("err:{e}"),
            });
        }
        // Autocommit: plan the same statement against the mirror first.
        // The mirror's plan verdict discriminates a *plan* error (which
        // never reaches the commit path and counts no attempt) from a
        // commit-path outcome (which always counts one).
        let mirror_plan = self.mirror_db.plan_dml(&stmt, &TxOverlay::new(), TS_LATEST);
        let before = self.dump_shared(step)?;
        let res = self.workers[sess_idx].execute_statement(&stmt);
        match mirror_plan {
            Ok(delta) => {
                let mut overlay = TxOverlay::new();
                overlay.apply_delta(delta);
                self.finish_commit(step, res, &overlay, &before)
            }
            Err(me) => match res {
                // Plan error on both sides: no attempt was counted. The
                // two must agree on what went wrong.
                Err(e) => {
                    let (se, sm) = (e.to_string(), me.to_string());
                    if sm != se {
                        return Err(self.fail(
                            step,
                            format!("plan-error divergence: shared '{se}', mirror '{sm}'"),
                        ));
                    }
                    self.check_conservation(step)?;
                    Ok(format!("err:{se}"))
                }
                Ok(out) => Err(self.fail(
                    step,
                    format!("plan divergence: shared produced {out:?}, mirror errored '{me}'"),
                )),
            },
        }
    }

    /// The forced-conflict choreography on the two dedicated sessions:
    /// both open snapshots, both update the same `t0` row, the first
    /// commits, and — when the first actually changed the row the second
    /// staged against — the second MUST lose with a serialization
    /// conflict.
    fn run_forced_conflict(&mut self, step: usize, k: i64) -> Result<String, SimFailure> {
        let update = format!("UPDATE t0 SET a = a + 1 WHERE k = {k}");
        let stmt = sql::parse_statement(&update)
            .map_err(|e| self.fail(step, format!("conflict DML failed to parse: {e}")))?;
        self.fa
            .begin()
            .map_err(|e| self.fail(step, format!("fa BEGIN failed: {e}")))?;
        self.fb
            .begin()
            .map_err(|e| self.fail(step, format!("fb BEGIN failed: {e}")))?;
        self.fa
            .execute_statement(&stmt)
            .map_err(|e| self.fail(step, format!("fa UPDATE failed: {e}")))?;
        self.fb
            .execute_statement(&stmt)
            .map_err(|e| self.fail(step, format!("fb UPDATE failed: {e}")))?;

        let ov_a = self.fa.pending_overlay().unwrap_or_default();
        let before_a = self.dump_shared(step)?;
        let res_a = self.fa.commit();
        let a_deleted = matches!(
            &res_a,
            Ok(StatementOutcome::Committed { deleted, .. }) if *deleted > 0
        );
        let label_a = self.finish_commit(step, res_a, &ov_a, &before_a)?;

        let ov_b = self.fb.pending_overlay().unwrap_or_default();
        let before_b = self.dump_shared(step)?;
        let res_b = self.fb.commit();
        let b_conflicted = matches!(&res_b, Err(SessionError::SerializationConflict { .. }));
        let label_b = self.finish_commit(step, res_b, &ov_b, &before_b)?;

        if a_deleted && !ov_b.is_empty() && !b_conflicted {
            return Err(self.fail(
                step,
                format!(
                    "expected a serialization conflict: first committer replaced t0 k={k} \
                     after the second staged against it, but the second ended '{label_b}'"
                ),
            ));
        }
        Ok(format!("a={label_a} b={label_b}"))
    }

    /// Pin reader `i`: open a transaction (registering its snapshot) and
    /// record the dump it sees as the stability baseline.
    fn pin_reader(&mut self, step: usize, i: usize) -> Result<String, SimFailure> {
        {
            let mut r = lock(&self.readers[i]);
            r.begin()
                .map_err(|e| self.fail(step, format!("reader BEGIN failed: {e}")))?;
        }
        let dump =
            dump_via(&lock(&self.readers[i]), &self.tables).map_err(|e| self.fail(step, e))?;
        lock(&self.hook_state).reader_baselines[i] = Some(dump);
        self.pinned[i] = true;
        Ok("pinned".to_string())
    }

    /// Unpin reader `i`: its view must still match the pin-time baseline
    /// (snapshot stability across every commit since), then release.
    fn unpin_reader(&mut self, step: usize, i: usize) -> Result<String, SimFailure> {
        let baseline = lock(&self.hook_state).reader_baselines[i].take();
        let dump =
            dump_via(&lock(&self.readers[i]), &self.tables).map_err(|e| self.fail(step, e))?;
        if let Some(base) = baseline {
            if dump != base {
                return Err(self.fail(
                    step,
                    format!("pinned snapshot drifted\nat pin:\n{base}\nat unpin:\n{dump}"),
                ));
            }
        }
        lock(&self.readers[i])
            .rollback()
            .map_err(|e| self.fail(step, format!("reader ROLLBACK failed: {e}")))?;
        self.pinned[i] = false;
        Ok("unpinned".to_string())
    }

    /// Execute one step intent; returns its trace result token.
    fn run_step(&mut self, step: usize, sess_idx: usize, op: &Op) -> Result<String, SimFailure> {
        match op {
            Op::Begin => {
                if self.workers[sess_idx].in_transaction() {
                    return Ok("skip".to_string());
                }
                self.workers[sess_idx]
                    .begin()
                    .map_err(|e| self.fail(step, format!("BEGIN failed: {e}")))?;
                Ok("ok".to_string())
            }
            Op::Insert { table, k, g, a } => {
                let t = &self.wl.schema.tables[*table];
                let text = format!("INSERT INTO {t} VALUES ({k}, {g}, {a})");
                self.run_dml(step, sess_idx, &text)
            }
            Op::InsertChild { k, fk } => {
                if !self.wl.schema.child {
                    return Ok("skip".to_string());
                }
                let text = format!("INSERT INTO c0 VALUES ({k}, {fk})");
                self.run_dml(step, sess_idx, &text)
            }
            Op::Update { table, k, delta } => {
                let t = &self.wl.schema.tables[*table];
                let expr = if *delta >= 0 {
                    format!("a + {delta}")
                } else {
                    format!("a - {}", -delta)
                };
                let text = format!("UPDATE {t} SET a = {expr} WHERE k = {k}");
                self.run_dml(step, sess_idx, &text)
            }
            Op::Delete { table, k } => {
                let t = &self.wl.schema.tables[*table];
                let text = format!("DELETE FROM {t} WHERE k = {k}");
                self.run_dml(step, sess_idx, &text)
            }
            Op::Savepoint { name } => {
                let sp = crate::gen::SAVEPOINTS[*name];
                let live = self.workers[sess_idx].in_transaction()
                    && !self.workers[sess_idx].savepoints().iter().any(|n| n == sp);
                if !live {
                    return Ok("skip".to_string());
                }
                self.workers[sess_idx]
                    .savepoint(sp)
                    .map_err(|e| self.fail(step, format!("SAVEPOINT failed: {e}")))?;
                Ok("ok".to_string())
            }
            Op::RollbackTo { name } => {
                let sp = crate::gen::SAVEPOINTS[*name];
                if !self.workers[sess_idx].savepoints().iter().any(|n| n == sp) {
                    return Ok("skip".to_string());
                }
                self.workers[sess_idx]
                    .rollback_to(sp)
                    .map_err(|e| self.fail(step, format!("ROLLBACK TO failed: {e}")))?;
                Ok("ok".to_string())
            }
            Op::Release { name } => {
                let sp = crate::gen::SAVEPOINTS[*name];
                if !self.workers[sess_idx].savepoints().iter().any(|n| n == sp) {
                    return Ok("skip".to_string());
                }
                self.workers[sess_idx]
                    .release(sp)
                    .map_err(|e| self.fail(step, format!("RELEASE failed: {e}")))?;
                Ok("ok".to_string())
            }
            Op::Rollback => {
                if !self.workers[sess_idx].in_transaction() {
                    return Ok("skip".to_string());
                }
                self.workers[sess_idx]
                    .rollback()
                    .map_err(|e| self.fail(step, format!("ROLLBACK failed: {e}")))?;
                Ok("ok".to_string())
            }
            Op::Commit(plan) => {
                if !self.workers[sess_idx].in_transaction() {
                    return Ok("skip".to_string());
                }
                self.commit_with_plan(step, sess_idx, *plan)
            }
            Op::PinReader { reader } => {
                if self.pinned[*reader] {
                    return Ok("skip".to_string());
                }
                self.pin_reader(step, *reader)
            }
            Op::UnpinReader { reader } => {
                if !self.pinned[*reader] {
                    return Ok("skip".to_string());
                }
                self.unpin_reader(step, *reader)
            }
            Op::ForcedConflict { k } => self.run_forced_conflict(step, *k),
            Op::Gc => {
                let sd = self.server.database().clone();
                let mut db = sd.write();
                let horizon = sd.gc_horizon(db.current_ts());
                let pruned = db.gc_versions(horizon);
                drop(db);
                Ok(format!("pruned={pruned}"))
            }
        }
    }

    /// End-of-run battery: unwind every open transaction and pin, run a
    /// final GC at the honest horizon, and check the terminal invariants.
    fn final_checks(&mut self) -> Result<(), SimFailure> {
        let end = self.wl.steps.len();
        for i in 0..self.readers.len() {
            if self.pinned[i] {
                self.unpin_reader(end, i)?;
            }
        }
        for i in 0..self.workers.len() {
            if self.workers[i].in_transaction() {
                self.workers[i]
                    .rollback()
                    .map_err(|e| self.fail(end, format!("final rollback failed: {e}")))?;
            }
        }
        // Final GC: nothing pins the horizon anymore, so every dead
        // version must be reclaimable.
        {
            let sd = self.server.database().clone();
            let mut db = sd.write();
            let horizon = sd.gc_horizon(db.current_ts());
            db.gc_versions(horizon);
            let stats = db.mvcc_stats();
            if stats.dead_versions != 0 {
                let n = stats.dead_versions;
                drop(db);
                return Err(self.fail(end, format!("{n} dead versions survived a full-horizon GC")));
            }
        }
        // The published state must satisfy every installed assertion.
        {
            let db = self.server.database().read();
            let checker = self.server.checker();
            for inst in self.server.installations() {
                let bad: Vec<(String, usize)> = checker
                    .check_current_state(&db, &inst)
                    .map_err(|e| self.fail(end, format!("final state check failed: {e}")))?
                    .into_iter()
                    .filter(|(_, n)| *n > 0)
                    .collect();
                if !bad.is_empty() {
                    return Err(self.fail(
                        end,
                        format!("final state violates installed assertions: {bad:?}"),
                    ));
                }
            }
        }
        self.check_conservation(end)?;
        self.check_mvcc(end)?;
        self.check_fresh_replay(end)
    }
}

/// Create a database with the workload's tables and seed rows (used for
/// the shared server, the mirror, and every fresh replay — they must all
/// start from the identical state).
fn build_base(db: &mut Database, wl: &Workload) -> Result<(), String> {
    for ddl in &wl.schema.ddl {
        db.execute_sql(ddl)
            .map_err(|e| format!("DDL failed: {e}"))?;
    }
    for (ti, k, g, a) in &wl.seed_rows {
        let t = &wl.schema.tables[*ti];
        db.insert_direct(
            t,
            vec![vec![Value::Int(*k), Value::Int(*g), Value::Int(*a)]],
        )
        .map_err(|e| format!("seeding {t} failed: {e}"))?;
    }
    Ok(())
}

/// Build the commit-phase hook: mutant injection, armed-plan aborts, and
/// mid-commit read probes. The hook must never panic — probe failures are
/// recorded as issues for the scheduler to drain.
fn make_hook(
    state: SharedHookState,
    db: tintin_engine::SharedDatabase,
    probe: Arc<Mutex<Session>>,
    readers: Vec<Arc<Mutex<Session>>>,
    tables: Vec<String>,
) -> tintin_session::CommitHook {
    Arc::new(move |_sid, phase| {
        let mut sh = lock(&state);
        match (sh.mutant, phase) {
            (Mutant::SkipStagedEvents, CommitPhase::Staged) => {
                let mut db = db.write();
                let staged = db.touched_event_tables();
                db.truncate_events(&staged);
            }
            (Mutant::GhostWrite, CommitPhase::Published) => {
                sh.seq += 1;
                let k = 100_000 + sh.seq;
                let _ = db.write().insert_direct(
                    &tables[0],
                    vec![vec![Value::Int(k), Value::Int(0), Value::Int(-1)]],
                );
            }
            (Mutant::TornAbort, CommitPhase::Staged) => {
                sh.seq += 1;
                let k = 200_000 + sh.seq;
                let _ = db.write().insert_direct(
                    &tables[0],
                    vec![vec![Value::Int(k), Value::Int(0), Value::Int(0)]],
                );
                return HookAction::Abort;
            }
            _ => {}
        }
        let armed = sh.armed;
        let plan = sh.plan;
        if armed && phase == CommitPhase::Staged && plan.probe_staged {
            // Staged events carry an unpublished timestamp: the published
            // clock must still see the pre-commit state.
            if let Some(base) = sh.published_baseline.clone() {
                match dump_via(&lock(&probe), &tables) {
                    Ok(now) if now != base => sh.issues.push(format!(
                        "staged events visible at the published clock\nbefore:\n{base}\nmid-commit:\n{now}"
                    )),
                    Ok(_) => {}
                    Err(e) => sh.issues.push(format!("mid-commit probe failed: {e}")),
                }
            }
        }
        if armed
            && ((phase == CommitPhase::Staged && plan.probe_staged)
                || (phase == CommitPhase::Checked && plan.probe_checked))
        {
            // Pinned reader snapshots must be stable mid-commit.
            let baselines: Vec<(usize, String)> = sh
                .reader_baselines
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.clone().map(|b| (i, b)))
                .collect();
            for (i, base) in baselines {
                match dump_via(&lock(&readers[i]), &tables) {
                    Ok(now) if now != base => sh.issues.push(format!(
                        "reader {i} snapshot drifted mid-commit ({phase:?})\nat pin:\n{base}\nnow:\n{now}"
                    )),
                    Ok(_) => {}
                    Err(e) => sh.issues.push(format!("reader {i} mid-commit probe failed: {e}")),
                }
            }
        }
        if armed {
            match (phase, plan.abort_at) {
                (CommitPhase::Staged, Some(AbortPoint::Staged))
                | (CommitPhase::Checked, Some(AbortPoint::Checked)) => return HookAction::Abort,
                _ => {}
            }
        }
        HookAction::Continue
    })
}

/// Run `wl` under the differential oracle. `keep`, when given, is a
/// per-step mask: steps whose entry is `false` are dropped entirely (the
/// shrinker's coordinate system).
pub fn run_workload(
    wl: &Workload,
    keep: Option<&[bool]>,
    cfg: &SimConfig,
) -> Result<SimReport, SimFailure> {
    let fail0 = |message: String| SimFailure {
        seed: cfg.seed,
        step: 0,
        message,
        trace: Vec::new(),
    };

    // --- shared server ---------------------------------------------------
    // The checker configuration is where the analysis switch and the
    // over-prune mutant live: both corrupt (or vary) what `install`
    // produces, not the commit path, so they are wired in at construction
    // rather than through the commit-phase hook. The mirror below always
    // uses the default checker — `full_recheck` evaluates the original
    // assertion queries, so it is immune to install-time pruning either
    // way and stays the trusted side of the differential.
    let mut tintin_cfg = tintin::TintinConfig::default();
    tintin_cfg.edc.analysis = cfg.analysis;
    tintin_cfg.edc.over_prune = cfg.mutant == Mutant::OverPrune;
    let server =
        Server::with_database_and_checker(Database::new(), Tintin::with_config(tintin_cfg));
    let mut setup = server.connect();
    {
        let mut db = server.database().write();
        build_base(&mut db, wl).map_err(fail0)?;
    }
    let assertion_texts: Vec<String> = wl
        .schema
        .assertions
        .iter()
        .map(|(_, ddl)| ddl.clone())
        .collect();
    let text_refs: Vec<&str> = assertion_texts.iter().map(String::as_str).collect();
    setup
        .install(&text_refs)
        .map_err(|e| fail0(format!("install failed: {e}")))?;

    // --- mirror ----------------------------------------------------------
    let mut mirror_db = Database::new();
    let mirror_tintin = Tintin::new();
    build_base(&mut mirror_db, wl).map_err(fail0)?;
    let mirror_inst = mirror_tintin
        .install(&mut mirror_db, &text_refs)
        .map_err(|e| fail0(format!("mirror install failed: {e}")))?;

    // --- sessions + hook --------------------------------------------------
    let mut tables = wl.schema.tables.clone();
    if wl.schema.child {
        tables.push("c0".to_string());
    }
    let workers: Vec<Session> = (0..cfg.sessions.max(1)).map(|_| server.connect()).collect();
    let readers: Vec<Arc<Mutex<Session>>> = (0..wl.readers)
        .map(|_| Arc::new(Mutex::new(server.connect())))
        .collect();
    let probe = Arc::new(Mutex::new(server.connect()));
    let fa = server.connect();
    let fb = server.connect();
    let hook_state: SharedHookState = Arc::new(Mutex::new(HookShared {
        plan: CommitPlan::default(),
        armed: false,
        mutant: cfg.mutant,
        seq: 0,
        issues: Vec::new(),
        published_baseline: None,
        reader_baselines: vec![None; wl.readers],
    }));
    server.set_commit_hook(make_hook(
        Arc::clone(&hook_state),
        server.database().clone(),
        Arc::clone(&probe),
        readers.clone(),
        tables.clone(),
    ));

    let mut sim = Sim {
        cfg,
        wl,
        server,
        workers,
        readers,
        pinned: vec![false; wl.readers],
        fa,
        fb,
        probe,
        hook_state,
        tables,
        assertion_texts,
        mirror_db,
        mirror_tintin,
        mirror_inst,
        accepted: Vec::new(),
        accepted_since_replay: 0,
        tally: Tally::default(),
        trace: Vec::new(),
        steps_run: 0,
    };

    // --- the schedule -----------------------------------------------------
    for (i, step) in wl.steps.iter().enumerate() {
        if let Some(mask) = keep {
            if !mask.get(i).copied().unwrap_or(true) {
                continue;
            }
        }
        let sess = step.session % sim.workers.len();
        let result = sim.run_step(i, sess, &step.op)?;
        sim.trace
            .push(format!("#{i} s{sess} {} -> {result}", op_label(&step.op)));
        sim.steps_run += 1;
    }

    sim.final_checks()?;
    let final_dump = sim.dump_shared(wl.steps.len())?;
    sim.server.clear_commit_hook();
    Ok(SimReport {
        seed: cfg.seed,
        steps_run: sim.steps_run,
        tally: sim.tally,
        state_hash: fnv1a(final_dump.as_bytes()),
        trace: sim.trace,
    })
}
