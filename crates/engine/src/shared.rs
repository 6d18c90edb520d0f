//! The shared-database handle: one [`Database`], many concurrent clients.
//!
//! [`SharedDatabase`] is a cheaply clonable handle that lets any number of
//! sessions attach to the same database. Since the MVCC redesign the
//! protocol is *snapshot-based*, not reader-excluding:
//!
//! * **reads** execute against the row versions visible at a snapshot
//!   timestamp — either the latest committed state (autocommit reads) or the
//!   transaction's `BEGIN`-time snapshot ([`SharedDatabase::begin_snapshot`]).
//!   They take the shared read lock only to access the catalog and table
//!   memory safely; that lock is *also held by a committing session during
//!   its expensive check phase*, so readers and in-flight checked commits
//!   run concurrently. Version visibility — never the lock — is what keeps
//!   a reader's state consistent;
//! * **commits** serialize among themselves on the commit lock
//!   ([`SharedDatabase::commit_guard`]) and take the exclusive write lock
//!   only for the two short bookkeeping phases on either side of the check:
//!   conflict-detect/stage/normalize before it, version-stamp/publish/GC
//!   after it. Both are O(update size), so readers stall at most for an
//!   update-sized bookkeeping window, never for the whole check;
//! * **DDL** (and assertion installation) briefly takes both the commit
//!   lock and the write lock: a schema change may not interleave with the
//!   unlocked middle of a phased commit.
//!
//! Between statements a session holds no lock at all; a transaction's
//! pending update lives in its private [`TxOverlay`](crate::TxOverlay), and
//! its reads are pinned to the snapshot it captured at `BEGIN` — repeated
//! `SELECT`s inside a transaction return identical results even while other
//! sessions commit.
//!
//! Old versions are pruned by garbage collection
//! ([`Database::gc_versions`] / [`Database::maybe_gc`]) once no live
//! snapshot can see them; the registry of live snapshots behind
//! [`SharedDatabase::begin_snapshot`] supplies the horizon
//! ([`SharedDatabase::gc_horizon`]).
//!
//! Lock poisoning is deliberately recovered from ([`PoisonError::into_inner`]):
//! every multi-step mutation in the engine either completes or compensates
//! (self-compensating statements, version un-stamping, rollback-on-error
//! installs), and the commit path truncates the event tables on any
//! failure — so the database a panicking thread leaves behind is still
//! structurally consistent.

use crate::database::Database;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Refcounted registry of live snapshot timestamps (several transactions
/// may share a timestamp).
type SnapshotRegistry = Mutex<BTreeMap<u64, usize>>;

/// A thread-safe, cloneable handle to one shared [`Database`].
///
/// Cloning the handle shares the database; use [`SharedDatabase::snapshot`]
/// for an independent deep copy. See the [module docs](self) for the
/// locking protocol.
///
/// # Example
///
/// ```
/// use tintin_engine::{Database, SharedDatabase};
///
/// let shared = SharedDatabase::new();
/// shared
///     .write()
///     .execute_sql("CREATE TABLE t (a INT PRIMARY KEY); INSERT INTO t VALUES (1);")
///     .unwrap();
///
/// // Another handle to the same database observes the insert.
/// let other = shared.clone();
/// assert_eq!(other.read().table("t").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
    /// Serializes committers (and DDL) without excluding readers: held
    /// across the whole phased commit, while the rwlock is only taken for
    /// the short bookkeeping phases.
    commit_lock: Arc<Mutex<()>>,
    /// Live snapshot timestamps with refcounts — the GC horizon.
    snapshots: Arc<SnapshotRegistry>,
}

/// A registered `BEGIN`-time snapshot: the commit timestamp whose row
/// versions the owning transaction observes. While the value is alive,
/// garbage collection will not prune any version the snapshot can still
/// see; dropping it releases the claim.
#[derive(Debug)]
pub struct Snapshot {
    ts: u64,
    registry: Arc<SnapshotRegistry>,
}

impl Snapshot {
    /// The commit timestamp this snapshot pins.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        let mut reg = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        *reg.entry(self.ts).or_insert(0) += 1;
        Snapshot {
            ts: self.ts,
            registry: self.registry.clone(),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut reg = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(n) = reg.get_mut(&self.ts) {
            *n -= 1;
            if *n == 0 {
                reg.remove(&self.ts);
            }
        }
    }
}

impl SharedDatabase {
    /// A shared handle over a fresh, empty database.
    pub fn new() -> Self {
        SharedDatabase::default()
    }

    /// Wrap an existing database into a shared handle, taking ownership.
    pub fn from_database(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(RwLock::new(db)),
            ..SharedDatabase::default()
        }
    }

    /// Acquire the shared read lock. Readers share it with each other *and*
    /// with the check phase of an in-flight commit; only the short
    /// bookkeeping phases of a commit (and DDL) exclude them.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive write lock (DDL, bulk loads, and the
    /// bookkeeping phases of a commit).
    pub fn write(&self) -> RwLockWriteGuard<'_, Database> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the commit lock, serializing this caller against every
    /// other committer and DDL statement. Hold it across a multi-phase
    /// critical section whose rwlock acquisitions are interleaved with
    /// unlocked (or read-locked) stretches.
    pub fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a `BEGIN`-time snapshot of the latest committed state. The
    /// returned [`Snapshot`] pins its versions against garbage collection
    /// until dropped.
    pub fn begin_snapshot(&self) -> Snapshot {
        // Lock order: registry inside the read lock — the timestamp must be
        // registered before the read guard drops, or a commit+GC could slip
        // between reading the clock and registering it.
        let db = self.read();
        let ts = db.current_ts();
        let mut reg = self
            .snapshots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *reg.entry(ts).or_insert(0) += 1;
        drop(db);
        Snapshot {
            ts,
            registry: self.snapshots.clone(),
        }
    }

    /// Number of live `BEGIN`-time snapshots currently pinned (summing the
    /// refcounts of every registered timestamp). An observability-oriented
    /// companion to [`SharedDatabase::oldest_snapshot`]: it answers "how
    /// many open transactions are holding the GC horizon back".
    pub fn live_snapshots(&self) -> usize {
        self.snapshots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .sum()
    }

    /// The oldest live snapshot timestamp, if any transaction holds one.
    pub fn oldest_snapshot(&self) -> Option<u64> {
        self.snapshots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .next()
            .copied()
    }

    /// The garbage-collection horizon as of commit timestamp `current`:
    /// versions dead at or before it are invisible to every live snapshot
    /// and every future one, so [`Database::gc_versions`] may prune them.
    pub fn gc_horizon(&self, current: u64) -> u64 {
        self.oldest_snapshot().unwrap_or(current).min(current)
    }

    /// An independent deep copy of the current database state.
    pub fn snapshot(&self) -> Database {
        self.read().clone()
    }

    /// Number of live handles to this database (attached sessions plus any
    /// other clones).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Do two handles refer to the same underlying database?
    pub fn same_database(&self, other: &SharedDatabase) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl From<Database> for SharedDatabase {
    fn from(db: Database) -> Self {
        SharedDatabase::from_database(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole point of the handle: it must be shareable across threads.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_database_is_send_and_sync() {
        assert_send_sync::<SharedDatabase>();
        assert_send_sync::<Database>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn clones_share_state_snapshots_do_not() {
        let shared = SharedDatabase::new();
        shared
            .write()
            .execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        let clone = shared.clone();
        let snapshot = shared.snapshot();
        shared
            .write()
            .execute_sql("INSERT INTO t VALUES (1)")
            .unwrap();
        assert_eq!(clone.read().table("t").unwrap().len(), 1);
        assert_eq!(snapshot.table("t").unwrap().len(), 0);
        assert!(shared.same_database(&clone));
    }

    #[test]
    fn concurrent_readers_and_writers_serialize() {
        let shared = SharedDatabase::new();
        shared
            .write()
            .execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        let mut handles = Vec::new();
        for k in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    h.write()
                        .execute_sql(&format!("INSERT INTO t VALUES ({})", k * 25 + i))
                        .unwrap();
                    // Readers interleave freely with writers.
                    assert!(h.read().table("t").unwrap().len() <= 100);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.read().table("t").unwrap().len(), 100);
    }

    #[test]
    fn snapshot_registry_tracks_lifetimes() {
        let shared = SharedDatabase::new();
        assert_eq!(shared.oldest_snapshot(), None);
        assert_eq!(shared.live_snapshots(), 0);
        let s1 = shared.begin_snapshot();
        assert_eq!(s1.ts(), 0);
        assert_eq!(shared.oldest_snapshot(), Some(0));
        // A clone pins the same timestamp independently.
        let s2 = s1.clone();
        assert_eq!(shared.live_snapshots(), 2);
        drop(s1);
        assert_eq!(shared.oldest_snapshot(), Some(0));
        assert_eq!(shared.live_snapshots(), 1);
        drop(s2);
        assert_eq!(shared.oldest_snapshot(), None);
        assert_eq!(shared.live_snapshots(), 0);
        // With no snapshot open, the horizon is the current timestamp.
        assert_eq!(shared.gc_horizon(7), 7);
        let s3 = shared.begin_snapshot();
        assert_eq!(shared.gc_horizon(7), 0);
        drop(s3);
    }
}
