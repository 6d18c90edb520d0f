//! `tintin-wal` — durability for TINTIN: an append-only, CRC32-framed,
//! LSN-stamped write-ahead log with leader/follower group commit, plus the
//! checkpoint snapshot codec the recovery path pairs it with.
//!
//! # Log format
//!
//! The log is a flat sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = [kind: u8] [lsn: u64 LE] [body]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. LSNs start at 1 and increase
//! by exactly 1 per frame; a frame whose LSN repeats the previous one is a
//! duplicated tail (a retried write) and is skipped, while any other gap
//! means corruption. Recovery scans until the first incomplete frame,
//! CRC mismatch, undecodable payload, or LSN discontinuity, then truncates
//! the file to the last valid byte — a torn tail never poisons the prefix.
//!
//! # Group commit
//!
//! [`Wal::append`] runs under the caller's commit ordering (the session
//! layer appends while holding the commit lock, so log order equals
//! publish order), but [`Wal::sync`] is called *after* that lock is
//! released. Concurrent committers coalesce: the first becomes the fsync
//! leader and captures the current appended watermark, the rest wait on a
//! condvar; one `fdatasync` then makes every record up to the watermark
//! durable and wakes all of them. The durable LSN/byte watermarks are what
//! the crash simulator uses to decide which tail bytes a crash may lose.
//!
//! # Checkpoints
//!
//! A checkpoint is a single CRC-framed snapshot file (DDL log, assertion
//! install batches, base-table rows, commit clock, last contained LSN)
//! written temp-file → `fsync` → atomic rename, after which the log can be
//! truncated. Recovery = load checkpoint (if any) + replay the log tail
//! whose LSNs follow it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tintin_engine::{Row, Value, R64};
use tintin_obs::{Counter, Histogram, Registry};

/// Log sequence number. The first record of a database's history is LSN 1;
/// 0 is the "nothing durable yet" sentinel.
pub type Lsn = u64;

/// Frame header size: `len: u32` + `crc: u32`.
pub const FRAME_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// What can go wrong appending to or recovering a log.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error from the filesystem.
    Io(std::io::Error),
    /// A structurally invalid log or checkpoint (never produced by torn
    /// tails, which recovery truncates silently — this is for damage that
    /// cannot be attributed to a crash, like a corrupt checkpoint).
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> WalError {
    WalError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// crc32 (IEEE 802.3, reflected) — hand-rolled, the build has no crc crate
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            // Exact IEEE-754 bit pattern: recovery must rebuild the very
            // same R64, not a re-parsed approximation.
            out.push(2);
            out.extend_from_slice(&r.get().to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Row]) {
    put_u32(out, rows.len() as u32);
    for r in rows {
        put_row(out, r);
    }
}

fn put_strs(out: &mut Vec<u8>, ss: &[String]) {
    put_u32(out, ss.len() as u32);
    for s in ss {
        put_str(out, s);
    }
}

/// A bounds-checked little-endian reader over a byte slice.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("record body truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WalError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WalError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("record holds invalid utf-8"))
    }

    fn value(&mut self) -> Result<Value, WalError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Real(R64::new(f64::from_bits(self.u64()?)))),
            3 => Ok(Value::Str(self.str()?.into_boxed_str())),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    fn row(&mut self) -> Result<Row, WalError> {
        let n = self.u32()? as usize;
        let mut row = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row.into_boxed_slice())
    }

    fn rows(&mut self) -> Result<Vec<Row>, WalError> {
        let n = self.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rows.push(self.row()?);
        }
        Ok(rows)
    }

    fn strs(&mut self) -> Result<Vec<String>, WalError> {
        let n = self.u32()? as usize;
        let mut ss = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ss.push(self.str()?);
        }
        Ok(ss)
    }

    fn finish(self) -> Result<(), WalError> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes after record body"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// records
// ---------------------------------------------------------------------------

/// The normalized effects of one commit on one base table: the `ins_T` and
/// `del_T` event rows exactly as the committer staged them (so recovery
/// replays what the checker checked, phantoms impossible).
#[derive(Debug, Clone, PartialEq)]
pub struct TableEffects {
    /// Base-table name.
    pub table: String,
    /// Rows inserted (the normalized `ins_T` contents).
    pub ins: Vec<Row>,
    /// Rows deleted (the normalized `del_T` contents).
    pub del: Vec<Row>,
}

/// One durable event. Everything that mutates the published state or the
/// catalog is logged; rejected, conflicted and aborted commits never are.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A catalog statement executed outside the commit path (CREATE/DROP
    /// TABLE/VIEW/INDEX, capture toggles), stored as its SQL text.
    Ddl {
        /// The statement, re-executable verbatim.
        sql: String,
    },
    /// One `install` batch of assertions (their original SQL texts —
    /// recovery re-installs from source, rebuilding vio views and plans).
    Install {
        /// `CREATE ASSERTION …` texts, in install order.
        sqls: Vec<String>,
    },
    /// An assertion dropped by name.
    DropAssertion {
        /// The assertion name.
        name: String,
    },
    /// An acknowledged commit: its timestamp and normalized effects.
    Commit {
        /// The MVCC commit timestamp assigned by `next_commit_ts`.
        ts: u64,
        /// Per-table normalized effects, in touched order.
        effects: Vec<TableEffects>,
    },
}

const KIND_DDL: u8 = 1;
const KIND_INSTALL: u8 = 2;
const KIND_DROP_ASSERTION: u8 = 3;
const KIND_COMMIT: u8 = 4;

impl WalRecord {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Ddl { sql } => put_str(out, sql),
            WalRecord::Install { sqls } => put_strs(out, sqls),
            WalRecord::DropAssertion { name } => put_str(out, name),
            WalRecord::Commit { ts, effects } => {
                put_u64(out, *ts);
                put_u32(out, effects.len() as u32);
                for e in effects {
                    put_str(out, &e.table);
                    put_rows(out, &e.ins);
                    put_rows(out, &e.del);
                }
            }
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::Ddl { .. } => KIND_DDL,
            WalRecord::Install { .. } => KIND_INSTALL,
            WalRecord::DropAssertion { .. } => KIND_DROP_ASSERTION,
            WalRecord::Commit { .. } => KIND_COMMIT,
        }
    }

    fn decode(kind: u8, dec: &mut Dec<'_>) -> Result<WalRecord, WalError> {
        match kind {
            KIND_DDL => Ok(WalRecord::Ddl { sql: dec.str()? }),
            KIND_INSTALL => Ok(WalRecord::Install { sqls: dec.strs()? }),
            KIND_DROP_ASSERTION => Ok(WalRecord::DropAssertion { name: dec.str()? }),
            KIND_COMMIT => {
                let ts = dec.u64()?;
                let n = dec.u32()? as usize;
                let mut effects = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    effects.push(TableEffects {
                        table: dec.str()?,
                        ins: dec.rows()?,
                        del: dec.rows()?,
                    });
                }
                Ok(WalRecord::Commit { ts, effects })
            }
            t => Err(corrupt(format!("unknown record kind {t}"))),
        }
    }
}

/// Encode one complete frame (`[len][crc][payload]`) for `record` at `lsn`.
pub fn encode_frame(lsn: Lsn, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.push(record.kind());
    put_u64(&mut payload, lsn);
    record.encode_body(&mut payload);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// One frame found by [`scan`]: its LSN, decoded record, and the byte
/// range it occupies in the log (header included).
#[derive(Debug)]
pub struct ScannedFrame {
    /// The frame's LSN.
    pub lsn: Lsn,
    /// The decoded record.
    pub record: WalRecord,
    /// Byte range of the whole frame within the scanned buffer.
    pub span: Range<usize>,
}

/// Result of scanning a log image.
#[derive(Debug)]
pub struct ScanResult {
    /// Valid frames, in log order, duplicates skipped.
    pub frames: Vec<ScannedFrame>,
    /// Bytes of valid prefix; everything past this is a torn/corrupt tail.
    pub valid_end: usize,
    /// Exact-duplicate frames skipped (LSN repeated the previous frame's).
    pub duplicates_skipped: usize,
}

/// Scan a log image to the last valid frame. Never fails: damage ends the
/// scan, it does not error — the caller truncates to `valid_end`.
pub fn scan(bytes: &[u8]) -> ScanResult {
    let mut frames: Vec<ScannedFrame> = Vec::new();
    let mut duplicates_skipped = 0usize;
    let mut pos = 0usize;
    let mut prev_lsn: Lsn = 0;
    let mut valid_end = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len))
        else {
            break;
        };
        if end > bytes.len() {
            break; // partial frame: torn tail
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if crc32(payload) != crc {
            break; // bit rot or torn overwrite
        }
        let mut dec = Dec::new(payload);
        let Ok(kind) = dec.u8() else { break };
        let Ok(lsn) = dec.u64() else { break };
        let Ok(record) = WalRecord::decode(kind, &mut dec) else {
            break;
        };
        if dec.finish().is_err() {
            break;
        }
        if prev_lsn != 0 && lsn == prev_lsn {
            // A duplicated frame (retried append): skip, but keep scanning.
            duplicates_skipped += 1;
            pos = end;
            valid_end = end;
            continue;
        }
        if prev_lsn != 0 && lsn != prev_lsn + 1 {
            break; // LSN gap: a hole in history, nothing past it is trusted
        }
        frames.push(ScannedFrame {
            lsn,
            record,
            span: pos..end,
        });
        prev_lsn = lsn;
        pos = end;
        valid_end = end;
    }
    ScanResult {
        frames,
        valid_end,
        duplicates_skipped,
    }
}

// ---------------------------------------------------------------------------
// the log
// ---------------------------------------------------------------------------

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Appender {
    file: File,
    next_lsn: Lsn,
    size: u64,
}

#[derive(Default)]
struct SyncState {
    appended_lsn: Lsn,
    appended_size: u64,
    durable_lsn: Lsn,
    durable_size: u64,
    syncing: bool,
}

struct WalMetrics {
    records: Arc<Counter>,
    bytes_appended: Arc<Counter>,
    fsyncs: Arc<Counter>,
    fsync_seconds: Arc<Histogram>,
    group_batch: Arc<Histogram>,
}

impl WalMetrics {
    fn new(registry: &Registry) -> Self {
        WalMetrics {
            records: registry.counter("tintin_wal_records"),
            bytes_appended: registry.counter("tintin_wal_bytes_appended"),
            fsyncs: registry.counter("tintin_wal_fsyncs"),
            fsync_seconds: registry.histogram("tintin_wal_fsync_seconds"),
            group_batch: registry.histogram("tintin_wal_group_batch_records"),
        }
    }
}

/// What [`Wal::open`] recovered from an existing log file.
#[derive(Debug)]
pub struct WalRecovery {
    /// Valid records in log order (duplicated frames already skipped).
    pub records: Vec<(Lsn, WalRecord)>,
    /// LSN of the last valid record (0 for an empty/absent log).
    pub last_lsn: Lsn,
    /// Torn/corrupt tail bytes truncated off the file.
    pub truncated_bytes: u64,
    /// Exact-duplicate frames skipped during the scan.
    pub duplicates_skipped: usize,
}

/// The append-only log. `append` is serialized by an internal lock (the
/// session layer additionally orders appends under its commit lock);
/// `sync` group-commits: concurrent callers share one `fdatasync`.
pub struct Wal {
    path: PathBuf,
    appender: Mutex<Appender>,
    /// A dup of the log fd used only for `fdatasync`, so the leader's
    /// fsync never blocks concurrent appends.
    sync_file: File,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    fsync_enabled: AtomicBool,
    metrics: WalMetrics,
}

impl Wal {
    /// Open (or create) the log at `path`, recovering its valid prefix:
    /// scan to the last complete record, truncate any torn tail, and
    /// position the appender after it. Metrics register into `registry`.
    pub fn open(path: &Path, registry: &Registry) -> Result<(Wal, WalRecovery), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan(&bytes);
        let truncated_bytes = (bytes.len() - scan.valid_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(scan.valid_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_end as u64))?;
        let last_lsn = scan.frames.last().map_or(0, |f| f.lsn);
        let sync_file = file.try_clone()?;
        let size = scan.valid_end as u64;
        let wal = Wal {
            path: path.to_path_buf(),
            appender: Mutex::new(Appender {
                file,
                next_lsn: last_lsn + 1,
                size,
            }),
            sync_file,
            sync_state: Mutex::new(SyncState {
                appended_lsn: last_lsn,
                appended_size: size,
                durable_lsn: last_lsn,
                durable_size: size,
                syncing: false,
            }),
            sync_cv: Condvar::new(),
            fsync_enabled: AtomicBool::new(true),
            metrics: WalMetrics::new(registry),
        };
        let records = scan.frames.into_iter().map(|f| (f.lsn, f.record)).collect();
        Ok((
            wal,
            WalRecovery {
                records,
                last_lsn,
                truncated_bytes,
                duplicates_skipped: scan.duplicates_skipped,
            },
        ))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Turn `fdatasync` on or off. With it off, [`Wal::sync`] returns
    /// immediately and the durable watermark stays put: appended records
    /// are honestly *not* durable (the fsync-off bench mode, and the
    /// `skip-fsync` mutant's lie when the harness believes fsync is on).
    pub fn set_fsync(&self, enabled: bool) {
        self.fsync_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is `fdatasync` on?
    pub fn fsync_on(&self) -> bool {
        self.fsync_enabled.load(Ordering::Relaxed)
    }

    /// Append one record, assigning it the next LSN. The bytes reach the
    /// OS before this returns, but are not durable until a [`Wal::sync`]
    /// covering the returned LSN completes.
    pub fn append(&self, record: &WalRecord) -> Result<Lsn, WalError> {
        let mut ap = lock(&self.appender);
        let lsn = ap.next_lsn;
        let frame = encode_frame(lsn, record);
        ap.file.write_all(&frame)?;
        ap.next_lsn += 1;
        ap.size += frame.len() as u64;
        let size = ap.size;
        drop(ap);
        {
            let mut st = lock(&self.sync_state);
            st.appended_lsn = st.appended_lsn.max(lsn);
            st.appended_size = st.appended_size.max(size);
        }
        self.metrics.records.inc();
        self.metrics.bytes_appended.add(frame.len() as u64);
        Ok(lsn)
    }

    /// Block until every record up to `lsn` is durable (group commit).
    /// The first caller to find no fsync in flight becomes the leader:
    /// it captures the appended watermark, runs one `fdatasync` on the
    /// dup'd fd (appends continue meanwhile), advances the durable
    /// watermark and wakes every waiter whose LSN it covered.
    pub fn sync(&self, lsn: Lsn) -> Result<(), WalError> {
        if !self.fsync_on() {
            return Ok(());
        }
        let mut st = lock(&self.sync_state);
        loop {
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if st.syncing {
                st = self
                    .sync_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st.syncing = true;
            let target_lsn = st.appended_lsn;
            let target_size = st.appended_size;
            let batch = target_lsn.saturating_sub(st.durable_lsn);
            drop(st);
            let started = Instant::now();
            let res = self.sync_file.sync_data();
            let elapsed = started.elapsed();
            st = lock(&self.sync_state);
            st.syncing = false;
            if res.is_ok() {
                st.durable_lsn = st.durable_lsn.max(target_lsn);
                st.durable_size = st.durable_size.max(target_size);
                self.metrics.fsyncs.inc();
                self.metrics.fsync_seconds.record(elapsed);
                self.metrics.group_batch.record_value(batch);
            }
            self.sync_cv.notify_all();
            res?;
        }
    }

    /// LSN of the last appended record (0 if none).
    pub fn appended_lsn(&self) -> Lsn {
        lock(&self.sync_state).appended_lsn
    }

    /// Bytes appended so far (the logical end of file).
    pub fn appended_size(&self) -> u64 {
        lock(&self.sync_state).appended_size
    }

    /// LSN up to which the log is known durable.
    pub fn durable_lsn(&self) -> Lsn {
        lock(&self.sync_state).durable_lsn
    }

    /// Byte offset up to which the log is known durable. A crash may lose
    /// anything past this; the crash simulator truncates here.
    pub fn durable_size(&self) -> u64 {
        lock(&self.sync_state).durable_size
    }

    /// Truncate the log to empty after a successful checkpoint. LSNs keep
    /// counting (the checkpoint records the last LSN it contains, and the
    /// next append continues the sequence), so recovery can verify the
    /// checkpoint↔tail continuity.
    pub fn reset(&self) -> Result<(), WalError> {
        let mut ap = lock(&self.appender);
        ap.file.set_len(0)?;
        ap.file.seek(SeekFrom::Start(0))?;
        if self.fsync_on() {
            ap.file.sync_data()?;
        }
        ap.size = 0;
        let next = ap.next_lsn;
        drop(ap);
        let mut st = lock(&self.sync_state);
        st.appended_size = 0;
        st.durable_size = 0;
        st.appended_lsn = next - 1;
        st.durable_lsn = next - 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// checkpoints
// ---------------------------------------------------------------------------

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"TNCK";

/// A logical snapshot of the database at a commit-clock boundary. The
/// catalog is stored as replayable SQL (DDL log + assertion sources)
/// because installations hold compiled plans that are rebuilt, not
/// serialized; table contents are stored as rows at the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// LSN of the last WAL record folded into this checkpoint. The log
    /// tail replayed on top must start at `last_lsn + 1`.
    pub last_lsn: Lsn,
    /// The commit clock at the snapshot.
    pub commit_ts: u64,
    /// Catalog DDL in original execution order.
    pub ddl: Vec<String>,
    /// Assertion install batches still in force (drops already folded in).
    pub installs: Vec<Vec<String>>,
    /// Base-table contents at the snapshot: `(table, rows)`.
    pub tables: Vec<(String, Vec<Row>)>,
}

/// Encode a checkpoint image (`TNCK` magic + one CRC frame).
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1024);
    put_u64(&mut payload, ck.last_lsn);
    put_u64(&mut payload, ck.commit_ts);
    put_strs(&mut payload, &ck.ddl);
    put_u32(&mut payload, ck.installs.len() as u32);
    for batch in &ck.installs {
        put_strs(&mut payload, batch);
    }
    put_u32(&mut payload, ck.tables.len() as u32);
    for (name, rows) in &ck.tables {
        put_str(&mut payload, name);
        put_rows(&mut payload, rows);
    }
    let mut out = Vec::with_capacity(4 + FRAME_HEADER + payload.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decode a checkpoint image. Unlike log scanning, any damage is an error:
/// a checkpoint is written atomically (temp + fsync + rename), so a torn
/// checkpoint means the write protocol was violated.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WalError> {
    if bytes.len() < 4 + FRAME_HEADER || &bytes[..4] != CHECKPOINT_MAGIC {
        return Err(corrupt("checkpoint magic missing"));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload = bytes
        .get(12..12 + len)
        .ok_or_else(|| corrupt("checkpoint truncated"))?;
    if bytes.len() != 12 + len {
        return Err(corrupt("trailing bytes after checkpoint"));
    }
    if crc32(payload) != crc {
        return Err(corrupt("checkpoint crc mismatch"));
    }
    let mut dec = Dec::new(payload);
    let last_lsn = dec.u64()?;
    let commit_ts = dec.u64()?;
    let ddl = dec.strs()?;
    let n_installs = dec.u32()? as usize;
    let mut installs = Vec::with_capacity(n_installs.min(1024));
    for _ in 0..n_installs {
        installs.push(dec.strs()?);
    }
    let n_tables = dec.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let name = dec.str()?;
        let rows = dec.rows()?;
        tables.push((name, rows));
    }
    dec.finish()?;
    Ok(Checkpoint {
        last_lsn,
        commit_ts,
        ddl,
        installs,
        tables,
    })
}

/// Write a checkpoint durably: temp file in the same directory, `fsync`,
/// atomic rename over `path`, directory `fsync`. A crash at any point
/// leaves either the old checkpoint or the new one, never a torn hybrid.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> Result<(), WalError> {
    let bytes = encode_checkpoint(ck);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable; some filesystems need the
        // directory entry flushed too.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read the checkpoint at `path`; `Ok(None)` if the file does not exist.
pub fn read_checkpoint(path: &Path) -> Result<Option<Checkpoint>, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode_checkpoint(&bytes).map(Some)
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tintin-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_commit(ts: u64) -> WalRecord {
        WalRecord::Commit {
            ts,
            effects: vec![TableEffects {
                table: "t0".into(),
                ins: vec![
                    vec![
                        Value::Int(ts as i64),
                        Value::Real(R64::new(1.5)),
                        Value::Str("héllo".into()),
                    ]
                    .into_boxed_slice(),
                    vec![Value::Null, Value::Int(-9)].into_boxed_slice(),
                ],
                del: vec![vec![Value::Int(0)].into_boxed_slice()],
            }],
        }
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let recs = vec![
            WalRecord::Ddl {
                sql: "CREATE TABLE t0 (k INT)".into(),
            },
            WalRecord::Install {
                sqls: vec!["CREATE ASSERTION a1 CHECK (1 = 1)".into(), "x".into()],
            },
            WalRecord::DropAssertion { name: "a1".into() },
            sample_commit(7),
        ];
        let mut bytes = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64 + 1, r));
        }
        let scan = scan(&bytes);
        assert_eq!(scan.valid_end, bytes.len());
        assert_eq!(scan.duplicates_skipped, 0);
        let got: Vec<WalRecord> = scan.frames.into_iter().map(|f| f.record).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn real_values_roundtrip_bit_exactly() {
        let v = Value::Real(R64::new(0.1 + 0.2));
        let rec = WalRecord::Commit {
            ts: 1,
            effects: vec![TableEffects {
                table: "t".into(),
                ins: vec![vec![v.clone()].into_boxed_slice()],
                del: vec![],
            }],
        };
        let bytes = encode_frame(1, &rec);
        let scan = scan(&bytes);
        let WalRecord::Commit { effects, .. } = &scan.frames[0].record else {
            panic!("wrong kind");
        };
        assert_eq!(effects[0].ins[0][0], v);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut bytes = encode_frame(1, &sample_commit(1));
        let full = bytes.len();
        let mut second = encode_frame(2, &sample_commit(2));
        second.truncate(second.len() - 3); // torn mid-payload
        bytes.extend_from_slice(&second);
        let scan = scan(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_end, full);
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_flip() {
        let mut bytes = encode_frame(1, &sample_commit(1));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_frame(2, &sample_commit(2)));
        let flip_at = first + FRAME_HEADER + 3;
        bytes[flip_at] ^= 0x40;
        let scan = scan(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_end, first);
    }

    #[test]
    fn duplicated_frame_is_skipped() {
        let f1 = encode_frame(1, &sample_commit(1));
        let f2 = encode_frame(2, &sample_commit(2));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&f1);
        bytes.extend_from_slice(&f2);
        bytes.extend_from_slice(&f2); // retried append
        let scan = scan(&bytes);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.duplicates_skipped, 1);
        assert_eq!(scan.valid_end, bytes.len());
    }

    #[test]
    fn lsn_gap_ends_the_trusted_prefix() {
        let mut bytes = encode_frame(1, &sample_commit(1));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_frame(5, &sample_commit(5)));
        let scan = scan(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_end, first);
    }

    #[test]
    fn open_append_reopen_preserves_history_and_lsns() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal");
        let reg = Registry::new();
        {
            let (wal, rec) = Wal::open(&path, &reg).unwrap();
            assert_eq!(rec.last_lsn, 0);
            assert!(rec.records.is_empty());
            assert_eq!(wal.append(&sample_commit(1)).unwrap(), 1);
            assert_eq!(wal.append(&sample_commit(2)).unwrap(), 2);
            wal.sync(2).unwrap();
            assert_eq!(wal.durable_lsn(), 2);
            assert_eq!(wal.durable_size(), wal.appended_size());
        }
        {
            let (wal, rec) = Wal::open(&path, &reg).unwrap();
            assert_eq!(rec.last_lsn, 2);
            assert_eq!(rec.records.len(), 2);
            assert_eq!(rec.truncated_bytes, 0);
            assert_eq!(wal.append(&sample_commit(3)).unwrap(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_a_torn_tail_and_reports_it() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        let reg = Registry::new();
        {
            let (wal, _) = Wal::open(&path, &reg).unwrap();
            wal.append(&sample_commit(1)).unwrap();
            wal.sync(1).unwrap();
        }
        // Simulate a torn final write.
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.len();
        let mut torn = encode_frame(2, &sample_commit(2));
        torn.truncate(torn.len() / 2);
        bytes.extend_from_slice(&torn);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(&path, &reg).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated_bytes, (bytes.len() - good) as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good as u64);
        // The next append continues the LSN sequence cleanly.
        assert_eq!(wal.append(&sample_commit(2)).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_off_keeps_durable_watermark_put() {
        let dir = tmpdir("nofsync");
        let path = dir.join("wal");
        let reg = Registry::new();
        let (wal, _) = Wal::open(&path, &reg).unwrap();
        wal.set_fsync(false);
        wal.append(&sample_commit(1)).unwrap();
        wal.sync(1).unwrap();
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.durable_size(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_sync_covers_every_record_up_to_watermark() {
        let dir = tmpdir("group");
        let path = dir.join("wal");
        let reg = Registry::new();
        let (wal, _) = Wal::open(&path, &reg).unwrap();
        for ts in 1..=5 {
            wal.append(&sample_commit(ts)).unwrap();
        }
        wal.sync(3).unwrap(); // one fsync covers all five
        assert_eq!(wal.durable_lsn(), 5);
        wal.sync(5).unwrap(); // already durable: no second fsync needed
        let snap = reg.snapshot();
        assert_eq!(snap.counter("tintin_wal_fsyncs"), Some(1));
        assert_eq!(snap.counter("tintin_wal_records"), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_the_log_but_keeps_lsns_counting() {
        let dir = tmpdir("reset");
        let path = dir.join("wal");
        let reg = Registry::new();
        let (wal, _) = Wal::open(&path, &reg).unwrap();
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&sample_commit(2)).unwrap();
        wal.sync(2).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.appended_size(), 0);
        assert_eq!(wal.append(&sample_commit(3)).unwrap(), 3);
        wal.sync(3).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, &reg).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].0, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roundtrips_and_detects_damage() {
        let dir = tmpdir("ckpt");
        let path = dir.join("checkpoint");
        let ck = Checkpoint {
            last_lsn: 42,
            commit_ts: 17,
            ddl: vec!["CREATE TABLE t0 (k INT PRIMARY KEY)".into()],
            installs: vec![vec!["CREATE ASSERTION a CHECK (1=1)".into()]],
            tables: vec![(
                "t0".into(),
                vec![vec![Value::Int(1), Value::Str("x".into())].into_boxed_slice()],
            )],
        };
        assert!(read_checkpoint(&path).unwrap().is_none());
        write_checkpoint(&path, &ck).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), ck);
        // Any damage to the (atomically written) checkpoint is an error.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).is_err());
        let mut truncated = std::fs::read(&path).unwrap();
        truncated.truncate(truncated.len() - 4);
        std::fs::write(&path, &truncated).unwrap();
        assert!(read_checkpoint(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
