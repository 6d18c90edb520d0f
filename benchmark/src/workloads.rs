//! The six workloads: what each sets up, the traffic it drives, and the
//! checks every run makes on the program's outputs.
//!
//! Every workload is a closed loop — a database session sends its next
//! script only after the previous reply is decoded — with a fixed number of
//! operations generated from the seed. `nproc` is 2 on the reference
//! machine, so no workload uses more than two client connections; the
//! server's front-end runs in the same process on loopback.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{
    wide_assertions, wide_preload_sql, wide_schema_sql, BatchShape, Expect, Rng, Stream,
    TpchStream, Tx, WideStream, WIDE_PRELOAD, WIDE_TABLES,
};
use crate::layers::{self, CheckCounts, Conn, Node, TpchShape, TxOutcome};
use crate::pin;
use crate::stats::{median, Sliced};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// TPC-H at a scale factor, with the program's six TPC-H assertions.
    Tpch { sf: f64 },
    /// 16 tables × 8 assertions.
    Wide,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    /// Committing connections.
    pub conns: usize,
    /// Over TCP (else an in-process session).
    pub wire: bool,
    /// Over a data directory with `fsync` on.
    pub durable: bool,
    /// One more connection reads while the committers run.
    pub reader: bool,
    pub batch: Option<BatchShape>,
    /// Write transactions per second of `--seconds`, all connections
    /// together: sized so the timed window takes a bit over half of
    /// `--seconds` on the reference machine. The window stops early only if
    /// it reaches `--seconds` (a much slower machine).
    pub tx_per_second: usize,
    /// Read transactions per second of `--seconds`, run after the writes
    /// (ignored when `reader` is set: there the reads run beside them).
    pub reads_per_second: usize,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "oltp_wire",
        why: "TPC-H SF 0.01, six assertions, one TCP connection, small order transactions: the path users take, every layer does a moderate share",
        data: Data::Tpch { sf: 0.01 },
        conns: 1,
        wire: true,
        durable: false,
        reader: false,
        batch: None,
        tx_per_second: 15_000,
        reads_per_second: 8_000,
    },
    Spec {
        name: "oltp_wire_2c",
        why: "the oltp_wire traffic from two connections on disjoint keys: per-transaction work is the same, so only waiting for the commit lock and the rwlock differs",
        data: Data::Tpch { sf: 0.01 },
        conns: 2,
        wire: true,
        durable: false,
        reader: false,
        batch: None,
        // 115 k transactions: at 100 k `lineitem`'s slot vector reaches 2^18
        // and doubles, and `peak_rss_mb` wobbles by 3 % over seeds.
        tx_per_second: 11_500,
        reads_per_second: 8_000,
    },
    Spec {
        name: "batch_check",
        why: "the paper's E1/E2 regime: SF 0.05, in-process session, 200-row transactions and a timed full recheck; view evaluation, DML planning and parsing dominate, wire does nothing",
        data: Data::Tpch { sf: 0.05 },
        conns: 1,
        wire: false,
        durable: false,
        reader: false,
        batch: Some(BatchShape {
            inserts: 40,
            deletes: 10,
            reprices: 10,
            violating_every: 25,
        }),
        tx_per_second: 200,
        reads_per_second: 12_000,
    },
    Spec {
        name: "wide_catalog",
        why: "16 tables x 8 assertions, 8-row inserts over TCP: relevance index and residual gates skip nearly every view, so a view-evaluation change must show no change here",
        data: Data::Wide,
        conns: 1,
        wire: true,
        durable: false,
        reader: false,
        batch: None,
        tx_per_second: 14_000,
        reads_per_second: 8_000,
    },
    Spec {
        name: "durable_2c",
        why: "oltp_wire traffic from two connections against a data directory with fsync on: WAL append and group fsync dominate, and a crash image is recovered and checked",
        data: Data::Tpch { sf: 0.01 },
        conns: 2,
        wire: true,
        durable: true,
        reader: false,
        batch: None,
        tx_per_second: 3_500,
        reads_per_second: 8_000,
    },
    Spec {
        name: "read_mix",
        why: "one connection commits oltp_wire traffic while another loops snapshot reads: a commit-path gain that costs readers (version chains, GC timing, lock hold) shows here",
        data: Data::Tpch { sf: 0.01 },
        conns: 1,
        wire: true,
        durable: false,
        reader: true,
        batch: None,
        // Not 8 000: 80 k transactions leave `lineitem` within a percent of
        // 229 376 rows (7/8 of 2^18), where its hash index doubles, and
        // whether a seed crosses that moves `peak_rss_mb` by 26 MiB
        // (README, "Shape of a run").
        tx_per_second: 6_400,
        reads_per_second: 0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Write transactions of one run, all connections together.
    pub fn quota(&self, seconds: f64) -> usize {
        ((self.tx_per_second as f64 * seconds) as usize).max(self.conns * 40)
    }

    pub fn reads(&self, seconds: f64) -> usize {
        ((self.reads_per_second as f64 * seconds) as usize).max(40)
    }

    /// Operations per latency slice: a dozen slices in a run, so that a
    /// slice is long enough for its own 99th percentile to mean something.
    pub fn slice(&self, seconds: f64) -> usize {
        (self.quota(seconds) / self.conns / 12).max(20)
    }

    pub fn schema_sql(&self) -> String {
        match self.data {
            Data::Tpch { .. } => layers::tpch_schema_sql().to_string(),
            Data::Wide => wide_schema_sql(),
        }
    }

    pub fn assertions(&self) -> Vec<String> {
        match self.data {
            Data::Tpch { .. } => layers::tpch_assertions(),
            Data::Wide => wide_assertions(),
        }
    }
}

// ------------------------------------------------------------------ set-up

/// How a node is built; the traced run varies these to price a layer.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Enabled metrics registry (else `Registry::noop()`).
    pub metrics: bool,
    /// `Some(fsync)` opens a data directory.
    pub durable: Option<bool>,
    pub wire: bool,
}

impl Variant {
    pub fn of(spec: &Spec) -> Variant {
        Variant {
            metrics: true,
            durable: spec.durable.then_some(true),
            wire: spec.wire,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub dbgen_s: f64,
    pub db_bytes: usize,
    pub install_ms: f64,
    pub checkpoint_ms: f64,
    pub checkpoint_bytes: u64,
    /// Commits acknowledged after the checkpoint, during warm-up.
    pub warmup_committed: u64,
}

/// A served database with its connections and their traffic generators.
pub struct Env {
    pub node: Node,
    pub writers: Vec<(Conn, Box<dyn Stream>)>,
    pub reader: Option<(Conn, Box<dyn Stream>)>,
    /// Per table: the query that counts it and its rows before any traffic.
    pub initial_rows: BTreeMap<String, (String, i64)>,
    pub times: SetupTimes,
    /// The CPUs the connections are spread over.
    pub cpus: Vec<usize>,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn must(conn: &mut Conn, script: &str) -> Result<TxOutcome, String> {
    conn.execute(script)
        .map_err(|e| format!("set-up statement failed: {e}"))
}

/// Data generation, load, assertion install, bind, connect and warm-up —
/// everything `setup_s` times.
pub fn setup(
    spec: &Spec,
    variant: Variant,
    seed: u64,
    seconds: f64,
    data_dir: &Path,
    cpus: &[usize],
) -> Result<Env, String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let mut initial_rows = BTreeMap::new();
    let assertions = spec.assertions();

    let (mut node, tpch) = match spec.data {
        Data::Tpch { sf } => {
            let t = Instant::now();
            let generated = layers::tpch_dbgen(sf, seed);
            times.dbgen_s = t.elapsed().as_secs_f64();
            times.db_bytes = generated.bytes;
            let node = match variant.durable {
                None => layers::serve_memory(Some(generated), variant.metrics),
                Some(fsync) => {
                    // A durable database is loaded through logged SQL, so
                    // the log and the checkpoint hold what a user's would.
                    fresh_dir(data_dir)?;
                    let node = layers::open_durable(data_dir, fsync)?;
                    let mut loader = node.connect_local();
                    must(&mut loader, layers::tpch_schema_sql())?;
                    for table in [
                        "region", "nation", "supplier", "customer", "part", "partsupp", "orders",
                        "lineitem",
                    ] {
                        for stmt in layers::table_as_inserts(&generated, table, 500) {
                            must(&mut loader, &stmt)?;
                        }
                    }
                    node
                }
            };
            (node, Some(TpchShape::for_scale(sf)))
        }
        Data::Wide => {
            let t = Instant::now();
            let node = layers::serve_memory(None, variant.metrics);
            let mut loader = node.connect_local();
            must(&mut loader, &wide_schema_sql())?;
            let mut rng = Rng::lane(seed, 100);
            for i in 0..WIDE_TABLES {
                must(&mut loader, &wide_preload_sql(i, &mut rng))?;
                initial_rows.insert(
                    format!("w{i}"),
                    (format!("SELECT k FROM w{i}"), WIDE_PRELOAD),
                );
            }
            times.dbgen_s = t.elapsed().as_secs_f64();
            (node, None)
        }
    };

    let mut local = node.connect_local();
    let t = Instant::now();
    let installed = local.install(&assertions)?;
    times.install_ms = t.elapsed().as_secs_f64() * 1e3;
    if installed != assertions.len() {
        return Err(format!("{installed} assertions installed, not all"));
    }
    if variant.durable.is_some() {
        let t = Instant::now();
        times.checkpoint_bytes = node.checkpoint()?;
        times.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    }

    if variant.wire {
        node.bind()?;
    }
    let lanes = spec.conns;
    let mut writers: Vec<(Conn, Box<dyn Stream>)> = Vec::new();
    let mut reader = None;
    match tpch {
        Some(shape) => {
            // Lineitems per preloaded order: the generator needs them to
            // know what a whole-order delete removes and a join returns.
            let mut counts = vec![0u8; shape.orders as usize + 1];
            let keys = local.query_ints("SELECT l_orderkey FROM lineitem")?;
            for k in &keys {
                counts[*k as usize] += 1;
            }
            initial_rows.insert(
                "orders".into(),
                ("SELECT o_orderkey FROM orders".into(), shape.orders),
            );
            initial_rows.insert(
                "lineitem".into(),
                ("SELECT l_orderkey FROM lineitem".into(), keys.len() as i64),
            );
            let counts = Arc::new(counts);
            for lane in 0..lanes {
                let stream = TpchStream::new(shape, counts.clone(), seed, lane, lanes, spec.batch);
                writers.push((node.connect()?, Box::new(stream)));
            }
            if spec.reader {
                // The reader shares the writer's keys: it reads orders the
                // writer reprices, never ones it deletes.
                let stream = TpchStream::new(shape, counts, seed ^ 0x5EAD, 0, 1, None);
                reader = Some((node.connect()?, Box::new(stream) as Box<dyn Stream>));
            }
        }
        None => writers.push((node.connect()?, Box::new(WideStream::new(seed)))),
    }

    // Warm-up: the first 5 % of the operations, untimed.
    let warmup = (spec.quota(seconds) / 20 / lanes).max(4);
    for (conn, stream) in &mut writers {
        for _ in 0..warmup {
            let tx = stream.next_tx();
            match judge(&tx, &conn.execute(&tx.script))? {
                Decided::Committed(_) => times.warmup_committed += 1,
                Decided::Rejected(_) | Decided::Read => {}
            }
        }
        let tx = stream.next_read();
        judge(&tx, &conn.execute(&tx.script))?;
    }
    times.total_s = started.elapsed().as_secs_f64();
    Ok(Env {
        node,
        writers,
        reader,
        initial_rows,
        times,
        cpus: cpus.to_vec(),
    })
}

// ----------------------------------------------------------------- driving

pub enum Decided {
    Committed(Option<CheckCounts>),
    Rejected(Option<CheckCounts>),
    Read,
}

/// Is the reply what the generator's model demands? An `Err` is a failed
/// operation: a transport or script error, a valid transaction not
/// committed, a violating one not rejected with tuples naming the expected
/// assertion, or a read with the wrong row counts.
pub fn judge(tx: &Tx, reply: &Result<TxOutcome, String>) -> Result<Decided, String> {
    let out = reply.as_ref().map_err(|e| format!("script error: {e}"))?;
    match &tx.expect {
        Expect::Commit if out.committed => Ok(Decided::Committed(out.check)),
        Expect::Commit => Err(format!(
            "valid transaction not committed (rejected by {:?})",
            out.rejected_by
        )),
        Expect::Reject(name) => {
            if out.committed {
                Err(format!("violating transaction committed (expected {name})"))
            } else if out.violation_rows == 0 || !out.rejected_by.iter().any(|a| a == name) {
                Err(format!(
                    "rejection does not name {name} with its tuples: {:?}",
                    out.rejected_by
                ))
            } else {
                Ok(Decided::Rejected(out.check))
            }
        }
        Expect::Rows(rows) if out.committed && &out.rows == rows => Ok(Decided::Read),
        Expect::Rows(rows) => Err(format!("read returned {:?}, expected {rows:?}", out.rows)),
    }
}

/// Sums of the `CheckStats` counters over the decided transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckSums {
    pub decided: u64,
    pub views_total: u64,
    pub evaluated: u64,
    pub skipped_relevance: u64,
    pub skipped_residual: u64,
    pub fallbacks_evaluated: u64,
    pub plans_recompiled: u64,
}

impl From<&CheckCounts> for CheckSums {
    fn from(c: &CheckCounts) -> CheckSums {
        CheckSums {
            decided: 1,
            views_total: c.views_total as u64,
            evaluated: c.evaluated as u64,
            skipped_relevance: c.skipped_relevance as u64,
            skipped_residual: c.skipped_residual as u64,
            fallbacks_evaluated: c.fallbacks_evaluated as u64,
            plans_recompiled: c.plans_recompiled as u64,
        }
    }
}

impl CheckSums {
    fn merge(&mut self, o: &CheckSums) {
        self.decided += o.decided;
        self.views_total += o.views_total;
        self.evaluated += o.evaluated;
        self.skipped_relevance += o.skipped_relevance;
        self.skipped_residual += o.skipped_residual;
        self.fallbacks_evaluated += o.fallbacks_evaluated;
        self.plans_recompiled += o.plans_recompiled;
    }
}

/// What one connection observed.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub committed: u64,
    pub rejected: u64,
    pub first_failure: Option<String>,
    pub commit_us: Sliced,
    pub reject_us: Sliced,
    pub check_us: Sliced,
    pub read_us: Sliced,
    /// Decided write transactions per second, slice by slice.
    pub write_rates: Vec<f64>,
    pub read_rates: Vec<f64>,
    pub checks: CheckSums,
    pub script_bytes: u64,
    /// The window reached `--seconds` before the quota was done.
    pub truncated: bool,
}

impl Tally {
    /// `slice` write transactions, `read_slice` reads per latency slice.
    pub fn new(slice: usize, read_slice: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            committed: 0,
            rejected: 0,
            first_failure: None,
            commit_us: Sliced::new(slice),
            // Violating transactions are 4 % of the mix.
            reject_us: Sliced::new((slice / 25).max(5)),
            check_us: Sliced::new(slice),
            read_us: Sliced::new(read_slice),
            write_rates: Vec::new(),
            read_rates: Vec::new(),
            checks: CheckSums::default(),
            script_bytes: 0,
            truncated: false,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Record one write transaction's reply and latency.
    pub fn record_write(&mut self, tx: &Tx, reply: &Result<TxOutcome, String>, us: f64) {
        self.attempted += 1;
        self.script_bytes += tx.script.len() as u64;
        match judge(tx, reply) {
            Ok(Decided::Committed(check)) => {
                self.committed += 1;
                self.commit_us.push(us);
                if let Some(c) = check {
                    self.check_us.push(c.check_ns as f64 / 1e3);
                    self.checks.merge(&CheckSums::from(&c));
                }
            }
            Ok(Decided::Rejected(check)) => {
                self.rejected += 1;
                self.reject_us.push(us);
                if let Some(c) = check {
                    self.checks.merge(&CheckSums::from(&c));
                }
            }
            Ok(Decided::Read) => {}
            Err(why) => self.fail(why),
        }
    }

    pub fn record_read(&mut self, tx: &Tx, reply: &Result<TxOutcome, String>, us: f64) {
        self.attempted += 1;
        match judge(tx, reply) {
            Ok(_) => self.read_us.push(us),
            Err(why) => self.fail(why),
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Drive `n` write transactions of `stream` through `conn`, closed loop.
pub fn drive_writes(
    conn: &mut Conn,
    stream: &mut dyn Stream,
    n: usize,
    slice: usize,
    deadline: Instant,
    tally: &mut Tally,
) {
    let mut slice_start = Instant::now();
    for i in 0..n {
        if i % slice == 0 && i > 0 {
            let now = Instant::now();
            tally
                .write_rates
                .push(slice as f64 / (now - slice_start).as_secs_f64());
            slice_start = now;
            if now >= deadline {
                tally.truncated = true;
                return;
            }
        }
        let tx = stream.next_tx();
        let t = Instant::now();
        let reply = conn.execute(&tx.script);
        let us = micros(t.elapsed());
        tally.record_write(&tx, &reply, us);
    }
    let rest = n % slice;
    let last = if rest == 0 { slice } else { rest };
    // A short tail would make a noisy rate; keep it only if it is a slice.
    if last == slice || tally.write_rates.is_empty() {
        tally
            .write_rates
            .push(last as f64 / slice_start.elapsed().as_secs_f64());
    }
}

/// Drive read transactions until `n` are done or `stop` is raised.
pub fn drive_reads(
    conn: &mut Conn,
    stream: &mut dyn Stream,
    n: usize,
    slice: usize,
    stop: Option<&AtomicBool>,
    tally: &mut Tally,
) {
    let mut slice_start = Instant::now();
    for i in 0..n {
        if i % slice == 0 && i > 0 {
            let now = Instant::now();
            tally
                .read_rates
                .push(slice as f64 / (now - slice_start).as_secs_f64());
            slice_start = now;
        }
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return;
        }
        let tx = stream.next_read();
        let t = Instant::now();
        let reply = conn.execute(&tx.script);
        let us = micros(t.elapsed());
        tally.record_read(&tx, &reply, us);
    }
    if tally.read_rates.is_empty() {
        tally
            .read_rates
            .push(n as f64 / slice_start.elapsed().as_secs_f64());
    }
}

/// The timed window of a run: every committing connection drives its share
/// of `quota` on a thread of its own, and the reader, if the workload has
/// one, reads beside them until they finish. Returns one tally per
/// connection, the reader's last.
pub fn drive(env: &mut Env, spec: &Spec, quota: usize, seconds: f64) -> Vec<Tally> {
    let slice = spec.slice(seconds);
    // Connection `i`'s handler and client share CPU `i` (see `pin`).
    let cpus = &env.cpus;
    let cpu_of = |lane: usize| cpus[lane % cpus.len()];
    for (lane, tid) in env.node.handler_threads().into_iter().enumerate() {
        pin::pin(tid, cpu_of(lane));
    }
    let per_conn = quota / spec.conns;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let done = AtomicBool::new(false);
    let mut tallies: Vec<Tally> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .writers
            .iter_mut()
            .enumerate()
            .map(|(lane, (conn, stream))| {
                scope.spawn(move || {
                    pin::pin(0, cpu_of(lane));
                    let mut tally = Tally::new(slice, slice);
                    drive_writes(conn, stream.as_mut(), per_conn, slice, deadline, &mut tally);
                    tally
                })
            })
            .collect();
        let reading = env.reader.as_mut().map(|(conn, stream)| {
            let done = &done;
            scope.spawn(move || {
                pin::pin(0, cpu_of(spec.conns));
                let mut tally = Tally::new(slice, slice);
                drive_reads(
                    conn,
                    stream.as_mut(),
                    usize::MAX,
                    slice,
                    Some(done),
                    &mut tally,
                );
                tally
            })
        });
        for h in handles {
            tallies.push(h.join().expect("writer thread panicked"));
        }
        done.store(true, Ordering::Relaxed);
        if let Some(r) = reading {
            tallies.push(r.join().expect("reader thread panicked"));
        }
    });
    tallies
}

/// The read phase of a workload without a concurrent reader: `reads` read
/// transactions on the first connection, against the state the commits
/// left behind.
pub fn read_phase(env: &mut Env, spec: &Spec, reads: usize, seconds: f64) -> Tally {
    let read_slice = reads.div_ceil(12);
    let mut tally = Tally::new(spec.slice(seconds), read_slice);
    let (conn, stream) = &mut env.writers[0];
    drive_reads(conn, stream.as_mut(), reads, read_slice, None, &mut tally);
    tally
}

// ------------------------------------------------------------- aggregation

/// The end-to-end view of a set of tallies.
pub struct Observed {
    pub attempted: u64,
    pub failed: u64,
    pub committed: u64,
    pub first_failure: Option<String>,
    pub commit_p50_us: f64,
    pub commit_p95_us: f64,
    pub commit_p99_us: f64,
    pub commits_per_s: f64,
    pub reject_p50_us: f64,
    pub check_p50_us: f64,
    pub read_p50_us: f64,
    pub read_p95_us: f64,
    pub read_p99_us: f64,
    pub reads_per_s: f64,
    pub checks: CheckSums,
    pub script_bytes: u64,
    pub truncated: bool,
}

fn merged(tallies: &[Tally], pick: impl Fn(&Tally) -> &Sliced) -> Vec<&Sliced> {
    tallies.iter().map(pick).filter(|s| !s.is_empty()).collect()
}

/// A quantile over connections: the median of the connections' sliced
/// quantiles (with one connection, that connection's).
fn across(slices: &[&Sliced], q: f64) -> f64 {
    if slices.is_empty() {
        return 0.0;
    }
    median(&slices.iter().map(|s| s.quantile(q)).collect::<Vec<_>>())
}

pub fn observe(tallies: &[Tally]) -> Observed {
    let mut checks = CheckSums::default();
    for t in tallies {
        checks.merge(&t.checks);
    }
    let commit = merged(tallies, |t| &t.commit_us);
    let reads = merged(tallies, |t| &t.read_us);
    Observed {
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        committed: tallies.iter().map(|t| t.committed).sum(),
        first_failure: tallies.iter().find_map(|t| t.first_failure.clone()),
        commit_p50_us: across(&commit, 0.5),
        commit_p95_us: across(&commit, 0.95),
        commit_p99_us: across(&commit, 0.99),
        // Connections commit side by side: their median rates add up.
        commits_per_s: tallies
            .iter()
            .filter(|t| !t.write_rates.is_empty())
            .map(|t| median(&t.write_rates))
            .sum(),
        reject_p50_us: across(&merged(tallies, |t| &t.reject_us), 0.5),
        check_p50_us: across(&merged(tallies, |t| &t.check_us), 0.5),
        read_p50_us: across(&reads, 0.5),
        read_p95_us: across(&reads, 0.95),
        read_p99_us: across(&reads, 0.99),
        reads_per_s: tallies
            .iter()
            .filter(|t| !t.read_rates.is_empty())
            .map(|t| median(&t.read_rates))
            .sum(),
        checks,
        script_bytes: tallies.iter().map(|t| t.script_bytes).sum(),
        truncated: tallies.iter().any(|t| t.truncated),
    }
}

// ------------------------------------------------------------------ checks

/// The premises a regime rests on, and the state the run must leave:
/// returns every broken one, and how long the full recheck of the final
/// state took, in milliseconds (the paper's non-incremental comparator).
pub fn verify(env: &mut Env, spec: &Spec, seen: &Observed) -> (Vec<String>, f64) {
    let mut broken = Vec::new();
    if let Some(why) = &seen.first_failure {
        broken.push(format!(
            "{} operations failed, the first: {why}",
            seen.failed
        ));
    }
    let c = &seen.checks;
    if c.plans_recompiled != 0 {
        broken.push(format!("{} prepared plans recompiled", c.plans_recompiled));
    }
    match spec.data {
        // The bug the roadmap found in `commit_scaling`: a regime that
        // claims to time view evaluation must evaluate views.
        Data::Tpch { .. } if c.evaluated == 0 => {
            broken.push("no incremental view was evaluated".into());
        }
        Data::Wide => {
            if c.skipped_relevance == 0 || c.skipped_residual == 0 {
                broken.push(format!(
                    "relevance skips {} and residual skips {} must both be positive",
                    c.skipped_relevance, c.skipped_residual
                ));
            }
            if c.skipped_relevance + c.skipped_residual <= c.evaluated * 4 {
                broken.push(format!(
                    "skips ({} + {}) do not dominate the {} evaluations",
                    c.skipped_relevance, c.skipped_residual, c.evaluated
                ));
            }
        }
        Data::Tpch { .. } => {}
    }
    let t = Instant::now();
    let rechecked = env.node.full_recheck();
    let recheck_ms = t.elapsed().as_secs_f64() * 1e3;
    match rechecked {
        Ok(per) => {
            for (name, rows) in per.iter().filter(|(_, rows)| *rows > 0) {
                broken.push(format!("final state violates {name} ({rows} rows)"));
            }
            if per.len() != spec.assertions().len() {
                broken.push(format!("{} assertions rechecked, not all", per.len()));
            }
        }
        Err(e) => broken.push(format!("full recheck failed: {e}")),
    }
    let mut delta: BTreeMap<String, i64> = BTreeMap::new();
    for (_, stream) in &env.writers {
        for (table, d) in stream.model_delta() {
            *delta.entry(table).or_default() += d;
        }
    }
    let mut local = env.node.connect_local();
    for (table, (count_query, initial)) in &env.initial_rows {
        let expected = initial + delta.get(table).copied().unwrap_or(0);
        match local.query_count(count_query) {
            Ok(n) if n as i64 == expected => {}
            Ok(n) => broken.push(format!("{table} holds {n} rows, the model {expected}")),
            Err(e) => broken.push(format!("count of {table} failed: {e}")),
        }
    }
    (broken, recheck_ms)
}

/// What the crash-image recovery of a durable run found.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    pub recovery_s: f64,
    pub commits_replayed: usize,
    pub discarded_bytes: u64,
    pub broken: Vec<String>,
}

/// Build a crash image of the node's data directory — a copy whose log is
/// cut at the durable watermark, so bytes never flushed are discarded as a
/// power loss would discard them (killing the process would keep them in
/// the OS cache) — then time `Server::open` on it and check that every
/// acknowledged commit is there.
pub fn crash_and_recover(
    env: &Env,
    acked_commits: u64,
    image_dir: &Path,
) -> Result<Recovered, String> {
    let (appended, durable, wal_path) = env.node.wal_status().ok_or("node is not durable")?;
    let dir = env.node.data_dir().ok_or("node has no data directory")?;
    fresh_dir(image_dir)?;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), image_dir.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    let image_wal: PathBuf = image_dir.join(wal_path.file_name().ok_or("log has no file name")?);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&image_wal)
        .and_then(|f| f.set_len(durable))
        .map_err(|e| format!("truncate {}: {e}", image_wal.display()))?;

    let mut out = Recovered {
        discarded_bytes: appended - durable,
        ..Recovered::default()
    };
    let t = Instant::now();
    let recovered = layers::open_durable(image_dir, true)?;
    out.recovery_s = t.elapsed().as_secs_f64();
    let replayed = recovered.commits_replayed().ok_or("no recovery summary")?;
    out.commits_replayed = replayed;
    if replayed as u64 != acked_commits {
        out.broken.push(format!(
            "{replayed} commits replayed, {acked_commits} acknowledged since the checkpoint"
        ));
    }
    let mut local = recovered.connect_local();
    let mut present = local.query_ints("SELECT o_orderkey FROM orders")?;
    present.sort_unstable();
    let mut missing = 0usize;
    for (_, stream) in &env.writers {
        for key in stream.live_inserted_keys() {
            if present.binary_search(&key).is_err() {
                missing += 1;
            }
        }
    }
    if missing > 0 {
        out.broken.push(format!(
            "{missing} acknowledged orders are missing after recovery"
        ));
    }
    for (name, rows) in recovered.full_recheck()? {
        if rows > 0 {
            out.broken
                .push(format!("recovered state violates {name} ({rows} rows)"));
        }
    }
    recovered.shutdown();
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of `path`, from the mount table (the longest mount
/// point that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

impl Env {
    /// Close the connections, stop the front-end and wait for its threads.
    pub fn shutdown(self) {
        drop(self.writers);
        drop(self.reader);
        self.node.shutdown();
    }
}
