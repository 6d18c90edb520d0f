//! Every call into the program under test lives in this file.
//!
//! The rest of the harness sees plain numbers and strings, never a type of
//! a `tintin-*` crate, so a change to the program's API is a change to this
//! one file. Only primary entry points are used: `parse_statements`,
//! `Session::{execute, execute_statement, query_rows}`,
//! `Client::{execute, ping}`, `encode_response` / `decode_response`,
//! `read_frame` / `write_frame`, `Server::{open_with, checkpoint,
//! metrics_snapshot, wal_status, recovery_summary}`,
//! `Tintin::check_current_state` — none of the `_at` / `_for` / `_touched`
//! variants the roadmap plans to delete. The one exception is the traced
//! install ([`install_stepwise`]), which the issue asks to be timed stage by
//! stage and therefore calls each stage's public function.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tintin::Tintin;
use tintin_client::Client;
use tintin_engine::{Database, ResultSet, Value};
use tintin_logic::{EdcConfig, EdcGenerator};
use tintin_obs::{Histogram, HistogramSnapshot, Registry, Snapshot};
use tintin_server::protocol::{
    decode_response, encode_response, read_frame, write_frame, WireResult,
};
use tintin_server::{ServerConfig, WireServer};
use tintin_session::{DurabilityOptions, Server, Session, StatementOutcome};
use tintin_sql as sql;
use tintin_tpch::{sizing, Dbgen, TpchCounts, TPCH_ASSERTIONS, TPCH_SCHEMA_SQL};

use crate::trace::Tracer;

// ------------------------------------------------------------------ data

/// Row counts of a generated TPC-H database the traffic generator needs to
/// synthesize valid foreign keys without querying.
#[derive(Debug, Clone, Copy)]
pub struct TpchShape {
    pub orders: i64,
    pub customers: i64,
    pub parts: i64,
    pub suppliers: i64,
    pub partsupps_per_part: i64,
}

impl TpchShape {
    pub fn for_scale(sf: f64) -> TpchShape {
        let c = TpchCounts::for_scale(sf);
        TpchShape {
            orders: c.orders,
            customers: c.customers,
            parts: c.parts,
            suppliers: c.suppliers,
            partsupps_per_part: c.partsupps_per_part,
        }
    }

    /// The `pick`-th supplier of `partkey` — dbgen's deterministic spread,
    /// so `(partkey, supplier)` is always an existing `partsupp` row.
    pub fn supplier_of(&self, partkey: i64, pick: i64) -> i64 {
        let per = self.partsupps_per_part.min(self.suppliers);
        ((partkey + (pick % per) * (self.suppliers / 4).max(1)) % self.suppliers) + 1
    }
}

/// The six TPC-H assertions, in the program's own order.
pub fn tpch_assertions() -> Vec<String> {
    TPCH_ASSERTIONS.iter().map(|(_, s)| s.to_string()).collect()
}

/// The TPC-H `CREATE TABLE` script.
pub fn tpch_schema_sql() -> &'static str {
    TPCH_SCHEMA_SQL
}

/// A generated database, not yet served.
pub struct Generated {
    db: Database,
    /// Bytes of user data (`tpch.db_bytes`).
    pub bytes: usize,
}

/// Run the program's TPC-H generator (`tpch.dbgen_s` is the caller's timing
/// of this call).
pub fn tpch_dbgen(sf: f64, seed: u64) -> Generated {
    let db = Dbgen::new(sf).with_seed(seed).generate();
    let bytes = sizing::database_bytes(&db);
    Generated { db, bytes }
}

/// Dump one generated table as `INSERT` statements of `batch` rows — the
/// logged-SQL load path of the durable workload.
pub fn table_as_inserts(generated: &Generated, table: &str, batch: usize) -> Vec<String> {
    let t = generated.db.table(table).expect("generated table exists");
    let rows: Vec<String> = t
        .scan()
        .map(|(_, row)| {
            let vals: Vec<String> = row.iter().map(sql_literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    rows.chunks(batch)
        .map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", ")))
        .collect()
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

// ------------------------------------------------------------------ node

/// One server under test: the session layer, optionally behind the TCP
/// front-end on a loopback ephemeral port, optionally durable.
pub struct Node {
    server: Server,
    wire: Option<WireServer>,
    data_dir: Option<PathBuf>,
    /// Handles of the three published commit-phase histograms (stage,
    /// check, publish), resolved once: the stepwise replay reads them
    /// around every commit.
    phases: [Arc<Histogram>; 3],
}

impl Node {
    fn new(server: Server, data_dir: Option<PathBuf>) -> Node {
        let phases = [
            "tintin_commit_stage_seconds",
            "tintin_commit_check_seconds",
            "tintin_commit_publish_seconds",
        ]
        .map(|name| server.registry().histogram(name));
        Node {
            server,
            wire: None,
            data_dir,
            phases,
        }
    }
}

/// An in-memory server over a generated database (or an empty one).
pub fn serve_memory(generated: Option<Generated>, metrics: bool) -> Node {
    let registry = if metrics {
        Registry::new()
    } else {
        Registry::noop()
    };
    let server = Server::with_registry(registry);
    if let Some(g) = generated {
        *server.database().write() = g.db;
    }
    Node::new(server, None)
}

/// Open (or recover) a durable server over `dir`.
pub fn open_durable(dir: &Path, fsync: bool) -> Result<Node, String> {
    let opts = DurabilityOptions {
        fsync,
        ..DurabilityOptions::default()
    };
    let server = Server::open_with(dir, &opts).map_err(|e| e.to_string())?;
    Ok(Node::new(server, Some(dir.to_path_buf())))
}

impl Node {
    /// Put the node behind the TCP front-end (loopback, ephemeral port).
    pub fn bind(&mut self) -> Result<(), String> {
        let wire = WireServer::bind(self.server.clone(), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind loopback: {e}"))?;
        self.wire = Some(wire);
        Ok(())
    }

    /// A connection: TCP when the node is bound, in-process otherwise.
    pub fn connect(&self) -> Result<Conn, String> {
        match &self.wire {
            Some(w) => Client::connect(w.local_addr())
                .map(Conn::Wire)
                .map_err(|e| format!("connect: {e}")),
            None => Ok(Conn::Local(self.server.connect())),
        }
    }

    /// An in-process session, whatever the front-end.
    pub fn connect_local(&self) -> Conn {
        Conn::Local(self.server.connect())
    }

    /// Per-assertion violating-row counts of the *current* state, by the
    /// original (non-incremental) assertion queries — the paper's
    /// comparator and the end-of-run integrity check.
    pub fn full_recheck(&self) -> Result<Vec<(String, usize)>, String> {
        let checker: Tintin = self.server.checker();
        let db = self.server.database().read();
        let mut out = Vec::new();
        for inst in self.server.installations() {
            out.extend(
                checker
                    .check_current_state(&db, &inst)
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(out)
    }

    /// What the program publishes about itself right now.
    pub fn published(&self) -> Published {
        Published {
            snap: self.server.metrics_snapshot(),
        }
    }

    /// Write a checkpoint; returns the size of the checkpoint file.
    pub fn checkpoint(&self) -> Result<u64, String> {
        self.server.checkpoint().map_err(|e| e.to_string())?;
        Ok(self
            .server
            .wal_status()
            .and_then(|w| std::fs::metadata(w.checkpoint_path).ok())
            .map_or(0, |m| m.len()))
    }

    /// The log's watermarks: `(appended bytes, durable bytes, log path)`.
    pub fn wal_status(&self) -> Option<(u64, u64, PathBuf)> {
        self.server
            .wal_status()
            .map(|w| (w.appended_size, w.durable_size, w.wal_path))
    }

    /// Commit records that opening this node replayed from the log.
    pub fn commits_replayed(&self) -> Option<usize> {
        self.server.recovery_summary().map(|r| r.commits_replayed)
    }

    /// Kernel thread ids of the front-end's connection handlers, oldest
    /// first (the front-end names them `tintin-conn`), so the harness can
    /// place each beside its client.
    pub fn handler_threads(&self) -> Vec<i32> {
        let mut tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| {
                std::fs::read_to_string(e.path().join("comm"))
                    .is_ok_and(|c| c.trim() == "tintin-conn")
            })
            .filter_map(|e| e.file_name().to_str()?.parse().ok())
            .collect();
        tids.sort_unstable();
        tids
    }

    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Stop the front-end (joins its threads) and drop the database.
    pub fn shutdown(mut self) {
        if let Some(w) = self.wire.take() {
            w.shutdown();
        }
    }
}

// ----------------------------------------------------------- connections

/// What one executed script decided, reduced to what the harness checks.
#[derive(Debug, Clone, Default)]
pub struct TxOutcome {
    pub committed: bool,
    /// Names of the violated assertions when the transaction was rejected.
    pub rejected_by: Vec<String>,
    /// Violating tuples the rejection carried.
    pub violation_rows: usize,
    /// Row count of each query in the script, in order.
    pub rows: Vec<usize>,
    /// `CheckStats` of the commit decision, if the script reached one.
    pub check: Option<CheckCounts>,
}

/// The counters of one commit's `CheckStats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckCounts {
    pub check_ns: u64,
    pub views_total: usize,
    pub evaluated: usize,
    pub skipped_relevance: usize,
    pub skipped_residual: usize,
    pub fallbacks_evaluated: usize,
    pub plans_recompiled: usize,
}

fn summarize(outcomes: &[StatementOutcome]) -> TxOutcome {
    let mut out = TxOutcome::default();
    for o in outcomes {
        let stats = match o {
            StatementOutcome::Committed { stats, .. } => {
                out.committed = true;
                stats
            }
            StatementOutcome::Rejected { violations, stats } => {
                for v in violations {
                    out.rejected_by.push(v.assertion.clone());
                    out.violation_rows += v.rows.len();
                }
                stats
            }
            StatementOutcome::Rows(rs) => {
                out.rows.push(rs.len());
                continue;
            }
            _ => continue,
        };
        out.check = Some(CheckCounts {
            check_ns: u64::try_from(stats.check_time.as_nanos()).unwrap_or(u64::MAX),
            views_total: stats.views_total,
            evaluated: stats.views_evaluated,
            skipped_relevance: stats.views_skipped_relevance,
            skipped_residual: stats.views_skipped_residual,
            fallbacks_evaluated: stats.fallbacks_evaluated,
            plans_recompiled: stats.plans_recompiled,
        });
    }
    out
}

/// One database session: over TCP or in-process.
pub enum Conn {
    Wire(Client),
    Local(Session),
}

impl Conn {
    /// Send one script and decode every statement's outcome. `Err` is a
    /// transport failure or a typed script error.
    pub fn execute(&mut self, script: &str) -> Result<TxOutcome, String> {
        match self {
            Conn::Wire(c) => c
                .execute(script)
                .map(|o| summarize(&o))
                .map_err(|e| e.to_string()),
            Conn::Local(s) => s
                .execute(script)
                .map(|o| summarize(&o))
                .map_err(|e| e.to_string()),
        }
    }

    /// One query through `query_rows` — the snapshot-read path without a
    /// script.
    fn query(&mut self, query: &str) -> Result<ResultSet, String> {
        match self {
            Conn::Local(s) => s.query_rows(query).map_err(|e| e.to_string()),
            Conn::Wire(c) => c.query_rows(query).map_err(|e| e.to_string()),
        }
    }

    /// One query's row count.
    pub fn query_count(&mut self, query: &str) -> Result<usize, String> {
        self.query(query).map(|rs| rs.len())
    }

    /// First-column integer values of a query (set-up uses it to learn how
    /// many lineitems each preloaded order has).
    pub fn query_ints(&mut self, query: &str) -> Result<Vec<i64>, String> {
        Ok(self
            .query(query)?
            .rows
            .iter()
            .filter_map(|r| match r.first() {
                Some(Value::Int(i)) => Some(*i),
                _ => None,
            })
            .collect())
    }

    /// Install a batch of `CREATE ASSERTION` statements through
    /// `Session::install` (in-process connections only): one installation,
    /// so every plan is prepared after the batch's last catalog change and
    /// steady-state commits never recompile. Returns the assertion count.
    pub fn install(&mut self, assertions: &[String]) -> Result<usize, String> {
        let Conn::Local(s) = self else {
            return Err("assertions are installed in-process".into());
        };
        let refs: Vec<&str> = assertions.iter().map(String::as_str).collect();
        s.install(&refs)
            .map(|i| i.assertions.len())
            .map_err(|e| e.to_string())
    }

    /// Round-trip an empty script (`client.rtt_us`); a no-op in-process.
    pub fn ping(&mut self) -> Result<(), String> {
        match self {
            Conn::Wire(c) => c.ping().map_err(|e| e.to_string()),
            Conn::Local(_) => Ok(()),
        }
    }
}

// ------------------------------------------------------ published metrics

/// A registry snapshot, read by metric name.
pub struct Published {
    snap: Snapshot,
}

/// A latency histogram as the program publishes it (log2 buckets).
#[derive(Debug, Clone, Default)]
pub struct Hist(HistogramSnapshot);

impl Hist {
    /// The samples recorded since `earlier` was captured.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let mut buckets = Vec::new();
        for &(i, c) in &self.0.buckets {
            let before = earlier
                .0
                .buckets
                .iter()
                .find(|(j, _)| *j == i)
                .map_or(0, |(_, c)| *c);
            if c > before {
                buckets.push((i, c - before));
            }
        }
        Hist(HistogramSnapshot {
            count: self.0.count.saturating_sub(earlier.0.count),
            sum_nanos: self.0.sum_nanos.saturating_sub(earlier.0.sum_nanos),
            buckets,
        })
    }

    /// A quantile in microseconds (interpolated inside the log2 bucket).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.0.quantile(q).as_secs_f64() * 1e6
    }

    /// A quantile of a histogram whose samples are counts, not durations
    /// (the WAL's group-batch size is recorded as "nanoseconds").
    pub fn quantile_raw(&self, q: f64) -> f64 {
        self.0.quantile(q).as_nanos() as f64
    }
}

impl Published {
    pub fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.snap.gauge(name).unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        Hist(self.snap.histogram(name).cloned().unwrap_or_default())
    }
}

// ------------------------------------------------------- stepwise replay

/// Replay one script through an in-process session layer by layer, with a
/// span around each call: frame out, frame in, parse, every statement,
/// encode, frame back, decode. `framed` is false for the workload that has
/// no wire. Commit statements get `stage` / `check` / `publish` child
/// spans from the deltas of the published phase histograms.
pub fn execute_stepwise(
    conn: &mut Conn,
    node: &Node,
    script: &str,
    framed: bool,
    tx_id: u64,
    tracer: &mut Tracer,
) -> Result<TxOutcome, String> {
    let Conn::Local(session) = conn else {
        return Err("the stepwise replay needs an in-process session".into());
    };
    let root = tracer.open("tx", None, tx_id);
    let received = if framed {
        let mut buf = Vec::with_capacity(script.len() + 4);
        let s = tracer.open("client.write_frame", Some(root), tx_id);
        write_frame(&mut buf, script).map_err(|e| e.to_string())?;
        tracer.close(s);
        let s = tracer.open("server.read_frame", Some(root), tx_id);
        let got = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
        tracer.close(s);
        got.ok_or("empty frame")?
    } else {
        script.to_string()
    };

    let s = tracer.open("sql.parse", Some(root), tx_id);
    let stmts = sql::parse_statements(&received).map_err(|e| e.to_string())?;
    tracer.close(s);

    let mut outcomes = Vec::with_capacity(stmts.len());
    for stmt in &stmts {
        let name = match stmt {
            sql::Statement::Begin => "session.begin",
            sql::Statement::Commit => "session.commit",
            sql::Statement::Query(_) => "engine.query",
            _ => "engine.plan_dml",
        };
        let before = matches!(stmt, sql::Statement::Commit).then(|| node.phase_sums());
        let s = tracer.open(name, Some(root), tx_id);
        let outcome = session.execute_statement(stmt).map_err(|e| e.to_string())?;
        let end = tracer.close(s);
        if let Some(before) = before {
            // The phases ran back to back inside the commit; lay their
            // published durations out from the commit span's start.
            let after = node.phase_sums();
            let mut at = tracer.start_of(s);
            for (phase, (b, a)) in ["engine.stage", "core.check", "engine.publish"]
                .iter()
                .zip(before.iter().zip(after.iter()))
            {
                let d = a.saturating_sub(*b);
                tracer.record(phase, Some(s), tx_id, at, (at + d).min(end));
                at = (at + d).min(end);
            }
        }
        outcomes.push(outcome);
    }

    let result: WireResult = Ok(outcomes);
    let result = if framed {
        let s = tracer.open("server.encode_response", Some(root), tx_id);
        let payload = encode_response(&result);
        tracer.close(s);
        let mut buf = Vec::with_capacity(payload.len() + 4);
        let s = tracer.open("server.write_frame", Some(root), tx_id);
        write_frame(&mut buf, &payload).map_err(|e| e.to_string())?;
        tracer.close(s);
        let s = tracer.open("client.read_frame", Some(root), tx_id);
        let back = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
        tracer.close(s);
        let s = tracer.open("client.decode_response", Some(root), tx_id);
        let decoded = decode_response(&back.ok_or("empty frame")?).map_err(|e| e.to_string())?;
        tracer.close(s);
        decoded
    } else {
        result
    };
    tracer.close(root);
    result.map(|o| summarize(&o)).map_err(|e| e.to_string())
}

impl Node {
    /// Cumulative nanoseconds of the three published commit-phase
    /// histograms (stage, check, publish).
    fn phase_sums(&self) -> [u64; 3] {
        [0, 1, 2].map(|i| self.phases[i].snapshot().sum_nanos)
    }
}

/// Counts and timings of one stage-by-stage assertion install.
#[derive(Debug, Clone, Default)]
pub struct InstallBudget {
    pub parse_us: f64,
    pub translate_us: f64,
    pub edc_us: f64,
    pub generate_us: f64,
    pub prepare_us: f64,
    pub denials: usize,
    pub edcs: usize,
    pub bodies_pruned: usize,
    pub views: usize,
}

/// Install `assertions` over `schema_sql` on a scratch database one stage
/// at a time — `parse_statement` → `translate_assertion` →
/// `EdcGenerator::generate` → `generate_views` → `Database::prepare` —
/// timing each. The scratch database holds no rows: these stages read the
/// catalog only (the data-dependent part of an install is the initial-state
/// check, which `core.initial_check_ms` times on the loaded database).
pub fn install_stepwise(
    schema_sql: &str,
    assertions: &[String],
    tracer: &mut Tracer,
) -> Result<InstallBudget, String> {
    let mut db = Database::new();
    db.execute_sql(schema_sql).map_err(|e| e.to_string())?;
    let base: Vec<String> = db.table_names();
    for t in &base {
        db.enable_capture(t).map_err(|e| e.to_string())?;
    }
    let cat = Tintin::catalog_of(&db);
    let mut reg = tintin_logic::Registry::new();
    let mut budget = InstallBudget::default();
    let mut all_views = Vec::new();
    let root = tracer.open("install", None, 0);
    for text in assertions {
        let t = Instant::now();
        let s = tracer.open("sql.parse", Some(root), 0);
        let stmt = sql::parse_statement(text).map_err(|e| e.to_string())?;
        tracer.close(s);
        budget.parse_us += t.elapsed().as_secs_f64() * 1e6;
        let sql::Statement::CreateAssertion(assertion) = stmt else {
            return Err("not a CREATE ASSERTION".into());
        };

        let t = Instant::now();
        let s = tracer.open("logic.translate", Some(root), 0);
        let denials = tintin_logic::translate_assertion(&cat, &mut reg, &assertion)
            .map_err(|e| e.to_string())?;
        tracer.close(s);
        budget.translate_us += t.elapsed().as_secs_f64() * 1e6;
        budget.denials += denials.len();

        let t = Instant::now();
        let s = tracer.open("logic.edc", Some(root), 0);
        let mut edcs = Vec::new();
        for d in &denials {
            let mut generator = EdcGenerator::new(&mut reg, &cat, EdcConfig::default());
            edcs.extend(generator.generate(d).map_err(|e| e.to_string())?);
            budget.bodies_pruned += generator.pruned.len();
        }
        tracer.close(s);
        budget.edc_us += t.elapsed().as_secs_f64() * 1e6;
        budget.edcs += edcs.len();

        let t = Instant::now();
        let s = tracer.open("sqlgen.generate", Some(root), 0);
        let views = tintin_sqlgen::generate_views(&cat, &reg, &edcs).map_err(|e| e.to_string())?;
        tracer.close(s);
        budget.generate_us += t.elapsed().as_secs_f64() * 1e6;
        budget.views += views.len();
        all_views.extend(views);
    }
    for v in &all_views {
        db.create_view(&v.name, v.query.clone())
            .map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let s = tracer.open("engine.prepare", Some(root), 0);
    for v in &all_views {
        std::hint::black_box(db.prepare(&v.query).map_err(|e| e.to_string())?);
    }
    tracer.close(s);
    budget.prepare_us = t.elapsed().as_secs_f64() * 1e6;
    tracer.close(root);
    Ok(budget)
}
