//! Interactive command-line front-end — the CLI equivalent of the paper's
//! GUI (Figure 3), backed by a shared-database [`Server`]: any number of
//! sessions attach to one database, install assertions, and group updates
//! into `BEGIN … COMMIT` transactions that are checked by `safeCommit` at
//! commit time.
//!
//! Run with: `cargo run --example repl`
//!
//! With `--connect HOST:PORT` the REPL speaks to a running `tintin-server`
//! over the wire protocol instead of an in-process server: one connection =
//! one remote session, so `BEGIN … COMMIT` works across prompts exactly as
//! locally (meta-commands that need engine access are local-only).
//!
//! ```text
//! tintin> CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
//! tintin> CREATE ASSERTION neverNegative CHECK (NOT EXISTS (
//!             SELECT * FROM orders WHERE o_orderkey < 0));
//! tintin> BEGIN;
//! tintin*> INSERT INTO orders VALUES (-1);
//! tintin*> SELECT * FROM orders;   -- read-your-writes: the pending row
//! tintin*> .session new            -- a second session over the same db
//! tintin[2]> SELECT * FROM orders; -- sees nothing: the insert is pending
//! tintin[2]> .session 1
//! tintin[1]*> COMMIT;              -- rejected, transaction rolled back
//! ```
//!
//! The prompt shows `tintin*>` while a transaction is open, and the session
//! id (`tintin[2]>`) once more than one session is attached.

use std::io::{BufRead, Write};
use tintin::CheckStats;
use tintin_session::{Server, Session, StatementOutcome};

const HELP: &str = "\
SQL (terminated by ';'):
  BEGIN; COMMIT; ROLLBACK;            explicit transactions — COMMIT runs
  SAVEPOINT s; ROLLBACK TO s;         safeCommit and applies or rejects the
  RELEASE s;                          whole batch atomically
  CREATE ASSERTION name CHECK (…);    install an assertion (views and all)
  DROP ASSERTION name;                uninstall it
  EXPLAIN ASSERTION name;             the install-time static-analysis report
                                      (linter class, pruned event rules,
                                      residual gates) — `.explain name` for
                                      short
  other DDL / INSERT / DELETE / UPDATE / SELECT
      outside a transaction, DML autocommits (checked immediately);
      inside one it accumulates as this session's pending update —
      your own SELECTs see it (read-your-writes), other sessions don't

Sessions (all attached to the same shared database):
  .sessions         list attached sessions and their transaction state
  .session new      open a new session and switch to it
  .session <n>      switch to session n

Meta-commands (no semicolon needed):
  .tx               transaction status: pending insert/delete row counts,
                    savepoints
  .stats            the last commit's check statistics (views evaluated /
                    skipped by relevance, prepared plans reused / recompiled)
                    plus MVCC row-version state: live/dead versions, average
                    version-chain length, GC passes and versions pruned
  .explain <name>   the EXPLAIN ASSERTION report for one assertion
  explain <query>;  show the access-path plan (scans vs index probes)
  assert <sql>;     queue a CREATE ASSERTION for the next `install`
  install           install queued assertions together (one installation)
  check             dry-run check of pending events
  pending           total pending insertion/deletion counts
  tables            list tables;  views — list views
  assertions        list installed assertions
  demo              load a small orders/lineitem demo schema + data
  help              this text;  quit — exit
";

fn print_stats(stats: &CheckStats) {
    println!("last commit's check statistics:");
    println!(
        "  views: {} installed, {} evaluated, {} skipped ({} by relevance, \
         without consulting their gate)",
        stats.views_total,
        stats.views_evaluated,
        stats.views_skipped,
        stats.views_skipped_relevance
    );
    println!(
        "  prepared plans: {} reused from cache, {} recompiled",
        stats.plans_reused, stats.plans_recompiled
    );
    println!(
        "  aggregate fallbacks: {} evaluated, {} skipped",
        stats.fallbacks_evaluated, stats.fallbacks_skipped
    );
    println!(
        "  normalization dropped {} event row(s); check time {:?}",
        stats.normalization.total(),
        stats.check_time
    );
}

fn print_mvcc_stats(mvcc: &tintin_engine::MvccStats) {
    println!("row-version (MVCC) state:");
    println!(
        "  commit timestamp {}; {} live version(s), {} dead awaiting GC \
         (avg chain length {:.2})",
        mvcc.commit_ts,
        mvcc.live_versions,
        mvcc.dead_versions,
        mvcc.chain_length()
    );
    println!(
        "  garbage collection: {} pass(es), {} version(s) pruned",
        mvcc.gc_runs, mvcc.gc_pruned
    );
}

/// Print the server-wide metrics registry the way `.stats` does remotely:
/// lifetime commit-outcome counters and commit-latency percentiles across
/// *all* sessions (the `CheckStats` above are this repl's last commit only).
fn print_server_metrics(snapshot: &tintin_obs::Snapshot) {
    let c = |name| snapshot.counter(name).unwrap_or(0);
    println!("server-wide commit metrics (all sessions since startup):");
    println!(
        "  attempts {}, committed {}, rejected {}, conflicts {}, errors {}",
        c("tintin_commit_attempts_total"),
        c("tintin_commits_total"),
        c("tintin_commit_rejects_total"),
        c("tintin_commit_conflicts_total"),
        c("tintin_commit_errors_total"),
    );
    if let Some(h) = snapshot.histogram("tintin_commit_seconds") {
        if h.count > 0 {
            println!(
                "  checked-commit latency: {} sample(s), mean {:?}, \
                 p50 {:?}, p95 {:?}, p99.9 {:?}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.999),
            );
        }
    }
}

/// Print one outcome (the shared wire/local rendering) and capture the
/// commit statistics for `.stats`.
fn print_outcome(outcome: StatementOutcome, last_stats: &mut Option<CheckStats>) {
    println!("{}", tintin_client::render_outcome(&outcome));
    match outcome {
        StatementOutcome::Committed { stats, .. } | StatementOutcome::Rejected { stats, .. } => {
            *last_stats = Some(stats);
        }
        _ => {}
    }
}

fn list_sessions(sessions: &[Session], cur: usize) {
    for (i, s) in sessions.iter().enumerate() {
        let marker = if i == cur { "*" } else { " " };
        let (ins, del) = s.pending_counts();
        let tx = if s.in_transaction() {
            format!("transaction open, pending +{ins}/-{del}")
        } else {
            "autocommit".to_string()
        };
        println!("{marker} session {} — {tx}", s.id());
    }
}

/// Remote mode: a thin loop over `tintin_client::Client` — statements go
/// over the wire, outcomes (including violation details and partial-script
/// failures) come back typed and print like the local ones.
fn remote_repl(addr: &str) {
    let mut client = match tintin_client::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("TINTIN repl — connected to {addr}; end statements with ';', `quit` to exit.");
    if let Err(e) = tintin_client::run_interactive(&mut client, &format!("tintin@{addr}")) {
        println!("error: {e}");
        std::process::exit(1); // connection (and remote session) gone
    }
    println!("bye");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--connect") {
        let Some(addr) = args.get(i + 1) else {
            eprintln!("usage: repl [--connect HOST:PORT]");
            std::process::exit(2);
        };
        remote_repl(addr);
        return;
    }
    println!("TINTIN repl — type `help` for commands.");
    let server = Server::new();
    let mut sessions: Vec<Session> = vec![server.connect()];
    let mut cur = 0usize;
    let mut queued: Vec<String> = Vec::new();
    let mut last_stats: Option<CheckStats> = None;
    let stdin = std::io::stdin();
    let mut buffer = String::new();

    loop {
        let session = &mut sessions[cur];
        if buffer.is_empty() {
            let star = if session.in_transaction() { "*" } else { "" };
            if sessions.len() > 1 {
                print!("tintin[{}]{star}> ", sessions[cur].id());
            } else {
                print!("tintin{star}> ");
            }
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().unwrap();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let session = &mut sessions[cur];

        // Single-word commands work without a terminating semicolon.
        if buffer.is_empty() {
            match line {
                "quit" | "exit" => break,
                "help" => {
                    println!("{HELP}");
                    continue;
                }
                ".sessions" => {
                    list_sessions(&sessions, cur);
                    continue;
                }
                ".session new" => {
                    sessions.push(server.connect());
                    cur = sessions.len() - 1;
                    println!("session {} opened", sessions[cur].id());
                    continue;
                }
                ".stats" => {
                    match &last_stats {
                        Some(stats) => print_stats(stats),
                        None => println!("no commit yet in this repl"),
                    }
                    let mvcc = session.database().read().mvcc_stats();
                    print_mvcc_stats(&mvcc);
                    print_server_metrics(&server.metrics_snapshot());
                    continue;
                }
                ".tx" => {
                    if session.in_transaction() {
                        println!("transaction: open");
                        let pending = session.pending_by_table();
                        if pending.is_empty() {
                            println!("  no pending events");
                        } else {
                            for p in pending {
                                println!(
                                    "  {:<12} +ins: {:>5}   -del: {:>5}",
                                    p.table, p.inserts, p.deletes
                                );
                            }
                        }
                        let sps = session.savepoints();
                        if !sps.is_empty() {
                            println!("  savepoints: {}", sps.join(" → "));
                        }
                    } else {
                        println!("transaction: none (autocommit)");
                        let (ins, del) = session.pending_counts();
                        if ins + del > 0 {
                            println!("  stray pending events: +{ins}/-{del}");
                        }
                    }
                    continue;
                }
                "install" => {
                    if queued.is_empty() {
                        println!("no assertions queued; use `assert CREATE ASSERTION …;`");
                        continue;
                    }
                    let refs: Vec<&str> = queued.iter().map(|s| s.as_str()).collect();
                    match session.install(&refs) {
                        Ok(inst) => {
                            println!(
                                "installed {} assertion(s), {} incremental view(s)",
                                inst.assertions.len(),
                                inst.view_count()
                            );
                            for d in &inst.denial_texts {
                                println!("  denial: {d}");
                            }
                            queued.clear();
                        }
                        Err(e) => println!("install failed: {e}"),
                    }
                    continue;
                }
                "check" => {
                    match session.check_pending() {
                        Ok((violations, stats)) => {
                            println!(
                                "checked in {:?}: {} violation(s)",
                                stats.check_time,
                                violations.len()
                            );
                            for v in violations {
                                println!("  {} →\n{}", v.assertion, v.rows);
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                    continue;
                }
                "pending" => {
                    let (ins, del) = session.pending_counts();
                    println!("pending: {ins} insertion(s), {del} deletion(s)");
                    continue;
                }
                "tables" => {
                    let db = session.database().read();
                    for t in db.table_names() {
                        println!("  {t} ({} rows)", db.table(&t).unwrap().len());
                    }
                    continue;
                }
                "views" => {
                    for v in session.database().read().view_names() {
                        println!("  {v}");
                    }
                    continue;
                }
                "assertions" => {
                    let names = session.assertion_names();
                    if names.is_empty() {
                        println!("  (none installed)");
                    }
                    for n in names {
                        println!("  {n}");
                    }
                    continue;
                }
                "demo" => {
                    match session.execute(
                        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_totalprice REAL);
                         CREATE TABLE lineitem (
                             l_orderkey INT NOT NULL REFERENCES orders,
                             l_linenumber INT NOT NULL,
                             PRIMARY KEY (l_orderkey, l_linenumber));
                         INSERT INTO orders VALUES (1, 10.0), (2, 20.0);
                         INSERT INTO lineitem VALUES (1, 1), (2, 1);",
                    ) {
                        Ok(_) => println!("demo schema loaded (orders, lineitem)"),
                        Err(e) => println!("error: {e}"),
                    }
                    continue;
                }
                _ => {}
            }
            if let Some(rest) = line.strip_prefix(".explain ") {
                let name = rest.trim().trim_end_matches(';');
                match session.execute(&format!("EXPLAIN ASSERTION {name};")) {
                    Ok(outcomes) => {
                        for outcome in outcomes {
                            print_outcome(outcome, &mut last_stats);
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix(".session ") {
                match rest.trim().parse::<u64>() {
                    Ok(id) => match sessions.iter().position(|s| s.id() == id) {
                        Some(i) => {
                            cur = i;
                            println!("switched to session {id}");
                        }
                        None => println!("no session {id}; `.sessions` lists them"),
                    },
                    Err(_) => println!("usage: .session new | .session <id>"),
                }
                continue;
            }
        }

        // Accumulate until a terminating semicolon.
        buffer.push_str(line);
        buffer.push('\n');
        if !line.ends_with(';') {
            continue;
        }
        let input = std::mem::take(&mut buffer);
        let input = input.trim().trim_end_matches(';').trim();

        if let Some(rest) = input.strip_prefix("explain ") {
            // `EXPLAIN ASSERTION name` is a real statement (the linter
            // report); bare `explain <query>` shows the access-path plan.
            if !rest.trim_start().to_lowercase().starts_with("assertion ") {
                let plan = tintin_sql::parse_query(rest)
                    .map_err(tintin_engine::EngineError::from)
                    .and_then(|q| session.database().read().explain(&q));
                match plan {
                    Ok(plan) => print!("{plan}"),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
        }

        if let Some(rest) = input.strip_prefix("assert ") {
            match tintin_sql::parse_statement(rest) {
                Ok(tintin_sql::Statement::CreateAssertion(a)) => {
                    println!("queued assertion '{}'", a.name);
                    queued.push(rest.to_string());
                }
                Ok(_) => println!("`assert` expects a CREATE ASSERTION statement"),
                Err(e) => println!("parse error: {e}"),
            }
            continue;
        }

        match session.execute(input) {
            Ok(outcomes) => {
                for outcome in outcomes {
                    print_outcome(outcome, &mut last_stats);
                }
            }
            Err(e) => {
                // The script error knows how far the script got: show what
                // *did* happen before reporting the failing statement.
                for outcome in &e.completed {
                    print_outcome(outcome.clone(), &mut last_stats);
                }
                println!("error: {e}");
                if session.in_transaction() {
                    println!("(the transaction is still open — COMMIT or ROLLBACK)");
                }
            }
        }
    }
    println!("bye");
}
