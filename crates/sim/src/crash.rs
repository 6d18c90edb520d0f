//! Crash and torn-write fault injection for the durable server.
//!
//! Each scenario drives a scripted, seeded workload against a
//! [`Server`] opened over a temp data directory, "crashes" it at a chosen
//! commit-phase hook point (capturing the log's durable/appended
//! watermarks at that exact instant), then simulates what a real crash
//! could leave on disk by rewriting the log tail — truncation at the
//! durable watermark, a torn partial frame, a flipped bit, a duplicated
//! record — and reopens the directory. The oracle then checks the
//! durability contract:
//!
//! * every **acknowledged** commit is present after recovery;
//! * **no rejected or aborted residue** — the recovered state is exactly
//!   the acknowledged prefix (plus, for a crash *after publication but
//!   before the ack*, optionally the one in-doubt commit);
//! * the recovered state passes `check_current_state` for every installed
//!   assertion (recovery's own `full_recheck` already ran too);
//! * recovery is **idempotent**: reopening again yields bit-identical
//!   state and the same commit clock.
//!
//! The battery also runs under the durability mutants
//! ([`Mutant::SkipFsync`], [`Mutant::AckBeforeLog`],
//! [`Mutant::TornCheckpoint`]) to prove the oracle catches each class of
//! write-protocol bug — a battery that cannot fail proves nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tintin_session::{
    CommitPhase, DurabilityFault, DurabilityOptions, HookAction, Server, StatementOutcome,
};

use crate::{fnv1a, Mutant, SimFailure};

/// Where in the phased commit the simulated crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After phase 1 (staged, unchecked): the commit is abandoned — it was
    /// never acknowledged and must leave no trace.
    Staged,
    /// After phase 2 (checked, unpublished): same contract as `Staged`.
    Checked,
    /// After phase 3 published (record appended, fsync still pending, ack
    /// never delivered): the commit is *in-doubt* — recovery may or may
    /// not include it, but never a prefix of it.
    Published,
    /// After `COMMIT` returned: the commit is acknowledged and must
    /// survive any crash.
    AfterAck,
}

impl CrashPoint {
    /// All crash points, battery order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::Staged,
        CrashPoint::Checked,
        CrashPoint::Published,
        CrashPoint::AfterAck,
    ];

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::Staged => "staged",
            CrashPoint::Checked => "checked",
            CrashPoint::Published => "published",
            CrashPoint::AfterAck => "after-ack",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// What the simulated crash does to the bytes of the log file, relative to
/// the watermarks captured at the crash instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFault {
    /// Every appended byte reached disk (the luckiest crash).
    KeepAll,
    /// Everything past the durable watermark is lost — the guaranteed
    /// survivor set. This is the fault that exposes `skip-fsync` and
    /// `ack-before-log`.
    LoseTail,
    /// Everything past the durable watermark is replaced by a torn partial
    /// frame (a header promising more bytes than exist).
    TornTail,
    /// The appended bytes survive but one bit past the durable watermark
    /// flipped (degenerates to `KeepAll` when nothing is past it).
    BitFlip,
    /// The final complete record was written twice (a retried append).
    DuplicateRecord,
}

impl TailFault {
    /// All tail faults, battery order.
    pub const ALL: [TailFault; 5] = [
        TailFault::KeepAll,
        TailFault::LoseTail,
        TailFault::TornTail,
        TailFault::BitFlip,
        TailFault::DuplicateRecord,
    ];

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            TailFault::KeepAll => "keep-all",
            TailFault::LoseTail => "lose-tail",
            TailFault::TornTail => "torn-tail",
            TailFault::BitFlip => "bit-flip",
            TailFault::DuplicateRecord => "duplicate-record",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<TailFault> {
        TailFault::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// One cell of the crash matrix.
#[derive(Debug, Clone, Copy)]
pub struct CrashScenario {
    /// Where the crash lands.
    pub point: CrashPoint,
    /// What it does to the log tail.
    pub fault: TailFault,
}

/// The full crash matrix (every point × every tail fault).
pub fn scenarios() -> Vec<CrashScenario> {
    let mut out = Vec::new();
    for point in CrashPoint::ALL {
        for fault in TailFault::ALL {
            out.push(CrashScenario { point, fault });
        }
    }
    out
}

/// Map a durability mutant to the fault it injects into the server.
fn durability_fault(mutant: Mutant) -> DurabilityFault {
    match mutant {
        Mutant::SkipFsync => DurabilityFault::SkipFsync,
        Mutant::AckBeforeLog => DurabilityFault::AckBeforeLog,
        Mutant::TornCheckpoint => DurabilityFault::TornCheckpoint,
        _ => DurabilityFault::None,
    }
}

/// The crash instant, captured inside the commit hook (or after the acked
/// statement returned): the log watermarks a real crash at that moment
/// would race against.
#[derive(Debug, Clone, Copy, Default)]
struct Captured {
    durable_size: u64,
    appended_size: u64,
}

/// Shared state between the workload driver and the commit hook.
#[derive(Default)]
struct CrashTrigger {
    /// Non-no-op phased commits seen so far (counted at `Staged`).
    attempts: AtomicU64,
    /// Which attempt to crash in.
    target: AtomicU64,
    /// The captured watermarks, once the crash fired.
    captured: Mutex<Option<Captured>>,
}

/// Canonical dump of the scenario table, via a session read (so MVCC
/// visibility rules apply exactly as clients see them).
fn dump(server: &Server) -> Vec<String> {
    let sess = server.connect();
    // A recovery that lost the very DDL (no `t0` at all) is still a state
    // the oracle must compare against the model, not a harness crash.
    let rs = match sess.query_rows("SELECT * FROM t0") {
        Ok(rs) => rs,
        Err(e) => return vec![format!("<dump failed: {e}>")],
    };
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn model_dump(model: &std::collections::BTreeMap<i64, i64>) -> Vec<String> {
    let mut rows: Vec<String> = model
        .iter()
        .map(|(k, v)| format!("[Int({k}), Int({v})]"))
        .collect();
    rows.sort();
    rows
}

/// Apply the scenario's tail fault to the log file, relative to the
/// captured crash-instant watermarks.
fn apply_tail_fault(
    wal_path: &std::path::Path,
    fault: TailFault,
    cap: Captured,
) -> Result<String, String> {
    let bytes = std::fs::read(wal_path).map_err(|e| format!("read wal: {e}"))?;
    let durable = (cap.durable_size as usize).min(bytes.len());
    let appended = (cap.appended_size as usize).min(bytes.len());
    let out = match fault {
        TailFault::KeepAll => bytes[..appended].to_vec(),
        TailFault::LoseTail => bytes[..durable].to_vec(),
        TailFault::TornTail => {
            let mut out = bytes[..durable].to_vec();
            // A frame header promising 64 payload bytes, then silence.
            out.extend_from_slice(&64u32.to_le_bytes());
            out.extend_from_slice(&0xdead_beefu32.to_le_bytes());
            out.extend_from_slice(&[0xab; 7]);
            out
        }
        TailFault::BitFlip => {
            let mut out = bytes[..appended].to_vec();
            if durable < out.len() {
                let idx = durable + (out.len() - durable) / 2;
                out[idx] ^= 0x10;
            }
            out
        }
        TailFault::DuplicateRecord => {
            let mut out = bytes[..appended].to_vec();
            let scan = tintin_wal::scan(&out);
            if let Some(last) = scan.frames.last() {
                let copy = out[last.span.clone()].to_vec();
                out.extend_from_slice(&copy);
            }
            out
        }
    };
    let desc = format!(
        "{}: {} -> {} bytes (durable {}, appended {})",
        fault.name(),
        bytes.len(),
        out.len(),
        durable,
        appended
    );
    std::fs::write(wal_path, &out).map_err(|e| format!("write wal: {e}"))?;
    Ok(desc)
}

/// Run one crash scenario. Returns the scenario log, or a failure message.
fn run_scenario(
    seed: u64,
    index: usize,
    scenario: CrashScenario,
    mutant: Mutant,
    log: &mut Vec<String>,
) -> Result<(), String> {
    // The mutant is part of the name: batteries that differ only in it run
    // concurrently in one test process.
    let dir = std::env::temp_dir().join(format!(
        "tintin-sim-crash-{}-{seed}-{index}-{mutant:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_scenario_in(&dir, seed, index, scenario, mutant, log);
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn run_scenario_in(
    dir: &std::path::Path,
    seed: u64,
    index: usize,
    scenario: CrashScenario,
    mutant: Mutant,
    log: &mut Vec<String>,
) -> Result<(), String> {
    // Every random choice derives from (seed, scenario index).
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(&(index as u64).to_le_bytes()));
    let fault = durability_fault(mutant);
    // The torn-checkpoint mutant only bites when a checkpoint happens.
    let n_statements = 14usize;
    let checkpoint_at = if mutant == Mutant::TornCheckpoint || rng.gen_bool(0.5) {
        Some(n_statements / 2)
    } else {
        None
    };
    let crash_at = rng.gen_range(4..n_statements as u64);

    let server =
        Server::open_with(dir, &DurabilityOptions::default()).map_err(|e| format!("open: {e}"))?;
    server.set_durability_fault(fault);
    let mut sess = server.connect();
    sess.execute(
        "CREATE TABLE t0 (k INT PRIMARY KEY, v INT);
         CREATE ASSERTION nonNegative CHECK (NOT EXISTS (SELECT * FROM t0 WHERE v < 0));",
    )
    .map_err(|e| format!("setup: {e}"))?;

    // Crash trigger: the hook counts non-no-op phased commits and, in the
    // target one, captures the log watermarks at the scenario's phase
    // boundary. Staged/Checked crashes abort the commit (a crashed
    // committer never published anything); Published crashes let it
    // publish but the ack never arrives.
    let trigger = Arc::new(CrashTrigger::default());
    trigger.target.store(crash_at, Ordering::Relaxed);
    {
        let trigger = Arc::clone(&trigger);
        let server = server.clone();
        let point = scenario.point;
        server.clone().set_commit_hook(Arc::new(move |_sid, phase| {
            if phase == CommitPhase::Staged {
                trigger.attempts.fetch_add(1, Ordering::Relaxed);
            }
            let in_target = trigger.attempts.load(Ordering::Relaxed)
                == trigger.target.load(Ordering::Relaxed) + 1;
            if !in_target {
                return HookAction::Continue;
            }
            let capture_now = matches!(
                (point, phase),
                (CrashPoint::Staged, CommitPhase::Staged)
                    | (CrashPoint::Checked, CommitPhase::Checked)
                    | (CrashPoint::Published, CommitPhase::Published)
            );
            if capture_now {
                let st = server.wal_status().expect("durable server");
                *trigger.captured.lock().unwrap() = Some(Captured {
                    durable_size: st.durable_size,
                    appended_size: st.appended_size,
                });
                if matches!(point, CrashPoint::Staged | CrashPoint::Checked) {
                    return HookAction::Abort;
                }
            }
            HookAction::Continue
        }));
    }

    // The scripted workload: monotonically-keyed inserts (occasionally
    // violating), occasional deletes; the model tracks acknowledged state.
    let mut model = std::collections::BTreeMap::new();
    let mut next_key = 1i64;
    let mut acked = 0usize;
    let mut rejected = 0usize;
    let mut in_doubt: Option<(String, i64, i64)> = None;
    for i in 0..n_statements {
        if checkpoint_at == Some(i) {
            server
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            log.push(format!("  [{i}] checkpoint"));
        }
        let delete = !model.is_empty() && rng.gen_bool(0.2);
        let stmt = if delete {
            let keys: Vec<i64> = model.keys().copied().collect();
            let k = keys[rng.gen_range(0..keys.len() as u64) as usize];
            format!("DELETE FROM t0 WHERE k = {k}")
        } else {
            let v: i64 = rng.gen_range(0..40) as i64 - rng.gen_range(0..8) as i64;
            let k = next_key;
            next_key += 1;
            format!("INSERT INTO t0 VALUES ({k}, {v})")
        };
        let res = sess.execute(&stmt);
        let crashed = trigger.captured.lock().unwrap().is_some();
        match res {
            Ok(outcomes) => match outcomes.last() {
                Some(StatementOutcome::Committed { .. }) => {
                    if crashed && scenario.point == CrashPoint::Published {
                        // Published-but-unacked: the in-doubt commit. Do
                        // NOT fold it into the model.
                        let (k, v, del_k) = parse_stmt(&stmt);
                        in_doubt = Some((stmt.clone(), k.unwrap_or(del_k.unwrap_or(0)), v));
                        log.push(format!("  [{i}] {stmt} -> published, ack lost"));
                        break;
                    }
                    apply_stmt_to_model(&stmt, &mut model);
                    acked += 1;
                    if crashed {
                        // AfterAck capture happens here, right after the
                        // acked statement returned.
                        break;
                    }
                    if scenario.point == CrashPoint::AfterAck
                        && trigger.attempts.load(Ordering::Relaxed) == crash_at + 1
                    {
                        let st = server.wal_status().expect("durable server");
                        *trigger.captured.lock().unwrap() = Some(Captured {
                            durable_size: st.durable_size,
                            appended_size: st.appended_size,
                        });
                        log.push(format!("  [{i}] {stmt} -> acked, then crash"));
                        break;
                    }
                }
                Some(StatementOutcome::Rejected { .. }) => {
                    rejected += 1;
                }
                other => return Err(format!("unexpected outcome {other:?} for {stmt}")),
            },
            Err(e) => {
                if crashed {
                    // The Staged/Checked abort — unacked by construction.
                    log.push(format!("  [{i}] {stmt} -> crashed mid-commit ({e})"));
                    break;
                }
                return Err(format!("statement failed unexpectedly: {stmt}: {e}"));
            }
        }
    }

    // If the crash never fired (e.g. the target attempt was rejected, so
    // the Published hook point never came), crash at quiescence instead.
    let cap = trigger.captured.lock().unwrap().take().unwrap_or_else(|| {
        let st = server.wal_status().expect("durable server");
        Captured {
            durable_size: st.durable_size,
            appended_size: st.appended_size,
        }
    });
    let wal_path = server.wal_status().expect("durable server").wal_path;
    drop(sess);
    drop(server);

    let fault_desc = apply_tail_fault(&wal_path, scenario.fault, cap)?;
    log.push(format!(
        "  crash: point={} {} acked={acked} rejected={rejected} in_doubt={}",
        scenario.point.name(),
        fault_desc,
        in_doubt.is_some(),
    ));

    // Reopen and run the oracle.
    let recovered = Server::open(dir).map_err(|e| {
        format!(
            "recovery failed (point={} fault={}): {e}",
            scenario.point.name(),
            scenario.fault.name()
        )
    })?;
    let summary = recovered.recovery_summary().expect("durable server");
    let got = dump(&recovered);
    let expect_base = model_dump(&model);
    let expect_with_doubt = in_doubt.as_ref().map(|(stmt, _, _)| {
        let mut m = model.clone();
        apply_stmt_to_model(stmt, &mut m);
        model_dump(&m)
    });
    let matches_base = got == expect_base;
    let matches_doubt = expect_with_doubt.as_ref().is_some_and(|e| got == *e);
    if !(matches_base || matches_doubt) {
        return Err(format!(
            "state divergence after recovery (point={} fault={}): acked commits must \
             survive and rejected/aborted commits must leave no residue.\n  recovered: \
             {got:?}\n  expected:  {expect_base:?}{}",
            scenario.point.name(),
            scenario.fault.name(),
            expect_with_doubt
                .map(|e| format!("\n  or (with in-doubt commit): {e:?}"))
                .unwrap_or_default()
        ));
    }
    if scenario.fault == TailFault::DuplicateRecord
        && cap.appended_size > 0
        && summary.duplicates_skipped == 0
    {
        return Err("duplicated record was not detected/skipped by recovery".into());
    }

    // The recovered state must satisfy every installed assertion under the
    // paper's trusted current-state check.
    {
        let checker = recovered.checker();
        let db = recovered.database().read();
        for inst in recovered.installations() {
            let violations = checker
                .check_current_state(&db, &inst)
                .map_err(|e| format!("check_current_state failed: {e}"))?;
            if violations.iter().any(|(_, n)| *n > 0) {
                return Err(format!(
                    "recovered state violates assertions: {violations:?}"
                ));
            }
        }
    }

    // Idempotence: recovering again must change nothing.
    let ts1 = {
        let ts = recovered.database().read().current_ts();
        ts
    };
    drop(recovered);
    let again = Server::open(dir).map_err(|e| format!("second recovery failed: {e}"))?;
    let got2 = dump(&again);
    let ts2 = {
        let ts = again.database().read().current_ts();
        ts
    };
    if got2 != got || ts1 != ts2 {
        return Err(format!(
            "recovery is not idempotent: first {got:?} ts={ts1}, second {got2:?} ts={ts2}"
        ));
    }
    log.push(format!(
        "  recovered: lsn={} commits_replayed={} truncated={}B dup_skipped={} rows={}",
        summary.recovered_lsn,
        summary.commits_replayed,
        summary.tail_bytes_truncated,
        summary.duplicates_skipped,
        got.len()
    ));
    Ok(())
}

/// Locate the `tintin-server` binary next to the current executable
/// (`target/<profile>/tintin-server`, also checked one level up for test
/// binaries living in `target/<profile>/deps/`).
fn server_binary() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent().map(|p| p.to_path_buf());
    while let Some(d) = dir {
        let candidate = d.join("tintin-server");
        if candidate.is_file() {
            return Ok(candidate);
        }
        let parent = d.parent().map(|p| p.to_path_buf());
        if d.file_name().is_some_and(|n| n == "deps") {
            dir = parent;
        } else {
            return Err(format!(
                "tintin-server binary not found next to {} — build it first \
                 (cargo build -p tintin-server)",
                exe.display()
            ));
        }
    }
    Err("cannot locate the tintin-server binary".to_string())
}

/// One kill-matrix trial: start a real `tintin-server --data-dir` process,
/// storm autocommit inserts over TCP from a client thread, `SIGKILL` the
/// server mid-storm, then recover the directory **in-process** and check
/// the durability contract against the client's acknowledgment log.
fn run_kill_trial(
    seed: u64,
    trial: usize,
    bin: &std::path::Path,
    log: &mut Vec<String>,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(&(trial as u64 ^ 0x6b69_6c6c).to_le_bytes()));
    let dir = std::env::temp_dir().join(format!(
        "tintin-sim-kill-{}-{seed}-{trial}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Each trial gets its own port so a dying listener never collides with
    // the next trial's bind.
    let port = 21000 + ((seed.wrapping_mul(131).wrapping_add(trial as u64 * 17)) % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");

    let mut child = std::process::Command::new(bin)
        .args(["--listen", &addr, "--data-dir"])
        .arg(&dir)
        .args(["--log", "off"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;

    let result = (|| {
        // Wait for the listener (the child recovers the dir, then binds).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut setup = loop {
            match tintin_client::Client::connect(addr.as_str()) {
                Ok(c) => break c,
                Err(e) => {
                    if std::time::Instant::now() > deadline {
                        return Err(format!("server never came up on {addr}: {e}"));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        setup
            .execute(
                "CREATE TABLE t0 (k INT PRIMARY KEY, v INT);
                 CREATE ASSERTION nonNegative CHECK (NOT EXISTS (SELECT * FROM t0 WHERE v < 0));",
            )
            .map_err(|e| format!("setup: {e}"))?;
        setup.close();

        // The storm: one client thread autocommitting monotone inserts.
        // `acked` records a key only after its COMMIT acknowledgment
        // arrived; `attempted` is bumped before the request is sent, so
        // attempted \ acked is the in-doubt frontier (at most the one
        // statement in flight when the SIGKILL lands).
        let acked = Arc::new(Mutex::new(Vec::<i64>::new()));
        let attempted = Arc::new(AtomicU64::new(0));
        let storm = {
            let acked = Arc::clone(&acked);
            let attempted = Arc::clone(&attempted);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = tintin_client::Client::connect(addr.as_str()) else {
                    return;
                };
                for k in 1..=10_000i64 {
                    attempted.store(k as u64, Ordering::SeqCst);
                    match c.execute(&format!("INSERT INTO t0 VALUES ({k}, {k})")) {
                        Ok(outcomes)
                            if matches!(
                                outcomes.last(),
                                Some(StatementOutcome::Committed { .. })
                            ) =>
                        {
                            acked.lock().unwrap().push(k);
                        }
                        // The kill severs the connection mid-request.
                        _ => return,
                    }
                }
            })
        };

        // Let the storm run a seed-chosen while, then SIGKILL — no
        // shutdown handler runs, exactly like a power cut for this process.
        std::thread::sleep(std::time::Duration::from_millis(
            30 + rng.gen_range(0..120u64),
        ));
        child.kill().map_err(|e| format!("kill: {e}"))?;
        let _ = child.wait();
        let _ = storm.join();

        let acked: Vec<i64> = acked.lock().unwrap().clone();
        let attempted = attempted.load(Ordering::SeqCst) as i64;

        // Recover in-process and run the oracle.
        let recovered =
            Server::open(&dir).map_err(|e| format!("recovery after SIGKILL failed: {e}"))?;
        let summary = recovered.recovery_summary().expect("durable server");
        let rows = {
            let sess = recovered.connect();
            let rs = sess
                .query_rows("SELECT k FROM t0")
                .map_err(|e| format!("{e}"))?;
            let mut keys: Vec<i64> = rs
                .rows
                .iter()
                .map(|r| format!("{:?}", r[0]))
                .map(|s| {
                    s.trim_start_matches("Int(")
                        .trim_end_matches(')')
                        .parse()
                        .unwrap_or(-1)
                })
                .collect();
            keys.sort_unstable();
            keys
        };
        for k in &acked {
            if rows.binary_search(k).is_err() {
                return Err(format!(
                    "acknowledged commit lost by SIGKILL: key {k} was acked but is absent \
                     after recovery ({} acked, {} recovered)",
                    acked.len(),
                    rows.len()
                ));
            }
        }
        for k in &rows {
            if *k < 1 || *k > attempted {
                return Err(format!(
                    "recovered key {k} was never attempted (attempted up to {attempted})"
                ));
            }
        }
        {
            let checker = recovered.checker();
            let db = recovered.database().read();
            for inst in recovered.installations() {
                let violations = checker
                    .check_current_state(&db, &inst)
                    .map_err(|e| format!("check_current_state failed: {e}"))?;
                if violations.iter().any(|(_, n)| *n > 0) {
                    return Err(format!(
                        "recovered state violates assertions: {violations:?}"
                    ));
                }
            }
        }
        log.push(format!(
            "trial {trial}: acked={} recovered={} in_doubt<= {} lsn={} replayed={}",
            acked.len(),
            rows.len(),
            attempted - acked.len() as i64,
            summary.recovered_lsn,
            summary.commits_replayed
        ));
        Ok(())
    })();

    // Belt and braces: never leave the child running on a failure path.
    let _ = child.kill();
    let _ = child.wait();
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

/// SIGKILL a live `tintin-server` process mid-commit-storm, `trials`
/// times, recovering and oracle-checking the data directory after each
/// kill. Unlike the single-threaded crash battery this uses real processes,
/// threads and wall-clock sleeps — it is a CI robustness job, not a
/// deterministic replay artifact (the seed still fixes the kill delays).
pub fn run_kill_matrix(seed: u64, trials: usize) -> Result<Vec<String>, String> {
    let bin = server_binary()?;
    let mut log = vec![format!("server binary: {}", bin.display())];
    for trial in 0..trials {
        run_kill_trial(seed, trial, &bin, &mut log)?;
    }
    Ok(log)
}

fn parse_stmt(stmt: &str) -> (Option<i64>, i64, Option<i64>) {
    if let Some(rest) = stmt.strip_prefix("INSERT INTO t0 VALUES (") {
        let inner = rest.trim_end_matches(')');
        let mut parts = inner.split(',');
        let k = parts.next().and_then(|s| s.trim().parse().ok());
        let v = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        (k, v, None)
    } else if let Some(rest) = stmt.strip_prefix("DELETE FROM t0 WHERE k = ") {
        (None, 0, rest.trim().parse().ok())
    } else {
        (None, 0, None)
    }
}

fn apply_stmt_to_model(stmt: &str, model: &mut std::collections::BTreeMap<i64, i64>) {
    let (k, v, del) = parse_stmt(stmt);
    if let Some(k) = k {
        model.insert(k, v);
    } else if let Some(k) = del {
        model.remove(&k);
    }
}

/// Run the crash battery: every scenario of the matrix (or just `only`)
/// for one seed, optionally under a durability mutant. Returns the
/// per-scenario log; the first failing scenario aborts the battery with a
/// replayable [`SimFailure`].
pub fn run_crash_battery(
    seed: u64,
    mutant: Mutant,
    only: Option<CrashScenario>,
) -> Result<Vec<String>, SimFailure> {
    let all = scenarios();
    let selected: Vec<(usize, CrashScenario)> = match only {
        Some(s) => vec![(
            all.iter()
                .position(|c| c.point == s.point && c.fault == s.fault)
                .unwrap_or(0),
            s,
        )],
        None => all.into_iter().enumerate().collect(),
    };
    let mut log = Vec::new();
    for (index, scenario) in selected {
        log.push(format!(
            "crash scenario {index}: point={} fault={} mutant={}",
            scenario.point.name(),
            scenario.fault.name(),
            mutant.name()
        ));
        if let Err(message) = run_scenario(seed, index, scenario, mutant, &mut log) {
            return Err(SimFailure {
                seed,
                step: index,
                message: format!(
                    "{message}\nreplay with: tintin-sim --crash --seed {seed} --crash-point {} \
                     --fault {}{}",
                    scenario.point.name(),
                    scenario.fault.name(),
                    if mutant == Mutant::None {
                        String::new()
                    } else {
                        format!(" --mutant {}", mutant.name())
                    }
                ),
                trace: log,
            });
        }
    }
    Ok(log)
}
