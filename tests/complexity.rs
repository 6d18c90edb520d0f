//! Complexity tests of the transaction path: a checked `COMMIT` must cost
//! time proportional to the update, which only holds if every statement
//! costs time proportional to the rows *it* touches — whatever the
//! transaction proposed before.
//!
//! These compare the program with itself at two sizes, so they do not
//! depend on how fast the machine is: a linear path scales by the size
//! ratio, the quadratic one this guards against by its square. Each
//! measurement is the fastest of several repetitions, which discards
//! scheduler noise. CI runs them optimized (`cargo test --release`); the
//! bounds also hold unoptimized.

use std::fmt::Write;
use std::time::{Duration, Instant};
use tintin_session::{Session, StatementOutcome};

const PRELOADED_ORDERS: i64 = 4_000;

/// `orders` + `lineitem` (4 lines per order), preloaded and committed.
fn session() -> Session {
    let mut s = Session::new();
    s.execute(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT NOT NULL, \
                              o_totalprice REAL NOT NULL);
         CREATE TABLE lineitem (l_orderkey INT NOT NULL REFERENCES orders, \
                                l_linenumber INT NOT NULL, l_quantity INT NOT NULL, \
                                PRIMARY KEY (l_orderkey, l_linenumber));",
    )
    .expect("schema");
    let mut orders = String::from("INSERT INTO orders VALUES ");
    let mut lines = String::from("INSERT INTO lineitem VALUES ");
    for k in 0..PRELOADED_ORDERS {
        let sep = if k == 0 { "" } else { ", " };
        write!(orders, "{sep}({k}, {}, 10.0)", k % 97).unwrap();
        for ln in 1..=4 {
            let sep = if k == 0 && ln == 1 { "" } else { ", " };
            write!(lines, "{sep}({k}, {ln}, 5)").unwrap();
        }
    }
    s.execute(&format!("{orders}; {lines};")).expect("preload");
    s
}

/// Keys not used yet: fresh order keys for inserts, preloaded orders not
/// deleted yet.
struct Keys {
    next_new: i64,
    next_victim: i64,
}

/// A transaction proposing about `rows` row events, shaped like the
/// benchmark's batches: new orders with four lines each (one statement per
/// order and per order's lines), and for every fifth order a keyed delete
/// of a *preloaded* order with its lines, a keyed delete of one of this
/// transaction's *own* pending orders' lines (retractions), and a reprice
/// of a pending order (retract + re-propose).
fn script(rows: usize, keys: &mut Keys) -> String {
    let mut out = String::from("BEGIN; ");
    for i in 0..rows / 5 {
        let k = keys.next_new;
        keys.next_new += 1;
        write!(
            out,
            "INSERT INTO orders VALUES ({k}, 7, 1.5); \
             INSERT INTO lineitem VALUES ({k}, 1, 1), ({k}, 2, 1), ({k}, 3, 1), ({k}, 4, 1); "
        )
        .unwrap();
        if i % 5 == 4 {
            let victim = keys.next_victim;
            keys.next_victim += 1;
            assert!(victim < PRELOADED_ORDERS, "preload more orders");
            write!(
                out,
                "DELETE FROM lineitem WHERE l_orderkey = {victim}; \
                 DELETE FROM orders WHERE o_orderkey = {victim}; \
                 DELETE FROM lineitem WHERE l_orderkey = {}; \
                 UPDATE orders SET o_totalprice = 2.5 WHERE o_orderkey = {}; ",
                k - 2,
                k - 1
            )
            .unwrap();
        }
    }
    out.push_str("COMMIT;");
    out
}

/// Fastest of `reps` executions of a `rows`-row transaction (plan every
/// statement, commit), each on fresh keys.
fn fastest(s: &mut Session, rows: usize, reps: usize, keys: &mut Keys) -> Duration {
    (0..reps)
        .map(|_| {
            let text = script(rows, keys);
            let started = Instant::now();
            let out = s.execute(&text).expect("transaction runs");
            let took = started.elapsed();
            assert!(
                matches!(out.last(), Some(StatementOutcome::Committed { .. })),
                "transaction must commit, got {:?}",
                out.last()
            );
            took
        })
        .min()
        .expect("at least one repetition")
}

fn keys() -> Keys {
    Keys {
        next_new: PRELOADED_ORDERS,
        next_victim: 0,
    }
}

/// 8× the rows may take at most 20× the time (linear is 8×; the
/// per-statement overlay copy and linear key scans this replaced made it
/// about 64×).
#[test]
fn complexity_plan_and_commit_scale_linearly_with_the_transaction() {
    let mut s = session();
    let mut keys = keys();
    fastest(&mut s, 1_000, 1, &mut keys); // warm allocator and caches
    let small = fastest(&mut s, 1_000, 5, &mut keys);
    let large = fastest(&mut s, 8_000, 3, &mut keys);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!("1000 rows {small:?}, 8000 rows {large:?}: {ratio:.1}x");
    assert!(
        ratio < 20.0,
        "8000-row transaction took {large:?}, 1000-row {small:?}: {ratio:.1}x (linear is 8x)"
    );
}

/// The cost of planning one more row must not depend on how many rows the
/// transaction already holds: per-row time at 800 rows within 3× of the
/// per-row time at 25 rows (it was 12× when planning copied the overlay).
#[test]
fn complexity_per_row_planning_cost_is_flat() {
    let mut s = session();
    let mut keys = keys();
    fastest(&mut s, 800, 1, &mut keys);
    let per_row = |d: Duration, rows: usize| d.as_secs_f64() * 1e6 / rows as f64;
    let small = per_row(fastest(&mut s, 25, 40, &mut keys), 25);
    let large = per_row(fastest(&mut s, 800, 10, &mut keys), 800);
    println!("per row: {small:.2} us at 25 rows, {large:.2} us at 800 rows");
    assert!(
        large < 3.0 * small,
        "per-row cost {small:.2} us at 25 rows, {large:.2} us at 800 rows"
    );
}
