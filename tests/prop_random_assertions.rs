//! Property test over *randomly generated assertions*: any assertion drawn
//! from the supported fragment must (a) install successfully, and (b) yield
//! an incremental verdict identical to the non-incremental ground truth on
//! random update batches.
//!
//! Together with `prop_incremental.rs` (fixed assertions, random data) this
//! covers the other axis: random assertions, semi-random data.

use proptest::prelude::*;
use tintin::{Tintin, TintinConfig};
use tintin_engine::{Database, ReadCtx};

fn make_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE parent (pk INT PRIMARY KEY);
         CREATE TABLE child (ck INT PRIMARY KEY, fkc INT NOT NULL REFERENCES parent);
         CREATE TABLE item (ik INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL);",
    )
    .unwrap();
    db
}

/// Columns per table (INT everywhere keeps comparisons well-typed).
const TABLES: &[(&str, &[&str])] = &[
    ("parent", &["pk"]),
    ("child", &["ck", "fkc"]),
    ("item", &["ik", "grp", "val"]),
];

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)]
enum Shape {
    /// NOT EXISTS (SELECT * FROM t WHERE col op const)
    Selection {
        table: usize,
        col: usize,
        op: &'static str,
        konst: i64,
    },
    /// NOT EXISTS (SELECT * FROM t1 a, t2 b WHERE a.c1 = b.c2 [AND a.c3 op k])
    Join {
        t1: usize,
        c1: usize,
        t2: usize,
        c2: usize,
        extra: Option<(usize, &'static str, i64)>,
    },
    /// NOT EXISTS (… WHERE NOT EXISTS (SELECT * FROM t2 b WHERE b.c2 = a.c1 [AND b.c3 op k]))
    Inclusion {
        t1: usize,
        c1: usize,
        t2: usize,
        c2: usize,
        extra: Option<(usize, &'static str, i64)>,
    },
    /// NOT EXISTS (SELECT * FROM t WHERE col [NOT] IN (SELECT c2 FROM t2))
    InShape {
        t1: usize,
        c1: usize,
        t2: usize,
        c2: usize,
        negated: bool,
    },
    /// Union of two selections.
    UnionShape {
        a: (usize, usize, &'static str, i64),
        b: (usize, usize, &'static str, i64),
    },
}

fn ops() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
        Just("="),
        Just("<>")
    ]
}

fn table_col() -> impl Strategy<Value = (usize, usize)> {
    (0..TABLES.len()).prop_flat_map(|t| (Just(t), 0..TABLES[t].1.len()))
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let konst = -3..6i64;
    prop_oneof![
        (table_col(), ops(), konst.clone()).prop_map(|((t, c), op, k)| Shape::Selection {
            table: t,
            col: c,
            op,
            konst: k,
        }),
        (
            table_col(),
            table_col(),
            proptest::option::of((0..3usize, ops(), konst.clone()))
        )
            .prop_map(|((t1, c1), (t2, c2), extra)| Shape::Join {
                t1,
                c1,
                t2,
                c2,
                extra: extra.map(|(c, op, k)| (c % TABLES[t1].1.len(), op, k)),
            }),
        (
            table_col(),
            table_col(),
            proptest::option::of((0..3usize, ops(), konst.clone()))
        )
            .prop_map(|((t1, c1), (t2, c2), extra)| Shape::Inclusion {
                t1,
                c1,
                t2,
                c2,
                extra: extra.map(|(c, op, k)| (c % TABLES[t2].1.len(), op, k)),
            }),
        (table_col(), table_col(), any::<bool>()).prop_map(|((t1, c1), (t2, c2), negated)| {
            Shape::InShape {
                t1,
                c1,
                t2,
                c2,
                negated,
            }
        }),
        (table_col(), ops(), konst.clone(), table_col(), ops(), konst).prop_map(
            |((ta, ca), opa, ka, (tb, cb), opb, kb)| Shape::UnionShape {
                a: (ta, ca, opa, ka),
                b: (tb, cb, opb, kb),
            }
        ),
    ]
}

fn to_sql(shape: &Shape, name: &str) -> String {
    let t = |i: usize| TABLES[i].0;
    let c = |i: usize, j: usize| TABLES[i].1[j];
    let inner = match shape {
        Shape::Selection {
            table,
            col,
            op,
            konst,
        } => format!(
            "SELECT * FROM {} WHERE {} {} {}",
            t(*table),
            c(*table, *col),
            op,
            konst
        ),
        Shape::Join {
            t1,
            c1,
            t2,
            c2,
            extra,
        } => {
            let mut q = format!(
                "SELECT * FROM {} a, {} b WHERE a.{} = b.{}",
                t(*t1),
                t(*t2),
                c(*t1, *c1),
                c(*t2, *c2)
            );
            if let Some((ec, op, k)) = extra {
                q.push_str(&format!(" AND a.{} {} {}", c(*t1, *ec), op, k));
            }
            q
        }
        Shape::Inclusion {
            t1,
            c1,
            t2,
            c2,
            extra,
        } => {
            let mut sub = format!(
                "SELECT * FROM {} b WHERE b.{} = a.{}",
                t(*t2),
                c(*t2, *c2),
                c(*t1, *c1)
            );
            if let Some((ec, op, k)) = extra {
                sub.push_str(&format!(" AND b.{} {} {}", c(*t2, *ec), op, k));
            }
            format!("SELECT * FROM {} a WHERE NOT EXISTS ({sub})", t(*t1))
        }
        Shape::InShape {
            t1,
            c1,
            t2,
            c2,
            negated,
        } => format!(
            "SELECT * FROM {} a WHERE a.{} {} (SELECT {} FROM {})",
            t(*t1),
            c(*t1, *c1),
            if *negated { "NOT IN" } else { "IN" },
            c(*t2, *c2),
            t(*t2)
        ),
        Shape::UnionShape { a, b } => format!(
            "SELECT {} FROM {} WHERE {} {} {} UNION SELECT {} FROM {} WHERE {} {} {}",
            c(a.0, a.1),
            t(a.0),
            c(a.0, a.1),
            a.2,
            a.3,
            c(b.0, b.1),
            t(b.0),
            c(b.0, b.1),
            b.2,
            b.3
        ),
    };
    format!("CREATE ASSERTION {name} CHECK (NOT EXISTS ({inner}))")
}

/// Random DML batch issued through capture.
fn dml(seed: &[(u8, i64, i64, i64)], db: &mut Database) {
    for (kind, a, b, v) in seed {
        let stmt = match kind % 8 {
            0 => format!("INSERT INTO parent VALUES ({})", a % 6),
            1 => format!("INSERT INTO child VALUES ({}, {})", 10 + (a % 8), b % 6),
            2 => format!(
                "INSERT INTO item VALUES ({}, {}, {})",
                20 + (a % 8),
                b % 6,
                v % 5
            ),
            3 => format!("DELETE FROM parent WHERE pk = {}", a % 6),
            4 => format!("DELETE FROM child WHERE ck = {}", 10 + (a % 8)),
            5 => format!("DELETE FROM item WHERE ik = {}", 20 + (a % 8)),
            6 => format!("DELETE FROM child WHERE fkc = {}", a % 6),
            _ => format!("DELETE FROM item WHERE grp = {}", a % 6),
        };
        let _ = db.execute_sql(&stmt);
    }
}

/// Does the updated state violate? Ground truth over a clone: the events
/// applied as versions of the next commit timestamp, the original query run
/// on the live state.
fn ground_truth(base: &Database, assertion_sql: &str) -> Option<bool> {
    let mut db = base.clone();
    let (_, touched) = db.normalize_events().unwrap();
    let ts = db.next_commit_ts();
    if db.apply_pending_versioned(&touched, ts).is_err() {
        return None; // PK conflict among events: skip case
    }
    let tintin_sql::Statement::CreateAssertion(a) =
        tintin_sql::parse_statement(assertion_sql).unwrap()
    else {
        unreachable!()
    };
    let mut violated = false;
    for conj in a.condition.conjuncts() {
        if let tintin_sql::Expr::Exists {
            query,
            negated: true,
        } = conj
        {
            if !db.query(query, ReadCtx::LATEST).unwrap().is_empty() {
                violated = true;
            }
        }
    }
    Some(violated)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 100,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_assertions_check_incrementally(
        shape in shape_strategy(),
        batch1 in proptest::collection::vec((any::<u8>(), 0..64i64, 0..64i64, -4..8i64), 0..6),
        batch2 in proptest::collection::vec((any::<u8>(), 0..64i64, 0..64i64, -4..8i64), 1..8),
    ) {
        let assertion = to_sql(&shape, "rand_a");
        // Phase 0: empty database trivially satisfies any NOT EXISTS.
        let mut db = make_db();
        for t in ["parent", "child", "item"] {
            db.enable_capture(t).unwrap();
        }
        let tintin = Tintin::with_config(TintinConfig {
            check_initial_state: true,
            ..TintinConfig::default()
        });
        let inst = tintin
            .install(&mut db, &[assertion.as_str()])
            .unwrap_or_else(|e| panic!("in-fragment assertion failed to install: {e}\n{assertion}"));

        // Phase 1: reach some consistent non-empty state via safe_commit.
        dml(&batch1, &mut db);
        let _ = tintin.safe_commit(&mut db, &inst); // commit or reject, both fine

        // Phase 2: random batch → verdicts must agree.
        dml(&batch2, &mut db);
        let Some(truth) = ground_truth(&db, &assertion) else {
            return Ok(()); // apply conflict; skip
        };
        let (violations, _) = tintin.check_pending(&mut db, &inst).unwrap();
        prop_assert_eq!(
            !violations.is_empty(),
            truth,
            "verdicts diverged for assertion:\n{}\nbatch2: {:?}",
            assertion, batch2
        );
    }
}
