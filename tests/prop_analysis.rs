//! Property test of the install-time analysis's soundness claim:
//!
//! > `analyze_body` = Unsat implies the generated violation view returns
//! > no rows — for **any** database state and **any** pending update.
//!
//! The assertion pool below expands (with the analysis disabled, so the
//! pruned bodies still reach SQL generation) to a mix of satisfiable and
//! provably-unsatisfiable EDC bodies. Every body the analyzer rejects has
//! its view evaluated against 200 seeded random databases with random
//! pending event batches staged; a single returned row would be a
//! counterexample to soundness (a pruned view that could have fired).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tintin::Tintin;
use tintin_engine::{Database, ReadCtx, Value};
use tintin_logic::{analyze_body, translate_assertion, EdcConfig, EdcGenerator, Registry};
use tintin_sql as sql;
use tintin_sqlgen::{generate_views, GeneratedView};

const SCHEMA: &str = "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT);
     CREATE TABLE u (uk INT PRIMARY KEY, fk INT NOT NULL, c INT);";

/// Assertions chosen so EDC expansion yields bodies each analysis rule
/// prunes — plus satisfiable controls that must *not* be pruned.
const ASSERTIONS: &[&str] = &[
    // Interval contradiction: a > 5 AND a < 3 can never hold.
    "CREATE ASSERTION p1 CHECK (NOT EXISTS (
        SELECT * FROM t WHERE a > 5 AND a < 3))",
    // Equality congruence: a = b merges the classes, whose interval
    // constraints (a < 1, b > 2) then contradict.
    "CREATE ASSERTION p2 CHECK (NOT EXISTS (
        SELECT * FROM t WHERE a = b AND a < 1 AND b > 2))",
    // Key subsumption: x and y are the same row of t, so x.a < 0 and
    // y.a > 0 contradict.
    "CREATE ASSERTION p3 CHECK (NOT EXISTS (
        SELECT * FROM t x, t y WHERE x.k = y.k AND x.a < 0 AND y.a > 0))",
    // Congruence through a join: u.fk = t.k pins t.k into u.fk's class,
    // whose bounds (fk >= 10, k <= 3) then contradict.
    "CREATE ASSERTION p4 CHECK (NOT EXISTS (
        SELECT * FROM t, u WHERE t.k = u.fk AND u.fk >= 10 AND t.k <= 3))",
    // Satisfiable controls — the analyzer must keep these.
    "CREATE ASSERTION s1 CHECK (NOT EXISTS (
        SELECT * FROM t WHERE a < 0))",
    "CREATE ASSERTION s2 CHECK (NOT EXISTS (
        SELECT * FROM t, u WHERE t.k = u.fk AND u.c > 100))",
];

/// Expand the assertion pool to EDCs with the analysis *off* (so nothing
/// is pruned before SQL generation), then partition the generated views by
/// the analyzer's verdict on their bodies.
fn expand() -> (Vec<GeneratedView>, Vec<GeneratedView>) {
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    let cat = Tintin::catalog_of(&db);
    let mut reg = Registry::new();
    // Raw expansion: both the legacy optimizer and the analysis pass are
    // off, so provably-unsatisfiable bodies still reach SQL generation and
    // the analyzer's verdict can be tested against their actual views.
    let config = EdcConfig {
        optimize: false,
        analysis: false,
        ..EdcConfig::default()
    };
    let mut unsat = Vec::new();
    let mut sat = Vec::new();
    for text in ASSERTIONS {
        let sql::Statement::CreateAssertion(a) = sql::parse_statement(text).unwrap() else {
            panic!("assertion pool entry is not CREATE ASSERTION");
        };
        let denials = translate_assertion(&cat, &mut reg, &a).unwrap();
        for d in &denials {
            let mut generator = EdcGenerator::new(&mut reg, &cat, config);
            let edcs = generator.generate(d).unwrap();
            let views = generate_views(&cat, &reg, &edcs).unwrap();
            for (edc, view) in edcs.iter().zip(views) {
                match analyze_body(&edc.body, &cat, true) {
                    Err(_) => unsat.push(view),
                    Ok(_) => sat.push(view),
                }
            }
        }
    }
    (unsat, sat)
}

/// One seeded random database plus a staged random event batch.
fn random_state(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    // Event capture creates the ins_/del_ tables the vio views join.
    db.enable_capture("t").unwrap();
    db.enable_capture("u").unwrap();

    // Base rows: distinct keys (the engine enforces the PK; key
    // subsumption's soundness also assumes it), adversarial values —
    // negative, boundary, NULL.
    let val = |rng: &mut StdRng| -> Value {
        if rng.gen_range(0..8usize) == 0 {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-5i64..=6))
        }
    };
    let t_rows = rng.gen_range(0..12usize);
    let rows: Vec<Vec<Value>> = (0..t_rows)
        .map(|k| vec![Value::Int(k as i64), val(&mut rng), val(&mut rng)])
        .collect();
    db.insert_direct("t", rows).unwrap();
    let u_rows = rng.gen_range(0..12usize);
    let rows: Vec<Vec<Value>> = (0..u_rows)
        .map(|k| {
            vec![
                Value::Int(k as i64),
                Value::Int(rng.gen_range(-2i64..12)),
                val(&mut rng),
            ]
        })
        .collect();
    db.insert_direct("u", rows).unwrap();

    // Pending events: fresh-key inserts into both tables plus predicate
    // deletes, then event normalization — exactly the state the commit
    // path would hand to the vio views.
    let ins = rng.gen_range(0..6usize);
    for i in 0..ins {
        let k = 1000 + i as i64;
        db.insert_rows("t", vec![vec![Value::Int(k), val(&mut rng), val(&mut rng)]])
            .unwrap();
        db.insert_rows(
            "u",
            vec![vec![
                Value::Int(k),
                Value::Int(rng.gen_range(-2i64..12)),
                val(&mut rng),
            ]],
        )
        .unwrap();
    }
    let cut = rng.gen_range(-3i64..8);
    db.execute_sql(&format!("DELETE FROM u WHERE c > {cut}"))
        .unwrap();
    db.execute_sql(&format!("DELETE FROM t WHERE a < {}", -cut))
        .unwrap();
    db.normalize_events().unwrap();
    db
}

#[test]
fn unsat_bodies_generate_empty_views_under_random_states() {
    let (unsat, sat) = expand();
    // The pool must actually exercise both verdicts, or the property
    // below is vacuous.
    assert!(
        unsat.len() >= 4,
        "expected every pruned shape to appear, got {} unsat views",
        unsat.len()
    );
    assert!(
        sat.len() >= 2,
        "expected the satisfiable controls to survive, got {} sat views",
        sat.len()
    );

    for seed in 0..200u64 {
        let db = random_state(seed);
        for view in &unsat {
            let rs = db.query(&view.query, ReadCtx::LATEST).unwrap();
            assert!(
                rs.is_empty(),
                "seed {seed}: view {} of pruned (unsatisfiable) body returned {} row(s) — \
                 the analysis would have wrongly suppressed a violation",
                view.name,
                rs.len()
            );
        }
    }
}

/// The satisfiable controls are not vacuous: under at least one seeded
/// state some kept view actually fires, so the harness can distinguish an
/// empty-by-unsatisfiability view from an empty-by-construction one.
#[test]
fn sat_controls_can_fire() {
    let (_, sat) = expand();
    let fired = (0..200u64).any(|seed| {
        let db = random_state(seed);
        sat.iter()
            .any(|v| !db.query(&v.query, ReadCtx::LATEST).unwrap().is_empty())
    });
    assert!(
        fired,
        "no satisfiable control view returned rows under any seed — \
         the random states never exercise the views at all"
    );
}
