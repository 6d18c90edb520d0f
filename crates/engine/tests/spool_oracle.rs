//! Oracle test of the `EXISTS` spool.
//!
//! A spool reuses the verdict of the previous evaluation of an `EXISTS`
//! site when the outer values its branches read are the same, so it only
//! ever acts on *adjacent* repeats. Loading the same rows twice — once
//! key-sorted, so every repeat is adjacent, and once interleaved, so no two
//! adjacent rows share any key value — gives two databases on which a
//! correct spool must return the same answer to every query, while a spool
//! keyed on too few columns (or comparing keys too loosely) answers the
//! sorted copy wrongly.
//!
//! The tables draw correlation keys from tiny domains with NULLs; `vo`
//! mixes INT and REAL values in one column (so `1` and `1.0`, equal in SQL,
//! arrive as adjacent keys in the sorted copy and meet a type-sensitive
//! integer division); `vi` is a view with an `EXISTS` of its own, read
//! from inside another plan's `EXISTS`. Queries nest up to two levels and
//! correlate each level with any enclosing one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tintin_engine::{Database, ReadCtx, Value};

const SCHEMA: &str = "
    CREATE TABLE o (id INT PRIMARY KEY, k INT, b REAL, c TEXT);
    CREATE TABLE i (k INT, b REAL, c TEXT);
    CREATE TABLE j (k INT, b REAL, c TEXT);
    CREATE INDEX i_k ON i (k);
    CREATE VIEW vi AS SELECT i.k, i.b, i.c FROM i
        WHERE NOT EXISTS (SELECT 1 FROM j WHERE j.k = i.k AND j.c = i.c);";

/// `vo` pairs each outer row's INT key with its REAL one. The sorted copy
/// orders it by `id`, which puts the two values of one row next to each
/// other; the interleaved copy keeps union order, all INTs first.
const VO_SORTED: &str = "CREATE VIEW vo AS
    SELECT id, k AS x, c FROM o UNION ALL SELECT id, b AS x, c FROM o ORDER BY id";
const VO_INTERLEAVED: &str = "CREATE VIEW vo AS
    SELECT id, k AS x, c FROM o UNION ALL SELECT id, b AS x, c FROM o";

type Row = Vec<Value>;

fn int(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.15) {
        Value::Null
    } else {
        Value::Int(rng.gen_range(0..4i64))
    }
}

fn real(rng: &mut StdRng, k: &Value) -> Value {
    match k {
        // Often the REAL twin of the row's INT key.
        Value::Int(k) if rng.gen_bool(0.5) => Value::real(*k as f64),
        _ if rng.gen_bool(0.15) => Value::Null,
        _ => Value::real([0.0, 1.0, 1.5, 2.0, 3.0][rng.gen_range(0..5usize)]),
    }
}

fn text(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 | 2 => Value::str("x"),
        _ => Value::str("y"),
    }
}

/// `n` rows of `(k, b, c)` keys.
fn keys(rng: &mut StdRng, n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let k = int(rng);
            let b = real(rng, &k);
            vec![k, b, text(rng)]
        })
        .collect()
}

/// A row that shares no key value with any generated row or any other
/// separator: `base` keeps the three tables' separators apart too.
fn separator(base: i64, s: usize) -> Row {
    let n = base + s as i64;
    vec![
        Value::Int(n),
        Value::real(n as f64 + 0.5),
        Value::str(format!("sep{n}")),
    ]
}

/// Sort by the key columns in `order`, so rows sharing a key prefix are
/// adjacent.
fn sort_by_columns(rows: &mut [Row], order: &[usize]) {
    rows.sort_by(|a, b| {
        order.iter().fold(std::cmp::Ordering::Equal, |acc, &c| {
            acc.then(a[c].cmp(&b[c]))
        })
    });
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for n in (1..items.len()).rev() {
        items.swap(n, rng.gen_range(0..n + 1));
    }
}

/// The two load orders of one table: key-sorted with the separators at
/// the end, and shuffled with a separator between every two rows.
fn two_orders(rng: &mut StdRng, rows: &[Row], sep_base: i64) -> (Vec<Row>, Vec<Row>) {
    let mut order = vec![0, 1, 2];
    shuffle(rng, &mut order);
    let mut sorted = rows.to_vec();
    sort_by_columns(&mut sorted, &order);
    let mut shuffled = rows.to_vec();
    shuffle(rng, &mut shuffled);
    let mut interleaved = Vec::new();
    for (s, row) in shuffled.into_iter().enumerate() {
        if s > 0 {
            interleaved.push(separator(sep_base, s));
        }
        interleaved.push(row);
    }
    sorted.extend((1..rows.len()).map(|s| separator(sep_base, s)));
    (sorted, interleaved)
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => format!("{:?}", r.get()),
        Value::Str(s) => format!("'{s}'"),
    }
}

/// Load one copy of the tables, in the given row orders.
fn load(vo: &str, o: &[(i64, Row)], i: &[Row], j: &[Row]) -> Database {
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    db.execute_sql(vo).unwrap();
    let values = |r: &Row| r.iter().map(literal).collect::<Vec<_>>().join(", ");
    let mut script = String::new();
    for (id, r) in o {
        script.push_str(&format!("INSERT INTO o VALUES ({id}, {});", values(r)));
    }
    for (table, rows) in [("i", i), ("j", j)] {
        for r in rows {
            script.push_str(&format!("INSERT INTO {table} VALUES ({});", values(r)));
        }
    }
    db.execute_sql(&script).unwrap();
    db
}

fn pick<'s>(rng: &mut StdRng, items: &[&'s str]) -> &'s str {
    items[rng.gen_range(0..items.len())]
}

/// 1–3 conjuncts drawn from `atoms`.
fn conjuncts(rng: &mut StdRng, atoms: &[&str]) -> String {
    let n = rng.gen_range(1..4usize);
    (0..n)
        .map(|_| pick(rng, atoms).to_string())
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// A random correlated query over outer alias `o` (and sometimes a second
/// outer source `p`), with one or two `EXISTS` sites at the top and up to
/// one nested level.
fn query(rng: &mut StdRng) -> String {
    let over_vo = rng.gen_bool(0.3);
    let (from, num, txt) = if over_vo {
        ("vo AS o", vec!["o.x"], "o.c")
    } else {
        ("o AS o", vec!["o.k", "o.b"], "o.c")
    };
    let with_p = rng.gen_bool(0.25);
    let n = |rng: &mut StdRng| num[rng.gen_range(0..num.len())];
    let sub = |rng: &mut StdRng| -> String {
        let inner = pick(rng, &["i", "i", "vi"]);
        let mut atoms = vec![
            format!("i1.k = {}", n(rng)),
            format!("i1.b = {}", n(rng)),
            format!("i1.c = {txt}"),
            format!("i1.k = {} / 2", n(rng)),
            format!("i1.k < {}", n(rng)),
            format!("{} IS NULL", n(rng)),
            "i1.k > 0".to_string(),
        ];
        if with_p {
            atoms.push("i1.c = p.c".to_string());
            atoms.push("i1.k = p.k".to_string());
        }
        let atoms: Vec<&str> = atoms.iter().map(String::as_str).collect();
        let mut body = format!(
            "SELECT 1 FROM {inner} AS i1 WHERE {}",
            conjuncts(rng, &atoms)
        );
        if rng.gen_bool(0.5) {
            let nested = [
                "j1.k = i1.k".to_string(),
                format!("j1.c = {txt}"),
                format!("j1.b = {}", n(rng)),
                format!("j1.k = {}", n(rng)),
                "j1.b < i1.b".to_string(),
                "j1.c = i1.c".to_string(),
            ];
            let nested: Vec<&str> = nested.iter().map(String::as_str).collect();
            body.push_str(&format!(
                " AND {}EXISTS (SELECT 1 FROM j AS j1 WHERE {})",
                pick(rng, &["", "NOT "]),
                conjuncts(rng, &nested)
            ));
        }
        if rng.gen_bool(0.3) {
            let other = [
                format!("j2.k = {}", n(rng)),
                format!("j2.c = {txt}"),
                format!("j2.b = {}", n(rng)),
            ];
            let other: Vec<&str> = other.iter().map(String::as_str).collect();
            body.push_str(&format!(
                " UNION ALL SELECT 1 FROM j AS j2 WHERE {}",
                conjuncts(rng, &other)
            ));
        }
        format!("{}EXISTS ({body})", pick(rng, &["", "NOT "]))
    };
    let mut pred = sub(rng);
    if rng.gen_bool(0.3) {
        let second = sub(rng);
        pred = format!("{pred} {} {second}", pick(rng, &["AND", "OR"]));
    }
    if with_p {
        let on = n(rng);
        format!("SELECT o.id, p.b FROM {from}, j AS p WHERE p.k = {on} AND {pred}")
    } else {
        format!("SELECT o.id FROM {from} WHERE {pred}")
    }
}

fn run(db: &Database, sql: &str) -> Vec<Row> {
    let q = tintin_sql::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let rs = db
        .query(&q, ReadCtx::LATEST)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows: Vec<Row> = rs.rows.iter().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn spool_answers_sorted_and_interleaved_loads_alike(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_o = rng.gen_range(6..30usize);
        let o_keys = keys(&mut rng, n_o);
        let (n_i, n_j) = (rng.gen_range(0..16usize), rng.gen_range(0..16usize));
        let i_rows = keys(&mut rng, n_i);
        let j_rows = keys(&mut rng, n_j);

        let (o_sorted, o_inter) = two_orders(&mut rng, &o_keys, 10_000);
        let (i_sorted, i_inter) = two_orders(&mut rng, &i_rows, 20_000);
        let (j_sorted, j_inter) = two_orders(&mut rng, &j_rows, 30_000);
        // Ids follow the key content, not the load position, so the two
        // copies return the same ids: a row's id is its first position in
        // `o_keys` and its occurrence among equal rows; a separator's id is
        // its key.
        let with_ids = |rows: &[Row]| -> Vec<(i64, Row)> {
            let mut seen: Vec<Row> = Vec::new();
            rows.iter()
                .map(|r| {
                    let id = match r[0] {
                        Value::Int(n) if n >= 10_000 => n,
                        _ => {
                            seen.push(r.clone());
                            let same = seen.iter().filter(|x| *x == r).count() as i64;
                            let first = o_keys.iter().position(|x| x == r).unwrap() as i64;
                            first * 100 + same
                        }
                    };
                    (id, r.clone())
                })
                .collect()
        };
        let sorted = load(VO_SORTED, &with_ids(&o_sorted), &i_sorted, &j_sorted);
        let inter = load(VO_INTERLEAVED, &with_ids(&o_inter), &i_inter, &j_inter);

        for _ in 0..6 {
            let sql = query(&mut rng);
            let (a, b) = (run(&sorted, &sql), run(&inter, &sql));
            prop_assert_eq!(a, b, "{}", sql);
        }
    }
}
