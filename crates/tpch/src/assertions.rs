//! The assertion suite used in the experiments ("assertions of different
//! complexity", paper §4): from a single-table selection to multi-hop
//! existential constraints over the Figure-1 schema.

/// `(name, CREATE ASSERTION sql)` pairs, ordered by increasing complexity.
pub const TPCH_ASSERTIONS: &[(&str, &str)] = &[
    // A1 — the paper's running example: every order has a line item.
    (
        "atLeastOneLineItem",
        "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
             SELECT * FROM orders AS o
             WHERE NOT EXISTS (
                 SELECT * FROM lineitem AS l
                 WHERE l.l_orderkey = o.o_orderkey)))",
    ),
    // A2 — selection only: quantities in (0, 50].
    (
        "quantityInRange",
        "CREATE ASSERTION quantityInRange CHECK (NOT EXISTS (
             SELECT * FROM lineitem WHERE l_quantity <= 0 OR l_quantity > 50))",
    ),
    // A3 — inclusion dependency: line items reference existing orders.
    (
        "lineitemHasOrder",
        "CREATE ASSERTION lineitemHasOrder CHECK (NOT EXISTS (
             SELECT * FROM lineitem l
             WHERE NOT EXISTS (SELECT * FROM orders o
                               WHERE o.o_orderkey = l.l_orderkey)))",
    ),
    // A4 — two-column inclusion: line items reference existing partsupp.
    (
        "lineitemHasPartsupp",
        "CREATE ASSERTION lineitemHasPartsupp CHECK (NOT EXISTS (
             SELECT * FROM lineitem l
             WHERE NOT EXISTS (SELECT * FROM partsupp ps
                               WHERE ps.ps_partkey = l.l_partkey
                                 AND ps.ps_suppkey = l.l_suppkey)))",
    ),
    // A5 — union: no negative keys anywhere in orders/lineitem.
    (
        "nonNegativeKeys",
        "CREATE ASSERTION nonNegativeKeys CHECK (NOT EXISTS (
             SELECT o_orderkey FROM orders WHERE o_orderkey < 0
             UNION
             SELECT l_orderkey FROM lineitem WHERE l_orderkey < 0))",
    ),
    // A6 — derived predicate: every order has a line item with positive
    // quantity (negated subquery with an extra comparison).
    (
        "orderHasRealLine",
        "CREATE ASSERTION orderHasRealLine CHECK (NOT EXISTS (
             SELECT * FROM orders o
             WHERE NOT EXISTS (
                 SELECT * FROM lineitem l
                 WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 0)))",
    ),
];

/// Just the SQL texts.
pub fn assertion_sql() -> Vec<&'static str> {
    TPCH_ASSERTIONS.iter().map(|(_, s)| *s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_assertions_parse() {
        for (name, text) in TPCH_ASSERTIONS {
            let stmt = tintin_sql::parse_statement(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(matches!(stmt, tintin_sql::Statement::CreateAssertion(_)));
        }
    }

    #[test]
    fn generated_data_satisfies_all_assertions() {
        let db = crate::Dbgen::new(0.0004).generate();
        for (name, text) in TPCH_ASSERTIONS {
            let tintin_sql::Statement::CreateAssertion(a) =
                tintin_sql::parse_statement(text).unwrap()
            else {
                unreachable!()
            };
            for conj in a.condition.conjuncts() {
                if let tintin_sql::Expr::Exists {
                    query,
                    negated: true,
                } = conj
                {
                    let rs = db.query(query, tintin_engine::ReadCtx::LATEST).unwrap();
                    assert!(rs.is_empty(), "{name} violated by generated data");
                }
            }
        }
    }
}
