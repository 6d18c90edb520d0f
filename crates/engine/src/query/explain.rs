//! Plan rendering (`EXPLAIN`): a readable tree of the compiled access paths
//! so users can verify that the incremental views really run as index
//! probes (the property the paper's efficiency rests on).

use super::compile::{Access, CBody, CExpr, CInSub, CompiledQuery, CompiledSelect, MatRef};
use crate::database::Database;
use crate::value::Value;
use std::fmt::Write;

/// Render a compiled query as an indented plan tree.
pub fn explain(db: &Database, q: &CompiledQuery) -> String {
    let mut out = String::new();
    let mut r = Renderer { db, out: &mut out };
    r.body(&q.body, 0);
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|(i, desc)| {
                format!(
                    "{}{}",
                    q.output_names
                        .get(*i)
                        .cloned()
                        .unwrap_or_else(|| format!("#{i}")),
                    if *desc { " DESC" } else { "" }
                )
            })
            .collect();
        let _ = writeln!(out, "Sort [{}]", keys.join(", "));
    }
    if let Some(n) = q.limit {
        let _ = writeln!(out, "Limit {n}");
    }
    out
}

struct Renderer<'a> {
    db: &'a Database,
    out: &'a mut String,
}

impl Renderer<'_> {
    fn line(&mut self, depth: usize, text: &str) {
        let _ = writeln!(self.out, "{}{}", "  ".repeat(depth), text);
    }

    fn body(&mut self, b: &CBody, depth: usize) {
        match b {
            CBody::Select(s) => self.select(s, depth),
            CBody::Union { left, right, all } => {
                self.line(depth, if *all { "UnionAll" } else { "Union" });
                self.body(left, depth + 1);
                self.body(right, depth + 1);
            }
        }
    }

    fn select(&mut self, s: &CompiledSelect, depth: usize) {
        let mut header = String::from("Select");
        if s.distinct {
            header.push_str(" distinct");
        }
        if let Some(plan) = &s.agg {
            let _ = write!(
                header,
                " aggregate[{} keys, {} accs]",
                plan.group_by.len(),
                plan.aggs.len()
            );
        }
        self.line(depth, &header);
        for f in &s.pre_filters {
            let txt = self.expr(f, s);
            self.line(depth + 1, &format!("PreFilter {txt}"));
        }
        for src in &s.sources {
            match &src.access {
                Access::Scan { table, .. } => {
                    self.line(depth + 1, &format!("Scan {table} as {}", src.binding));
                }
                Access::Probe {
                    table, index, key, ..
                } => {
                    let ixname = self
                        .db
                        .table(table)
                        .and_then(|t| t.indexes().get(*index))
                        .map(|ix| ix.name.clone())
                        .unwrap_or_else(|| format!("#{index}"));
                    let keys: Vec<String> = key.iter().map(|k| self.expr(k, s)).collect();
                    self.line(
                        depth + 1,
                        &format!(
                            "Probe {table} as {} via {ixname} [{}]",
                            src.binding,
                            keys.join(", ")
                        ),
                    );
                }
                Access::MatScan { mat } => {
                    self.line(
                        depth + 1,
                        &format!("MatScan {} as {}", mat_name(mat), src.binding),
                    );
                }
                Access::MatProbe { mat, cols, key } => {
                    let keys: Vec<String> = key.iter().map(|k| self.expr(k, s)).collect();
                    self.line(
                        depth + 1,
                        &format!(
                            "MatProbe {} as {} on cols {:?} [{}]",
                            mat_name(mat),
                            src.binding,
                            cols,
                            keys.join(", ")
                        ),
                    );
                }
            }
            for f in &src.filters {
                let txt = self.expr(f, s);
                self.line(depth + 2, &format!("Filter {txt}"));
                self.subplans(f, s, depth + 2);
            }
        }
        if s.sources.is_empty() {
            self.line(depth + 1, "SingleRow");
        }
        for f in &s.pre_filters {
            self.subplans(f, s, depth + 1);
        }
    }

    /// Render nested subquery plans under EXISTS/IN filters.
    fn subplans(&mut self, e: &CExpr, _outer: &CompiledSelect, depth: usize) {
        match e {
            CExpr::Exists {
                branches,
                negated,
                corr,
                ..
            } => {
                // The spool key, written as the branches address it.
                let key: Vec<String> = corr
                    .iter()
                    .map(|c| format!("outer[{}].src{}.#{}", c.level + 1, c.source, c.col))
                    .collect();
                let join = if *negated {
                    "AntiJoin (NOT EXISTS)"
                } else {
                    "SemiJoin (EXISTS)"
                };
                self.line(depth, &format!("{join} spool on [{}]", key.join(", ")));
                for b in branches {
                    self.select(b, depth + 1);
                }
            }
            CExpr::InSub(isub) => {
                self.in_sub(isub, depth);
            }
            CExpr::Binary { left, right, .. } => {
                self.subplans(left, _outer, depth);
                self.subplans(right, _outer, depth);
            }
            CExpr::Not(x) | CExpr::Neg(x) => self.subplans(x, _outer, depth),
            CExpr::IsNull { expr, .. } => self.subplans(expr, _outer, depth),
            _ => {}
        }
    }

    fn in_sub(&mut self, isub: &CInSub, depth: usize) {
        self.line(
            depth,
            if isub.negated {
                "AntiJoin (NOT IN)"
            } else {
                "SemiJoin (IN)"
            },
        );
        match &isub.fast {
            Some(fast) => {
                self.line(depth + 1, "fast path (non-null outputs):");
                for b in fast {
                    self.select(b, depth + 2);
                }
            }
            None => {
                for b in &isub.slow {
                    self.select(b, depth + 1);
                }
            }
        }
    }

    /// Best-effort textual form of a compiled expression.
    fn expr(&self, e: &CExpr, s: &CompiledSelect) -> String {
        match e {
            CExpr::Const(v) => match v {
                Value::Str(x) => format!("'{x}'"),
                other => other.to_string(),
            },
            CExpr::Bool(b) => b.to_string().to_uppercase(),
            CExpr::Col { level, source, col } => {
                if *level == 0 {
                    let binding = s
                        .sources
                        .get(*source as usize)
                        .map(|src| src.binding.clone())
                        .unwrap_or_else(|| format!("src{source}"));
                    let colname = s
                        .sources
                        .get(*source as usize)
                        .and_then(|src| match &src.access {
                            Access::Scan { table, .. } | Access::Probe { table, .. } => self
                                .db
                                .table(table)
                                .and_then(|t| t.schema.columns.get(*col as usize))
                                .map(|c| c.name.clone()),
                            _ => None,
                        })
                        .unwrap_or_else(|| format!("#{col}"));
                    format!("{binding}.{colname}")
                } else {
                    format!("outer[{level}].src{source}.#{col}")
                }
            }
            CExpr::Binary { op, left, right } => {
                format!("{} {op} {}", self.expr(left, s), self.expr(right, s))
            }
            CExpr::Not(x) => format!("NOT ({})", self.expr(x, s)),
            CExpr::Neg(x) => format!("-({})", self.expr(x, s)),
            CExpr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                self.expr(expr, s),
                if *negated { "NOT " } else { "" }
            ),
            CExpr::Exists { negated, .. } => {
                format!("{}EXISTS (…)", if *negated { "NOT " } else { "" })
            }
            CExpr::InSub(isub) => {
                format!("{}IN (subquery)", if isub.negated { "NOT " } else { "" })
            }
            CExpr::InList { negated, .. } => {
                format!("{}IN (list)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

fn mat_name(mat: &MatRef) -> String {
    match mat {
        MatRef::View(name) => format!("view {name}"),
        MatRef::Derived(_) => "derived".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;

    fn explain(db: &Database, sql_text: &str) -> String {
        db.explain(&tintin_sql::parse_query(sql_text).unwrap())
            .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
             CREATE TABLE lineitem (l_orderkey INT NOT NULL REFERENCES orders,
                 l_linenumber INT NOT NULL, PRIMARY KEY (l_orderkey, l_linenumber));",
        )
        .unwrap();
        db
    }

    #[test]
    fn explain_shows_probe_for_correlated_not_exists() {
        let d = db();
        let plan = explain(
            &d,
            "SELECT * FROM orders o WHERE NOT EXISTS (
                 SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
        );
        assert!(plan.contains("Scan orders as o"), "{plan}");
        assert!(
            plan.contains("AntiJoin (NOT EXISTS) spool on [outer[1].src0.#0]"),
            "{plan}"
        );
        assert!(
            plan.contains("Probe lineitem as l via lineitem_fk0"),
            "{plan}"
        );
    }

    #[test]
    fn explain_spool_key_lists_every_outer_column_at_any_depth() {
        let d = db();
        // The inner EXISTS reads o (two levels up) and l (one level up);
        // the outer one's branches read o.o_orderkey at both depths, once.
        let plan = explain(
            &d,
            "SELECT * FROM orders o WHERE EXISTS (
                 SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey
                   AND NOT EXISTS (SELECT * FROM lineitem l2
                       WHERE l2.l_orderkey = o.o_orderkey
                         AND l2.l_linenumber = l.l_linenumber + 1))",
        );
        assert!(
            plan.contains("SemiJoin (EXISTS) spool on [outer[1].src0.#0]"),
            "{plan}"
        );
        assert!(
            plan.contains("AntiJoin (NOT EXISTS) spool on [outer[2].src0.#0, outer[1].src0.#1]"),
            "{plan}"
        );
    }

    #[test]
    fn explain_uncorrelated_exists_has_an_empty_spool_key() {
        let d = db();
        let plan = explain(
            &d,
            "SELECT * FROM orders WHERE NOT EXISTS (SELECT * FROM lineitem)",
        );
        assert!(plan.contains("AntiJoin (NOT EXISTS) spool on []"), "{plan}");
    }

    #[test]
    fn explain_shows_sort_and_limit() {
        let d = db();
        let plan = explain(
            &d,
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 3",
        );
        assert!(plan.contains("Sort [o_orderkey DESC]"), "{plan}");
        assert!(plan.contains("Limit 3"), "{plan}");
    }

    #[test]
    fn explain_shows_aggregate_header() {
        let d = db();
        let plan = explain(
            &d,
            "SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey
             HAVING COUNT(*) > 1",
        );
        assert!(plan.contains("aggregate[1 keys, 2 accs]"), "{plan}");
    }
}
