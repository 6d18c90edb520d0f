//! Compilation of SQL ASTs into executable plans.
//!
//! Responsibilities: name resolution (with correlated scopes), wildcard
//! expansion, conjunct placement (each `WHERE`/`ON` conjunct is attached to
//! the first `FROM` source at which all its references are bound) and index
//! selection (equality conjuncts binding an indexed column of a source to
//! already-bound expressions become hash-index probes).
//!
//! A last pass over the finished plan ([`Finisher`]) numbers the
//! per-execution state the executor keeps: one slot per base-table access,
//! and one spool per `EXISTS` site together with the outer columns that key
//! it (see `exec` for how the spool is used).

use super::agg::{AggFunc, AggPlan, AggSpec, GExpr, GOutput};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use tintin_sql as sql;
use tintin_sql::{BinOp, UnOp};

/// A compiled query: union tree of compiled selects plus output metadata
/// and post-union ORDER BY / LIMIT.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub body: CBody,
    pub output_names: Vec<String>,
    pub width: usize,
    /// `(output index, descending)` sort keys.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    /// Sizes of the per-execution state this plan needs.
    pub slots: Slots,
}

/// A compiled single-row expression (`DELETE`/`UPDATE` predicate,
/// assignment, `CHECK` constraint) with the per-execution state it needs.
#[derive(Debug, Clone)]
pub struct RowExpr {
    pub(crate) expr: CExpr,
    pub(crate) slots: Slots,
}

/// The per-execution state a compiled plan asks of an `ExecCtx`: how many
/// table slots (`Access::Scan`/`Access::Probe` `slot`s) and `EXISTS` spools
/// (`CExpr::Exists` `site`s) it numbers, and an identity unique to this
/// compilation, so a context reused across calls can tell whether the state
/// it holds belongs to this plan. Clones share the identity, which is sound:
/// they number the same slots for the same tables and sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    pub(crate) id: u64,
    pub(crate) tables: u32,
    pub(crate) sites: u32,
}

/// A column an `EXISTS` site's branches read from outside the subquery,
/// addressed from the site: `level` 0 is the select the `EXISTS` belongs to,
/// 1 its enclosing select, and so on (the levels a `CExpr::Col` in place of
/// the `EXISTS` would use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterCol {
    pub level: u32,
    pub source: u32,
    pub col: u32,
}

/// Union tree over compiled selects.
#[derive(Debug, Clone)]
pub enum CBody {
    Select(CompiledSelect),
    Union {
        left: Box<CBody>,
        right: Box<CBody>,
        all: bool,
    },
}

impl CBody {
    /// All selects in the tree (order preserved); used where duplicate
    /// semantics don't matter (existence checks).
    pub fn branches(&self) -> Vec<&CompiledSelect> {
        fn walk<'a>(b: &'a CBody, out: &mut Vec<&'a CompiledSelect>) {
            match b {
                CBody::Select(s) => out.push(s),
                CBody::Union { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// One compiled `SELECT` block.
#[derive(Debug, Clone)]
pub struct CompiledSelect {
    pub sources: Vec<CSource>,
    /// Conjuncts with no references to this select's own sources; evaluated
    /// once before source iteration.
    pub pre_filters: Vec<CExpr>,
    /// Plain projection (empty when `agg` is set).
    pub output: Vec<COutput>,
    pub distinct: bool,
    /// Aggregate plan (GROUP BY / HAVING / aggregate functions).
    pub agg: Option<Box<AggPlan>>,
}

impl CompiledSelect {
    /// Output column names (plain or aggregate).
    pub fn output_names(&self) -> Vec<String> {
        match &self.agg {
            Some(plan) => plan.outputs.iter().map(|o| o.name.clone()).collect(),
            None => self.output.iter().map(|o| o.name.clone()).collect(),
        }
    }

    /// Output width.
    pub fn width(&self) -> usize {
        match &self.agg {
            Some(plan) => plan.outputs.len(),
            None => self.output.len(),
        }
    }
}

/// A projected output column.
#[derive(Debug, Clone)]
pub struct COutput {
    pub name: String,
    pub expr: CExpr,
    /// Conservative nullability (true = may be NULL). Drives the `IN`
    /// fast path.
    pub nullable: bool,
}

/// One `FROM` source with its access path and attached filters.
#[derive(Debug, Clone)]
pub struct CSource {
    pub binding: String,
    pub access: Access,
    /// Conjuncts evaluated as soon as this source is bound (excluding any
    /// used in the access path's probe key).
    pub filters: Vec<CExpr>,
}

/// Access path for a source. A base-table access carries the table slot
/// the executor resolves the table through, once per execution.
#[derive(Debug, Clone)]
pub enum Access {
    /// Full scan of a base table.
    Scan { table: String, slot: u32 },
    /// Hash-index probe on a base table; `key` expressions reference only
    /// earlier sources, outer scopes, or constants.
    Probe {
        table: String,
        slot: u32,
        index: usize,
        key: Vec<CExpr>,
    },
    /// Scan of a materialized view / derived table.
    MatScan { mat: MatRef },
    /// Probe into an ad-hoc hash index over a materialized rowset.
    MatProbe {
        mat: MatRef,
        cols: Vec<u32>,
        key: Vec<CExpr>,
    },
}

/// What gets materialized: a named view (cached per execution) or an inline
/// derived table.
#[derive(Debug, Clone)]
pub enum MatRef {
    View(String),
    Derived(Box<CompiledQuery>),
}

/// Compiled scalar / predicate expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    Const(Value),
    Bool(bool),
    /// Column reference: `level` 0 is the select being evaluated, 1 its
    /// enclosing select, and so on; `source` indexes into that select's
    /// sources; `col` is the column position.
    Col {
        level: u32,
        source: u32,
        col: u32,
    },
    Binary {
        op: BinOp,
        left: Box<CExpr>,
        right: Box<CExpr>,
    },
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    IsNull {
        expr: Box<CExpr>,
        negated: bool,
    },
    /// `[NOT] EXISTS`: `site` numbers its spool within the plan; `corr`
    /// lists every column its branches read from outside, at any depth —
    /// equal values there mean an equal verdict within one execution.
    Exists {
        branches: Vec<CompiledSelect>,
        negated: bool,
        site: u32,
        corr: Vec<OuterCol>,
    },
    InSub(Box<CInSub>),
    InList {
        probe: Box<CExpr>,
        list: Vec<CExpr>,
        negated: bool,
    },
}

/// Compiled `IN (SELECT …)`.
#[derive(Debug, Clone)]
pub struct CInSub {
    pub probes: Vec<CExpr>,
    /// Branches with probe-equality conjuncts folded in (index-friendly).
    /// Sound only when every branch output is non-nullable and all probe
    /// values are non-NULL at runtime; `exec` checks the latter.
    pub fast: Option<Vec<CompiledSelect>>,
    /// Branches without the equality conjuncts; outputs are the subquery
    /// projection, compared with SQL 3VL row equality.
    pub slow: Vec<CompiledSelect>,
    pub negated: bool,
}

// ---------------------------------------------------------------- scopes

/// Compile-time information about one FROM source.
#[derive(Debug, Clone)]
struct SourceInfo {
    binding: String,
    cols: Vec<String>,
    not_null: Vec<bool>,
}

#[derive(Debug, Default)]
struct Scope {
    sources: Vec<SourceInfo>,
}

struct Compiler<'a> {
    db: &'a Database,
    scopes: Vec<Scope>,
}

/// Compile a closed (top-level) query.
pub fn compile_query(db: &Database, q: &sql::Query) -> Result<CompiledQuery> {
    let mut c = Compiler {
        db,
        scopes: Vec::new(),
    };
    let mut compiled = c.compile_query(q)?;
    let mut f = Finisher::default();
    f.body(&mut compiled.body);
    compiled.slots = f.slots();
    Ok(compiled)
}

/// Compile an expression over a single-row scope of `table` (bound as
/// `binding`); used for DELETE predicates and row-level CHECK constraints.
pub fn compile_row_predicate(
    db: &Database,
    table: &str,
    binding: &str,
    pred: &sql::Expr,
) -> Result<RowExpr> {
    let t = db
        .table(table)
        .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
    let info = SourceInfo {
        binding: binding.to_string(),
        cols: t.schema.columns.iter().map(|c| c.name.clone()).collect(),
        not_null: t.schema.columns.iter().map(|c| c.not_null).collect(),
    };
    let mut c = Compiler {
        db,
        scopes: vec![Scope {
            sources: vec![info],
        }],
    };
    let mut expr = c.compile_expr(pred)?;
    let mut f = Finisher::default();
    f.expr(&mut expr, &mut Vec::new());
    Ok(RowExpr {
        expr,
        slots: f.slots(),
    })
}

/// Compile a constant expression (no row context).
pub(crate) fn compile_const_expr(db: &Database, e: &sql::Expr) -> Result<CExpr> {
    let mut c = Compiler {
        db,
        scopes: Vec::new(),
    };
    c.compile_expr(e)
}

impl<'a> Compiler<'a> {
    fn compile_query(&mut self, q: &sql::Query) -> Result<CompiledQuery> {
        let body = self.compile_body(&q.body)?;
        // Union output metadata comes from the leftmost branch.
        let first = body
            .branches()
            .first()
            .map(|s| s.output_names())
            .unwrap_or_default();
        let width = first.len();
        // All branches must agree on width.
        for b in body.branches() {
            if b.width() != width {
                return Err(EngineError::Unsupported(format!(
                    "UNION branches have different widths ({} vs {})",
                    width,
                    b.width()
                )));
            }
        }
        // Resolve ORDER BY items to output positions (by name or 1-based
        // position).
        let mut order_by = Vec::new();
        for item in &q.order_by {
            let idx = match &item.expr {
                sql::Expr::Literal(sql::Lit::Int(k)) if *k >= 1 && (*k as usize) <= width => {
                    (*k - 1) as usize
                }
                sql::Expr::Column(c) if c.qualifier.is_none() => {
                    first.iter().position(|n| n == &c.name).ok_or_else(|| {
                        EngineError::Unsupported(format!(
                            "ORDER BY column '{}' is not an output column",
                            c.name
                        ))
                    })?
                }
                other => {
                    return Err(EngineError::Unsupported(format!(
                        "ORDER BY supports output names and positions, got: {other}"
                    )))
                }
            };
            order_by.push((idx, item.desc));
        }
        Ok(CompiledQuery {
            body,
            output_names: first,
            width,
            order_by,
            limit: q.limit,
            slots: Slots::NONE,
        })
    }

    fn compile_body(&mut self, b: &sql::QueryBody) -> Result<CBody> {
        Ok(match b {
            sql::QueryBody::Select(s) => CBody::Select(self.compile_select(s)?),
            sql::QueryBody::Union { left, right, all } => CBody::Union {
                left: Box::new(self.compile_body(left)?),
                right: Box::new(self.compile_body(right)?),
                all: *all,
            },
        })
    }

    /// Compile each union branch of a subquery (for EXISTS / IN), with the
    /// current scopes visible as outer scopes.
    fn compile_subquery_branches(&mut self, q: &sql::Query) -> Result<Vec<CompiledSelect>> {
        q.selects()
            .into_iter()
            .map(|s| self.compile_select(s))
            .collect()
    }

    fn compile_select(&mut self, s: &sql::Select) -> Result<CompiledSelect> {
        // 1. Flatten joins into leaf items + ON conjuncts.
        let mut leaves = Vec::new();
        let mut conjunct_asts: Vec<&sql::Expr> = Vec::new();
        for tr in &s.from {
            flatten_table_ref(tr, &mut leaves, &mut conjunct_asts)?;
        }
        if let Some(sel) = &s.selection {
            conjunct_asts.extend(sel.conjuncts());
        }

        // 2. Resolve each leaf into a SourceInfo + access seed.
        let mut infos = Vec::with_capacity(leaves.len());
        let mut seeds: Vec<SourceSeed> = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            match leaf {
                Leaf::Named { name, alias } => {
                    let binding = alias.clone().unwrap_or_else(|| name.clone());
                    if let Some(t) = self.db.table(name) {
                        infos.push(SourceInfo {
                            binding,
                            cols: t.schema.columns.iter().map(|c| c.name.clone()).collect(),
                            not_null: t.schema.columns.iter().map(|c| c.not_null).collect(),
                        });
                        seeds.push(SourceSeed::Table(name.clone()));
                    } else if let Some((vq, vcols)) = self.db.view(name) {
                        // Views in positive FROM position: materialize.
                        // Compiled as a *closed* query (views cannot be
                        // correlated).
                        let compiled = compile_query(self.db, vq)?;
                        infos.push(SourceInfo {
                            binding,
                            cols: vcols.to_vec(),
                            not_null: vec![false; vcols.len()],
                        });
                        seeds.push(SourceSeed::Mat(MatRef::View(name.clone()), compiled.width));
                    } else {
                        return Err(EngineError::NoSuchTable(name.clone()));
                    }
                }
                Leaf::Derived { query, alias } => {
                    // Standard SQL derived tables are uncorrelated: compile
                    // closed.
                    let compiled = compile_query(self.db, query)?;
                    infos.push(SourceInfo {
                        binding: alias.clone(),
                        cols: compiled.output_names.clone(),
                        not_null: vec![false; compiled.width],
                    });
                    let w = compiled.width;
                    seeds.push(SourceSeed::Mat(MatRef::Derived(Box::new(compiled)), w));
                }
            }
        }
        // Duplicate binding names are ambiguous.
        for (i, info) in infos.iter().enumerate() {
            if infos[..i].iter().any(|p| p.binding == info.binding) {
                return Err(EngineError::DuplicateObject(format!(
                    "duplicate table binding '{}' in FROM",
                    info.binding
                )));
            }
        }

        self.scopes.push(Scope { sources: infos });
        let result = self.compile_select_inner(s, seeds, &conjunct_asts);
        self.scopes.pop();
        result
    }

    fn compile_select_inner(
        &mut self,
        s: &sql::Select,
        seeds: Vec<SourceSeed>,
        conjunct_asts: &[&sql::Expr],
    ) -> Result<CompiledSelect> {
        let nsources = seeds.len();

        // 3. Compile conjuncts and bucket them by the latest local source
        //    they reference.
        let mut pre_filters = Vec::new();
        let mut per_source: Vec<Vec<CExpr>> = (0..nsources).map(|_| Vec::new()).collect();
        for e in conjunct_asts {
            let ce = self.compile_expr(e)?;
            match max_local_source(&ce) {
                None => pre_filters.push(ce),
                Some(i) => per_source[i as usize].push(ce),
            }
        }

        // 4. Choose access paths.
        let mut sources = Vec::with_capacity(nsources);
        for (i, seed) in seeds.into_iter().enumerate() {
            let filters = std::mem::take(&mut per_source[i]);
            let binding = self.scopes.last().unwrap().sources[i].binding.clone();
            let (access, filters) = self.choose_access(i as u32, seed, filters)?;
            sources.push(CSource {
                binding,
                access,
                filters,
            });
        }

        // 5. Aggregate path: GROUP BY, HAVING, or aggregate functions in
        //    the projection.
        let has_agg = !s.group_by.is_empty()
            || s.having.is_some()
            || s.projection.iter().any(|item| match item {
                sql::SelectItem::Expr { expr, .. } => ast_has_aggregate(expr),
                _ => false,
            });
        if has_agg {
            let plan = self.compile_agg_plan(s)?;
            return Ok(CompiledSelect {
                sources,
                pre_filters,
                output: Vec::new(),
                distinct: s.distinct,
                agg: Some(Box::new(plan)),
            });
        }

        // 5'. Plain projection.
        let mut output = Vec::new();
        for item in &s.projection {
            match item {
                sql::SelectItem::Wildcard => {
                    let scope = self.scopes.last().unwrap();
                    let plan: Vec<(u32, SourceInfo)> = scope
                        .sources
                        .iter()
                        .enumerate()
                        .map(|(si, info)| (si as u32, info.clone()))
                        .collect();
                    for (si, info) in plan {
                        self.push_source_columns(&mut output, si, &info);
                    }
                }
                sql::SelectItem::QualifiedWildcard(q) => {
                    let scope = self.scopes.last().unwrap();
                    let found = scope
                        .sources
                        .iter()
                        .enumerate()
                        .find(|(_, info)| &info.binding == q)
                        .map(|(si, info)| (si as u32, info.clone()));
                    match found {
                        Some((si, info)) => self.push_source_columns(&mut output, si, &info),
                        None => return Err(EngineError::NoSuchBinding(q.clone())),
                    }
                }
                sql::SelectItem::Expr { expr, alias } => {
                    let ce = self.compile_expr(expr)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        sql::Expr::Column(c) => c.name.clone(),
                        _ => format!("col{}", output.len() + 1),
                    });
                    let nullable = self.expr_nullable(&ce);
                    output.push(COutput {
                        name,
                        expr: ce,
                        nullable,
                    });
                }
            }
        }

        Ok(CompiledSelect {
            sources,
            pre_filters,
            output,
            distinct: s.distinct,
            agg: None,
        })
    }

    /// Compile GROUP BY keys, accumulator specs and per-group outputs.
    fn compile_agg_plan(&mut self, s: &sql::Select) -> Result<AggPlan> {
        let mut key_asts: Vec<&sql::Expr> = Vec::new();
        let mut group_by = Vec::new();
        for g in &s.group_by {
            if ast_has_aggregate(g) {
                return Err(EngineError::Unsupported(
                    "aggregate functions are not allowed in GROUP BY".into(),
                ));
            }
            key_asts.push(g);
            group_by.push(self.compile_expr(g)?);
        }
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut outputs = Vec::new();
        for item in &s.projection {
            match item {
                sql::SelectItem::Expr { expr, alias } => {
                    let g = self.to_gexpr(expr, &key_asts, &mut aggs)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        sql::Expr::Column(c) => c.name.clone(),
                        sql::Expr::Func { name, .. } => name.clone(),
                        _ => format!("col{}", outputs.len() + 1),
                    });
                    outputs.push(GOutput { name, expr: g });
                }
                _ => {
                    return Err(EngineError::Unsupported(
                        "wildcards cannot be combined with GROUP BY / aggregates".into(),
                    ))
                }
            }
        }
        let having = match &s.having {
            Some(h) => Some(self.to_gexpr(h, &key_asts, &mut aggs)?),
            None => None,
        };
        Ok(AggPlan {
            group_by,
            aggs,
            outputs,
            having,
        })
    }

    /// Rewrite a projection/HAVING expression into a per-group expression:
    /// aggregate calls become accumulator slots, subexpressions equal to a
    /// GROUP BY key become key references; remaining column references are
    /// errors (standard SQL grouping rules).
    #[allow(clippy::wrong_self_convention)] // "to a group expression", not a conversion of self
    fn to_gexpr(
        &mut self,
        e: &sql::Expr,
        key_asts: &[&sql::Expr],
        aggs: &mut Vec<AggSpec>,
    ) -> Result<GExpr> {
        if let Some(i) = key_asts.iter().position(|k| *k == e) {
            return Ok(GExpr::Key(i));
        }
        Ok(match e {
            sql::Expr::Func {
                name,
                distinct,
                args,
            } => {
                let func = AggFunc::parse(name).ok_or_else(|| {
                    EngineError::Unsupported(format!("unknown function '{name}'"))
                })?;
                let arg = match args {
                    sql::FuncArgs::Star => {
                        if func != AggFunc::Count {
                            return Err(EngineError::Unsupported(format!(
                                "{name}(*) is not valid (only COUNT(*))"
                            )));
                        }
                        if *distinct {
                            return Err(EngineError::Unsupported(
                                "COUNT(DISTINCT *) is not valid".into(),
                            ));
                        }
                        None
                    }
                    sql::FuncArgs::List(list) => {
                        if list.len() != 1 {
                            return Err(EngineError::Unsupported(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        if ast_has_aggregate(&list[0]) {
                            return Err(EngineError::Unsupported(
                                "nested aggregate functions".into(),
                            ));
                        }
                        Some(self.compile_expr(&list[0])?)
                    }
                };
                let slot = aggs.len();
                aggs.push(AggSpec {
                    func,
                    arg,
                    distinct: *distinct,
                });
                GExpr::Agg(slot)
            }
            sql::Expr::Literal(l) => match l {
                sql::Lit::Int(v) => GExpr::Const(Value::Int(*v)),
                sql::Lit::Real(v) => GExpr::Const(Value::real(*v)),
                sql::Lit::Str(x) => GExpr::Const(Value::str(x.as_str())),
                sql::Lit::Null => GExpr::Const(Value::Null),
                sql::Lit::Bool(b) => GExpr::Bool(*b),
            },
            sql::Expr::Binary { op, left, right } => GExpr::Binary {
                op: *op,
                left: Box::new(self.to_gexpr(left, key_asts, aggs)?),
                right: Box::new(self.to_gexpr(right, key_asts, aggs)?),
            },
            sql::Expr::Unary { op, expr } => match op {
                UnOp::Not => GExpr::Not(Box::new(self.to_gexpr(expr, key_asts, aggs)?)),
                UnOp::Neg => GExpr::Neg(Box::new(self.to_gexpr(expr, key_asts, aggs)?)),
            },
            sql::Expr::IsNull { expr, negated } => GExpr::IsNull {
                expr: Box::new(self.to_gexpr(expr, key_asts, aggs)?),
                negated: *negated,
            },
            sql::Expr::Column(c) => {
                return Err(EngineError::Unsupported(format!(
                    "column '{c}' must appear in GROUP BY or inside an aggregate"
                )))
            }
            other => {
                return Err(EngineError::Unsupported(format!(
                    "unsupported expression with aggregates: {other}"
                )))
            }
        })
    }

    fn push_source_columns(&self, output: &mut Vec<COutput>, si: u32, info: &SourceInfo) {
        for (ci, col) in info.cols.iter().enumerate() {
            output.push(COutput {
                name: col.clone(),
                expr: CExpr::Col {
                    level: 0,
                    source: si,
                    col: ci as u32,
                },
                nullable: !info.not_null[ci],
            });
        }
    }

    /// Pick an index probe for source `i` if its filters contain suitable
    /// equality conjuncts; returns the access and the residual filters.
    fn choose_access(
        &self,
        i: u32,
        seed: SourceSeed,
        filters: Vec<CExpr>,
    ) -> Result<(Access, Vec<CExpr>)> {
        // Collect equality candidates: col-of-source-i = expr-bound-earlier.
        let mut candidates: Vec<(u32, CExpr, usize)> = Vec::new(); // (col, key expr, filter idx)
        for (fi, f) in filters.iter().enumerate() {
            let CExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = f
            else {
                continue;
            };
            let pair = match (&**left, &**right) {
                (
                    CExpr::Col {
                        level: 0,
                        source,
                        col,
                    },
                    rhs,
                ) if *source == i => bound_before(rhs, i).then(|| (*col, rhs.clone())),
                (
                    lhs,
                    CExpr::Col {
                        level: 0,
                        source,
                        col,
                    },
                ) if *source == i => bound_before(lhs, i).then(|| (*col, lhs.clone())),
                _ => None,
            };
            if let Some((col, key)) = pair {
                // Keep the first key expression per column.
                if !candidates.iter().any(|(c, _, _)| *c == col) {
                    candidates.push((col, key, fi));
                }
            }
        }

        match seed {
            SourceSeed::Table(table) => {
                if candidates.is_empty() {
                    return Ok((Access::Scan { table, slot: 0 }, filters));
                }
                let t = self
                    .db
                    .table(&table)
                    .ok_or_else(|| EngineError::NoSuchTable(table.clone()))?;
                let cols: Vec<usize> = candidates.iter().map(|(c, _, _)| *c as usize).collect();
                match t.best_index(&cols) {
                    Some(ix) => {
                        let index_cols = t.indexes()[ix].columns.clone();
                        let mut key = Vec::with_capacity(index_cols.len());
                        let mut used = Vec::new();
                        for c in &index_cols {
                            let (_, k, fi) = candidates
                                .iter()
                                .find(|(cc, _, _)| *cc as usize == *c)
                                .expect("best_index only returns covered indexes");
                            key.push(k.clone());
                            used.push(*fi);
                        }
                        let residual: Vec<CExpr> = filters
                            .into_iter()
                            .enumerate()
                            .filter(|(fi, _)| !used.contains(fi))
                            .map(|(_, f)| f)
                            .collect();
                        Ok((
                            Access::Probe {
                                table,
                                slot: 0,
                                index: ix,
                                key,
                            },
                            residual,
                        ))
                    }
                    None => Ok((Access::Scan { table, slot: 0 }, filters)),
                }
            }
            SourceSeed::Mat(mat, _width) => {
                if candidates.is_empty() {
                    return Ok((Access::MatScan { mat }, filters));
                }
                // Probe on all equality columns at once; the executor builds
                // the ad-hoc hash index lazily.
                let cols: Vec<u32> = candidates.iter().map(|(c, _, _)| *c).collect();
                let key: Vec<CExpr> = candidates.iter().map(|(_, k, _)| k.clone()).collect();
                let used: Vec<usize> = candidates.iter().map(|(_, _, fi)| *fi).collect();
                let residual: Vec<CExpr> = filters
                    .into_iter()
                    .enumerate()
                    .filter(|(fi, _)| !used.contains(fi))
                    .map(|(_, f)| f)
                    .collect();
                Ok((Access::MatProbe { mat, cols, key }, residual))
            }
        }
    }

    // ------------------------------------------------------- expressions

    fn compile_expr(&mut self, e: &sql::Expr) -> Result<CExpr> {
        Ok(match e {
            sql::Expr::Literal(l) => match l {
                sql::Lit::Int(v) => CExpr::Const(Value::Int(*v)),
                sql::Lit::Real(v) => CExpr::Const(Value::real(*v)),
                sql::Lit::Str(s) => CExpr::Const(Value::str(s.as_str())),
                sql::Lit::Null => CExpr::Const(Value::Null),
                sql::Lit::Bool(b) => CExpr::Bool(*b),
            },
            sql::Expr::Column(c) => {
                let (level, source, col, _nn) = self.resolve_column(c)?;
                CExpr::Col { level, source, col }
            }
            sql::Expr::Binary { op, left, right } => CExpr::Binary {
                op: *op,
                left: Box::new(self.compile_expr(left)?),
                right: Box::new(self.compile_expr(right)?),
            },
            sql::Expr::Unary { op, expr } => match op {
                UnOp::Not => CExpr::Not(Box::new(self.compile_expr(expr)?)),
                UnOp::Neg => CExpr::Neg(Box::new(self.compile_expr(expr)?)),
            },
            sql::Expr::IsNull { expr, negated } => CExpr::IsNull {
                expr: Box::new(self.compile_expr(expr)?),
                negated: *negated,
            },
            sql::Expr::Exists { query, negated } => CExpr::Exists {
                branches: self.compile_subquery_branches(query)?,
                negated: *negated,
                site: 0,
                corr: Vec::new(),
            },
            sql::Expr::InSubquery {
                exprs,
                query,
                negated,
            } => {
                let probes: Vec<CExpr> = exprs
                    .iter()
                    .map(|p| self.compile_expr(p))
                    .collect::<Result<_>>()?;
                let slow = self.compile_subquery_branches(query)?;
                for b in &slow {
                    if b.width() != probes.len() {
                        return Err(EngineError::Unsupported(format!(
                            "IN subquery width {} does not match probe width {}",
                            b.width(),
                            probes.len()
                        )));
                    }
                }
                // Fast path: fold probe equalities into the branches when
                // every output is statically non-nullable.
                let fast = if slow
                    .iter()
                    .all(|b| b.agg.is_none() && b.output.iter().all(|o| !o.nullable))
                {
                    Some(
                        slow.iter()
                            .map(|b| fold_probe_equalities(b, &probes))
                            .collect(),
                    )
                } else {
                    None
                };
                CExpr::InSub(Box::new(CInSub {
                    probes,
                    fast,
                    slow,
                    negated: *negated,
                }))
            }
            sql::Expr::InList {
                expr,
                list,
                negated,
            } => CExpr::InList {
                probe: Box::new(self.compile_expr(expr)?),
                list: list
                    .iter()
                    .map(|x| self.compile_expr(x))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            sql::Expr::Tuple(_) => {
                return Err(EngineError::Unsupported(
                    "row value constructor outside IN (SELECT …)".into(),
                ))
            }
            sql::Expr::Func { name, .. } => {
                return Err(if AggFunc::parse(name).is_some() {
                    EngineError::Unsupported(format!(
                        "aggregate '{name}' is only valid in the projection or                          HAVING of a grouped query"
                    ))
                } else {
                    EngineError::Unsupported(format!("unknown function '{name}'"))
                })
            }
        })
    }

    /// Resolve a column against the scope stack (innermost first).
    fn resolve_column(&self, c: &sql::ColumnRef) -> Result<(u32, u32, u32, bool)> {
        for (dist, scope) in self.scopes.iter().rev().enumerate() {
            if let Some(q) = &c.qualifier {
                if let Some((si, info)) = scope
                    .sources
                    .iter()
                    .enumerate()
                    .find(|(_, info)| &info.binding == q)
                {
                    let ci = info
                        .cols
                        .iter()
                        .position(|n| n == &c.name)
                        .ok_or_else(|| EngineError::NoSuchColumn(format!("{q}.{}", c.name)))?;
                    return Ok((dist as u32, si as u32, ci as u32, info.not_null[ci]));
                }
            } else {
                let mut hit: Option<(u32, u32, bool)> = None;
                for (si, info) in scope.sources.iter().enumerate() {
                    if let Some(ci) = info.cols.iter().position(|n| n == &c.name) {
                        if hit.is_some() {
                            return Err(EngineError::AmbiguousColumn(c.name.clone()));
                        }
                        hit = Some((si as u32, ci as u32, info.not_null[ci]));
                    }
                }
                if let Some((si, ci, nn)) = hit {
                    return Ok((dist as u32, si, ci, nn));
                }
            }
        }
        Err(if c.qualifier.is_some() {
            EngineError::NoSuchBinding(c.qualifier.clone().unwrap())
        } else {
            EngineError::NoSuchColumn(c.name.clone())
        })
    }

    /// Conservative nullability of a compiled expression.
    fn expr_nullable(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Const(v) => v.is_null(),
            CExpr::Bool(_) => false,
            CExpr::Col { level, source, col } => {
                let idx = self.scopes.len().checked_sub(1 + *level as usize);
                match idx.and_then(|i| self.scopes.get(i)) {
                    Some(scope) => scope
                        .sources
                        .get(*source as usize)
                        .map(|info| !info.not_null[*col as usize])
                        .unwrap_or(true),
                    None => true,
                }
            }
            CExpr::Binary { op, left, right }
                if !op.is_comparison() && *op != BinOp::And && *op != BinOp::Or =>
            {
                self.expr_nullable(left) || self.expr_nullable(right)
            }
            _ => true,
        }
    }
}

/// Does the expression contain an aggregate function call (shallow scan —
/// subqueries have their own aggregate scopes)?
fn ast_has_aggregate(e: &sql::Expr) -> bool {
    match e {
        sql::Expr::Func { name, .. } => AggFunc::parse(name).is_some(),
        sql::Expr::Binary { left, right, .. } => {
            ast_has_aggregate(left) || ast_has_aggregate(right)
        }
        sql::Expr::Unary { expr, .. } => ast_has_aggregate(expr),
        sql::Expr::IsNull { expr, .. } => ast_has_aggregate(expr),
        sql::Expr::InList { expr, list, .. } => {
            ast_has_aggregate(expr) || list.iter().any(ast_has_aggregate)
        }
        sql::Expr::Tuple(parts) => parts.iter().any(ast_has_aggregate),
        sql::Expr::InSubquery { exprs, .. } => exprs.iter().any(ast_has_aggregate),
        sql::Expr::Exists { .. } | sql::Expr::Column(_) | sql::Expr::Literal(_) => false,
    }
}

/// Seed for a source's access path before index selection.
enum SourceSeed {
    Table(String),
    Mat(MatRef, usize),
}

/// Flattened FROM leaf.
enum Leaf {
    Named { name: String, alias: Option<String> },
    Derived { query: sql::Query, alias: String },
}

fn flatten_table_ref<'e>(
    tr: &'e sql::TableRef,
    leaves: &mut Vec<Leaf>,
    conjuncts: &mut Vec<&'e sql::Expr>,
) -> Result<()> {
    match tr {
        sql::TableRef::Named { name, alias } => {
            leaves.push(Leaf::Named {
                name: name.clone(),
                alias: alias.clone(),
            });
            Ok(())
        }
        sql::TableRef::Join {
            left, right, on, ..
        } => {
            flatten_table_ref(left, leaves, conjuncts)?;
            flatten_table_ref(right, leaves, conjuncts)?;
            if let Some(on) = on {
                conjuncts.extend(on.conjuncts());
            }
            Ok(())
        }
        sql::TableRef::Subquery { query, alias } => {
            leaves.push(Leaf::Derived {
                query: (**query).clone(),
                alias: alias.clone(),
            });
            Ok(())
        }
    }
}

/// The largest level-0 source index referenced by `e`, or `None`.
fn max_local_source(e: &CExpr) -> Option<u32> {
    fn walk(e: &CExpr, depth: u32, max: &mut Option<u32>) {
        match e {
            CExpr::Col { level, source, .. } => {
                if *level == depth {
                    *max = Some(max.map_or(*source, |m| m.max(*source)));
                }
            }
            CExpr::Const(_) | CExpr::Bool(_) => {}
            CExpr::Binary { left, right, .. } => {
                walk(left, depth, max);
                walk(right, depth, max);
            }
            CExpr::Not(x) | CExpr::Neg(x) => walk(x, depth, max),
            CExpr::IsNull { expr, .. } => walk(expr, depth, max),
            CExpr::Exists { branches, .. } => {
                for b in branches {
                    walk_select(b, depth + 1, max);
                }
            }
            CExpr::InSub(s) => {
                for p in &s.probes {
                    walk(p, depth, max);
                }
                for b in &s.slow {
                    walk_select(b, depth + 1, max);
                }
                if let Some(fast) = &s.fast {
                    for b in fast {
                        walk_select(b, depth + 1, max);
                    }
                }
            }
            CExpr::InList { probe, list, .. } => {
                walk(probe, depth, max);
                for x in list {
                    walk(x, depth, max);
                }
            }
        }
    }
    fn walk_select(s: &CompiledSelect, depth: u32, max: &mut Option<u32>) {
        for f in &s.pre_filters {
            walk(f, depth, max);
        }
        if let Some(plan) = &s.agg {
            for k in &plan.group_by {
                walk(k, depth, max);
            }
            for a in &plan.aggs {
                if let Some(arg) = &a.arg {
                    walk(arg, depth, max);
                }
            }
        }
        for src in &s.sources {
            match &src.access {
                Access::Probe { key, .. } | Access::MatProbe { key, .. } => {
                    for k in key {
                        walk(k, depth, max);
                    }
                }
                _ => {}
            }
            for f in &src.filters {
                walk(f, depth, max);
            }
        }
        for o in &s.output {
            walk(&o.expr, depth, max);
        }
    }
    let mut max = None;
    walk(e, 0, &mut max);
    max
}

/// True if `e` references no level-0 source with index ≥ `i` (i.e., it can
/// be evaluated before source `i` is bound, given earlier sources are).
fn bound_before(e: &CExpr, i: u32) -> bool {
    match max_local_source(e) {
        None => true,
        Some(m) => m < i,
    }
}

/// Clone a branch and add `probe_k = output_k` conjuncts, shifting probe
/// levels by one (they move into the subquery scope).
fn fold_probe_equalities(branch: &CompiledSelect, probes: &[CExpr]) -> CompiledSelect {
    debug_assert!(branch.agg.is_none(), "fast path never built for aggregates");
    let mut b = branch.clone();
    for (p, o) in probes.iter().zip(&branch.output) {
        let probe_shifted = shift_levels(p, 1);
        let conj = CExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(o.expr.clone()),
            right: Box::new(probe_shifted),
        };
        // Attach like the planner would: at the last source the output
        // expression references (the probe side references only outer
        // levels after shifting).
        match max_local_source(&conj) {
            None => b.pre_filters.push(conj),
            Some(i) => {
                // Re-run index selection for this source would be ideal;
                // as a pragmatic middle ground, upgrade a Scan to a probe
                // when the output expr is a plain column of that source.
                attach_with_probe_upgrade(&mut b, i as usize, conj);
            }
        }
    }
    b
}

/// Attach a conjunct to source `i`, upgrading its access path to an index /
/// ad-hoc probe when the conjunct is `col(i) = bound-expr` and an index is
/// available. (Index metadata is not available here — the upgrade for base
/// tables is performed lazily by the executor via `Database`; here we only
/// handle materialized sources and otherwise keep the filter.)
fn attach_with_probe_upgrade(b: &mut CompiledSelect, i: usize, conj: CExpr) {
    // Try upgrading MatScan → MatProbe.
    if let CExpr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = &conj
    {
        let col_and_key = match (&**left, &**right) {
            (
                CExpr::Col {
                    level: 0,
                    source,
                    col,
                },
                rhs,
            ) if *source as usize == i && bound_before(rhs, i as u32) => Some((*col, rhs.clone())),
            (
                lhs,
                CExpr::Col {
                    level: 0,
                    source,
                    col,
                },
            ) if *source as usize == i && bound_before(lhs, i as u32) => Some((*col, lhs.clone())),
            _ => None,
        };
        if let Some((col, keyexpr)) = col_and_key {
            match &mut b.sources[i].access {
                Access::MatScan { mat } => {
                    b.sources[i].access = Access::MatProbe {
                        mat: mat.clone(),
                        cols: vec![col],
                        key: vec![keyexpr],
                    };
                    return;
                }
                Access::MatProbe { cols, key, .. } => {
                    if !cols.contains(&col) {
                        cols.push(col);
                        key.push(keyexpr);
                    }
                    return;
                }
                _ => {}
            }
        }
    }
    b.sources[i].filters.push(conj);
}

/// Shift all column references of `e` outward by `by` levels.
pub(crate) fn shift_levels(e: &CExpr, by: u32) -> CExpr {
    match e {
        CExpr::Col { level, source, col } => CExpr::Col {
            level: level + by,
            source: *source,
            col: *col,
        },
        CExpr::Const(v) => CExpr::Const(v.clone()),
        CExpr::Bool(b) => CExpr::Bool(*b),
        CExpr::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(shift_levels(left, by)),
            right: Box::new(shift_levels(right, by)),
        },
        CExpr::Not(x) => CExpr::Not(Box::new(shift_levels(x, by))),
        CExpr::Neg(x) => CExpr::Neg(Box::new(shift_levels(x, by))),
        CExpr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(shift_levels(expr, by)),
            negated: *negated,
        },
        CExpr::Exists {
            branches,
            negated,
            site,
            corr,
        } => CExpr::Exists {
            branches: branches.iter().map(|b| shift_select(b, by)).collect(),
            negated: *negated,
            site: *site,
            corr: corr.clone(),
        },
        CExpr::InSub(s) => CExpr::InSub(Box::new(CInSub {
            probes: s.probes.iter().map(|p| shift_levels(p, by)).collect(),
            fast: s
                .fast
                .as_ref()
                .map(|f| f.iter().map(|b| shift_select(b, by)).collect()),
            slow: s.slow.iter().map(|b| shift_select(b, by)).collect(),
            negated: s.negated,
        })),
        CExpr::InList {
            probe,
            list,
            negated,
        } => CExpr::InList {
            probe: Box::new(shift_levels(probe, by)),
            list: list.iter().map(|x| shift_levels(x, by)).collect(),
            negated: *negated,
        },
    }
}

fn shift_select(s: &CompiledSelect, by: u32) -> CompiledSelect {
    // Shifting a select means shifting only references that escape it, i.e.
    // levels ≥ 1 at its own depth. Implemented by shifting with an adjusted
    // threshold.
    fn shift_expr_thresh(e: &CExpr, by: u32, thresh: u32) -> CExpr {
        match e {
            CExpr::Col { level, source, col } => CExpr::Col {
                level: if *level >= thresh { level + by } else { *level },
                source: *source,
                col: *col,
            },
            CExpr::Const(v) => CExpr::Const(v.clone()),
            CExpr::Bool(b) => CExpr::Bool(*b),
            CExpr::Binary { op, left, right } => CExpr::Binary {
                op: *op,
                left: Box::new(shift_expr_thresh(left, by, thresh)),
                right: Box::new(shift_expr_thresh(right, by, thresh)),
            },
            CExpr::Not(x) => CExpr::Not(Box::new(shift_expr_thresh(x, by, thresh))),
            CExpr::Neg(x) => CExpr::Neg(Box::new(shift_expr_thresh(x, by, thresh))),
            CExpr::IsNull { expr, negated } => CExpr::IsNull {
                expr: Box::new(shift_expr_thresh(expr, by, thresh)),
                negated: *negated,
            },
            CExpr::Exists {
                branches,
                negated,
                site,
                corr,
            } => CExpr::Exists {
                branches: branches
                    .iter()
                    .map(|b| shift_select_thresh(b, by, thresh + 1))
                    .collect(),
                negated: *negated,
                site: *site,
                corr: corr.clone(),
            },
            CExpr::InSub(s) => CExpr::InSub(Box::new(CInSub {
                probes: s
                    .probes
                    .iter()
                    .map(|p| shift_expr_thresh(p, by, thresh))
                    .collect(),
                fast: s.fast.as_ref().map(|f| {
                    f.iter()
                        .map(|b| shift_select_thresh(b, by, thresh + 1))
                        .collect()
                }),
                slow: s
                    .slow
                    .iter()
                    .map(|b| shift_select_thresh(b, by, thresh + 1))
                    .collect(),
                negated: s.negated,
            })),
            CExpr::InList {
                probe,
                list,
                negated,
            } => CExpr::InList {
                probe: Box::new(shift_expr_thresh(probe, by, thresh)),
                list: list
                    .iter()
                    .map(|x| shift_expr_thresh(x, by, thresh))
                    .collect(),
                negated: *negated,
            },
        }
    }
    fn shift_select_thresh(s: &CompiledSelect, by: u32, thresh: u32) -> CompiledSelect {
        let agg = s.agg.as_ref().map(|plan| {
            Box::new(AggPlan {
                group_by: plan
                    .group_by
                    .iter()
                    .map(|k| shift_expr_thresh(k, by, thresh))
                    .collect(),
                aggs: plan
                    .aggs
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        arg: a.arg.as_ref().map(|e| shift_expr_thresh(e, by, thresh)),
                        distinct: a.distinct,
                    })
                    .collect(),
                outputs: plan.outputs.clone(),
                having: plan.having.clone(),
            })
        });
        CompiledSelect {
            sources: s
                .sources
                .iter()
                .map(|src| CSource {
                    binding: src.binding.clone(),
                    access: match &src.access {
                        Access::Scan { table, slot } => Access::Scan {
                            table: table.clone(),
                            slot: *slot,
                        },
                        Access::Probe {
                            table,
                            slot,
                            index,
                            key,
                        } => Access::Probe {
                            table: table.clone(),
                            slot: *slot,
                            index: *index,
                            key: key
                                .iter()
                                .map(|k| shift_expr_thresh(k, by, thresh))
                                .collect(),
                        },
                        Access::MatScan { mat } => Access::MatScan { mat: mat.clone() },
                        Access::MatProbe { mat, cols, key } => Access::MatProbe {
                            mat: mat.clone(),
                            cols: cols.clone(),
                            key: key
                                .iter()
                                .map(|k| shift_expr_thresh(k, by, thresh))
                                .collect(),
                        },
                    },
                    filters: src
                        .filters
                        .iter()
                        .map(|f| shift_expr_thresh(f, by, thresh))
                        .collect(),
                })
                .collect(),
            pre_filters: s
                .pre_filters
                .iter()
                .map(|f| shift_expr_thresh(f, by, thresh))
                .collect(),
            output: s
                .output
                .iter()
                .map(|o| COutput {
                    name: o.name.clone(),
                    expr: shift_expr_thresh(&o.expr, by, thresh),
                    nullable: o.nullable,
                })
                .collect(),
            distinct: s.distinct,
            agg,
        }
    }
    shift_select_thresh(s, by, 1)
}

impl Slots {
    /// A plan that needs no per-execution state (and is never bound).
    pub(crate) const NONE: Slots = Slots {
        id: 0,
        tables: 0,
        sites: 0,
    };
}

/// A fresh plan identity for [`Slots::id`]; never 0 ([`Slots::NONE`]).
fn next_plan_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The last pass of a compilation, over the finished plan: numbers each
/// base-table access with a table slot and each `EXISTS` with a spool site,
/// and computes each site's correlation list. Running it after
/// every rewrite (level shifting, `IN` fast-path folding) means no rewrite
/// has to maintain them. Derived tables and views are plans of their own,
/// finished when they are compiled.
#[derive(Default)]
struct Finisher {
    tables: u32,
    sites: u32,
}

impl Finisher {
    fn slots(self) -> Slots {
        Slots {
            id: next_plan_id(),
            tables: self.tables,
            sites: self.sites,
        }
    }

    fn table_slot(&mut self) -> u32 {
        self.tables += 1;
        self.tables - 1
    }

    fn body(&mut self, b: &mut CBody) {
        match b {
            CBody::Select(s) => {
                self.select(s, &mut Vec::new());
            }
            CBody::Union { left, right, .. } => {
                self.body(left);
                self.body(right);
            }
        }
    }

    /// Finish a subquery branch and add the columns it reads from outside
    /// itself to `outer`, addressed from the subquery's position (one level
    /// up).
    fn branch(&mut self, s: &mut CompiledSelect, outer: &mut Vec<OuterCol>) {
        let mut refs = Vec::new();
        self.select(s, &mut refs);
        for r in refs {
            push_unique(
                outer,
                OuterCol {
                    level: r.level - 1,
                    ..r
                },
            );
        }
    }

    /// Finish `s`, adding every column it reads from enclosing selects
    /// (addressed from `s`, so at level 1 or more) to `refs`.
    fn select(&mut self, s: &mut CompiledSelect, refs: &mut Vec<OuterCol>) {
        for f in &mut s.pre_filters {
            self.expr(f, refs);
        }
        for src in &mut s.sources {
            match &mut src.access {
                Access::Scan { slot, .. } => *slot = self.table_slot(),
                Access::Probe { slot, key, .. } => {
                    *slot = self.table_slot();
                    for k in key {
                        self.expr(k, refs);
                    }
                }
                Access::MatScan { .. } => {}
                Access::MatProbe { key, .. } => {
                    for k in key {
                        self.expr(k, refs);
                    }
                }
            }
            for f in &mut src.filters {
                self.expr(f, refs);
            }
        }
        for o in &mut s.output {
            self.expr(&mut o.expr, refs);
        }
        if let Some(plan) = &mut s.agg {
            for k in &mut plan.group_by {
                self.expr(k, refs);
            }
            for arg in plan.aggs.iter_mut().filter_map(|a| a.arg.as_mut()) {
                self.expr(arg, refs);
            }
        }
    }

    /// Finish `e`, adding every column it reads from outside its select
    /// (addressed from that select) to `refs`.
    fn expr(&mut self, e: &mut CExpr, refs: &mut Vec<OuterCol>) {
        match e {
            CExpr::Col { level, source, col } if *level > 0 => push_unique(
                refs,
                OuterCol {
                    level: *level,
                    source: *source,
                    col: *col,
                },
            ),
            CExpr::Col { .. } => {}
            CExpr::Const(_) | CExpr::Bool(_) => {}
            CExpr::Binary { left, right, .. } => {
                self.expr(left, refs);
                self.expr(right, refs);
            }
            CExpr::Not(x) | CExpr::Neg(x) => self.expr(x, refs),
            CExpr::IsNull { expr, .. } => self.expr(expr, refs),
            CExpr::Exists {
                branches,
                site,
                corr,
                ..
            } => {
                *site = self.sites;
                self.sites += 1;
                corr.clear();
                for b in branches {
                    self.branch(b, corr);
                }
                for c in corr.iter().filter(|c| c.level > 0) {
                    push_unique(refs, *c);
                }
            }
            CExpr::InSub(s) => {
                for p in &mut s.probes {
                    self.expr(p, refs);
                }
                let mut inner = Vec::new();
                for b in s.fast.iter_mut().flatten().chain(&mut s.slow) {
                    self.branch(b, &mut inner);
                }
                for c in inner.into_iter().filter(|c| c.level > 0) {
                    push_unique(refs, c);
                }
            }
            CExpr::InList { probe, list, .. } => {
                self.expr(probe, refs);
                for x in list {
                    self.expr(x, refs);
                }
            }
        }
    }
}

fn push_unique(refs: &mut Vec<OuterCol>, c: OuterCol) {
    if !refs.contains(&c) {
        refs.push(c);
    }
}
