//! Plan execution: index-nested-loop join with 3VL predicates, short-circuit
//! `EXISTS`, per-execution materialization cache with ad-hoc hash indexes.

use super::agg::Acc;
use super::compile::{
    compile_query, Access, CBody, CExpr, CInSub, CompiledQuery, CompiledSelect, MatRef,
};
use crate::database::{Database, ReadCtx};
use crate::error::{EngineError, Result};
use crate::hash::{FxHashMap, FxHashSet};
use crate::value::{Truth, Value};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::rc::Rc;
use tintin_sql::BinOp;

/// Lazily built hash indexes over a materialized rowset, keyed by the
/// column set probed.
type AdHocIndexes = FxHashMap<Box<[u32]>, FxHashMap<Box<[Value]>, Vec<u32>>>;

/// A materialized rowset (view or derived table) with lazily built ad-hoc
/// hash indexes keyed by column sets.
#[derive(Debug)]
pub struct Materialized {
    pub rows: Vec<Rc<[Value]>>,
    indexes: RefCell<AdHocIndexes>,
}

impl Materialized {
    fn new(rows: Vec<Rc<[Value]>>) -> Self {
        Materialized {
            rows,
            indexes: RefCell::new(FxHashMap::default()),
        }
    }

    /// Row positions matching `key` on `cols`, building the hash index on
    /// first use. Rows with NULL in any key column are not indexed.
    fn probe(&self, cols: &[u32], key: &[Value]) -> Vec<u32> {
        let mut indexes = self.indexes.borrow_mut();
        let index = indexes.entry(cols.into()).or_insert_with(|| {
            let mut m: FxHashMap<Box<[Value]>, Vec<u32>> = FxHashMap::default();
            'rows: for (i, row) in self.rows.iter().enumerate() {
                let mut k = Vec::with_capacity(cols.len());
                for &c in cols {
                    let v = &row[c as usize];
                    if v.is_null() {
                        continue 'rows;
                    }
                    k.push(v.clone());
                }
                m.entry(k.into_boxed_slice()).or_default().push(i as u32);
            }
            m
        });
        index.get(key).cloned().unwrap_or_default()
    }
}

/// A row bound to a FROM source during execution.
#[derive(Clone)]
enum BoundRow<'a> {
    Table(&'a [Value]),
    Mat(Rc<[Value]>),
    Empty,
}

impl BoundRow<'_> {
    fn values(&self) -> &[Value] {
        match self {
            BoundRow::Table(r) => r,
            BoundRow::Mat(r) => r,
            BoundRow::Empty => &[],
        }
    }
}

/// Execution context: the database, the binding-frame stack, and the
/// materialization caches (shared across one top-level execution).
///
/// The [`ReadCtx`] fixes what table scans and index probes observe: the
/// committed row versions visible at its snapshot, composed with its
/// optional overlay — a transaction's `BEGIN`-time state plus its own
/// pending updates, regardless of what other sessions commit meanwhile.
pub struct ExecCtx<'a> {
    pub db: &'a Database,
    read: ReadCtx<'a>,
    frames: Vec<Vec<BoundRow<'a>>>,
    /// Spare index-probe key buffers: each join level takes one while it
    /// probes and gives it back, so keys are not allocated per outer row.
    key_bufs: Vec<Vec<Value>>,
    view_cache: FxHashMap<String, Rc<Materialized>>,
    derived_cache: FxHashMap<usize, Rc<Materialized>>,
    materializing: Vec<String>,
}

impl<'a> ExecCtx<'a> {
    /// A context reading `db` as `read` describes.
    pub fn new(db: &'a Database, read: ReadCtx<'a>) -> Self {
        ExecCtx {
            db,
            read,
            frames: Vec::new(),
            key_bufs: Vec::new(),
            view_cache: FxHashMap::default(),
            derived_cache: FxHashMap::default(),
            materializing: Vec::new(),
        }
    }

    fn row(&self, level: u32, source: u32) -> &[Value] {
        let frame = &self.frames[self.frames.len() - 1 - level as usize];
        frame[source as usize].values()
    }

    fn resolve_mat(&mut self, mat: &MatRef) -> Result<Rc<Materialized>> {
        match mat {
            MatRef::View(name) => {
                if let Some(m) = self.view_cache.get(name) {
                    return Ok(m.clone());
                }
                if self.materializing.iter().any(|n| n == name) {
                    return Err(EngineError::Unsupported(format!(
                        "cyclic view reference involving '{name}'"
                    )));
                }
                let (vq, _) = self
                    .db
                    .view(name)
                    .ok_or_else(|| EngineError::NoSuchTable(name.clone()))?;
                let compiled = compile_query(self.db, vq)?;
                self.materializing.push(name.clone());
                let rows = execute_query(&compiled, self);
                self.materializing.pop();
                let m = Rc::new(Materialized::new(rows?.into_iter().map(Rc::from).collect()));
                self.view_cache.insert(name.clone(), m.clone());
                Ok(m)
            }
            MatRef::Derived(cq) => {
                let key = (&**cq) as *const CompiledQuery as usize;
                if let Some(m) = self.derived_cache.get(&key) {
                    return Ok(m.clone());
                }
                let rows = execute_query(cq, self)?;
                let m = Rc::new(Materialized::new(rows.into_iter().map(Rc::from).collect()));
                self.derived_cache.insert(key, m.clone());
                Ok(m)
            }
        }
    }
}

/// Execute a compiled query, returning its rows (ORDER BY / LIMIT applied).
pub fn execute_query(q: &CompiledQuery, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
    let mut rows = eval_body(&q.body, ctx)?;
    if !q.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for (i, desc) in &q.order_by {
                let ord = a[*i].cmp(&b[*i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = q.limit {
        rows.truncate(n as usize);
    }
    Ok(rows)
}

/// Evaluate a single-row scalar expression (compiled by
/// `compile_row_predicate`) against `row`; used by UPDATE assignments.
pub fn eval_row_scalar<'a>(expr: &CExpr, row: &'a [Value], ctx: &mut ExecCtx<'a>) -> Result<Value> {
    ctx.frames.push(vec![BoundRow::Table(row)]);
    let r = eval_scalar(expr, ctx);
    ctx.frames.pop();
    r
}

/// Evaluate a single-row predicate (compiled by `compile_row_predicate`)
/// against `row`.
pub fn eval_row_predicate<'a>(
    pred: &CExpr,
    row: &'a [Value],
    ctx: &mut ExecCtx<'a>,
) -> Result<Truth> {
    ctx.frames.push(vec![BoundRow::Table(row)]);
    let r = eval_truth(pred, ctx);
    ctx.frames.pop();
    r
}

fn eval_body(b: &CBody, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
    match b {
        CBody::Select(s) => eval_select_collect(s, ctx),
        CBody::Union { left, right, all } => {
            let mut rows = eval_body(left, ctx)?;
            rows.extend(eval_body(right, ctx)?);
            if !all {
                let mut seen: FxHashSet<Box<[Value]>> = FxHashSet::default();
                rows.retain(|r| seen.insert(r.clone()));
            }
            Ok(rows)
        }
    }
}

fn eval_select_collect(s: &CompiledSelect, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
    if s.agg.is_some() {
        return eval_agg_select(s, ctx);
    }
    let mut rows = Vec::new();
    let mut seen: FxHashSet<Box<[Value]>> = FxHashSet::default();
    let _ = for_each_row(s, ctx, &mut |ctx| {
        let mut out = Vec::with_capacity(s.output.len());
        for o in &s.output {
            out.push(eval_scalar(&o.expr, ctx)?);
        }
        let row: Box<[Value]> = out.into_boxed_slice();
        if !s.distinct || seen.insert(row.clone()) {
            rows.push(row);
        }
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(rows)
}

/// Evaluate an aggregate select: drive the join, group rows, finalize
/// accumulators, filter with HAVING, project per group.
fn eval_agg_select(s: &CompiledSelect, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
    let plan = s.agg.as_ref().expect("caller checked agg");
    let mut group_order: Vec<Box<[Value]>> = Vec::new();
    let mut group_idx: FxHashMap<Box<[Value]>, usize> = FxHashMap::default();
    let mut group_accs: Vec<Vec<Acc>> = Vec::new();
    let _ = for_each_row(s, ctx, &mut |ctx| {
        let mut key = Vec::with_capacity(plan.group_by.len());
        for k in &plan.group_by {
            key.push(eval_scalar(k, ctx)?);
        }
        let key: Box<[Value]> = key.into_boxed_slice();
        let gi = match group_idx.get(&key) {
            Some(gi) => *gi,
            None => {
                let gi = group_order.len();
                group_idx.insert(key.clone(), gi);
                group_order.push(key);
                group_accs.push(plan.aggs.iter().map(|a| Acc::new(a.distinct)).collect());
                gi
            }
        };
        for (spec, acc) in plan.aggs.iter().zip(&mut group_accs[gi]) {
            let v = match &spec.arg {
                Some(e) => Some(eval_scalar(e, ctx)?),
                None => None, // COUNT(*)
            };
            acc.update(v)?;
        }
        Ok(ControlFlow::Continue(()))
    })?;
    // Global aggregate over empty input yields one (empty-keyed) group.
    if group_order.is_empty() && plan.group_by.is_empty() {
        group_order.push(Vec::new().into_boxed_slice());
        group_accs.push(plan.aggs.iter().map(|a| Acc::new(a.distinct)).collect());
    }
    let mut rows = Vec::with_capacity(group_order.len());
    let mut seen: FxHashSet<Box<[Value]>> = FxHashSet::default();
    for (key, accs) in group_order.iter().zip(&group_accs) {
        let agg_vals: Vec<Value> = plan
            .aggs
            .iter()
            .zip(accs)
            .map(|(spec, acc)| acc.finalize(spec.func, acc.saw_string()))
            .collect::<Result<_>>()?;
        if let Some(h) = &plan.having {
            if super::agg::eval_gtruth(h, key, &agg_vals)? != Truth::True {
                continue;
            }
        }
        let mut out = Vec::with_capacity(plan.outputs.len());
        for o in &plan.outputs {
            out.push(super::agg::eval_gexpr(&o.expr, key, &agg_vals)?);
        }
        let row: Box<[Value]> = out.into_boxed_slice();
        if !s.distinct || seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    Ok(rows)
}

/// True if any branch produces at least one row.
pub(crate) fn exists_any(branches: &[CompiledSelect], ctx: &mut ExecCtx<'_>) -> Result<bool> {
    exists_any_iter(branches.iter(), ctx)
}

fn exists_any_iter<'b>(
    branches: impl Iterator<Item = &'b CompiledSelect>,
    ctx: &mut ExecCtx<'_>,
) -> Result<bool> {
    for b in branches {
        if b.agg.is_some() {
            if !eval_agg_select(b, ctx)?.is_empty() {
                return Ok(true);
            }
            continue;
        }
        let mut found = false;
        for_each_row(b, ctx, &mut |_| {
            found = true;
            Ok(ControlFlow::Break(()))
        })
        .map(|_| ())?;
        if found {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Does the query return at least one row? Short-circuits on the first hit
/// instead of materializing the result — the fast path for emptiness
/// checks (TINTIN's violation views are empty on every clean commit).
pub fn query_returns_rows(q: &CompiledQuery, ctx: &mut ExecCtx<'_>) -> Result<bool> {
    if q.limit == Some(0) {
        return Ok(false);
    }
    // DISTINCT, ORDER BY and a non-zero LIMIT don't affect emptiness.
    exists_any_iter(q.body.branches().into_iter(), ctx)
}

/// Shared arithmetic entry point for the aggregate evaluator.
pub(crate) fn arith_pub(op: BinOp, l: Value, r: Value) -> Result<Value> {
    arith(op, l, r)
}

type RowCb<'cb, 'a> = dyn FnMut(&mut ExecCtx<'a>) -> Result<ControlFlow<()>> + 'cb;

/// Drive the nested-loop join, invoking `cb` once per fully bound row
/// combination that passes all filters.
fn for_each_row<'a>(
    s: &CompiledSelect,
    ctx: &mut ExecCtx<'a>,
    cb: &mut RowCb<'_, 'a>,
) -> Result<ControlFlow<()>> {
    ctx.frames.push(vec![BoundRow::Empty; s.sources.len()]);
    let result = (|| {
        for f in &s.pre_filters {
            if !eval_truth(f, ctx)?.is_true() {
                return Ok(ControlFlow::Continue(()));
            }
        }
        bind_source(s, 0, ctx, cb)
    })();
    ctx.frames.pop();
    result
}

fn bind_source<'a>(
    s: &CompiledSelect,
    i: usize,
    ctx: &mut ExecCtx<'a>,
    cb: &mut RowCb<'_, 'a>,
) -> Result<ControlFlow<()>> {
    if i == s.sources.len() {
        return cb(ctx);
    }
    let src = &s.sources[i];
    match &src.access {
        Access::Scan { table } => {
            let db = ctx.db;
            let t = db
                .table(table)
                .ok_or_else(|| EngineError::NoSuchTable(table.clone()))?;
            let delta = ctx.read.overlay.and_then(|o| o.delta(table));
            for (_, row) in t.scan_at(ctx.read.snapshot) {
                if delta.is_some_and(|d| d.hides(row)) {
                    continue;
                }
                let frame_idx = ctx.frames.len() - 1;
                ctx.frames[frame_idx][i] = BoundRow::Table(row);
                if pass_filters(&src.filters, ctx)?
                    && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                {
                    return Ok(ControlFlow::Break(()));
                }
            }
            for row in delta.into_iter().flat_map(|d| d.ins_rows()) {
                let frame_idx = ctx.frames.len() - 1;
                ctx.frames[frame_idx][i] = BoundRow::Table(row);
                if pass_filters(&src.filters, ctx)?
                    && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
        Access::Probe { table, index, key } => {
            let db = ctx.db;
            let t = db
                .table(table)
                .ok_or_else(|| EngineError::NoSuchTable(table.clone()))?;
            let delta = ctx.read.overlay.and_then(|o| o.delta(table));
            let columns = &t.indexes()[*index].columns;
            // One key buffer per join level, reused for every outer row.
            let mut kv = ctx.key_bufs.pop().unwrap_or_default();
            let result = (|| {
                // Evaluate the probe key; NULL or uncoercible keys match
                // nothing.
                for (kexpr, &colpos) in key.iter().zip(columns) {
                    let v = eval_scalar(kexpr, ctx)?;
                    if v.is_null() {
                        return Ok(ControlFlow::Continue(()));
                    }
                    match v.coerce_for_probe(t.schema.columns[colpos].ty) {
                        Ok(v) => kv.push(v),
                        Err(_) => return Ok(ControlFlow::Continue(())),
                    }
                }
                // Probes return versions; visibility filters them to the
                // snapshot.
                for id in t.probe(*index, &kv) {
                    let Some(row) = t.get_at(id, ctx.read.snapshot) else {
                        continue;
                    };
                    if delta.is_some_and(|d| d.hides(row)) {
                        continue;
                    }
                    let frame_idx = ctx.frames.len() - 1;
                    ctx.frames[frame_idx][i] = BoundRow::Table(row);
                    if pass_filters(&src.filters, ctx)?
                        && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                    {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                // The overlay mirrors the table's indexes over its pending
                // insertions, so the same key probes them. Rows are stored
                // schema-validated, which makes direct `Value` equality
                // against the coerced key exact.
                for row in delta
                    .into_iter()
                    .flat_map(|d| d.pending_matching(columns, kv.iter()))
                {
                    let frame_idx = ctx.frames.len() - 1;
                    ctx.frames[frame_idx][i] = BoundRow::Table(row);
                    if pass_filters(&src.filters, ctx)?
                        && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                    {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                Ok(ControlFlow::Continue(()))
            })();
            kv.clear();
            ctx.key_bufs.push(kv);
            result
        }
        Access::MatScan { mat } => {
            let m = ctx.resolve_mat(mat)?;
            for row in &m.rows {
                let frame_idx = ctx.frames.len() - 1;
                ctx.frames[frame_idx][i] = BoundRow::Mat(row.clone());
                if pass_filters(&src.filters, ctx)?
                    && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
        Access::MatProbe { mat, cols, key } => {
            let m = ctx.resolve_mat(mat)?;
            let mut kv = Vec::with_capacity(key.len());
            for kexpr in key {
                let v = eval_scalar(kexpr, ctx)?;
                if v.is_null() {
                    return Ok(ControlFlow::Continue(()));
                }
                kv.push(v);
            }
            for pos in m.probe(cols, &kv) {
                let row = m.rows[pos as usize].clone();
                let frame_idx = ctx.frames.len() - 1;
                ctx.frames[frame_idx][i] = BoundRow::Mat(row);
                if pass_filters(&src.filters, ctx)?
                    && bind_source(s, i + 1, ctx, cb)? == ControlFlow::Break(())
                {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
    }
}

fn pass_filters(filters: &[CExpr], ctx: &mut ExecCtx<'_>) -> Result<bool> {
    for f in filters {
        if !eval_truth(f, ctx)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

// -------------------------------------------------------------- scalars

/// Evaluate a scalar expression under the current bindings.
pub(crate) fn eval_scalar(e: &CExpr, ctx: &mut ExecCtx<'_>) -> Result<Value> {
    Ok(match e {
        CExpr::Const(v) => v.clone(),
        CExpr::Bool(_) => {
            return Err(EngineError::TypeError(
                "boolean used as a scalar value".into(),
            ))
        }
        CExpr::Col { level, source, col } => ctx.row(*level, *source)[*col as usize].clone(),
        CExpr::Binary { op, left, right }
            if !op.is_comparison() && *op != BinOp::And && *op != BinOp::Or =>
        {
            let l = eval_scalar(left, ctx)?;
            let r = eval_scalar(right, ctx)?;
            arith(*op, l, r)?
        }
        CExpr::Neg(x) => match eval_scalar(x, ctx)? {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(-v),
            Value::Real(v) => Value::real(-v.get()),
            v => {
                return Err(EngineError::TypeError(format!(
                    "cannot negate non-numeric value {v}"
                )))
            }
        },
        // Predicates in scalar position are not part of the supported
        // fragment (no BOOLEAN storage class).
        _ => {
            return Err(EngineError::TypeError(
                "predicate used in scalar context".into(),
            ))
        }
    })
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    return Err(EngineError::TypeError("division by zero".into()));
                }
                Value::Int(a.wrapping_div(b))
            }
            _ => unreachable!("arith called with non-arith op"),
        }),
        (a, b) => {
            let fa = to_f64(&a)?;
            let fb = to_f64(&b)?;
            Ok(match op {
                BinOp::Add => Value::real(fa + fb),
                BinOp::Sub => Value::real(fa - fb),
                BinOp::Mul => Value::real(fa * fb),
                BinOp::Div => {
                    if fb == 0.0 {
                        return Err(EngineError::TypeError("division by zero".into()));
                    }
                    Value::real(fa / fb)
                }
                _ => unreachable!("arith called with non-arith op"),
            })
        }
    }
}

fn to_f64(v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Real(r) => Ok(r.get()),
        other => Err(EngineError::TypeError(format!(
            "cannot use {other} in arithmetic"
        ))),
    }
}

/// Evaluate a predicate expression to a 3VL truth value.
pub(crate) fn eval_truth(e: &CExpr, ctx: &mut ExecCtx<'_>) -> Result<Truth> {
    Ok(match e {
        CExpr::Bool(b) => Truth::from_bool(*b),
        CExpr::Const(Value::Null) => Truth::Unknown,
        CExpr::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval_truth(left, ctx)?;
                // Short-circuit False.
                if l == Truth::False {
                    Truth::False
                } else {
                    l.and(eval_truth(right, ctx)?)
                }
            }
            BinOp::Or => {
                let l = eval_truth(left, ctx)?;
                if l == Truth::True {
                    Truth::True
                } else {
                    l.or(eval_truth(right, ctx)?)
                }
            }
            op if op.is_comparison() => {
                let l = eval_scalar(left, ctx)?;
                let r = eval_scalar(right, ctx)?;
                compare(*op, &l, &r)
            }
            _ => {
                return Err(EngineError::TypeError(
                    "arithmetic expression used as a predicate".into(),
                ))
            }
        },
        CExpr::Not(x) => eval_truth(x, ctx)?.not(),
        CExpr::IsNull { expr, negated } => {
            let v = eval_scalar(expr, ctx)?;
            let t = Truth::from_bool(v.is_null());
            if *negated {
                t.not()
            } else {
                t
            }
        }
        CExpr::Exists { branches, negated } => {
            let t = Truth::from_bool(exists_any(branches, ctx)?);
            if *negated {
                t.not()
            } else {
                t
            }
        }
        CExpr::InSub(isub) => eval_in_sub(isub, ctx)?,
        CExpr::InList {
            probe,
            list,
            negated,
        } => {
            let p = eval_scalar(probe, ctx)?;
            let mut result = Truth::False;
            for item in list {
                let v = eval_scalar(item, ctx)?;
                match compare(BinOp::Eq, &p, &v) {
                    Truth::True => {
                        result = Truth::True;
                        break;
                    }
                    Truth::Unknown => result = Truth::Unknown,
                    Truth::False => {}
                }
            }
            if *negated {
                result.not()
            } else {
                result
            }
        }
        _ => {
            return Err(EngineError::TypeError(
                "scalar expression used as a predicate".into(),
            ))
        }
    })
}

fn compare(op: BinOp, l: &Value, r: &Value) -> Truth {
    match l.sql_cmp(r) {
        None => Truth::Unknown,
        Some(ord) => Truth::from_bool(match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!("compare called with non-comparison"),
        }),
    }
}

fn eval_in_sub(isub: &CInSub, ctx: &mut ExecCtx<'_>) -> Result<Truth> {
    let mut probe_vals = Vec::with_capacity(isub.probes.len());
    for p in &isub.probes {
        probe_vals.push(eval_scalar(p, ctx)?);
    }
    let any_null_probe = probe_vals.iter().any(|v| v.is_null());
    let t = if let (false, Some(fast)) = (any_null_probe, &isub.fast) {
        // Index-friendly existence path.
        Truth::from_bool(exists_any(fast, ctx)?)
    } else {
        // General 3VL path: materialize the subquery rows (handles both
        // plain and aggregate branches) and compare tuples.
        let mut result = Truth::False;
        'outer: for b in &isub.slow {
            let rows = eval_select_collect(b, ctx)?;
            for row in rows {
                let mut cmp = Truth::True;
                for (pv, v) in probe_vals.iter().zip(row.iter()) {
                    cmp = cmp.and(compare(BinOp::Eq, pv, v));
                    if cmp == Truth::False {
                        break;
                    }
                }
                match cmp {
                    Truth::True => {
                        result = Truth::True;
                        break 'outer;
                    }
                    Truth::Unknown => result = Truth::Unknown,
                    Truth::False => {}
                }
            }
        }
        result
    };
    Ok(if isub.negated { t.not() } else { t })
}
