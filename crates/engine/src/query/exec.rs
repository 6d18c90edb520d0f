//! Plan execution: index-nested-loop join with 3VL predicates and
//! short-circuit `EXISTS`.
//!
//! One [`ExecCtx`] serves one execution against a fixed read state, and
//! holds everything the execution reuses instead of re-deriving per row:
//!
//! * **table slots** — each base-table access of the plan looks its table
//!   up once, through the slot the compiler numbered for it;
//! * **spools** — each correlated `EXISTS` site remembers the outer values
//!   of its last evaluation and the verdict they produced, and returns that
//!   verdict without re-running its branches when the next outer row carries
//!   the same values (SQL Server's lazy spool on the inner side of a
//!   correlated nested loop);
//! * **materialized views and derived tables**, with ad-hoc hash indexes
//!   built on first probe;
//! * **frame and key buffers**, so binding a row or probing an index
//!   allocates nothing.
//!
//! A spool is sound within one execution because everything a branch reads
//! besides its correlation values — the snapshot, the overlay, the tables —
//! is fixed for the life of the context, which borrows the database
//! immutably. It keeps the last key only: the repeats that occur in practice
//! are adjacent (one statement's event rows sit next to each other in
//! `ins_T`/`del_T`, as do a bulk-loaded parent's children in a base scan),
//! and a one-entry cache costs a few compares when they are not.

use super::agg::Acc;
use super::compile::{
    compile_query, Access, CBody, CExpr, CInSub, CompiledQuery, CompiledSelect, MatRef, OuterCol,
    RowExpr, Slots,
};
use crate::database::{Database, ReadCtx};
use crate::error::{EngineError, Result};
use crate::hash::{FxHashMap, FxHashSet};
use crate::overlay::TableDelta;
use crate::table::Table;
use crate::value::{DataType, Truth, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::rc::Rc;
use tintin_sql::BinOp;

/// An ad-hoc hash index over a materialized rowset: key values (in
/// [`index_key`] form) → row positions.
type KeyIndex = FxHashMap<Box<[Value]>, Vec<u32>>;

/// A key value as an ad-hoc index files and probes it. A materialized
/// column has no declared type, so INT and REAL values can meet in it, and
/// SQL equality holds between `1` and `1.0`: a REAL with an integral value
/// is filed as the INT it equals, the narrowing a base-table probe of an
/// INT column applies.
fn index_key(v: &Value) -> Value {
    match v {
        Value::Real(_) => v
            .clone()
            .coerce_to(DataType::Int)
            .unwrap_or_else(|| v.clone()),
        _ => v.clone(),
    }
}

/// A materialized rowset (view or derived table) with lazily built ad-hoc
/// hash indexes keyed by column sets.
#[derive(Debug)]
pub struct Materialized {
    pub rows: Vec<Rc<[Value]>>,
    indexes: RefCell<FxHashMap<Box<[u32]>, Rc<KeyIndex>>>,
}

impl Materialized {
    fn new(rows: Vec<Rc<[Value]>>) -> Self {
        Materialized {
            rows,
            indexes: RefCell::new(FxHashMap::default()),
        }
    }

    /// The hash index on `cols`, built on first use. Rows with NULL in any
    /// key column are not indexed.
    fn index(&self, cols: &[u32]) -> Rc<KeyIndex> {
        let mut indexes = self.indexes.borrow_mut();
        let index = indexes.entry(cols.into()).or_insert_with(|| {
            let mut m = KeyIndex::default();
            'rows: for (i, row) in self.rows.iter().enumerate() {
                let mut k = Vec::with_capacity(cols.len());
                for &c in cols {
                    let v = &row[c as usize];
                    if v.is_null() {
                        continue 'rows;
                    }
                    k.push(index_key(v));
                }
                m.entry(k.into_boxed_slice()).or_default().push(i as u32);
            }
            Rc::new(m)
        });
        index.clone()
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

/// A base table as one execution reads it: its rows and the reading
/// transaction's pending changes to it.
type TableRead<'a> = (&'a Table, Option<&'a TableDelta>);

/// One `EXISTS` site's spool: the correlation values of its last evaluation
/// and the verdict they produced (`None` until the site has completed one).
#[derive(Default)]
struct Spool {
    key: Vec<Value>,
    verdict: Option<bool>,
}

/// The state one plan numbers at compile time ([`Slots`]): its resolved
/// table slots and its spools.
#[derive(Default)]
struct PlanState<'a> {
    id: u64,
    tables: Vec<Option<TableRead<'a>>>,
    spools: Vec<Spool>,
}

impl PlanState<'_> {
    fn new(slots: &Slots) -> Self {
        PlanState {
            id: slots.id,
            tables: vec![None; slots.tables as usize],
            spools: (0..slots.sites).map(|_| Spool::default()).collect(),
        }
    }
}

/// Execution context: the database, the binding-frame stack, the plan's
/// table slots and spools, and the materialization caches.
///
/// The [`ReadCtx`] fixes what table scans and index probes observe: the
/// committed row versions visible at its snapshot, composed with its
/// optional overlay — a transaction's `BEGIN`-time state plus its own
/// pending updates, regardless of what other sessions commit meanwhile.
/// That fixed state is what makes a context's caches sound; a new read
/// state takes a new context.
pub struct ExecCtx<'a> {
    pub db: &'a Database,
    read: ReadCtx<'a>,
    /// Binding frames; `frames[..depth]` are live, the rest are spare
    /// buffers kept for the next push.
    frames: Vec<Vec<BoundRow<'a>>>,
    depth: usize,
    /// Spare index-probe key buffers: each join level takes one while it
    /// probes and gives it back, so keys are not allocated per outer row.
    key_bufs: Vec<Vec<Value>>,
    /// Table slots and spools of the plan being executed. A context reused
    /// for the same plan (a row predicate, row after row) keeps them; a
    /// different plan starts afresh.
    plan: PlanState<'a>,
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
            depth: 0,
            key_bufs: Vec::new(),
            plan: PlanState::default(),
            view_cache: FxHashMap::default(),
            derived_cache: FxHashMap::default(),
            materializing: Vec::new(),
        }
    }

    fn row(&self, level: u32, source: u32) -> &[Value] {
        self.frames[self.depth - 1 - level as usize][source as usize].values()
    }

    fn push_frame(&mut self, width: usize) {
        if self.depth == self.frames.len() {
            self.frames.push(Vec::new());
        }
        let frame = &mut self.frames[self.depth];
        frame.clear();
        frame.resize(width, BoundRow::Empty);
        self.depth += 1;
    }

    fn pop_frame(&mut self) {
        self.depth -= 1;
    }

    /// Bind source `i` of the innermost frame to `row`.
    fn bind(&mut self, i: usize, row: BoundRow<'a>) {
        self.frames[self.depth - 1][i] = row;
    }

    /// Make `slots`' plan the one whose state this context holds.
    fn enter(&mut self, slots: &Slots) {
        if self.plan.id != slots.id {
            self.plan = PlanState::new(slots);
        }
    }

    /// The table in `slot`, looked up by `name` on the slot's first use.
    fn table(&mut self, slot: u32, name: &str) -> Result<TableRead<'a>> {
        if let Some(t) = self.plan.tables[slot as usize] {
            return Ok(t);
        }
        let db = self.db;
        let t = db
            .table(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_string()))?;
        let read = (t, self.read.overlay.and_then(|o| o.delta(name)));
        self.plan.tables[slot as usize] = Some(read);
        Ok(read)
    }

    /// Run a view's or derived table's plan inside this execution, with
    /// table slots and spools of its own.
    fn materialize(&mut self, q: &CompiledQuery) -> Result<Rc<Materialized>> {
        let outer = std::mem::replace(&mut self.plan, PlanState::new(&q.slots));
        let rows = run_query(q, self);
        self.plan = outer;
        Ok(Rc::new(Materialized::new(
            rows?.into_iter().map(Rc::from).collect(),
        )))
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
                let m = self.materialize(&compiled);
                self.materializing.pop();
                let m = m?;
                self.view_cache.insert(name.clone(), m.clone());
                Ok(m)
            }
            MatRef::Derived(cq) => {
                let key = (&**cq) as *const CompiledQuery as usize;
                if let Some(m) = self.derived_cache.get(&key) {
                    return Ok(m.clone());
                }
                let m = self.materialize(cq)?;
                self.derived_cache.insert(key, m.clone());
                Ok(m)
            }
        }
    }
}

/// Execute a compiled query, returning its rows (ORDER BY / LIMIT applied).
pub fn execute_query(q: &CompiledQuery, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
    ctx.enter(&q.slots);
    run_query(q, ctx)
}

fn run_query(q: &CompiledQuery, ctx: &mut ExecCtx<'_>) -> Result<Vec<Box<[Value]>>> {
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
pub fn eval_row_scalar<'a>(
    expr: &RowExpr,
    row: &'a [Value],
    ctx: &mut ExecCtx<'a>,
) -> Result<Value> {
    ctx.enter(&expr.slots);
    ctx.push_frame(1);
    ctx.bind(0, BoundRow::Table(row));
    let r = eval_scalar(&expr.expr, ctx);
    ctx.pop_frame();
    r
}

/// Evaluate a single-row predicate (compiled by `compile_row_predicate`)
/// against `row`. Calls for successive rows may share `ctx`, and with it
/// the predicate's table slots and spools.
pub fn eval_row_predicate<'a>(
    pred: &RowExpr,
    row: &'a [Value],
    ctx: &mut ExecCtx<'a>,
) -> Result<Truth> {
    ctx.enter(&pred.slots);
    ctx.push_frame(1);
    ctx.bind(0, BoundRow::Table(row));
    let r = eval_truth(&pred.expr, ctx);
    ctx.pop_frame();
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
fn exists_any<'b>(
    branches: impl IntoIterator<Item = &'b CompiledSelect>,
    ctx: &mut ExecCtx<'_>,
) -> Result<bool> {
    for b in branches {
        if b.agg.is_some() {
            if !eval_agg_select(b, ctx)?.is_empty() {
                return Ok(true);
            }
            continue;
        }
        // The first row breaks the join, and the break propagates out.
        if for_each_row(b, ctx, &mut |_| Ok(ControlFlow::Break(())))?.is_break() {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
thread_local! {
    /// Spool misses on this thread: how often an `EXISTS` site ran its
    /// branches. Lets tests count work without timing it.
    static BRANCH_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `EXISTS` at spool `site`: the verdict of the last evaluation when the
/// outer values in `corr` are the same as then, otherwise the branches'
/// verdict, which the spool then keeps.
fn spooled_exists(
    site: u32,
    corr: &[OuterCol],
    branches: &[CompiledSelect],
    ctx: &mut ExecCtx<'_>,
) -> Result<bool> {
    let ExecCtx {
        frames,
        depth,
        plan,
        ..
    } = ctx;
    let outer = |c: &OuterCol| {
        &frames[*depth - 1 - c.level as usize][c.source as usize].values()[c.col as usize]
    };
    let spool = &mut plan.spools[site as usize];
    if let Some(verdict) = spool.verdict {
        if spool.key.iter().zip(corr).all(|(k, c)| k == outer(c)) {
            return Ok(verdict);
        }
    }
    spool.verdict = None;
    spool.key.resize(corr.len(), Value::Null);
    for (k, c) in spool.key.iter_mut().zip(corr) {
        k.clone_from(outer(c));
    }
    #[cfg(test)]
    BRANCH_RUNS.with(|n| n.set(n.get() + 1));
    let found = exists_any(branches, ctx)?;
    ctx.plan.spools[site as usize].verdict = Some(found);
    Ok(found)
}

/// Does the query return at least one row? Short-circuits on the first hit
/// instead of materializing the result — the fast path for emptiness
/// checks (TINTIN's violation views are empty on every clean commit).
pub fn query_returns_rows(q: &CompiledQuery, ctx: &mut ExecCtx<'_>) -> Result<bool> {
    if q.limit == Some(0) {
        return Ok(false);
    }
    ctx.enter(&q.slots);
    // DISTINCT, ORDER BY and a non-zero LIMIT don't affect emptiness.
    exists_any(q.body.branches(), ctx)
}

type RowCb<'cb, 'a> = dyn FnMut(&mut ExecCtx<'a>) -> Result<ControlFlow<()>> + 'cb;

/// Drive the nested-loop join, invoking `cb` once per fully bound row
/// combination that passes all filters.
fn for_each_row<'a>(
    s: &CompiledSelect,
    ctx: &mut ExecCtx<'a>,
    cb: &mut RowCb<'_, 'a>,
) -> Result<ControlFlow<()>> {
    ctx.push_frame(s.sources.len());
    let result = match pass_filters(&s.pre_filters, ctx) {
        Ok(true) => bind_source(s, 0, ctx, cb),
        Ok(false) => Ok(ControlFlow::Continue(())),
        Err(e) => Err(e),
    };
    ctx.pop_frame();
    result
}

/// Bind source `i` to `row`; if it passes the source's filters, go on to
/// the next source.
fn bind_and_continue<'a>(
    s: &CompiledSelect,
    i: usize,
    row: BoundRow<'a>,
    ctx: &mut ExecCtx<'a>,
    cb: &mut RowCb<'_, 'a>,
) -> Result<ControlFlow<()>> {
    ctx.bind(i, row);
    if pass_filters(&s.sources[i].filters, ctx)? {
        bind_source(s, i + 1, ctx, cb)
    } else {
        Ok(ControlFlow::Continue(()))
    }
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
    match &s.sources[i].access {
        Access::Scan { table, slot } => {
            let (t, delta) = ctx.table(*slot, table)?;
            let snapshot = ctx.read.snapshot;
            for (_, row) in t.scan_at(snapshot) {
                if delta.is_some_and(|d| d.hides(row)) {
                    continue;
                }
                if bind_and_continue(s, i, BoundRow::Table(row), ctx, cb)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            for row in delta.into_iter().flat_map(|d| d.ins_rows()) {
                if bind_and_continue(s, i, BoundRow::Table(row), ctx, cb)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
        Access::Probe {
            table,
            slot,
            index,
            key,
        } => {
            let (t, delta) = ctx.table(*slot, table)?;
            let columns = &t.indexes()[*index].columns;
            // One key buffer per join level, reused for every outer row.
            let mut kv = ctx.key_bufs.pop().unwrap_or_default();
            let result = (|| {
                // Evaluate the probe key; NULL or uncoercible keys match
                // nothing.
                for (kexpr, &colpos) in key.iter().zip(columns) {
                    let v = scalar_ref(kexpr, ctx)?;
                    if v.is_null() {
                        return Ok(ControlFlow::Continue(()));
                    }
                    match v.into_owned().coerce_for_probe(t.schema.columns[colpos].ty) {
                        Ok(v) => kv.push(v),
                        Err(_) => return Ok(ControlFlow::Continue(())),
                    }
                }
                // Probes return versions; visibility filters them to the
                // snapshot.
                let snapshot = ctx.read.snapshot;
                for id in t.probe(*index, &kv) {
                    let Some(row) = t.get_at(id, snapshot) else {
                        continue;
                    };
                    if delta.is_some_and(|d| d.hides(row)) {
                        continue;
                    }
                    if bind_and_continue(s, i, BoundRow::Table(row), ctx, cb)?.is_break() {
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
                    if bind_and_continue(s, i, BoundRow::Table(row), ctx, cb)?.is_break() {
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
                if bind_and_continue(s, i, BoundRow::Mat(row.clone()), ctx, cb)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
        Access::MatProbe { mat, cols, key } => {
            let m = ctx.resolve_mat(mat)?;
            let mut kv = ctx.key_bufs.pop().unwrap_or_default();
            let result = (|| {
                for kexpr in key {
                    let v = scalar_ref(kexpr, ctx)?;
                    if v.is_null() {
                        return Ok(ControlFlow::Continue(()));
                    }
                    kv.push(index_key(&v));
                }
                let index = m.index(cols);
                let positions = index.get(&kv[..]).map_or(&[][..], Vec::as_slice);
                for &pos in positions {
                    let row = BoundRow::Mat(m.rows[pos as usize].clone());
                    if bind_and_continue(s, i, row, ctx, cb)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                Ok(ControlFlow::Continue(()))
            })();
            kv.clear();
            ctx.key_bufs.push(kv);
            result
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

/// A scalar operand: column references and constants are read in place,
/// anything else is computed.
fn scalar_ref<'v>(e: &'v CExpr, ctx: &'v ExecCtx<'_>) -> Result<Cow<'v, Value>> {
    Ok(match e {
        CExpr::Const(v) => Cow::Borrowed(v),
        CExpr::Col { level, source, col } => {
            Cow::Borrowed(&ctx.row(*level, *source)[*col as usize])
        }
        _ => Cow::Owned(eval_scalar(e, ctx)?),
    })
}

/// Evaluate a scalar expression under the current bindings.
pub(crate) fn eval_scalar(e: &CExpr, ctx: &ExecCtx<'_>) -> Result<Value> {
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
            let (l, r) = (scalar_ref(left, ctx)?, scalar_ref(right, ctx)?);
            arith(*op, &l, &r)?
        }
        CExpr::Neg(x) => match &*scalar_ref(x, ctx)? {
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

/// Arithmetic on two values; shared with the aggregate evaluator.
pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (&Value::Int(a), &Value::Int(b)) => Ok(match op {
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
            let fa = to_f64(a)?;
            let fb = to_f64(b)?;
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
                let (l, r) = (scalar_ref(left, ctx)?, scalar_ref(right, ctx)?);
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
            Truth::from_bool(scalar_ref(expr, ctx)?.is_null() != *negated)
        }
        CExpr::Exists {
            branches,
            negated,
            site,
            corr,
        } => Truth::from_bool(spooled_exists(*site, corr, branches, ctx)? != *negated),
        CExpr::InSub(isub) => eval_in_sub(isub, ctx)?,
        CExpr::InList {
            probe,
            list,
            negated,
        } => {
            let p = scalar_ref(probe, ctx)?;
            let mut result = Truth::False;
            for item in list {
                let v = scalar_ref(item, ctx)?;
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
    let mut any_null_probe = false;
    for p in &isub.probes {
        any_null_probe |= scalar_ref(p, ctx)?.is_null();
    }
    let t = if let (false, Some(fast)) = (any_null_probe, &isub.fast) {
        // Index-friendly existence path.
        Truth::from_bool(exists_any(fast, ctx)?)
    } else {
        // General 3VL path: materialize the subquery rows (handles both
        // plain and aggregate branches) and compare tuples.
        let mut probe_vals = ctx.key_bufs.pop().unwrap_or_default();
        let result = (|| -> Result<Truth> {
            for p in &isub.probes {
                probe_vals.push(eval_scalar(p, ctx)?);
            }
            let mut result = Truth::False;
            for b in &isub.slow {
                for row in eval_select_collect(b, ctx)? {
                    let mut cmp = Truth::True;
                    for (pv, v) in probe_vals.iter().zip(row.iter()) {
                        cmp = cmp.and(compare(BinOp::Eq, pv, v));
                        if cmp == Truth::False {
                            break;
                        }
                    }
                    match cmp {
                        Truth::True => return Ok(Truth::True),
                        Truth::Unknown => result = Truth::Unknown,
                        Truth::False => {}
                    }
                }
            }
            Ok(result)
        })();
        probe_vals.clear();
        ctx.key_bufs.push(probe_vals);
        result?
    };
    Ok(if isub.negated { t.not() } else { t })
}

#[cfg(test)]
mod tests {
    use super::BRANCH_RUNS;
    use crate::{Database, ReadCtx, Value};
    use std::cell::Cell;

    /// A table `o` with one row per entry of `keys`, in that order (`id` =
    /// position), and a table `i` holding the key 1.
    fn db_with_outer_keys(keys: &[i64]) -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE o (id INT PRIMARY KEY, k INT); CREATE TABLE i (k INT);")
            .unwrap();
        for (id, k) in keys.iter().enumerate() {
            db.execute_sql(&format!("INSERT INTO o VALUES ({id}, {k})"))
                .unwrap();
        }
        db.execute_sql("INSERT INTO i VALUES (1)").unwrap();
        db
    }

    /// Run `NOT EXISTS` correlated on `o.k` over the outer rows; returns the
    /// ids it keeps and how often the subquery's branch ran.
    fn anti_join(keys: &[i64]) -> (Vec<i64>, u64) {
        let db = db_with_outer_keys(keys);
        let q = tintin_sql::parse_query(
            "SELECT o.id FROM o WHERE NOT EXISTS (SELECT * FROM i WHERE i.k = o.k)",
        )
        .unwrap();
        let before = BRANCH_RUNS.with(Cell::get);
        let rs = db.query(&q, ReadCtx::LATEST).unwrap();
        let runs = BRANCH_RUNS.with(Cell::get) - before;
        let ids = rs
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(id) => id,
                ref v => panic!("id {v:?}"),
            })
            .collect();
        (ids, runs)
    }

    #[test]
    fn spool_one_shared_key_runs_the_branch_once() {
        assert_eq!(anti_join(&[1; 7]), (vec![], 1));
        assert_eq!(anti_join(&[2; 7]), ((0..7).collect(), 1));
    }

    #[test]
    fn spool_distinct_keys_run_the_branch_per_row() {
        assert_eq!(anti_join(&[1, 2, 3, 4, 5, 6, 7]), ((1..7).collect(), 7));
    }

    #[test]
    fn spool_keeps_the_last_key_only() {
        assert_eq!(anti_join(&[1, 2, 1]), (vec![1], 3));
    }

    #[test]
    fn spool_serves_a_row_predicate_across_rows() {
        let mut db = db_with_outer_keys(&[1, 1, 1, 2, 2, 2, 2]);
        let before = BRANCH_RUNS.with(Cell::get);
        db.execute_sql("DELETE FROM o WHERE NOT EXISTS (SELECT * FROM i WHERE i.k = o.k)")
            .unwrap();
        assert_eq!(BRANCH_RUNS.with(Cell::get) - before, 2);
        assert_eq!(db.table("o").unwrap().scan().count(), 3);
    }
}
