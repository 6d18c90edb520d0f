//! SQL assertion → logic denial translation (paper §2, step 1, after \[6\]).
//!
//! The accepted assertion fragment is the one the paper states: the
//! condition is (a conjunction of) `NOT EXISTS (query)` where the query uses
//! selection, projection, join, `EXISTS`/`IN`, `NOT EXISTS`/`NOT IN` and
//! `UNION` over base tables — no aggregates, no arithmetic, no views.
//!
//! Translation outline:
//! * each `FROM` table becomes a positive literal with one fresh variable
//!   per column;
//! * equality conditions unify variables / bind constants;
//! * other comparisons become built-in literals;
//! * `EXISTS` / `IN` subqueries inline positively (with `UNION` and `OR`
//!   handled by DNF expansion into multiple denials);
//! * `NOT EXISTS` / `NOT IN` subqueries become negated literals — a negated
//!   *base* atom when the subquery is a single-table conjunctive select,
//!   otherwise a negated *derived* predicate whose rules are the subquery's
//!   branches.

use crate::catalog::SchemaCatalog;
use crate::ir::*;
use std::collections::BTreeMap;
use std::fmt;
use tintin_sql as sql;

/// Maximum number of denials/rule-bodies one assertion may expand into
/// (guards against DNF explosion).
pub const MAX_BODIES: usize = 128;

/// Error produced during assertion translation.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError {
    pub assertion: String,
    pub kind: TranslateErrorKind,
    pub message: String,
}

/// Why an assertion did not translate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateErrorKind {
    /// Well-formed SQL outside the paper's assertion fragment.
    Unsupported(Feature),
    /// The assertion itself is wrong: unknown or ambiguous names, a
    /// condition that is not a conjunction of `NOT EXISTS`, an unsafe
    /// variable, an expansion past [`MAX_BODIES`].
    Invalid,
}

/// A SQL feature the assertion fragment does not cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Aggregate functions (the paper's future work).
    Aggregate,
    /// `GROUP BY` / `HAVING`.
    GroupBy,
    /// Arithmetic in a condition or a compared value.
    Arithmetic,
    /// A derived table in `FROM`.
    DerivedTable,
    /// A wildcard projection in an `IN` subquery.
    Wildcard,
    /// A `NULL` literal in a comparison.
    NullLiteral,
    /// Any other value than a column or a constant (functions, tuples).
    ScalarExpression,
    /// Any other condition than a comparison, `EXISTS`, `IN` or `IS NULL`.
    Condition,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assertion '{}': {}", self.assertion, self.message)
    }
}

impl std::error::Error for TranslateError {}

type TResult<T> = Result<T, TranslateError>;

/// Translate a `CREATE ASSERTION` into denials, registering derived
/// predicates in `reg`.
pub fn translate_assertion(
    cat: &SchemaCatalog,
    reg: &mut Registry,
    assertion: &sql::CreateAssertion,
) -> TResult<Vec<Denial>> {
    let mut tr = Translator {
        cat,
        reg,
        assertion: assertion.name.clone(),
    };
    let queries = tr.split_condition(&assertion.condition)?;
    let mut denials = Vec::new();
    for q in queries {
        let bodies = tr.translate_query(q, &Env::default(), None)?;
        for body in bodies {
            tr.check_denial_safety(&body)?;
            denials.push(Denial {
                assertion: assertion.name.clone(),
                index: denials.len(),
                body,
            });
        }
    }
    if denials.is_empty() {
        return Err(tr.err("assertion condition is trivially true (no denials produced)"));
    }
    Ok(denials)
}

/// Scoping environment: a stack of frames, each holding the FROM bindings of
/// one enclosing select.
#[derive(Default, Clone)]
struct Env {
    frames: Vec<Frame>,
}

#[derive(Default, Clone)]
struct Frame {
    /// (binding name, table name, column variables)
    sources: Vec<(String, String, Vec<Var>)>,
}

impl Env {
    fn push(&self, frame: Frame) -> Env {
        let mut e = self.clone();
        e.frames.push(frame);
        e
    }
}

struct Translator<'a> {
    cat: &'a SchemaCatalog,
    reg: &'a mut Registry,
    assertion: String,
}

/// A body under construction: accumulated literals plus the variable
/// bindings discovered through equality conditions.
#[derive(Clone, Default)]
struct Partial {
    literals: Vec<Literal>,
    binds: BTreeMap<Var, Term>,
}

impl Partial {
    /// Fully resolve a term through the binding map.
    fn resolve(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        let mut steps = 0;
        while let Term::Var(v) = cur {
            match self.binds.get(&v) {
                Some(next) => {
                    cur = next.clone();
                    steps += 1;
                    debug_assert!(steps < 10_000, "binding cycle");
                }
                None => break,
            }
        }
        cur
    }

    /// Record an equality between two terms. Returns false if the equality
    /// is unsatisfiable (distinct constants), in which case the body can be
    /// discarded.
    fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        match (ra, rb) {
            (Term::Var(x), Term::Var(y)) => {
                if x != y {
                    // Keep the older (smaller-id, typically outer) variable
                    // as representative.
                    let (young, old) = if x > y { (x, y) } else { (y, x) };
                    self.binds.insert(young, Term::Var(old));
                }
                true
            }
            (Term::Var(x), k @ Term::Const(_)) | (k @ Term::Const(_), Term::Var(x)) => {
                self.binds.insert(x, k);
                true
            }
            (Term::Const(k1), Term::Const(k2)) => k1 == k2,
        }
    }

    /// Apply the accumulated bindings to all literals, producing the final
    /// body.
    fn finish(&self) -> Vec<Literal> {
        let mut full = BTreeMap::new();
        for v in self.binds.keys() {
            full.insert(*v, self.resolve(&Term::Var(*v)));
        }
        subst_body(&self.literals, &full)
    }
}

impl<'a> Translator<'a> {
    fn err(&self, msg: impl Into<String>) -> TranslateError {
        TranslateError {
            assertion: self.assertion.clone(),
            kind: TranslateErrorKind::Invalid,
            message: msg.into(),
        }
    }

    fn unsupported(&self, feature: Feature, msg: impl Into<String>) -> TranslateError {
        TranslateError {
            kind: TranslateErrorKind::Unsupported(feature),
            ..self.err(msg)
        }
    }

    /// Split the assertion condition into its `NOT EXISTS (…)` queries.
    fn split_condition<'e>(&self, cond: &'e sql::Expr) -> TResult<Vec<&'e sql::Query>> {
        let mut out = Vec::new();
        for conj in cond.conjuncts() {
            match conj {
                sql::Expr::Exists {
                    query,
                    negated: true,
                } => out.push(&**query),
                sql::Expr::Unary {
                    op: sql::UnOp::Not,
                    expr,
                } => {
                    match &**expr {
                        sql::Expr::Exists {
                            query,
                            negated: false,
                        } => out.push(&**query),
                        _ => return Err(self.err(
                            "assertion condition must be a conjunction of NOT EXISTS (…) clauses",
                        )),
                    }
                }
                _ => {
                    return Err(self.err(
                        "assertion condition must be a conjunction of NOT EXISTS (…) clauses",
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Translate a query into denial bodies (one per DNF branch). When
    /// `probe` is given (IN subqueries), the query's projection is unified
    /// with the probe terms.
    fn translate_query(
        &mut self,
        q: &sql::Query,
        env: &Env,
        probe: Option<&[Term]>,
    ) -> TResult<Vec<Vec<Literal>>> {
        let mut bodies = Vec::new();
        for sel in q.selects() {
            bodies.extend(self.translate_select(sel, env, probe)?);
            if bodies.len() > MAX_BODIES {
                return Err(self.err(format!(
                    "assertion expands into more than {MAX_BODIES} conjunctive bodies \
                     (UNION/OR/IN-list explosion)"
                )));
            }
        }
        Ok(bodies)
    }

    fn translate_select(
        &mut self,
        sel: &sql::Select,
        env: &Env,
        probe: Option<&[Term]>,
    ) -> TResult<Vec<Vec<Literal>>> {
        // Collect FROM leaves and ON conditions.
        let mut leaves = Vec::new();
        let mut cond_exprs: Vec<&sql::Expr> = Vec::new();
        for tr in &sel.from {
            self.flatten_from(tr, &mut leaves, &mut cond_exprs)?;
        }
        if leaves.is_empty() {
            return Err(self.err("assertion subqueries must have a FROM clause"));
        }
        if !sel.group_by.is_empty() || sel.having.is_some() {
            return Err(self.unsupported(
                Feature::GroupBy,
                "GROUP BY / HAVING are not supported in assertions \
                 (aggregates are the paper's future work)",
            ));
        }
        if let Some(w) = &sel.selection {
            cond_exprs.extend(w.conjuncts());
        }

        // Build the frame: fresh vars per column, positive literal per table.
        let mut frame = Frame::default();
        let mut start = Partial::default();
        for (table, binding) in &leaves {
            let info = self
                .cat
                .table(table)
                .ok_or_else(|| self.err(format!("unknown table '{table}' in assertion")))?;
            if frame.sources.iter().any(|(b, _, _)| b == binding) {
                return Err(self.err(format!("duplicate binding '{binding}' in FROM")));
            }
            let vars: Vec<Var> = info.columns.iter().map(|c| self.reg.fresh_var(c)).collect();
            start.literals.push(Literal::Pos(Atom::new(
                Pred::Base(table.clone()),
                vars.iter().map(|v| Term::Var(*v)).collect(),
            )));
            frame.sources.push((binding.clone(), table.clone(), vars));
        }
        let inner_env = env.push(frame);

        // Process conditions with DNF expansion.
        let mut partials = vec![start];
        for e in cond_exprs {
            partials = self.process_expr_all(partials, e, &inner_env)?;
            if partials.len() > MAX_BODIES {
                return Err(self.err(format!(
                    "assertion expands into more than {MAX_BODIES} conjunctive bodies"
                )));
            }
        }

        // IN-probe unification with the projection.
        if let Some(probe_terms) = probe {
            let proj_exprs = self.projection_exprs(sel)?;
            if proj_exprs.len() != probe_terms.len() {
                return Err(self.err(format!(
                    "IN subquery projects {} columns but probes {}",
                    proj_exprs.len(),
                    probe_terms.len()
                )));
            }
            let mut unified = Vec::new();
            for mut p in partials {
                let mut ok = true;
                for (pe, pt) in proj_exprs.iter().zip(probe_terms) {
                    let t = self.expr_to_term(pe, &inner_env, &p)?;
                    if !p.unify(&t, pt) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    unified.push(p);
                }
            }
            partials = unified;
        }

        Ok(partials.into_iter().map(|p| p.finish()).collect())
    }

    fn projection_exprs<'s>(&self, sel: &'s sql::Select) -> TResult<Vec<&'s sql::Expr>> {
        let mut out = Vec::new();
        for item in &sel.projection {
            match item {
                sql::SelectItem::Expr { expr, .. } => out.push(expr),
                _ => {
                    return Err(self.unsupported(
                        Feature::Wildcard,
                        "IN subqueries must project explicit columns (no wildcards)",
                    ))
                }
            }
        }
        Ok(out)
    }

    fn flatten_from<'t>(
        &self,
        tr: &'t sql::TableRef,
        leaves: &mut Vec<(String, String)>,
        conds: &mut Vec<&'t sql::Expr>,
    ) -> TResult<()> {
        match tr {
            sql::TableRef::Named { name, alias } => {
                leaves.push((name.clone(), alias.clone().unwrap_or_else(|| name.clone())));
                Ok(())
            }
            sql::TableRef::Join {
                left, right, on, ..
            } => {
                self.flatten_from(left, leaves, conds)?;
                self.flatten_from(right, leaves, conds)?;
                if let Some(on) = on {
                    conds.extend(on.conjuncts());
                }
                Ok(())
            }
            sql::TableRef::Subquery { .. } => Err(self.unsupported(
                Feature::DerivedTable,
                "derived tables are not part of the assertion fragment \
                 (use EXISTS/IN subqueries instead)",
            )),
        }
    }

    fn process_expr_all(
        &mut self,
        partials: Vec<Partial>,
        e: &sql::Expr,
        env: &Env,
    ) -> TResult<Vec<Partial>> {
        let mut out = Vec::new();
        for p in partials {
            out.extend(self.process_expr(p, e, env)?);
        }
        Ok(out)
    }

    /// Process one boolean condition against a partial body, possibly
    /// fanning out (OR / IN-list) or dying (contradiction).
    fn process_expr(&mut self, p: Partial, e: &sql::Expr, env: &Env) -> TResult<Vec<Partial>> {
        match e {
            sql::Expr::Binary { op, left, right } => match op {
                sql::BinOp::And => {
                    let mid = self.process_expr(p, left, env)?;
                    self.process_expr_all(mid, right, env)
                }
                sql::BinOp::Or => {
                    let mut out = self.process_expr(p.clone(), left, env)?;
                    out.extend(self.process_expr(p, right, env)?);
                    Ok(out)
                }
                sql::BinOp::Eq => {
                    let mut p = p;
                    let lt = self.expr_to_term(left, env, &p)?;
                    let rt = self.expr_to_term(right, env, &p)?;
                    if p.unify(&lt, &rt) {
                        Ok(vec![p])
                    } else {
                        Ok(vec![]) // contradictory constants: branch dies
                    }
                }
                sql::BinOp::NotEq
                | sql::BinOp::Lt
                | sql::BinOp::LtEq
                | sql::BinOp::Gt
                | sql::BinOp::GtEq => {
                    let mut p = p;
                    let lt = self.expr_to_term(left, env, &p)?;
                    let rt = self.expr_to_term(right, env, &p)?;
                    let cmp = match op {
                        sql::BinOp::NotEq => CmpOp::NotEq,
                        sql::BinOp::Lt => CmpOp::Lt,
                        sql::BinOp::LtEq => CmpOp::LtEq,
                        sql::BinOp::Gt => CmpOp::Gt,
                        sql::BinOp::GtEq => CmpOp::GtEq,
                        _ => unreachable!(),
                    };
                    p.literals.push(Literal::Cmp(cmp, lt, rt));
                    Ok(vec![p])
                }
                sql::BinOp::Add | sql::BinOp::Sub | sql::BinOp::Mul | sql::BinOp::Div => Err(self
                    .unsupported(
                        Feature::Arithmetic,
                        "arithmetic is not supported in assertions (paper fragment: \
                         selection, projection, join, exists/in, negation, union)",
                    )),
            },
            sql::Expr::Unary {
                op: sql::UnOp::Not,
                expr,
            } => {
                let negated = self.negate_expr(expr)?;
                self.process_expr(p, &negated, env)
            }
            sql::Expr::Unary {
                op: sql::UnOp::Neg, ..
            } => Err(self.unsupported(
                Feature::Arithmetic,
                "arithmetic negation is not supported in assertions",
            )),
            sql::Expr::Exists { query, negated } => {
                if *negated {
                    self.add_negated_subquery(p, query, env, None)
                } else {
                    // Inline positively: merge each subquery body.
                    let sub_bodies = self.translate_query(query, env, None)?;
                    let mut out = Vec::new();
                    for body in sub_bodies {
                        let mut np = p.clone();
                        np.literals.extend(body);
                        out.push(np);
                    }
                    Ok(out)
                }
            }
            sql::Expr::InSubquery {
                exprs,
                query,
                negated,
            } => {
                let probe_terms: Vec<Term> = exprs
                    .iter()
                    .map(|x| self.expr_to_term(x, env, &p))
                    .collect::<TResult<_>>()?;
                if *negated {
                    self.add_negated_subquery(p, query, env, Some(&probe_terms))
                } else {
                    let sub_bodies = self.translate_query(query, env, Some(&probe_terms))?;
                    let mut out = Vec::new();
                    for body in sub_bodies {
                        let mut np = p.clone();
                        np.literals.extend(body);
                        out.push(np);
                    }
                    Ok(out)
                }
            }
            sql::Expr::InList {
                expr,
                list,
                negated,
            } => {
                let t = self.expr_to_term(expr, env, &p)?;
                if *negated {
                    // x NOT IN (a, b) → x <> a AND x <> b.
                    let mut p = p;
                    for item in list {
                        let it = self.expr_to_term(item, env, &p)?;
                        p.literals.push(Literal::Cmp(CmpOp::NotEq, t.clone(), it));
                    }
                    Ok(vec![p])
                } else {
                    // x IN (a, b) → one branch per element.
                    let mut out = Vec::new();
                    for item in list {
                        let mut np = p.clone();
                        let it = self.expr_to_term(item, env, &np)?;
                        if np.unify(&t, &it) {
                            out.push(np);
                        }
                    }
                    Ok(out)
                }
            }
            sql::Expr::IsNull { expr, negated } => {
                let mut p = p;
                let t = self.expr_to_term(expr, env, &p)?;
                p.literals.push(Literal::IsNull {
                    term: t,
                    negated: *negated,
                });
                Ok(vec![p])
            }
            sql::Expr::Literal(sql::Lit::Bool(true)) => Ok(vec![p]),
            sql::Expr::Literal(sql::Lit::Bool(false)) => Ok(vec![]),
            sql::Expr::Func { .. } => Err(self.unsupported(
                Feature::Aggregate,
                "aggregate functions are not supported in assertions \
                 (the paper lists this as future work); the engine still \
                 evaluates them in plain queries",
            )),
            other => Err(self.unsupported(
                Feature::Condition,
                format!("unsupported condition in assertion: {other}"),
            )),
        }
    }

    /// Handle `NOT EXISTS (q)` / `probe NOT IN (q)`: produce a negated base
    /// atom when the subquery is a single-table conjunctive select,
    /// otherwise a negated derived predicate.
    fn add_negated_subquery(
        &mut self,
        p: Partial,
        query: &sql::Query,
        env: &Env,
        probe: Option<&[Term]>,
    ) -> TResult<Vec<Partial>> {
        let sub_bodies = self.translate_query(query, env, probe)?;
        if sub_bodies.is_empty() {
            // The subquery is unsatisfiable → NOT EXISTS is trivially true.
            return Ok(vec![p]);
        }
        let mut p = p;
        // Inline case: exactly one body, consisting of a single positive
        // base atom.
        if sub_bodies.len() == 1 && sub_bodies[0].len() == 1 {
            if let Literal::Pos(atom) = &sub_bodies[0][0] {
                if matches!(atom.pred, Pred::Base(_)) {
                    p.literals.push(Literal::Neg(atom.clone()));
                    return Ok(vec![p]);
                }
            }
        }
        // General case: derived predicate over the outer variables used.
        let outer_vars = self.outer_vars_of(&sub_bodies, env);
        let rules: Vec<Rule> = sub_bodies
            .into_iter()
            .map(|body| Rule {
                head: outer_vars.iter().map(|v| Term::Var(*v)).collect(),
                body,
            })
            .collect();
        let id = self.reg.add_derived(DerivedDef {
            name: format!("{}_aux{}", self.assertion, self.reg.num_derived()),
            arity: outer_vars.len(),
            rules,
        });
        p.literals.push(Literal::Neg(Atom::new(
            Pred::Derived(id),
            outer_vars.iter().map(|v| Term::Var(*v)).collect(),
        )));
        Ok(vec![p])
    }

    /// Outer-scope variables (bound by enclosing frames) that occur in the
    /// given bodies; these become the derived predicate's parameters.
    fn outer_vars_of(&self, bodies: &[Vec<Literal>], env: &Env) -> Vec<Var> {
        let mut outer: Vec<Var> = Vec::new();
        let mut is_outer = std::collections::BTreeSet::new();
        for frame in &env.frames {
            for (_, _, vars) in &frame.sources {
                is_outer.extend(vars.iter().copied());
            }
        }
        for body in bodies {
            for lit in body {
                for v in lit.vars() {
                    if is_outer.contains(&v) && !outer.contains(&v) {
                        outer.push(v);
                    }
                }
            }
        }
        outer
    }

    /// Translate a scalar expression to a term (columns and constants only
    /// in the fragment).
    fn expr_to_term(&self, e: &sql::Expr, env: &Env, p: &Partial) -> TResult<Term> {
        match e {
            sql::Expr::Column(c) => {
                let v = self.resolve_column(c, env)?;
                Ok(p.resolve(&Term::Var(v)))
            }
            sql::Expr::Literal(l) => match l {
                sql::Lit::Int(v) => Ok(Term::Const(Konst::Int(*v))),
                sql::Lit::Real(v) => Ok(Term::Const(Konst::Real(*v))),
                sql::Lit::Str(s) => Ok(Term::Const(Konst::Str(s.clone()))),
                sql::Lit::Null => Err(self.unsupported(
                    Feature::NullLiteral,
                    "NULL literals in assertion comparisons are not supported \
                     (use IS NULL / IS NOT NULL)",
                )),
                sql::Lit::Bool(_) => Err(self.err("boolean literal used as a value")),
            },
            other => {
                let feature = match other {
                    sql::Expr::Binary {
                        op: sql::BinOp::Add | sql::BinOp::Sub | sql::BinOp::Mul | sql::BinOp::Div,
                        ..
                    }
                    | sql::Expr::Unary {
                        op: sql::UnOp::Neg, ..
                    } => Feature::Arithmetic,
                    _ => Feature::ScalarExpression,
                };
                Err(self.unsupported(
                    feature,
                    format!(
                        "unsupported scalar expression in assertion: {other} \
                         (the fragment allows columns and constants)"
                    ),
                ))
            }
        }
    }

    fn resolve_column(&self, c: &sql::ColumnRef, env: &Env) -> TResult<Var> {
        for frame in env.frames.iter().rev() {
            if let Some(q) = &c.qualifier {
                if let Some((_, table, vars)) = frame.sources.iter().find(|(b, _, _)| b == q) {
                    let info = self.cat.table(table).expect("frame tables exist");
                    return info
                        .column_index(&c.name)
                        .map(|i| vars[i])
                        .ok_or_else(|| self.err(format!("unknown column {q}.{}", c.name)));
                }
            } else {
                let mut hit = None;
                let mut dup = false;
                for (_, table, vars) in &frame.sources {
                    let info = self.cat.table(table).expect("frame tables exist");
                    if let Some(i) = info.column_index(&c.name) {
                        if hit.is_some() {
                            dup = true;
                        }
                        hit = Some(vars[i]);
                    }
                }
                if dup {
                    return Err(self.err(format!("ambiguous column '{}'", c.name)));
                }
                if let Some(v) = hit {
                    return Ok(v);
                }
            }
        }
        Err(self.err(format!("unknown column reference '{c}'")))
    }

    /// Push a NOT through an expression.
    fn negate_expr(&self, e: &sql::Expr) -> TResult<sql::Expr> {
        Ok(match e {
            sql::Expr::Binary { op, left, right } => match op {
                sql::BinOp::And => sql::Expr::binary(
                    sql::BinOp::Or,
                    self.negate_expr(left)?,
                    self.negate_expr(right)?,
                ),
                sql::BinOp::Or => sql::Expr::binary(
                    sql::BinOp::And,
                    self.negate_expr(left)?,
                    self.negate_expr(right)?,
                ),
                op => match op.negate() {
                    Some(neg) => sql::Expr::Binary {
                        op: neg,
                        left: left.clone(),
                        right: right.clone(),
                    },
                    None => {
                        return Err(self.unsupported(
                            Feature::Arithmetic,
                            "cannot negate arithmetic expression in assertion",
                        ))
                    }
                },
            },
            sql::Expr::Unary {
                op: sql::UnOp::Not,
                expr,
            } => (**expr).clone(),
            sql::Expr::Exists { query, negated } => sql::Expr::Exists {
                query: query.clone(),
                negated: !negated,
            },
            sql::Expr::InSubquery {
                exprs,
                query,
                negated,
            } => sql::Expr::InSubquery {
                exprs: exprs.clone(),
                query: query.clone(),
                negated: !negated,
            },
            sql::Expr::InList {
                expr,
                list,
                negated,
            } => sql::Expr::InList {
                expr: expr.clone(),
                list: list.clone(),
                negated: !negated,
            },
            sql::Expr::IsNull { expr, negated } => sql::Expr::IsNull {
                expr: expr.clone(),
                negated: !negated,
            },
            sql::Expr::Literal(sql::Lit::Bool(b)) => sql::Expr::Literal(sql::Lit::Bool(!b)),
            other => return Err(self.err(format!("cannot negate expression: {other}"))),
        })
    }

    /// Denials must be range-restricted: variables used in comparisons and
    /// IS NULL tests must be bound by positive literals.
    fn check_denial_safety(&self, body: &[Literal]) -> TResult<()> {
        let bound = positively_bound_vars(body);
        for lit in body {
            match lit {
                Literal::Cmp(..) | Literal::IsNull { .. } => {
                    for v in lit.vars() {
                        if !bound.contains(&v) {
                            return Err(self.err(format!(
                                "unsafe assertion: variable '{}' in a comparison is not \
                                 bound by any positive literal",
                                self.reg.var_name(v)
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FkInfo, TableInfo};

    fn tpch_cat() -> SchemaCatalog {
        let mut cat = SchemaCatalog::new();
        cat.add_table(
            "orders",
            TableInfo {
                columns: vec![
                    "o_orderkey".into(),
                    "o_custkey".into(),
                    "o_totalprice".into(),
                ],
                primary_key: vec![0],
                foreign_keys: vec![],
            },
        );
        cat.add_table(
            "lineitem",
            TableInfo {
                columns: vec![
                    "l_orderkey".into(),
                    "l_linenumber".into(),
                    "l_quantity".into(),
                ],
                primary_key: vec![0, 1],
                foreign_keys: vec![FkInfo {
                    columns: vec![0],
                    ref_table: "orders".into(),
                    ref_columns: vec![0],
                }],
            },
        );
        cat
    }

    fn translate(sql_text: &str) -> (Vec<Denial>, Registry) {
        let cat = tpch_cat();
        let mut reg = Registry::new();
        let sql::Statement::CreateAssertion(a) = tintin_sql::parse_statement(sql_text).unwrap()
        else {
            panic!("not an assertion")
        };
        let denials = translate_assertion(&cat, &mut reg, &a).unwrap();
        (denials, reg)
    }

    #[test]
    fn running_example_produces_expected_denial() {
        let (denials, reg) = translate(
            "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))",
        );
        assert_eq!(denials.len(), 1);
        let d = &denials[0];
        // Body: orders(o, c, p) and not lineitem(_, _, _) with the order key
        // shared — the inner subquery inlines as a negated base atom.
        assert_eq!(d.body.len(), 2);
        assert!(matches!(&d.body[0], Literal::Pos(a) if a.pred == Pred::Base("orders".into())));
        let Literal::Neg(neg) = &d.body[1] else {
            panic!("expected negated literal, got {}", reg.denial_str(d))
        };
        assert_eq!(neg.pred, Pred::Base("lineitem".into()));
        // The shared variable: lineitem's l_orderkey arg equals orders'
        // o_orderkey arg.
        let Literal::Pos(pos) = &d.body[0] else {
            unreachable!()
        };
        assert_eq!(neg.args[0], pos.args[0]);
    }

    #[test]
    fn equality_with_constant_binds() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE o_custkey = 42 AND o_totalprice < 0))",
        );
        let d = &denials[0];
        let Literal::Pos(atom) = &d.body[0] else {
            panic!()
        };
        assert_eq!(atom.args[1], Term::Const(Konst::Int(42)));
        assert!(matches!(&d.body[1], Literal::Cmp(CmpOp::Lt, _, _)));
    }

    #[test]
    fn union_in_checked_query_yields_two_denials() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT o_orderkey FROM orders WHERE o_totalprice < 0
                 UNION
                 SELECT l_orderkey FROM lineitem WHERE l_quantity < 0))",
        );
        assert_eq!(denials.len(), 2);
    }

    #[test]
    fn or_expands_to_two_denials() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE o_totalprice < 0 OR o_custkey = 0))",
        );
        assert_eq!(denials.len(), 2);
    }

    #[test]
    fn exists_inlines_positively() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE o.o_totalprice < 0 AND EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))",
        );
        assert_eq!(denials.len(), 1);
        let body = &denials[0].body;
        // orders + lineitem positive + comparison.
        assert_eq!(
            body.iter().filter(|l| l.is_positive_atom()).count(),
            2,
            "EXISTS should inline as a positive atom"
        );
    }

    #[test]
    fn in_subquery_unifies_probe() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE o.o_orderkey IN (
                     SELECT l_orderkey FROM lineitem WHERE l_quantity > 100)))",
        );
        let body = &denials[0].body;
        assert_eq!(body.iter().filter(|l| l.is_positive_atom()).count(), 2);
        // The probe equality must have unified variables: lineitem's first
        // arg is the same var as orders' first arg.
        let pos: Vec<&Atom> = body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(pos[0].args[0], pos[1].args[0]);
    }

    #[test]
    fn not_in_inlines_as_negated_atom() {
        let (denials, _) = translate(
            "CREATE ASSERTION li_fk CHECK (NOT EXISTS (
                 SELECT * FROM lineitem l WHERE l.l_orderkey NOT IN (
                     SELECT o_orderkey FROM orders)))",
        );
        let body = &denials[0].body;
        assert_eq!(body.len(), 2);
        assert!(matches!(&body[1], Literal::Neg(a) if a.pred == Pred::Base("orders".into())));
    }

    #[test]
    fn complex_not_exists_becomes_derived() {
        let (denials, reg) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l
                     WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 0)))",
        );
        let body = &denials[0].body;
        let Literal::Neg(atom) = &body[1] else {
            panic!()
        };
        let Pred::Derived(id) = &atom.pred else {
            panic!("expected derived predicate (subquery has an extra comparison)")
        };
        let def = reg.derived(*id);
        assert_eq!(def.rules.len(), 1);
        assert_eq!(def.arity, 1, "one shared variable (the order key)");
    }

    #[test]
    fn union_inside_not_exists_becomes_derived_with_two_rules() {
        let (denials, reg) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT l_orderkey FROM lineitem l WHERE l.l_orderkey = o.o_orderkey
                     UNION
                     SELECT l_orderkey FROM lineitem l2 WHERE l2.l_orderkey = o.o_orderkey
                         AND l2.l_quantity > 5)))",
        );
        let Literal::Neg(atom) = &denials[0].body[1] else {
            panic!()
        };
        let Pred::Derived(id) = &atom.pred else {
            panic!()
        };
        assert_eq!(reg.derived(*id).rules.len(), 2);
    }

    #[test]
    fn in_list_expands_branches() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE o_custkey IN (1, 2, 3)))",
        );
        assert_eq!(denials.len(), 3);
    }

    #[test]
    fn not_in_list_becomes_inequalities() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE o_custkey NOT IN (1, 2)))",
        );
        assert_eq!(denials.len(), 1);
        let cmps = denials[0]
            .body
            .iter()
            .filter(|l| matches!(l, Literal::Cmp(CmpOp::NotEq, _, _)))
            .count();
        assert_eq!(cmps, 2);
    }

    #[test]
    fn rejects_aggregates_and_arithmetic() {
        let cat = tpch_cat();
        let mut reg = Registry::new();
        let sql::Statement::CreateAssertion(a) = tintin_sql::parse_statement(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE o_totalprice + 1 > 2))",
        )
        .unwrap() else {
            panic!()
        };
        let err = translate_assertion(&cat, &mut reg, &a).unwrap_err();
        assert_eq!(
            err.kind,
            TranslateErrorKind::Unsupported(Feature::Arithmetic),
            "{err}"
        );
    }

    #[test]
    fn aggregates_and_group_by_are_typed_unsupported_features() {
        let cat = tpch_cat();
        for (text, feature) in [
            (
                "SELECT * FROM orders WHERE SUM(o_totalprice)",
                Feature::Aggregate,
            ),
            (
                "SELECT o_custkey FROM orders GROUP BY o_custkey",
                Feature::GroupBy,
            ),
        ] {
            let sql::Statement::CreateAssertion(a) = tintin_sql::parse_statement(&format!(
                "CREATE ASSERTION a CHECK (NOT EXISTS ({text}))"
            ))
            .unwrap() else {
                panic!()
            };
            let err = translate_assertion(&cat, &mut Registry::new(), &a).unwrap_err();
            assert_eq!(err.kind, TranslateErrorKind::Unsupported(feature), "{err}");
        }
    }

    /// Messages reach users verbatim (wire errors, linter output): a lost
    /// line continuation shows up as a run of spaces.
    #[test]
    fn error_messages_have_no_runs_of_spaces() {
        let cat = tpch_cat();
        for cond in [
            "SELECT * FROM orders WHERE SUM(o_totalprice)",
            "SELECT o_custkey FROM orders GROUP BY o_custkey",
            "SELECT o_custkey FROM orders HAVING o_custkey > 1",
            "SELECT * FROM orders WHERE o_totalprice + 1 > 2",
            "SELECT * FROM orders WHERE -o_totalprice > 2",
            "SELECT * FROM orders WHERE NOT (o_totalprice + 1)",
            "SELECT * FROM orders WHERE o_totalprice = NULL",
            "SELECT * FROM (SELECT * FROM orders) d",
            "SELECT * FROM orders WHERE o_custkey IN (SELECT * FROM lineitem)",
            "SELECT * FROM orders WHERE o_custkey",
            "SELECT * FROM nope",
            "SELECT * FROM orders WHERE bogus = 1",
            "SELECT * FROM orders o, lineitem l WHERE o_orderkey = 1 AND o.bogus = 2",
        ] {
            let sql::Statement::CreateAssertion(a) = tintin_sql::parse_statement(&format!(
                "CREATE ASSERTION a CHECK (NOT EXISTS ({cond}))"
            ))
            .unwrap() else {
                panic!("{cond}")
            };
            let err = translate_assertion(&cat, &mut Registry::new(), &a).unwrap_err();
            assert!(!err.message.contains("  "), "{cond}: {:?}", err.message);
        }
    }

    #[test]
    fn rejects_non_not_exists_condition() {
        let cat = tpch_cat();
        let mut reg = Registry::new();
        let sql::Statement::CreateAssertion(a) =
            tintin_sql::parse_statement("CREATE ASSERTION a CHECK (EXISTS (SELECT * FROM orders))")
                .unwrap()
        else {
            panic!()
        };
        assert!(translate_assertion(&cat, &mut reg, &a).is_err());
    }

    #[test]
    fn rejects_unknown_table_and_column() {
        let cat = tpch_cat();
        let mut reg = Registry::new();
        for text in [
            "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM nope))",
            "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM orders WHERE bogus = 1))",
        ] {
            let sql::Statement::CreateAssertion(a) = tintin_sql::parse_statement(text).unwrap()
            else {
                panic!()
            };
            assert!(translate_assertion(&cat, &mut reg, &a).is_err(), "{text}");
        }
    }

    #[test]
    fn conjunction_of_not_exists_gives_multiple_denials() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (
                 NOT EXISTS (SELECT * FROM orders WHERE o_totalprice < 0)
                 AND NOT EXISTS (SELECT * FROM lineitem WHERE l_quantity < 0))",
        );
        assert_eq!(denials.len(), 2);
        assert_eq!(denials[0].index, 0);
        assert_eq!(denials[1].index, 1);
    }

    #[test]
    fn not_pushes_through_de_morgan() {
        let (denials, _) = translate(
            "CREATE ASSERTION a CHECK (NOT EXISTS (
                 SELECT * FROM orders WHERE NOT (o_totalprice >= 0 AND o_custkey > 0)))",
        );
        // NOT(A AND B) → NOT A OR NOT B → two denials.
        assert_eq!(denials.len(), 2);
        assert!(matches!(&denials[0].body[1], Literal::Cmp(CmpOp::Lt, _, _)));
        assert!(matches!(
            &denials[1].body[1],
            Literal::Cmp(CmpOp::LtEq, _, _)
        ));
    }
}
