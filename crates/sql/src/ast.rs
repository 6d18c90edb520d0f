//! Abstract syntax tree for the supported SQL dialect.
//!
//! The tree is deliberately close to the SQL surface syntax: the engine
//! compiles it into executable plans, and `tintin-logic` translates the
//! assertion fragment into logic denials. All identifiers are stored as the
//! parser produced them (unquoted identifiers are lower-cased by the lexer,
//! so name comparison is plain string equality).

use std::fmt;

/// An identifier (table, column, alias, assertion name, …).
pub type Ident = String;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable(CreateTable),
    CreateAssertion(CreateAssertion),
    CreateView(CreateView),
    CreateIndex(CreateIndex),
    DropTable {
        name: Ident,
        if_exists: bool,
    },
    DropView {
        name: Ident,
        if_exists: bool,
    },
    /// `DROP INDEX name ON table` (SQL Server syntax, matching the paper's
    /// target system).
    DropIndex {
        name: Ident,
        table: Ident,
    },
    DropAssertion {
        name: Ident,
    },
    /// `EXPLAIN ASSERTION name` — report the install-time static-analysis
    /// verdict for an installed assertion: its linter class, the event rules
    /// proved unsatisfiable (with the rule that pruned each), and the
    /// residual gates guarding the surviving incremental views.
    ExplainAssertion {
        name: Ident,
    },
    /// `TRUNCATE TABLE name`: a `DELETE` of every row, planned, checked
    /// and logged like one, but not allowed inside a transaction.
    TruncateTable {
        name: Ident,
    },
    Insert(Insert),
    Delete(Delete),
    Update(Update),
    Query(Query),
    /// `BEGIN [TRANSACTION | WORK]` — open an explicit transaction.
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — commit the open transaction
    /// (TINTIN's `safeCommit` runs here).
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]` (whole transaction) or
    /// `ROLLBACK TO [SAVEPOINT] name` (partial).
    Rollback {
        to: Option<Ident>,
    },
    /// `SAVEPOINT name` — establish (or move) a named savepoint.
    Savepoint {
        name: Ident,
    },
    /// `RELEASE [SAVEPOINT] name` — discard a savepoint, merging its
    /// changes into the enclosing scope.
    Release {
        name: Ident,
    },
}

impl Statement {
    /// Transaction-control statements (`BEGIN`, `COMMIT`, `ROLLBACK`,
    /// `SAVEPOINT`, `RELEASE`) — routed to the session layer rather than
    /// the raw engine.
    pub fn is_transaction_control(&self) -> bool {
        matches!(
            self,
            Statement::Begin
                | Statement::Commit
                | Statement::Rollback { .. }
                | Statement::Savepoint { .. }
                | Statement::Release { .. }
        )
    }

    /// Statements that are not transactional: the schema changes, and
    /// `TRUNCATE`.
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            Statement::CreateTable(_)
                | Statement::CreateAssertion(_)
                | Statement::CreateView(_)
                | Statement::CreateIndex(_)
                | Statement::DropTable { .. }
                | Statement::DropView { .. }
                | Statement::DropIndex { .. }
                | Statement::DropAssertion { .. }
                | Statement::TruncateTable { .. }
        )
    }

    /// The statement's SQL verb phrase (`"CREATE TABLE"`, `"CREATE UNIQUE
    /// INDEX"`, `"DELETE"`, …), derived from the AST variant — not from the
    /// pretty-printed text, whose leading tokens are not always the verb
    /// phrase. Used for error messages ("CREATE UNIQUE INDEX is not
    /// transactional").
    pub fn kind(&self) -> &'static str {
        match self {
            Statement::CreateTable(_) => "CREATE TABLE",
            Statement::CreateAssertion(_) => "CREATE ASSERTION",
            Statement::CreateView(_) => "CREATE VIEW",
            Statement::CreateIndex(ci) if ci.unique => "CREATE UNIQUE INDEX",
            Statement::CreateIndex(_) => "CREATE INDEX",
            Statement::DropTable { .. } => "DROP TABLE",
            Statement::DropView { .. } => "DROP VIEW",
            Statement::DropIndex { .. } => "DROP INDEX",
            Statement::DropAssertion { .. } => "DROP ASSERTION",
            Statement::ExplainAssertion { .. } => "EXPLAIN ASSERTION",
            Statement::TruncateTable { .. } => "TRUNCATE TABLE",
            Statement::Insert(_) => "INSERT",
            Statement::Delete(_) => "DELETE",
            Statement::Update(_) => "UPDATE",
            Statement::Query(_) => "SELECT",
            Statement::Begin => "BEGIN",
            Statement::Commit => "COMMIT",
            Statement::Rollback { to: Some(_) } => "ROLLBACK TO SAVEPOINT",
            Statement::Rollback { to: None } => "ROLLBACK",
            Statement::Savepoint { .. } => "SAVEPOINT",
            Statement::Release { .. } => "RELEASE SAVEPOINT",
        }
    }
}

/// `CREATE TABLE name (…)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: Ident,
    pub columns: Vec<ColumnDef>,
    pub constraints: Vec<TableConstraint>,
}

/// A column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: Ident,
    pub ty: TypeName,
    pub not_null: bool,
    /// Column-level `PRIMARY KEY`.
    pub primary_key: bool,
    /// Column-level `UNIQUE`.
    pub unique: bool,
}

/// Logical column types. The parser folds the zoo of SQL type names into
/// three storage classes (see `tintin-engine`'s value model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    /// `INT`, `INTEGER`, `BIGINT`, `SMALLINT`.
    Int,
    /// `REAL`, `FLOAT`, `DOUBLE [PRECISION]`, `DECIMAL(p[,s])`, `NUMERIC`.
    Real,
    /// `VARCHAR(n)`, `CHAR(n)`, `TEXT`, `STRING`, `DATE`.
    Text,
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeName::Int => write!(f, "INTEGER"),
            TypeName::Real => write!(f, "REAL"),
            TypeName::Text => write!(f, "TEXT"),
        }
    }
}

/// Table-level constraint inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    PrimaryKey(Vec<Ident>),
    Unique(Vec<Ident>),
    ForeignKey {
        columns: Vec<Ident>,
        ref_table: Ident,
        ref_columns: Vec<Ident>,
    },
    /// Row-level `CHECK (expr)`.
    Check(Expr),
}

/// `CREATE ASSERTION name CHECK (condition)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateAssertion {
    pub name: Ident,
    pub condition: Expr,
}

/// `CREATE VIEW name AS query`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    pub name: Ident,
    pub query: Query,
}

/// `CREATE [UNIQUE] INDEX name ON table (cols…)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: Ident,
    pub table: Ident,
    pub columns: Vec<Ident>,
    pub unique: bool,
}

/// `INSERT INTO table [(cols…)] VALUES …` or `INSERT INTO table [(cols…)] SELECT …`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: Ident,
    pub columns: Option<Vec<Ident>>,
    pub source: InsertSource,
}

/// The rows fed into an [`Insert`].
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Query),
}

/// `DELETE FROM table [AS alias] [WHERE …]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: Ident,
    pub alias: Option<Ident>,
    pub predicate: Option<Expr>,
}

/// `UPDATE table [AS alias] SET col = expr, … [WHERE …]`.
///
/// In TINTIN's update model (a set of tuple insertions and deletions, paper
/// §2) an UPDATE decomposes into deleting the old rows and inserting the
/// modified ones; the engine's event capture records it exactly that way.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: Ident,
    pub alias: Option<Ident>,
    pub assignments: Vec<(Ident, Expr)>,
    pub predicate: Option<Expr>,
}

/// A full query: a body of `SELECT`s combined with `UNION`, with optional
/// `ORDER BY` / `LIMIT` applied to the combined result.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub body: QueryBody,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Query body tree. `UNION` is left-associative.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    Select(Box<Select>),
    Union {
        left: Box<QueryBody>,
        right: Box<QueryBody>,
        all: bool,
    },
}

impl Query {
    /// Wrap a body into a query without ordering or limit.
    pub fn new(body: QueryBody) -> Self {
        Query {
            body,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// Convenience constructor for a single-`SELECT` query.
    pub fn select(select: Select) -> Self {
        Query::new(QueryBody::Select(Box::new(select)))
    }

    /// Iterate over all `SELECT` blocks in the body, left to right.
    pub fn selects(&self) -> Vec<&Select> {
        fn walk<'a>(body: &'a QueryBody, out: &mut Vec<&'a Select>) {
            match body {
                QueryBody::Select(s) => out.push(s),
                QueryBody::Union { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }
}

/// A single `SELECT … FROM … WHERE … [GROUP BY … [HAVING …]]` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// A plain select without grouping.
    pub fn simple(
        distinct: bool,
        projection: Vec<SelectItem>,
        from: Vec<TableRef>,
        selection: Option<Expr>,
    ) -> Select {
        Select {
            distinct,
            projection,
            from,
            selection,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item of the `SELECT` projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(Ident),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<Ident> },
}

/// A table reference in a `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [AS alias]`
    Named { name: Ident, alias: Option<Ident> },
    /// `left [INNER|CROSS] JOIN right [ON cond]`
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    /// `(query) AS alias` — derived table.
    Subquery { query: Box<Query>, alias: Ident },
}

impl TableRef {
    /// The binding name this reference introduces, if it is a leaf.
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

/// Join kinds. Only inner/cross joins exist in the TINTIN fragment
/// (outer joins are expressible via `NOT EXISTS` in assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Cross,
}

/// Scalar / boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Lit),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    InSubquery {
        exprs: Vec<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// Row-value constructor `(a, b, …)`; only meaningful directly before
    /// `IN (SELECT …)`.
    Tuple(Vec<Expr>),
    /// Function call — aggregates (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`) in
    /// the engine; anything else is rejected at compile time.
    Func {
        name: Ident,
        distinct: bool,
        args: FuncArgs,
    },
}

/// Arguments of a function call.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncArgs {
    /// `COUNT(*)`
    Star,
    List(Vec<Expr>),
}

impl Expr {
    /// Build `left op right`.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Build an unqualified column reference.
    pub fn column(name: impl Into<Ident>) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.into(),
        })
    }

    /// Build a qualified column reference.
    pub fn qualified(qualifier: impl Into<Ident>, name: impl Into<Ident>) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        })
    }

    /// Conjunction of a sequence of expressions; `None` when empty.
    pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs
            .into_iter()
            .reduce(|a, b| Expr::binary(BinOp::And, a, b))
    }

    /// Split a conjunctive expression into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    op: BinOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<Ident>,
    pub name: Ident,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Int(i64),
    Real(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Binary operators, in increasing precedence groups: `OR` < `AND` <
/// comparisons < `+`/`-` < `*`/`/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// Is this a comparison operator?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// The comparison with flipped operand order (`a op b` ⟺ `b op.flip() a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// The negated comparison (`NOT (a op b)` ⟺ `a op.negate() b`), for
    /// comparison operators only.
    pub fn negate(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::NotEq,
            BinOp::NotEq => BinOp::Eq,
            BinOp::Lt => BinOp::GtEq,
            BinOp::LtEq => BinOp::Gt,
            BinOp::Gt => BinOp::LtEq,
            BinOp::GtEq => BinOp::Lt,
            _ => return None,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flattens_nested_ands() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::And, Expr::column("a"), Expr::column("b")),
            Expr::column("c"),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn and_all_of_empty_is_none() {
        assert_eq!(Expr::and_all(vec![]), None);
    }

    #[test]
    fn and_all_of_single_is_identity() {
        assert_eq!(
            Expr::and_all(vec![Expr::column("x")]),
            Some(Expr::column("x"))
        );
    }

    #[test]
    fn binop_negate_roundtrip() {
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            let neg = op.negate().unwrap();
            assert_eq!(neg.negate().unwrap(), op);
        }
        assert_eq!(BinOp::Add.negate(), None);
    }

    #[test]
    fn binop_flip_is_involution() {
        for op in [BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq, BinOp::Eq] {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn query_selects_walks_unions() {
        let s = Select::simple(false, vec![SelectItem::Wildcard], vec![], None);
        let q = Query::new(QueryBody::Union {
            left: Box::new(QueryBody::Select(Box::new(s.clone()))),
            right: Box::new(QueryBody::Select(Box::new(s))),
            all: true,
        });
        assert_eq!(q.selects().len(), 2);
    }

    #[test]
    fn table_ref_binding_name() {
        let t = TableRef::Named {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding_name(), Some("o"));
        let t = TableRef::Named {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), Some("orders"));
    }
}
