//! Engine error type.

use std::fmt;

/// Errors produced by catalog operations, DML and query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Unknown table or view.
    NoSuchTable(String),
    /// Unknown column, with the binding context in the message.
    NoSuchColumn(String),
    /// Ambiguous unqualified column.
    AmbiguousColumn(String),
    /// Unknown FROM binding used as qualifier.
    NoSuchBinding(String),
    /// An object with this name already exists.
    DuplicateObject(String),
    /// Primary-key or unique violation on insert.
    UniqueViolation {
        table: String,
        index: String,
        key: String,
    },
    /// NOT NULL column received NULL.
    NullViolation { table: String, column: String },
    /// Value could not be coerced to the column type.
    TypeError(String),
    /// Row arity mismatch on insert.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Invalid DDL (bad column in PK/FK/index, …).
    InvalidDdl(String),
    /// Statement/feature not supported by the engine.
    Unsupported(String),
    /// SQL parse error bubbled through `execute_sql`.
    Parse(String),
    /// Row-level CHECK constraint failed.
    CheckViolation { table: String, detail: String },
    /// Transaction-state error (no open transaction, nested BEGIN, …).
    Transaction(String),
    /// First-committer-wins: a concurrent commit created or removed a row
    /// version this transaction's update depends on after the transaction's
    /// snapshot was taken. The losing transaction is rolled back; an
    /// immediate retry on a fresh snapshot may succeed.
    SerializationConflict {
        /// The table the conflicting versions live in.
        table: String,
        /// What raced: the stale deletion or the post-snapshot key.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTable(n) => write!(f, "no such table or view: {n}"),
            EngineError::NoSuchColumn(n) => write!(f, "no such column: {n}"),
            EngineError::AmbiguousColumn(n) => write!(f, "ambiguous column reference: {n}"),
            EngineError::NoSuchBinding(n) => write!(f, "unknown table binding: {n}"),
            EngineError::DuplicateObject(n) => write!(f, "object already exists: {n}"),
            EngineError::UniqueViolation { table, index, key } => {
                write!(f, "unique violation on {table} ({index}): key {key}")
            }
            EngineError::NullViolation { table, column } => {
                write!(f, "NULL not allowed in {table}.{column}")
            }
            EngineError::TypeError(m) => write!(f, "type error: {m}"),
            EngineError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "insert into {table}: expected {expected} values, got {got}"
            ),
            EngineError::InvalidDdl(m) => write!(f, "invalid DDL: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Parse(m) => write!(f, "{m}"),
            EngineError::CheckViolation { table, detail } => {
                write!(f, "CHECK constraint failed on {table}: {detail}")
            }
            EngineError::Transaction(m) => write!(f, "transaction error: {m}"),
            EngineError::SerializationConflict { table, detail } => {
                write!(
                    f,
                    "serialization conflict on {table}: {detail} (retry the transaction)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<tintin_sql::ParseError> for EngineError {
    fn from(e: tintin_sql::ParseError) -> Self {
        EngineError::Parse(e.to_string())
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
