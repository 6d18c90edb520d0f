//! Aggregate evaluation: `COUNT` / `SUM` / `AVG` / `MIN` / `MAX`,
//! `GROUP BY` and `HAVING`.
//!
//! An aggregate select is compiled into an [`AggPlan`]: per-row group-key
//! and argument expressions (ordinary [`CExpr`]s) plus per-group output
//! expressions ([`GExpr`]s) over the finalized key and accumulator values.
//! SQL semantics: aggregates ignore NULLs, `COUNT` of an empty group is 0,
//! the other aggregates are NULL, and a query with aggregates but no
//! `GROUP BY` yields exactly one row even on empty input.

use super::compile::CExpr;
use crate::error::{EngineError, Result};
use crate::hash::FxHashSet;
use crate::value::{Truth, Value};
use std::cmp::Ordering;
use tintin_sql::BinOp;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One accumulator slot: the function, its per-row argument (`None` =
/// `COUNT(*)`), and the DISTINCT flag.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub arg: Option<CExpr>,
    pub distinct: bool,
}

/// A per-group expression over finalized keys and accumulators.
#[derive(Debug, Clone)]
pub enum GExpr {
    /// i-th GROUP BY key.
    Key(usize),
    /// i-th accumulator result.
    Agg(usize),
    Const(Value),
    Bool(bool),
    Binary {
        op: BinOp,
        left: Box<GExpr>,
        right: Box<GExpr>,
    },
    Not(Box<GExpr>),
    Neg(Box<GExpr>),
    IsNull {
        expr: Box<GExpr>,
        negated: bool,
    },
}

/// A named per-group output.
#[derive(Debug, Clone)]
pub struct GOutput {
    pub name: String,
    pub expr: GExpr,
}

/// The aggregate plan of a select.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Per-row group keys (empty = one global group).
    pub group_by: Vec<CExpr>,
    pub aggs: Vec<AggSpec>,
    pub outputs: Vec<GOutput>,
    pub having: Option<GExpr>,
}

/// Running state of one accumulator.
#[derive(Debug, Clone)]
pub struct Acc {
    count: u64,
    sum_int: i64,
    sum_real: f64,
    saw_real: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct_seen: Option<FxHashSet<Value>>,
}

impl Acc {
    pub fn new(distinct: bool) -> Acc {
        Acc {
            count: 0,
            sum_int: 0,
            sum_real: 0.0,
            saw_real: false,
            min: None,
            max: None,
            distinct_seen: if distinct {
                Some(FxHashSet::default())
            } else {
                None
            },
        }
    }

    /// Feed one row's argument value (`None` = `COUNT(*)` row tick).
    pub fn update(&mut self, v: Option<Value>) -> Result<()> {
        let Some(v) = v else {
            self.count += 1; // COUNT(*) counts every row
            return Ok(());
        };
        if v.is_null() {
            return Ok(()); // aggregates ignore NULLs
        }
        if let Some(seen) = &mut self.distinct_seen {
            if !seen.insert(v.clone()) {
                return Ok(());
            }
        }
        self.count += 1;
        match &v {
            Value::Int(i) => self.sum_int = self.sum_int.wrapping_add(*i),
            Value::Real(r) => {
                self.saw_real = true;
                self.sum_real += r.get();
            }
            Value::Str(_) => {} // SUM/AVG over strings error at finalize
            Value::Null => unreachable!(),
        }
        let replace_min = match &self.min {
            None => true,
            Some(m) => v.sql_cmp(m) == Some(Ordering::Less),
        };
        if replace_min {
            self.min = Some(v.clone());
        }
        let replace_max = match &self.max {
            None => true,
            Some(m) => v.sql_cmp(m) == Some(Ordering::Greater),
        };
        if replace_max {
            self.max = Some(v);
        }
        Ok(())
    }

    /// Final value for the given function.
    pub fn finalize(&self, func: AggFunc, arg_is_string: bool) -> Result<Value> {
        Ok(match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if arg_is_string {
                    return Err(EngineError::TypeError("SUM over strings".into()));
                } else if self.saw_real {
                    Value::real(self.sum_real + self.sum_int as f64)
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if arg_is_string {
                    return Err(EngineError::TypeError("AVG over strings".into()));
                } else {
                    Value::real((self.sum_real + self.sum_int as f64) / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }

    /// True if a string value was fed (to reject SUM/AVG cleanly).
    pub fn saw_string(&self) -> bool {
        matches!(&self.min, Some(Value::Str(_)))
    }
}

/// Evaluate a per-group scalar expression.
pub fn eval_gexpr(e: &GExpr, keys: &[Value], aggs: &[Value]) -> Result<Value> {
    Ok(match e {
        GExpr::Key(i) => keys[*i].clone(),
        GExpr::Agg(i) => aggs[*i].clone(),
        GExpr::Const(v) => v.clone(),
        GExpr::Bool(_) => {
            return Err(EngineError::TypeError(
                "boolean used as a scalar value".into(),
            ))
        }
        GExpr::Binary { op, left, right }
            if !op.is_comparison() && *op != BinOp::And && *op != BinOp::Or =>
        {
            let l = eval_gexpr(left, keys, aggs)?;
            let r = eval_gexpr(right, keys, aggs)?;
            super::exec::arith(*op, &l, &r)?
        }
        GExpr::Neg(x) => match eval_gexpr(x, keys, aggs)? {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(-v),
            Value::Real(v) => Value::real(-v.get()),
            v => {
                return Err(EngineError::TypeError(format!(
                    "cannot negate non-numeric value {v}"
                )))
            }
        },
        _ => {
            return Err(EngineError::TypeError(
                "predicate used in scalar context".into(),
            ))
        }
    })
}

/// Evaluate a per-group predicate (HAVING).
pub fn eval_gtruth(e: &GExpr, keys: &[Value], aggs: &[Value]) -> Result<Truth> {
    Ok(match e {
        GExpr::Bool(b) => Truth::from_bool(*b),
        GExpr::Const(Value::Null) => Truth::Unknown,
        GExpr::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval_gtruth(left, keys, aggs)?;
                if l == Truth::False {
                    Truth::False
                } else {
                    l.and(eval_gtruth(right, keys, aggs)?)
                }
            }
            BinOp::Or => {
                let l = eval_gtruth(left, keys, aggs)?;
                if l == Truth::True {
                    Truth::True
                } else {
                    l.or(eval_gtruth(right, keys, aggs)?)
                }
            }
            op if op.is_comparison() => {
                let l = eval_gexpr(left, keys, aggs)?;
                let r = eval_gexpr(right, keys, aggs)?;
                match l.sql_cmp(&r) {
                    None => Truth::Unknown,
                    Some(ord) => Truth::from_bool(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::NotEq => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::LtEq => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::GtEq => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                }
            }
            _ => {
                return Err(EngineError::TypeError(
                    "arithmetic expression used as a predicate".into(),
                ))
            }
        },
        GExpr::Not(x) => eval_gtruth(x, keys, aggs)?.not(),
        GExpr::IsNull { expr, negated } => {
            let v = eval_gexpr(expr, keys, aggs)?;
            let t = Truth::from_bool(v.is_null());
            if *negated {
                t.not()
            } else {
                t
            }
        }
        _ => {
            return Err(EngineError::TypeError(
                "scalar expression used as a predicate".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_star_counts_rows_including_nulls() {
        let mut a = Acc::new(false);
        a.update(None).unwrap();
        a.update(None).unwrap();
        assert_eq!(a.finalize(AggFunc::Count, false).unwrap(), Value::Int(2));
    }

    #[test]
    fn aggregates_ignore_nulls() {
        let mut a = Acc::new(false);
        a.update(Some(Value::Int(5))).unwrap();
        a.update(Some(Value::Null)).unwrap();
        a.update(Some(Value::Int(3))).unwrap();
        assert_eq!(a.finalize(AggFunc::Count, false).unwrap(), Value::Int(2));
        assert_eq!(a.finalize(AggFunc::Sum, false).unwrap(), Value::Int(8));
        assert_eq!(a.finalize(AggFunc::Avg, false).unwrap(), Value::real(4.0));
        assert_eq!(a.finalize(AggFunc::Min, false).unwrap(), Value::Int(3));
        assert_eq!(a.finalize(AggFunc::Max, false).unwrap(), Value::Int(5));
    }

    #[test]
    fn empty_group_semantics() {
        let a = Acc::new(false);
        assert_eq!(a.finalize(AggFunc::Count, false).unwrap(), Value::Int(0));
        assert_eq!(a.finalize(AggFunc::Sum, false).unwrap(), Value::Null);
        assert_eq!(a.finalize(AggFunc::Min, false).unwrap(), Value::Null);
    }

    #[test]
    fn distinct_dedups() {
        let mut a = Acc::new(true);
        for v in [1, 1, 2, 2, 3] {
            a.update(Some(Value::Int(v))).unwrap();
        }
        assert_eq!(a.finalize(AggFunc::Count, false).unwrap(), Value::Int(3));
        assert_eq!(a.finalize(AggFunc::Sum, false).unwrap(), Value::Int(6));
    }

    #[test]
    fn mixed_int_real_sum_is_real() {
        let mut a = Acc::new(false);
        a.update(Some(Value::Int(1))).unwrap();
        a.update(Some(Value::real(0.5))).unwrap();
        assert_eq!(a.finalize(AggFunc::Sum, false).unwrap(), Value::real(1.5));
    }

    #[test]
    fn min_max_over_strings() {
        let mut a = Acc::new(false);
        a.update(Some(Value::str("b"))).unwrap();
        a.update(Some(Value::str("a"))).unwrap();
        assert_eq!(a.finalize(AggFunc::Min, true).unwrap(), Value::str("a"));
        assert_eq!(a.finalize(AggFunc::Max, true).unwrap(), Value::str("b"));
        assert!(a.finalize(AggFunc::Sum, true).is_err());
    }

    #[test]
    fn gexpr_eval() {
        let keys = vec![Value::Int(7)];
        let aggs = vec![Value::Int(3)];
        let e = GExpr::Binary {
            op: BinOp::Add,
            left: Box::new(GExpr::Key(0)),
            right: Box::new(GExpr::Agg(0)),
        };
        assert_eq!(eval_gexpr(&e, &keys, &aggs).unwrap(), Value::Int(10));
        let p = GExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(GExpr::Agg(0)),
            right: Box::new(GExpr::Const(Value::Int(2))),
        };
        assert_eq!(eval_gtruth(&p, &keys, &aggs).unwrap(), Truth::True);
    }
}
