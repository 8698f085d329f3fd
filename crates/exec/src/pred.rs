//! Predicate compilation for the scan and filter loops.
//!
//! The interpreted [`Expr`] walk clones a [`Value`] per `Col`/`Lit` node
//! and recurses through boxed children on every row, which dominates the
//! per-row cost once the batch loop has eliminated staging clones. A
//! [`CompiledPredicate`] is built once when the operator is constructed:
//! the overwhelmingly common pushed-down shapes (`col <op> literal`, and
//! conjunctions of those) evaluate with direct slice indexing and zero
//! clones; anything else falls back to the interpreter, so compilation
//! never changes results.

use lqs_plan::{CmpOp, Expr};
use lqs_storage::Value;

/// One `row[col] <op> lit` comparison. NULL on either side fails the
/// match, exactly like the interpreted `Cmp` (whose NULL result is not
/// truthy).
pub(crate) struct ColLitCmp {
    col: usize,
    op: CmpOp,
    lit: Value,
}

impl ColLitCmp {
    #[inline]
    fn matches(&self, row: &[Value]) -> bool {
        let v = &row[self.col];
        if v.is_null() || self.lit.is_null() {
            return false;
        }
        self.op.apply(v, &self.lit)
    }
}

/// A predicate specialized for batch evaluation. See the module docs.
pub(crate) enum CompiledPredicate {
    /// `row[col] <op> lit`.
    Single(ColLitCmp),
    /// `AND` of col-vs-literal comparisons. An `AND` whose conjuncts are
    /// all `Cmp` can only be truthy when every conjunct is true and
    /// non-NULL, so short-circuit `all()` matches the interpreter.
    Conjunction(Vec<ColLitCmp>),
    /// Any other shape: interpreted, bit-for-bit the reference semantics.
    General(Expr),
}

impl CompiledPredicate {
    /// Compile `expr`. Never fails — unsupported shapes keep the
    /// interpreter.
    pub(crate) fn compile(expr: &Expr) -> Self {
        fn as_col_lit(e: &Expr) -> Option<ColLitCmp> {
            if let Expr::Cmp { op, lhs, rhs } = e {
                match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Col(c), Expr::Lit(v)) => {
                        return Some(ColLitCmp {
                            col: *c,
                            op: *op,
                            lit: v.clone(),
                        })
                    }
                    (Expr::Lit(v), Expr::Col(c)) => {
                        // Flip `lit <op> col` into `col <flipped> lit`.
                        let flipped = match op {
                            CmpOp::Eq => CmpOp::Eq,
                            CmpOp::Ne => CmpOp::Ne,
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                        };
                        return Some(ColLitCmp {
                            col: *c,
                            op: flipped,
                            lit: v.clone(),
                        });
                    }
                    _ => {}
                }
            }
            None
        }
        if let Some(c) = as_col_lit(expr) {
            return CompiledPredicate::Single(c);
        }
        if let Expr::And(parts) = expr {
            let compiled: Option<Vec<ColLitCmp>> = parts.iter().map(as_col_lit).collect();
            if let Some(cs) = compiled {
                if !cs.is_empty() {
                    return CompiledPredicate::Conjunction(cs);
                }
            }
        }
        CompiledPredicate::General(expr.clone())
    }

    /// Evaluate against a row. Identical truth table to
    /// [`Expr::matches`].
    #[inline]
    pub(crate) fn matches(&self, row: &[Value]) -> bool {
        match self {
            CompiledPredicate::Single(c) => c.matches(row),
            CompiledPredicate::Conjunction(cs) => cs.iter().all(|c| c.matches(row)),
            CompiledPredicate::General(e) => e.matches(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Expr {
        Expr::lit(i)
    }

    #[test]
    fn compiled_matches_interpreter() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(3), Value::Null],
            vec![Value::Int(50), Value::Int(7)],
            vec![Value::Null, Value::Int(0)],
            vec![Value::Float(2.5), Value::Int(-1)],
        ];
        let exprs = vec![
            Expr::col(0).lt(lit(10)),
            Expr::col(0).eq(lit(50)),
            lit(10).lt(Expr::col(0)),
            Expr::And(vec![Expr::col(0).ge(lit(0)), Expr::col(1).lt(lit(5))]),
            Expr::And(vec![]),
            Expr::Or(vec![Expr::col(0).lt(lit(10)), Expr::col(1).eq(lit(7))]),
            Expr::col(1).cmp(CmpOp::Ne, lit(7)),
            Expr::Not(Box::new(Expr::col(0).lt(lit(10)))),
        ];
        for e in &exprs {
            let c = CompiledPredicate::compile(e);
            for r in &rows {
                assert_eq!(
                    c.matches(r),
                    e.matches(r),
                    "expr {e:?} diverged on row {r:?}"
                );
            }
        }
    }
}
