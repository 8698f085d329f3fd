//! Scalar expressions and aggregate functions.
//!
//! Expressions reference operator *output ordinals* (`Expr::Col(i)` is the
//! i-th column of the operator's input row). SQL-style three-valued logic is
//! approximated the way it matters for row routing: a predicate whose
//! evaluation encounters NULL is simply *not satisfied*.

use lqs_storage::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two non-null values.
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = l.cmp(r);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Arithmetic operators (numeric only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (yields NULL on division by zero)
    Div,
    /// `%` on integers (NULL on zero divisor)
    Mod,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to input column `i`.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conjunction (empty = TRUE).
    And(Vec<Expr>),
    /// Disjunction (empty = FALSE).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self op rhs` comparison helper.
    pub fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// `self AND rhs` (flattens nested conjunctions).
    pub fn and(self, rhs: Expr) -> Expr {
        match (self, rhs) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), r) => {
                a.push(r);
                Expr::And(a)
            }
            (l, Expr::And(mut b)) => {
                b.insert(0, l);
                Expr::And(b)
            }
            (l, r) => Expr::And(vec![l, r]),
        }
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(vec![self, rhs])
    }

    /// Evaluate against an input row.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row[*i].clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(row);
                let r = rhs.eval(row);
                if l.is_null() || r.is_null() {
                    Value::Null
                } else {
                    Value::Int(op.apply(&l, &r) as i64)
                }
            }
            Expr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(row) {
                        Value::Null => saw_null = true,
                        v if truthy(&v) => {}
                        _ => return Value::Int(0),
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Int(1)
                }
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(row) {
                        Value::Null => saw_null = true,
                        v if truthy(&v) => return Value::Int(1),
                        _ => {}
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Int(0)
                }
            }
            Expr::Not(e) => match e.eval(row) {
                Value::Null => Value::Null,
                v => Value::Int(!truthy(&v) as i64),
            },
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(row);
                let r = rhs.eval(row);
                eval_arith(*op, &l, &r)
            }
            Expr::IsNull(e) => Value::Int(e.eval(row).is_null() as i64),
            Expr::InList { expr, list } => {
                let v = expr.eval(row);
                if v.is_null() {
                    Value::Null
                } else {
                    Value::Int(list.contains(&v) as i64)
                }
            }
        }
    }

    /// Evaluate as a predicate: NULL and false both reject the row.
    pub fn matches(&self, row: &[Value]) -> bool {
        truthy(&self.eval(row))
    }

    /// All column ordinals referenced by this expression.
    pub(crate) fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::And(p) | Expr::Or(p) => p.iter().for_each(|e| e.collect_columns(out)),
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::InList { expr, .. } => expr.collect_columns(out),
        }
    }
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        _ => false,
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Integer-preserving where possible.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            ArithOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a % b)
                }
            }
        };
    }
    let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
        return Value::Null;
    };
    match op {
        ArithOp::Add => Value::Float(a + b),
        ArithOp::Sub => Value::Float(a - b),
        ArithOp::Mul => Value::Float(a * b),
        ArithOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        ArithOp::Mod => Value::Null,
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows; ignores its input column.
    CountStar,
    /// `COUNT(col)` — counts non-null inputs.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

/// One aggregate computation: function + input expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// Input expression (ignored for `CountStar`).
    pub input: Expr,
}

impl Aggregate {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        Aggregate {
            func: AggFunc::CountStar,
            input: Expr::Lit(Value::Int(0)),
        }
    }

    /// Aggregate of a column.
    pub fn of_col(func: AggFunc, col: usize) -> Self {
        Aggregate {
            func,
            input: Expr::Col(col),
        }
    }
}

/// Streaming accumulator for one aggregate.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    count: i64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    int_only: bool,
}

impl AggState {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            int_only: true,
        }
    }

    /// Fold one input value.
    pub fn update(&mut self, v: &Value) {
        if self.func == AggFunc::CountStar {
            self.count += 1;
            return;
        }
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_float() {
            self.sum += f;
        }
        if !matches!(v, Value::Int(_)) {
            self.int_only = false;
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    /// Produce the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(5),
            Value::str("x"),
            Value::Null,
            Value::Float(2.5),
        ]
    }

    #[test]
    fn comparisons() {
        let e = Expr::col(0).gt(Expr::lit(3i64));
        assert!(e.matches(&row()));
        let e = Expr::col(0).eq(Expr::lit(6i64));
        assert!(!e.matches(&row()));
    }

    #[test]
    fn null_propagation_in_predicates() {
        // col2 is NULL: comparison yields NULL, which does not match.
        let e = Expr::col(2).eq(Expr::lit(1i64));
        assert!(!e.matches(&row()));
        assert_eq!(e.eval(&row()), Value::Null);
        // NOT(NULL) is still NULL.
        let e = Expr::Not(Box::new(Expr::col(2).eq(Expr::lit(1i64))));
        assert!(!e.matches(&row()));
    }

    #[test]
    fn three_valued_and_or() {
        let null_pred = Expr::col(2).eq(Expr::lit(1i64));
        let true_pred = Expr::col(0).gt(Expr::lit(0i64));
        let false_pred = Expr::col(0).lt(Expr::lit(0i64));
        // TRUE AND NULL = NULL; FALSE AND NULL = FALSE.
        assert_eq!(
            true_pred.clone().and(null_pred.clone()).eval(&row()),
            Value::Null
        );
        assert_eq!(
            false_pred.clone().and(null_pred.clone()).eval(&row()),
            Value::Int(0)
        );
        // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
        assert_eq!(true_pred.or(null_pred.clone()).eval(&row()), Value::Int(1));
        assert_eq!(false_pred.or(null_pred).eval(&row()), Value::Null);
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Arith {
            op: ArithOp::Mul,
            lhs: Box::new(Expr::col(0)),
            rhs: Box::new(Expr::lit(4i64)),
        };
        assert_eq!(e.eval(&row()), Value::Int(20));
        let div0 = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(Expr::lit(1i64)),
            rhs: Box::new(Expr::lit(0i64)),
        };
        assert_eq!(div0.eval(&row()), Value::Null);
        let mixed = Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::col(0)),
            rhs: Box::new(Expr::col(3)),
        };
        assert_eq!(mixed.eval(&row()), Value::Float(7.5));
    }

    #[test]
    fn in_list_and_is_null() {
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Value::Int(1), Value::Int(5)],
        };
        assert!(e.matches(&row()));
        let e = Expr::IsNull(Box::new(Expr::col(2)));
        assert!(e.matches(&row()));
        let e = Expr::IsNull(Box::new(Expr::col(0)));
        assert!(!e.matches(&row()));
    }

    #[test]
    fn remap_and_collect_columns() {
        let e = Expr::col(1)
            .eq(Expr::col(3))
            .and(Expr::col(1).gt(Expr::lit(0i64)));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn agg_states() {
        let vals = [Value::Int(3), Value::Null, Value::Int(7), Value::Int(2)];
        let mut s = AggState::new(AggFunc::Sum);
        let mut c = AggState::new(AggFunc::Count);
        let mut cs = AggState::new(AggFunc::CountStar);
        let mut mn = AggState::new(AggFunc::Min);
        let mut mx = AggState::new(AggFunc::Max);
        let mut av = AggState::new(AggFunc::Avg);
        for v in &vals {
            for st in [&mut s, &mut c, &mut cs, &mut mn, &mut mx, &mut av] {
                st.update(v);
            }
        }
        assert_eq!(s.finish(), Value::Int(12));
        assert_eq!(c.finish(), Value::Int(3));
        assert_eq!(cs.finish(), Value::Int(4));
        assert_eq!(mn.finish(), Value::Int(2));
        assert_eq!(mx.finish(), Value::Int(7));
        assert_eq!(av.finish(), Value::Float(4.0));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(AggState::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Count).finish(), Value::Int(0));
        assert_eq!(AggState::new(AggFunc::Min).finish(), Value::Null);
    }
}
