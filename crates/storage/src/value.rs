//! Typed scalar values stored in table rows.
//!
//! The engine is deliberately small: four concrete types cover everything the
//! workloads in the paper's evaluation need (integers, decimals, strings and
//! dates). `Value` carries a total order (`Ord`) so it can be used directly as
//! a B+tree key, a sort key and a hash-join key without per-call-site
//! comparator plumbing.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single scalar value.
///
/// `Null` sorts before every non-null value, mirroring SQL Server's
/// `ORDER BY` treatment of NULLs (NULLs first ascending).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer (covers int/bigint/identity keys).
    Int(i64),
    /// 64-bit float (covers decimal/numeric in the cost-insensitive sim).
    Float(f64),
    /// UTF-8 string. The `Arc` keeps row cloning cheap; the `Box` inside it
    /// keeps the pointer thin, so the widest payload is 8 bytes and a
    /// `Value` is 16.
    Str(Arc<Box<str>>),
    /// Date as days since an arbitrary epoch.
    Date(i32),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Box<str>>) -> Self {
        Value::Str(Arc::new(s.into()))
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload; `Int` is widened so arithmetic expressions can mix
    /// the two numeric types.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The logical type of this value, used for schema checking.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
        }
    }

    /// On-page width in bytes, used by the heap's page-packing model to
    /// derive logical-I/O page counts (8 KiB pages, see [`crate::table`]).
    pub(crate) fn byte_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len(),
            Value::Date(_) => 4,
        }
    }

    /// Rank used so heterogeneous comparisons are still total.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Date(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Float hash through the float image so `Int(2)` and
            // `Float(2.0)` agree with their `Ord`/`Eq` behaviour.
            Value::Int(v) => (*v as f64).to_bits().hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => {
                2u8.hash(state);
                d.hash(state)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "#{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// The type of `Value::Null`; compatible with every other type.
    Null,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length string.
    Str,
    /// Date (days since epoch).
    Date,
}

impl DataType {
    /// Whether a value of type `other` may be stored in a column of `self`.
    pub(crate) fn accepts(self, other: DataType) -> bool {
        self == other || other == DataType::Null
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "null",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// A row is an `Arc<[Value]>` and every scan, join, sort and hash moves
    /// and compares `Value`s by the slice, so their width is memory traffic
    /// under every row: 16 bytes is the tag plus the widest scalar. A fat
    /// `Arc<str>` payload would make it 24.
    #[test]
    fn value_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
        assert!(Value::Null < Value::Date(i32::MIN));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn mixed_numeric_hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn byte_widths() {
        assert_eq!(Value::Int(0).byte_width(), 8);
        assert_eq!(Value::str("hello").byte_width(), 7);
        assert_eq!(Value::Null.byte_width(), 1);
        assert_eq!(Value::Date(1).byte_width(), 4);
    }

    #[test]
    fn data_type_accepts_null() {
        assert!(DataType::Int.accepts(DataType::Null));
        assert!(!DataType::Int.accepts(DataType::Str));
        assert!(DataType::Str.accepts(DataType::Str));
    }

    #[test]
    fn display_round_trip_smoke() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
