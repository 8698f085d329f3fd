//! Table schemas: named, typed columns.

use crate::value::{DataType, Value};
use std::sync::Arc;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub(crate) name: String,
    /// Logical type.
    pub(crate) data_type: DataType,
    /// Whether NULLs are permitted.
    pub(crate) nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// An ordered list of columns. Cheap to clone (shared via `Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Build a schema from columns.
    ///
    /// # Panics
    /// Panics if two columns share a name — schemas are authored by hand in
    /// the workload generators and a duplicate is always a programming error.
    pub fn new(columns: Vec<Column>) -> Self {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate column name {:?}", a.name);
            }
        }
        Schema {
            columns: columns.into(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Validates that `row` matches this schema (arity, types, nullability).
    pub(crate) fn validate_row(&self, row: &[Value]) -> Result<(), SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError::Arity {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if v.is_null() {
                if !col.nullable {
                    return Err(SchemaError::UnexpectedNull {
                        column: col.name.clone(),
                    });
                }
            } else if !col.data_type.accepts(v.data_type()) {
                return Err(SchemaError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.data_type,
                    got: v.data_type(),
                });
            }
        }
        Ok(())
    }
}

/// Row-vs-schema validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Row has the wrong number of values.
    Arity {
        /// Schema arity.
        expected: usize,
        /// Row arity.
        got: usize,
    },
    /// NULL in a non-nullable column.
    UnexpectedNull {
        /// Offending column.
        column: String,
    },
    /// Value type does not match the column type.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Declared type.
        expected: DataType,
        /// Actual type.
        got: DataType,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Arity { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            SchemaError::UnexpectedNull { column } => {
                write!(f, "NULL in non-nullable column {column:?}")
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "column {column:?} expects {expected}, got {got}"),
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Str),
        ])
    }

    #[test]
    fn validate_accepts_good_row() {
        let s = schema();
        assert!(s.validate_row(&[Value::Int(1), Value::str("a")]).is_ok());
        assert!(s.validate_row(&[Value::Int(1), Value::Null]).is_ok());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&[Value::Int(1)]),
            Err(SchemaError::Arity { .. })
        ));
    }

    #[test]
    fn validate_rejects_null_in_non_nullable() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&[Value::Null, Value::Null]),
            Err(SchemaError::UnexpectedNull { .. })
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&[Value::str("x"), Value::Null]),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Int),
        ]);
    }
}
