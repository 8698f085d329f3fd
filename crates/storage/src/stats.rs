//! Table and column statistics: row counts, distinct counts and equi-depth
//! histograms.
//!
//! These back the mini query optimizer in `lqs-plan`. The point of building
//! real histograms (instead of injecting synthetic estimation noise) is that
//! the optimizer's cardinality errors then arise from the same modelling
//! assumptions that break in production systems — uniformity within buckets,
//! independence between predicates, containment for joins — which is exactly
//! the error regime the paper's refinement and bounding techniques target.

use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;

/// Number of histogram buckets (SQL Server uses up to 200 steps).
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// One equi-depth histogram bucket: values in `(prev_upper, upper]`.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Inclusive upper bound of the bucket.
    pub(crate) upper: Value,
    /// Rows with value equal to `upper` (like SQL Server's EQ_ROWS).
    pub eq_rows: f64,
    /// Rows strictly inside the bucket, excluding `upper` (RANGE_ROWS).
    pub(crate) range_rows: f64,
    /// Distinct values strictly inside the bucket (DISTINCT_RANGE_ROWS).
    pub(crate) range_distinct: f64,
}

/// Equi-depth histogram over the non-null values of one column.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<Bucket>,
    /// Total non-null rows summarized.
    total_rows: f64,
    /// Smallest non-null value.
    min: Option<Value>,
}

impl Histogram {
    /// Build from a column's values (nulls are excluded from the histogram;
    /// they are tracked separately in [`ColumnStats`]).
    pub(crate) fn build(values: &mut Vec<Value>) -> Self {
        values.retain(|v| !v.is_null());
        values.sort();
        let n = values.len();
        if n == 0 {
            return Histogram {
                buckets: Vec::new(),
                total_rows: 0.0,
                min: None,
            };
        }
        let min = values.first().cloned();
        let per_bucket = n.div_ceil(HISTOGRAM_BUCKETS);
        let mut buckets = Vec::new();
        let mut i = 0usize;
        while i < n {
            // Tentative bucket end; extend to cover all duplicates of the
            // boundary value so each distinct value lands in one bucket.
            let mut end = (i + per_bucket).min(n) - 1;
            while end + 1 < n && values[end + 1] == values[end] {
                end += 1;
            }
            let upper = values[end].clone();
            // Count rows equal to upper within [i, end].
            let mut eq = 0usize;
            let mut j = end;
            loop {
                if values[j] == upper {
                    eq += 1;
                } else {
                    break;
                }
                if j == i {
                    break;
                }
                j -= 1;
            }
            let range = end + 1 - i - eq;
            let mut distinct = 0usize;
            let mut prev: Option<&Value> = None;
            // Range rows are the bucket's values below `upper`; the `eq` rows
            // sort last, so they occupy `[i, i + range)`.
            for v in &values[i..i + range] {
                if prev != Some(v) {
                    distinct += 1;
                    prev = Some(v);
                }
            }
            buckets.push(Bucket {
                upper,
                eq_rows: eq as f64,
                range_rows: range as f64,
                range_distinct: distinct as f64,
            });
            i = end + 1;
        }
        Histogram {
            buckets,
            total_rows: n as f64,
            min,
        }
    }

    /// Histogram buckets, ascending by upper bound.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Total non-null rows summarized.
    pub fn total_rows(&self) -> f64 {
        self.total_rows
    }

    /// Estimated number of rows with value exactly `v` (uniformity within the
    /// containing bucket).
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        if self.buckets.is_empty() || v.is_null() {
            return 0.0;
        }
        if let Some(min) = &self.min {
            if v < min {
                return 0.0;
            }
        }
        let idx = self.buckets.partition_point(|b| &b.upper < v);
        let Some(b) = self.buckets.get(idx) else {
            return 0.0; // above max
        };
        if &b.upper == v {
            b.eq_rows
        } else if b.range_distinct > 0.0 {
            b.range_rows / b.range_distinct
        } else {
            0.0
        }
    }

    /// Estimated rows in `(lo, hi)` with configurable bound inclusivity;
    /// `None` means unbounded on that side.
    pub fn estimate_range(
        &self,
        lo: Option<&Value>,
        lo_inclusive: bool,
        hi: Option<&Value>,
        hi_inclusive: bool,
    ) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        // For the low bound, `None` means -infinity: nothing is below it.
        let below_lo = match lo {
            None => 0.0,
            Some(_) => self.rows_le(lo, !lo_inclusive),
        };
        let mut rows = self.rows_le(hi, hi_inclusive) - below_lo;
        if rows < 0.0 {
            rows = 0.0;
        }
        rows
    }

    /// Rows with value <= `v` (or < if `inclusive` is false). `None` means
    /// +infinity: all rows.
    fn rows_le(&self, v: Option<&Value>, inclusive: bool) -> f64 {
        let Some(v) = v else {
            return self.total_rows;
        };
        let mut acc = 0.0;
        for b in &self.buckets {
            if &b.upper < v {
                acc += b.range_rows + b.eq_rows;
            } else if &b.upper == v {
                acc += b.range_rows;
                if inclusive {
                    acc += b.eq_rows;
                }
                return acc;
            } else {
                // v falls inside this bucket: assume uniform spread over the
                // distinct values; take half the range as the classic guess.
                acc += b.range_rows * 0.5;
                return acc;
            }
        }
        acc
    }
}

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Distinct non-null values.
    pub distinct: f64,
    /// NULL rows.
    pub nulls: f64,
    /// Histogram over non-null values.
    pub histogram: Histogram,
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Table cardinality.
    pub row_count: f64,
    /// Data pages.
    pub page_count: f64,
    /// Per-column statistics, indexed by ordinal.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute full statistics for `table` (a full scan; the simulator has
    /// no sampling because tables are small).
    pub(crate) fn compute(table: &Table) -> Self {
        let ncols = table.schema().len();
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let mut values: Vec<Value> = Vec::with_capacity(table.row_count());
            let mut nulls = 0usize;
            for row in table.rows() {
                let v = &row[c];
                if v.is_null() {
                    nulls += 1;
                } else {
                    values.push(v.clone());
                }
            }
            let distinct = {
                let mut set = HashSet::new();
                for v in &values {
                    set.insert(v.clone());
                }
                set.len() as f64
            };
            let histogram = Histogram::build(&mut values);
            columns.push(ColumnStats {
                distinct,
                nulls: nulls as f64,
                histogram,
            });
        }
        TableStats {
            row_count: table.row_count() as f64,
            page_count: table.page_count() as f64,
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn uniform_table(n: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::nullable("b", DataType::Int),
            ]),
        );
        for i in 0..n {
            let b = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 100)
            };
            t.insert(vec![Value::Int(i), b]).unwrap();
        }
        t
    }

    #[test]
    fn histogram_totals_add_up() {
        let stats = TableStats::compute(&uniform_table(10_000));
        let h = &stats.columns[0].histogram;
        let sum: f64 = h.buckets().iter().map(|b| b.eq_rows + b.range_rows).sum();
        assert_eq!(sum, 10_000.0);
        assert_eq!(h.total_rows(), 10_000.0);
    }

    #[test]
    fn eq_estimate_unique_column() {
        let stats = TableStats::compute(&uniform_table(10_000));
        let h = &stats.columns[0].histogram;
        // Unique column: estimate for any present value should be ~1.
        let est = h.estimate_eq(&Value::Int(4321));
        assert!((est - 1.0).abs() < 1.5, "estimate {est}");
        // Outside the domain.
        assert_eq!(h.estimate_eq(&Value::Int(-5)), 0.0);
        assert_eq!(h.estimate_eq(&Value::Int(1_000_000)), 0.0);
    }

    #[test]
    fn eq_estimate_skewless_duplicates() {
        let stats = TableStats::compute(&uniform_table(10_000));
        let h = &stats.columns[1].histogram;
        // Column b has 100 distinct values over 8000 non-null rows → ~80 each.
        let est = h.estimate_eq(&Value::Int(50));
        assert!((est - 80.0).abs() < 25.0, "estimate {est}");
    }

    #[test]
    fn range_estimate_accuracy_uniform() {
        let stats = TableStats::compute(&uniform_table(10_000));
        let h = &stats.columns[0].histogram;
        let est = h.estimate_range(
            Some(&Value::Int(1000)),
            true,
            Some(&Value::Int(2000)),
            false,
        );
        assert!((est - 1000.0).abs() < 200.0, "estimate {est}");
    }

    #[test]
    fn unbounded_range_covers_all() {
        let stats = TableStats::compute(&uniform_table(1000));
        let h = &stats.columns[0].histogram;
        let est = h.estimate_range(None, true, None, true);
        assert_eq!(est, 1000.0);
    }

    #[test]
    fn null_accounting() {
        let stats = TableStats::compute(&uniform_table(1000));
        assert_eq!(stats.columns[1].nulls, 200.0);
        assert_eq!(stats.columns[1].histogram.total_rows(), 800.0);
    }

    #[test]
    fn distinct_counts() {
        let stats = TableStats::compute(&uniform_table(1000));
        assert_eq!(stats.columns[0].distinct, 1000.0);
        // b = i%100 excluding multiples of 5 (those are NULL) -> 80 distinct.
        assert_eq!(stats.columns[1].distinct, 80.0);
    }

    #[test]
    fn empty_table_stats() {
        let stats = TableStats::compute(&uniform_table(0));
        assert_eq!(stats.row_count, 0.0);
        assert_eq!(stats.columns[0].histogram.estimate_eq(&Value::Int(1)), 0.0);
    }
}
