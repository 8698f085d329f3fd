//! The mini-optimizer's cardinality estimation pass.
//!
//! Fills `est_rows_per_exec` and `est_executions` for every plan node using
//! base-table histograms and the classical modelling assumptions —
//! uniformity within histogram buckets, independence between predicates,
//! containment for joins. Those assumptions *break* on skewed and correlated
//! data, which is the point: the resulting `N̂ᵢ` errors are the realistic
//! inputs that the paper's refinement (§4.1) and bounding (§4.2) techniques
//! must correct at run time.

use crate::expr::{CmpOp, Expr};
use crate::op::{JoinKind, NodeId, PhysicalOp, SeekKey};
use crate::plan::{PhysicalPlan, Provenance};
use lqs_storage::{Database, Value};

/// Default selectivity for equality predicates the histogram can't resolve.
pub(crate) const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default selectivity for range predicates the histogram can't resolve.
pub(crate) const DEFAULT_RANGE_SEL: f64 = 0.3;
/// Default selectivity for out-of-model predicates (scalar functions etc.).
pub(crate) const DEFAULT_OPAQUE_SEL: f64 = 0.25;
/// Optimizer guess for the fraction of probe-side rows surviving a bitmap
/// semi-join filter. Deliberately crude: the paper observes that bitmap
/// selectivities "often have very large estimation errors" (§4.3), and this
/// fixed guess reproduces that regime.
pub(crate) const BITMAP_DEFAULT_SEL: f64 = 0.75;

/// Run the pass over `plan`.
pub(crate) fn estimate(plan: &mut PhysicalPlan, db: &Database) {
    // Bottom-up: per-execution cardinalities.
    for id in plan.post_order() {
        let rows = estimate_node(plan, db, id);
        plan.node_mut(id).est_rows_per_exec = rows.max(1.0);
    }
    // Top-down: execution counts (NL inner subtrees re-execute per outer row;
    // spools absorb re-execution by replaying their buffer).
    assign_executions(plan, plan.root(), 1.0);
}

fn assign_executions(plan: &mut PhysicalPlan, id: NodeId, execs: f64) {
    plan.node_mut(id).est_executions = execs;
    let node = plan.node(id);
    let children = node.children.clone();
    match &node.op {
        PhysicalOp::NestedLoops { .. } => {
            let outer_rows = plan.node(children[0]).est_rows_per_exec * execs;
            assign_executions(plan, children[0], execs);
            // Inner side runs once per outer row.
            assign_executions(plan, children[1], outer_rows.max(1.0));
        }
        PhysicalOp::Spool { .. } => {
            // A spool's child is populated on the first execution only;
            // rewinds replay the buffer.
            assign_executions(plan, children[0], 1.0);
        }
        _ => {
            for c in children {
                assign_executions(plan, c, execs);
            }
        }
    }
}

fn estimate_node(plan: &PhysicalPlan, db: &Database, id: NodeId) -> f64 {
    let node = plan.node(id);
    let child_rows = |i: usize| plan.node(node.children[i]).est_rows_per_exec;
    match &node.op {
        PhysicalOp::TableScan {
            table,
            predicate,
            bitmap_probe,
            ..
        } => {
            let mut rows = db.stats(*table).row_count;
            if let Some(p) = predicate {
                rows *= selectivity(p, &node.provenance, db);
            }
            if bitmap_probe.is_some() {
                rows *= BITMAP_DEFAULT_SEL;
            }
            rows
        }
        PhysicalOp::IndexScan {
            index,
            predicate,
            bitmap_probe,
            ..
        } => {
            let t = db.btree_table(*index);
            let mut rows = db.stats(t).row_count;
            if let Some(p) = predicate {
                rows *= selectivity(p, &node.provenance, db);
            }
            if bitmap_probe.is_some() {
                rows *= BITMAP_DEFAULT_SEL;
            }
            rows
        }
        PhysicalOp::ColumnstoreScan {
            columnstore,
            predicate,
            bitmap_probe,
        } => {
            let t = db.columnstore_table(*columnstore);
            let mut rows = db.stats(t).row_count;
            if let Some(p) = predicate {
                rows *= selectivity(p, &node.provenance, db);
            }
            if bitmap_probe.is_some() {
                rows *= BITMAP_DEFAULT_SEL;
            }
            rows
        }
        PhysicalOp::IndexSeek {
            index,
            seek,
            residual,
            ..
        } => {
            let t = db.btree_table(*index);
            let stats = db.stats(t);
            let key_cols = db.btree(*index).key_columns();
            let mut rows = stats.row_count;
            for (pos, k) in seek.eq_keys.iter().enumerate() {
                let col = key_cols[pos];
                let col_stats = &stats.columns[col];
                match k {
                    SeekKey::Lit(v) => {
                        let eq = col_stats.histogram.estimate_eq(v);
                        rows = rows.min(stats.row_count) * (eq / stats.row_count.max(1.0));
                    }
                    SeekKey::OuterRef(_) => {
                        // Average rows per distinct key value.
                        rows *= 1.0 / col_stats.distinct.max(1.0);
                    }
                }
            }
            // Range component on the next key column.
            if seek.lo.is_some() || seek.hi.is_some() {
                let col = key_cols.get(seek.eq_keys.len()).copied();
                let sel = range_component_selectivity(seek, col, t, db);
                rows *= sel;
            }
            if let Some(r) = residual {
                rows *= selectivity(r, &node.provenance, db);
            }
            rows
        }
        PhysicalOp::RidLookup { .. } => child_rows(0),
        PhysicalOp::Filter { predicate } => {
            child_rows(0) * selectivity(predicate, &plan.node(node.children[0]).provenance, db)
        }
        PhysicalOp::ComputeScalar { .. }
        | PhysicalOp::Segment { .. }
        | PhysicalOp::Sort { .. }
        | PhysicalOp::Spool { .. }
        | PhysicalOp::Exchange { .. }
        | PhysicalOp::BitmapCreate { .. } => child_rows(0),
        PhysicalOp::TopNSort { n, .. } | PhysicalOp::Top { n } => child_rows(0).min(*n as f64),
        PhysicalOp::DistinctSort { keys } => {
            let cols: Vec<usize> = keys.iter().map(|k| k.column).collect();
            group_estimate(&cols, plan.node(node.children[0]), child_rows(0), db)
        }
        PhysicalOp::StreamAggregate { group_by, .. }
        | PhysicalOp::HashAggregate { group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                group_estimate(group_by, plan.node(node.children[0]), child_rows(0), db)
            }
        }
        PhysicalOp::HashJoin {
            kind,
            build_keys,
            probe_keys,
            ..
        } => {
            let build = plan.node(node.children[0]);
            let probe = plan.node(node.children[1]);
            join_estimate(
                *kind,
                probe,
                child_rows(1),
                probe_keys,
                build,
                child_rows(0),
                build_keys,
                db,
            )
        }
        PhysicalOp::MergeJoin {
            kind,
            left_keys,
            right_keys,
        } => {
            let left = plan.node(node.children[0]);
            let right = plan.node(node.children[1]);
            join_estimate(
                *kind,
                left,
                child_rows(0),
                left_keys,
                right,
                child_rows(1),
                right_keys,
                db,
            )
        }
        PhysicalOp::NestedLoops {
            kind, predicate, ..
        } => {
            let outer_rows = child_rows(0);
            let inner_rows = child_rows(1); // per execution
            let mut rows = outer_rows * inner_rows;
            if let Some(p) = predicate {
                rows *= selectivity(p, &node.provenance, db);
            }
            match kind {
                JoinKind::Inner => rows,
                JoinKind::LeftOuter | JoinKind::FullOuter => rows.max(outer_rows),
                JoinKind::LeftSemi => rows.min(outer_rows),
                JoinKind::LeftAnti => (outer_rows - rows.min(outer_rows)).max(1.0),
            }
        }
        PhysicalOp::Concat => node
            .children
            .iter()
            .map(|&c| plan.node(c).est_rows_per_exec)
            .sum(),
        PhysicalOp::ConstantScan { rows } => rows.len() as f64,
    }
}

fn range_component_selectivity(
    seek: &crate::op::SeekRange,
    col: Option<usize>,
    table: lqs_storage::TableId,
    db: &Database,
) -> f64 {
    let Some(col) = col else {
        return DEFAULT_RANGE_SEL;
    };
    let stats = db.stats(table);
    let h = &stats.columns[col].histogram;
    let lit = |k: &SeekKey| -> Option<Value> {
        match k {
            SeekKey::Lit(v) => Some(v.clone()),
            SeekKey::OuterRef(_) => None,
        }
    };
    let lo = seek
        .lo
        .as_ref()
        .and_then(|(k, inc)| lit(k).map(|v| (v, *inc)));
    let hi = seek
        .hi
        .as_ref()
        .and_then(|(k, inc)| lit(k).map(|v| (v, *inc)));
    if lo.is_none() && hi.is_none() {
        return DEFAULT_RANGE_SEL;
    }
    let rows = h.estimate_range(
        lo.as_ref().map(|(v, _)| v),
        lo.as_ref().is_none_or(|(_, inc)| *inc),
        hi.as_ref().map(|(v, _)| v),
        hi.as_ref().is_none_or(|(_, inc)| *inc),
    );
    (rows / h.total_rows().max(1.0)).clamp(0.0, 1.0)
}

#[allow(clippy::too_many_arguments)]
fn join_estimate(
    kind: JoinKind,
    left: &crate::plan::PlanNode,
    left_rows: f64,
    left_keys: &[usize],
    right: &crate::plan::PlanNode,
    right_rows: f64,
    right_keys: &[usize],
    db: &Database,
) -> f64 {
    // Containment assumption: per equi-key pair, selectivity 1/max(d_l, d_r).
    let mut sel = 1.0;
    let mut d_left = 1.0f64;
    let mut d_right = 1.0f64;
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        let dl = distinct_of(left, lk, left_rows, db);
        let dr = distinct_of(right, rk, right_rows, db);
        sel *= 1.0 / dl.max(dr).max(1.0);
        d_left *= dl;
        d_right *= dr;
    }
    d_left = d_left.min(left_rows.max(1.0));
    d_right = d_right.min(right_rows.max(1.0));
    let inner = left_rows * right_rows * sel;
    match kind {
        JoinKind::Inner => inner,
        JoinKind::LeftOuter => inner.max(left_rows),
        JoinKind::FullOuter => inner.max(left_rows).max(right_rows),
        JoinKind::LeftSemi => {
            // Fraction of left key domain covered by the right side.
            let frac = (d_right / d_left.max(1.0)).min(1.0);
            (left_rows * frac).max(1.0)
        }
        JoinKind::LeftAnti => {
            let frac = (d_right / d_left.max(1.0)).min(1.0);
            (left_rows * (1.0 - frac)).max(1.0)
        }
    }
}

/// Distinct-count estimate for column `col` of `node`'s output.
fn distinct_of(node: &crate::plan::PlanNode, col: usize, rows: f64, db: &Database) -> f64 {
    match node.provenance.get(col) {
        Some(Provenance::Base(t, c)) => {
            let d = db.stats(*t).columns[*c].distinct;
            d.min(rows.max(1.0))
        }
        _ => rows.max(1.0).sqrt(), // unknown: classic sqrt heuristic
    }
}

/// Group-by output estimate: product of per-column distincts, capped by
/// input rows (independence between grouping columns).
fn group_estimate(
    cols: &[usize],
    child: &crate::plan::PlanNode,
    child_rows: f64,
    db: &Database,
) -> f64 {
    let mut groups = 1.0;
    for &c in cols {
        groups *= distinct_of(child, c, child_rows, db);
    }
    groups.min(child_rows.max(1.0))
}

/// Selectivity of a predicate against a node's output, resolving column
/// references to base-table histograms through provenance.
pub fn selectivity(expr: &Expr, provenance: &[Provenance], db: &Database) -> f64 {
    let sel = match expr {
        Expr::And(parts) => parts
            .iter()
            .map(|p| selectivity(p, provenance, db))
            .product(),
        Expr::Or(parts) => {
            let mut not_any = 1.0;
            for p in parts {
                not_any *= 1.0 - selectivity(p, provenance, db);
            }
            1.0 - not_any
        }
        Expr::Not(inner) => 1.0 - selectivity(inner, provenance, db),
        Expr::Cmp { op, lhs, rhs } => cmp_selectivity(*op, lhs, rhs, provenance, db),
        Expr::InList { expr, list } => {
            if let Expr::Col(c) = expr.as_ref() {
                if let Some(Provenance::Base(t, col)) = provenance.get(*c) {
                    let stats = db.stats(*t);
                    let total = stats.row_count.max(1.0);
                    let rows: f64 = list
                        .iter()
                        .map(|v| stats.columns[*col].histogram.estimate_eq(v))
                        .sum();
                    return (rows / total).clamp(0.0, 1.0);
                }
            }
            (DEFAULT_EQ_SEL * list.len() as f64).min(1.0)
        }
        Expr::IsNull(inner) => {
            if let Expr::Col(c) = inner.as_ref() {
                if let Some(Provenance::Base(t, col)) = provenance.get(*c) {
                    let stats = db.stats(*t);
                    return (stats.columns[*col].nulls / stats.row_count.max(1.0)).clamp(0.0, 1.0);
                }
            }
            0.05
        }
        Expr::Lit(v) => {
            // Constant predicate.
            if v.as_int() == Some(0) {
                0.0
            } else {
                1.0
            }
        }
        _ => DEFAULT_OPAQUE_SEL,
    };
    f64::clamp(sel, 0.0, 1.0)
}

fn cmp_selectivity(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    provenance: &[Provenance],
    db: &Database,
) -> f64 {
    // Normalize to col-op-lit where possible.
    let (col, lit, op) = match (lhs, rhs) {
        (Expr::Col(c), Expr::Lit(v)) => (Some(*c), Some(v), op),
        (Expr::Lit(v), Expr::Col(c)) => (Some(*c), Some(v), flip(op)),
        (Expr::Col(a), Expr::Col(b)) => {
            // col = col (e.g. join residual): containment.
            if op == CmpOp::Eq {
                let da = prov_distinct(provenance, *a, db);
                let db_ = prov_distinct(provenance, *b, db);
                return 1.0 / da.max(db_).max(1.0);
            }
            return DEFAULT_RANGE_SEL;
        }
        _ => (None, None, op),
    };
    let (Some(c), Some(v)) = (col, lit) else {
        return DEFAULT_OPAQUE_SEL;
    };
    let Some(Provenance::Base(t, bc)) = provenance.get(c) else {
        return match op {
            CmpOp::Eq => DEFAULT_EQ_SEL,
            CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
            _ => DEFAULT_RANGE_SEL,
        };
    };
    let stats = db.stats(*t);
    let h = &stats.columns[*bc].histogram;
    let total = stats.row_count.max(1.0);
    let rows = match op {
        CmpOp::Eq => h.estimate_eq(v),
        CmpOp::Ne => h.total_rows() - h.estimate_eq(v),
        CmpOp::Lt => h.estimate_range(None, true, Some(v), false),
        CmpOp::Le => h.estimate_range(None, true, Some(v), true),
        CmpOp::Gt => h.estimate_range(Some(v), false, None, true),
        CmpOp::Ge => h.estimate_range(Some(v), true, None, true),
    };
    (rows / total).clamp(0.0, 1.0)
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn prov_distinct(provenance: &[Provenance], col: usize, db: &Database) -> f64 {
    match provenance.get(col) {
        Some(Provenance::Base(t, c)) => db.stats(*t).columns[*c].distinct,
        _ => 100.0,
    }
}
