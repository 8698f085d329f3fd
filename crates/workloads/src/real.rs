//! Synthetic analogs of the paper's proprietary REAL-1/2/3 customer
//! workloads.
//!
//! The paper characterizes them only by aggregate properties, which we
//! match:
//!
//! * **REAL-1** — 9 GB sales database; 477 distinct decision-support
//!   queries, "joins of 5–8 tables as well as nested subqueries".
//! * **REAL-2** — 12 GB; 632 queries, "even more complex … a typical query
//!   involving 12 joins".
//! * **REAL-3** — 97 GB (largest); 40 join + group-by queries.
//!
//! Databases are seeded-random snowflake schemas; queries are random valid
//! plans over them (join chains following foreign keys, mixed join
//! algorithms, pushed filters, exchanges, aggregate subqueries through
//! spools). Generation is deterministic in the workload seed.

use crate::rng::{seeded, Zipf};
use crate::suite::{NamedQuery, Workload, WorkloadScale};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, JoinKind, NodeId, PlanBuilder, SeekKey, SeekRange,
    SortKey,
};
use lqs_storage::{Column, DataType, Database, IndexId, Schema, Table, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// Which REAL workload to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealProfile {
    /// 477 queries, 5–8-table joins, nested subqueries; smallest data.
    Real1,
    /// 632 queries, ~12 joins.
    Real2,
    /// 40 join+group-by queries; largest data.
    Real3,
}

struct Profile {
    name: &'static str,
    tables: usize,
    /// Base rows of the largest fact table (scaled by `data_scale`).
    max_rows: usize,
    queries: usize,
    joins: (usize, usize),
    subquery_prob: f64,
    groupby_prob: f64,
    seed_salt: u64,
}

fn profile(p: RealProfile) -> Profile {
    match p {
        RealProfile::Real1 => Profile {
            name: "REAL-1",
            tables: 12,
            max_rows: 12_000,
            queries: 477,
            joins: (5, 8),
            subquery_prob: 0.35,
            groupby_prob: 0.6,
            seed_salt: 0x0111,
        },
        RealProfile::Real2 => Profile {
            name: "REAL-2",
            tables: 18,
            max_rows: 16_000,
            queries: 632,
            joins: (10, 13),
            subquery_prob: 0.15,
            groupby_prob: 0.5,
            seed_salt: 0x0222,
        },
        RealProfile::Real3 => Profile {
            name: "REAL-3",
            tables: 10,
            max_rows: 60_000,
            queries: 40,
            joins: (2, 5),
            subquery_prob: 0.0,
            groupby_prob: 1.0,
            seed_salt: 0x0333,
        },
    }
}

/// Schema metadata for one generated table.
struct TableInfo {
    id: TableId,
    pk_index: IndexId,
    rows: usize,
    /// (column ordinal, referenced table index) for each FK.
    fks: Vec<(usize, usize)>,
    /// Ordinals of filterable attribute columns, with their domain sizes.
    attrs: Vec<(usize, i64)>,
    arity: usize,
}

/// Generate the database + query set for a profile.
pub fn workload(p: RealProfile, scale: WorkloadScale) -> Workload {
    let prof = profile(p);
    let mut rng = seeded(scale.seed ^ prof.seed_salt);
    let (db, infos) = build_schema(&prof, scale.data_scale, &mut rng);
    let query_target = prof.queries.min(scale.query_limit);
    let mut queries = Vec::new();
    while queries.len() < query_target {
        let name = format!("{}-q{:03}", prof.name.to_lowercase(), queries.len());
        let plan = gen_query(&db, &infos, &prof, &mut rng);
        queries.push(NamedQuery { name, plan });
    }
    Workload {
        name: prof.name,
        db,
        queries,
    }
}

fn build_schema(prof: &Profile, data_scale: f64, rng: &mut SmallRng) -> (Database, Vec<TableInfo>) {
    let mut db = Database::new();
    let mut infos: Vec<TableInfo> = Vec::new();
    for t in 0..prof.tables {
        // Row counts grow with table index: early tables are dimensions.
        let frac = ((t + 1) as f64 / prof.tables as f64).powi(2);
        let rows = ((prof.max_rows as f64 * frac * data_scale) as usize).max(40);
        let mut columns = vec![Column::new("pk", DataType::Int)];
        // FKs to up to two earlier tables.
        let nfk = if t == 0 {
            0
        } else {
            rng.gen_range(1..=2.min(t))
        };
        let mut fks = Vec::new();
        for f in 0..nfk {
            let target = rng.gen_range(0..t);
            columns.push(Column::new(format!("fk{f}"), DataType::Int));
            fks.push((1 + f, target));
        }
        // Attribute columns.
        let nattr = rng.gen_range(2..=4);
        let mut attrs = Vec::new();
        for a in 0..nattr {
            let domain = [10i64, 50, 200, 1000][rng.gen_range(0..4)];
            columns.push(Column::new(format!("attr{a}"), DataType::Int));
            attrs.push((1 + nfk + a, domain));
        }
        // A measure column.
        columns.push(Column::new("measure", DataType::Float));
        let arity = columns.len();

        let mut table = Table::new(format!("t{t}"), Schema::new(columns));
        // Zipf-skew FK values against the referenced tables' domains.
        let fk_samplers: Vec<Zipf> = fks
            .iter()
            .map(|&(_, target)| {
                Zipf::new(
                    infos[target].rows,
                    if rng.gen_bool(0.5) { 1.0 } else { 0.3 },
                )
            })
            .collect();
        for i in 0..rows {
            let mut row = vec![Value::Int(i as i64)];
            for z in &fk_samplers {
                row.push(Value::Int(z.sample(rng) as i64));
            }
            for &(_, domain) in &attrs {
                // Mix of uniform and quadratic (skewed) attribute values.
                let v = if rng.gen_bool(0.5) {
                    rng.gen_range(0..domain)
                } else {
                    let x = rng.gen_range(0..domain);
                    (x * x) % domain
                };
                row.push(Value::Int(v));
            }
            row.push(Value::Float(rng.gen_range(0.0..1000.0)));
            table.insert(row).unwrap();
        }
        let id = db.add_table_analyzed(table);
        let pk_index = db.create_btree_index(format!("pk_t{t}"), id, vec![0]);
        infos.push(TableInfo {
            id,
            pk_index,
            rows,
            fks,
            attrs,
            arity,
        });
    }
    (db, infos)
}

/// Tracks the (table, base-column) provenance of the current intermediate
/// result, so join keys can be located by output ordinal.
struct Shape {
    node: NodeId,
    /// For each output column: `Some((table_idx, col))` if it carries a base
    /// column, else None.
    cols: Vec<Option<(usize, usize)>>,
}

impl Shape {
    fn of_table(node: NodeId, t: usize, info: &TableInfo) -> Shape {
        Shape {
            node,
            cols: (0..info.arity).map(|c| Some((t, c))).collect(),
        }
    }

    /// Find the output ordinal carrying `(table, col)`.
    fn find(&self, t: usize, c: usize) -> Option<usize> {
        self.cols.iter().position(|p| *p == Some((t, c)))
    }

    fn tables(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.cols.iter().flatten().map(|&(t, _)| t).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A join opportunity between the current shape and a new table.
struct JoinEdge {
    /// Output ordinal of the key in the current shape.
    shape_key: usize,
    /// The new table index.
    table: usize,
    /// Key column in the new table.
    table_key: usize,
    /// True when shape-side is the FK and the new table's PK is the key
    /// (enables an index NL seek into the new table).
    fk_to_pk: bool,
}

fn join_edges(shape: &Shape, infos: &[TableInfo]) -> Vec<JoinEdge> {
    let included = shape.tables();
    let mut edges = Vec::new();
    for (t, info) in infos.iter().enumerate() {
        if included.contains(&t) {
            continue;
        }
        // Included table's FK → new table's PK.
        for &inc in &included {
            for &(fk_col, target) in &infos[inc].fks {
                if target == t {
                    if let Some(ord) = shape.find(inc, fk_col) {
                        edges.push(JoinEdge {
                            shape_key: ord,
                            table: t,
                            table_key: 0,
                            fk_to_pk: true,
                        });
                    }
                }
            }
        }
        // New table's FK → included table's PK.
        for &(fk_col, target) in &info.fks {
            if included.contains(&target) {
                if let Some(ord) = shape.find(target, 0) {
                    edges.push(JoinEdge {
                        shape_key: ord,
                        table: t,
                        table_key: fk_col,
                        fk_to_pk: false,
                    });
                }
            }
        }
    }
    edges
}

/// Random filter on a random attribute of the given table block.
fn random_filter(rng: &mut SmallRng, infos: &[TableInfo], shape: &Shape) -> Option<Expr> {
    let tables = shape.tables();
    let t = tables[rng.gen_range(0..tables.len())];
    let attrs = &infos[t].attrs;
    if attrs.is_empty() {
        return None;
    }
    let (col, domain) = attrs[rng.gen_range(0..attrs.len())];
    let ord = shape.find(t, col)?;
    let e = match rng.gen_range(0..3) {
        0 => Expr::col(ord).eq(Expr::lit(rng.gen_range(0..domain))),
        1 => Expr::col(ord).lt(Expr::lit(rng.gen_range(1..=domain))),
        _ => Expr::col(ord).ge(Expr::lit(rng.gen_range(0..domain))),
    };
    Some(e)
}

fn access_table(b: &mut PlanBuilder, rng: &mut SmallRng, infos: &[TableInfo], t: usize) -> Shape {
    let info = &infos[t];
    // 50%: pushed filter on an attribute.
    let node = if rng.gen_bool(0.5) && !info.attrs.is_empty() {
        let (col, domain) = info.attrs[rng.gen_range(0..info.attrs.len())];
        let pred = match rng.gen_range(0..3) {
            0 => Expr::col(col).eq(Expr::lit(rng.gen_range(0..domain))),
            1 => Expr::col(col).lt(Expr::lit(rng.gen_range(1..=domain))),
            _ => Expr::col(col).ge(Expr::lit(rng.gen_range(0..domain))),
        };
        b.table_scan_filtered(info.id, pred, true)
    } else {
        b.table_scan(info.id)
    };
    Shape::of_table(node, t, info)
}

fn gen_query(
    db: &Database,
    infos: &[TableInfo],
    prof: &Profile,
    rng: &mut SmallRng,
) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(db);
    // Start from one of the larger tables.
    let start = rng.gen_range(infos.len() / 2..infos.len());
    let mut shape = access_table(&mut b, rng, infos, start);
    let njoins = rng.gen_range(prof.joins.0..=prof.joins.1);
    // Rough running cardinality estimate: fk→pk joins preserve row counts,
    // pk←fk joins multiply by the referencing table's average fan-out. Used
    // only to veto joins that would explode the intermediate result.
    let mut est_rows = infos[start].rows as f64;
    const MAX_INTERMEDIATE: f64 = 80_000.0;
    // Skew-aware fan-out for pk←fk joins: Zipf-skewed foreign keys make the
    // hot key's duplicate run enormous, and chaining two skewed facts
    // through a shared dimension multiplies on that hot key. The geometric
    // mean of the average and the hottest-key fan-out is a cheap estimate
    // that vetoes those Zipf² blow-ups without forbidding skewed joins
    // entirely.
    let fanout_of = |e: &JoinEdge| -> f64 {
        if e.fk_to_pk {
            return 1.0;
        }
        let target = infos[e.table]
            .fks
            .iter()
            .find(|&&(c, _)| c == e.table_key)
            .map(|&(_, t)| t)
            .unwrap_or(0);
        let avg = infos[e.table].rows as f64 / infos[target].rows.max(1) as f64;
        let hot = db.stats(infos[e.table].id).columns[e.table_key]
            .histogram
            .buckets()
            .iter()
            .map(|b| b.eq_rows)
            .fold(1.0f64, f64::max);
        (avg * hot).sqrt().max(avg)
    };

    for _ in 0..njoins {
        let edges = join_edges(&shape, infos);
        // Veto edges whose projected cardinality explodes.
        let edges: Vec<JoinEdge> = edges
            .into_iter()
            .filter(|e| est_rows * fanout_of(e) <= MAX_INTERMEDIATE)
            .collect();
        if edges.is_empty() {
            break;
        }
        let e = &edges[rng.gen_range(0..edges.len())];
        est_rows *= fanout_of(e);
        let info = &infos[e.table];
        shape = if e.fk_to_pk && rng.gen_bool(0.5) {
            // Index nested loops into the new table's PK.
            let seek = b.index_seek(
                info.pk_index,
                SeekRange::eq(vec![SeekKey::OuterRef(e.shape_key)]),
            );
            let buffer = if rng.gen_bool(0.3) { 512 } else { 1 };
            let node = b.nested_loops(JoinKind::Inner, shape.node, seek, None, buffer);
            let mut cols = shape.cols.clone();
            cols.extend((0..info.arity).map(|c| Some((e.table, c))));
            Shape { node, cols }
        } else if rng.gen_bool(0.15) {
            // Merge join over explicit sorts.
            let new_scan = access_table(&mut b, rng, infos, e.table);
            let ls = b.sort(shape.node, vec![SortKey::asc(e.shape_key)]);
            let rs = b.sort(new_scan.node, vec![SortKey::asc(e.table_key)]);
            let node = b.merge_join(
                JoinKind::Inner,
                ls,
                rs,
                vec![e.shape_key],
                vec![e.table_key],
            );
            let mut cols = shape.cols.clone();
            cols.extend(new_scan.cols);
            Shape { node, cols }
        } else {
            // Hash join; new table is the build side.
            let new_scan = access_table(&mut b, rng, infos, e.table);
            let node = b.hash_join(
                JoinKind::Inner,
                new_scan.node,
                shape.node,
                vec![e.table_key],
                vec![e.shape_key],
            );
            // probe (shape) ++ build (new table)
            let mut cols = shape.cols.clone();
            cols.extend(new_scan.cols);
            Shape { node, cols }
        };
        // Occasional residual filter / exchange between joins.
        if rng.gen_bool(0.25) {
            if let Some(pred) = random_filter(rng, infos, &shape) {
                let node = b.filter(shape.node, pred);
                shape = Shape {
                    node,
                    cols: shape.cols,
                };
            }
        }
        if rng.gen_bool(0.12) {
            let node = b.exchange(shape.node, ExchangeKind::RepartitionStreams, 4);
            shape = Shape {
                node,
                cols: shape.cols,
            };
        }
    }

    // Nested aggregate subquery through a spool (REAL-1's signature shape):
    // aggregate a related table by its FK and join the result back.
    if rng.gen_bool(prof.subquery_prob) {
        let included = shape.tables();
        // Find a table with an FK to an included table.
        let candidate = infos.iter().enumerate().find_map(|(t, info)| {
            info.fks
                .iter()
                .find(|&&(_, target)| included.contains(&target))
                .map(|&(fk_col, target)| (t, fk_col, target))
        });
        if let Some((t, fk_col, target)) = candidate {
            if let Some(ord) = shape.find(target, 0) {
                let sub = b.table_scan(infos[t].id);
                let agg = b.hash_aggregate(
                    sub,
                    vec![fk_col],
                    vec![Aggregate::of_col(AggFunc::Count, 0)],
                );
                let spool = b.spool(agg, false);
                // probe shape ++ build (grouped subquery): +2 columns.
                let node = b.hash_join(JoinKind::Inner, spool, shape.node, vec![0], vec![ord]);
                let mut cols = shape.cols.clone();
                cols.extend([None, None]);
                shape = Shape { node, cols };
            }
        }
    }

    // Final shaping: group-by (possibly) + order.
    let root = if rng.gen_bool(prof.groupby_prob) {
        // Group on 1–2 attribute columns present in the output.
        let mut group_cols = Vec::new();
        let tables = shape.tables();
        for _ in 0..rng.gen_range(1..=2) {
            let t = tables[rng.gen_range(0..tables.len())];
            if infos[t].attrs.is_empty() {
                continue;
            }
            let (c, _) = infos[t].attrs[rng.gen_range(0..infos[t].attrs.len())];
            if let Some(ord) = shape.find(t, c) {
                group_cols.push(ord);
            }
        }
        group_cols.sort_unstable();
        group_cols.dedup();
        if group_cols.is_empty() {
            group_cols.push(0);
        }
        let n_groups = group_cols.len();
        let agg = b.hash_aggregate(shape.node, group_cols, vec![Aggregate::count_star()]);
        if rng.gen_bool(0.5) {
            b.sort(agg, vec![SortKey::desc(n_groups)])
        } else {
            agg
        }
    } else if rng.gen_bool(0.4) {
        b.top_n_sort(shape.node, 100, vec![SortKey::asc(0)])
    } else {
        shape.node
    };
    b.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::{execute, ExecOptions};
    use lqs_plan::PhysicalOp;

    fn small_scale() -> WorkloadScale {
        WorkloadScale {
            data_scale: 0.15,
            query_limit: usize::MAX,
            seed: 11,
        }
    }

    #[test]
    fn real1_profile_counts() {
        let mut scale = small_scale();
        scale.query_limit = 25;
        let w = workload(RealProfile::Real1, scale);
        assert_eq!(w.name, "REAL-1");
        assert_eq!(w.queries.len(), 25);
        // Queries have the advertised join complexity: count join nodes.
        let avg_joins: f64 = w
            .queries
            .iter()
            .map(|q| {
                q.plan
                    .nodes()
                    .iter()
                    .filter(|n| {
                        matches!(
                            n.op,
                            PhysicalOp::HashJoin { .. }
                                | PhysicalOp::MergeJoin { .. }
                                | PhysicalOp::NestedLoops { .. }
                        )
                    })
                    .count() as f64
            })
            .sum::<f64>()
            / w.queries.len() as f64;
        assert!(avg_joins >= 3.0, "avg joins {avg_joins}");
    }

    #[test]
    fn real_queries_execute() {
        for p in [RealProfile::Real1, RealProfile::Real2, RealProfile::Real3] {
            let mut scale = small_scale();
            scale.query_limit = 8;
            let w = workload(p, scale);
            for q in &w.queries {
                let run = execute(&w.db, &q.plan, &ExecOptions::default());
                assert!(run.duration_ns > 0, "{} did no work", q.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut s = small_scale();
        s.query_limit = 3;
        let a = workload(RealProfile::Real3, s);
        let b = workload(RealProfile::Real3, s);
        assert_eq!(a.queries.len(), b.queries.len());
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.plan.display_tree(), qb.plan.display_tree());
        }
    }

    #[test]
    fn real3_always_groups() {
        let mut s = small_scale();
        s.query_limit = 10;
        let w = workload(RealProfile::Real3, s);
        for q in &w.queries {
            assert!(
                q.plan
                    .nodes()
                    .iter()
                    .any(|n| matches!(n.op, PhysicalOp::HashAggregate { .. })),
                "{} lacks a group-by",
                q.name
            );
        }
    }
}
