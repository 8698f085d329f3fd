//! TPC-DS-shaped decision-support workload: a retail star schema with the
//! query shapes the paper's figures single out — Q13 (a high-reduction hash
//! aggregate, Figure 11), Q21 (a 6-pipeline plan whose pipeline weights
//! differ by over an order of magnitude, Figure 12) and Q36 (Figure 13) —
//! plus a broader mix of star joins.

use crate::rng::{seeded, Zipf};
use crate::suite::{NamedQuery, Workload, WorkloadScale};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, JoinKind, PlanBuilder, SeekKey, SeekRange, SortKey,
};
use lqs_storage::{Column, DataType, Database, IndexId, Schema, Table, TableId, Value};
use rand::Rng;

/// Catalog handles for the generated TPC-DS-shaped database.
pub struct TpcdsDb {
    /// The database.
    pub db: Database,
    /// date_dim(d_datekey, d_year, d_moy, d_dom) — 1825 days.
    pub(crate) date_dim: TableId,
    /// item(i_itemkey, i_brand, i_category, i_price)
    pub(crate) item: TableId,
    /// customer(cu_custkey, cu_demo, cu_state, cu_income)
    pub(crate) customer: TableId,
    /// store(st_storekey, st_state, st_size)
    pub(crate) store: TableId,
    /// promotion(p_promokey, p_channel)
    pub(crate) promotion: TableId,
    /// warehouse(w_warehousekey, w_state)
    pub(crate) warehouse: TableId,
    /// store_sales(ss_datekey, ss_itemkey, ss_custkey, ss_storekey,
    /// ss_promokey, ss_qty, ss_price, ss_netpaid)
    pub store_sales: TableId,
    /// inventory(inv_datekey, inv_itemkey, inv_warehousekey, inv_qty)
    pub(crate) inventory: TableId,
    /// Clustered PK indexes on the dimension tables.
    pub customer_pk: IndexId,
    /// Clustered PK index on item.
    pub(crate) item_pk: IndexId,
    /// Clustered PK index on store.
    pub(crate) store_pk: IndexId,
}

/// Number of days in date_dim (5 years).
pub(crate) const DAYS: i64 = 1825;

/// Generate the database.
pub fn build_db(scale: WorkloadScale) -> TpcdsDb {
    let s = scale.data_scale;
    let n_ss = (40_000.0 * s) as i64;
    let n_inv = (30_000.0 * s) as i64;
    let n_item = (1_000.0 * s).max(80.0) as i64;
    let n_cust = (2_000.0 * s).max(100.0) as i64;
    let mut rng = seeded(scale.seed ^ 0xd5);

    let mut date_dim = Table::new(
        "date_dim",
        Schema::new(vec![
            Column::new("d_datekey", DataType::Int),
            Column::new("d_year", DataType::Int),
            Column::new("d_moy", DataType::Int),
            Column::new("d_dom", DataType::Int),
        ]),
    );
    for d in 0..DAYS {
        date_dim
            .insert(vec![
                Value::Int(d),
                Value::Int(2019 + d / 365),
                Value::Int((d / 30) % 12 + 1),
                Value::Int(d % 30 + 1),
            ])
            .unwrap();
    }

    let mut item = Table::new(
        "item",
        Schema::new(vec![
            Column::new("i_itemkey", DataType::Int),
            Column::new("i_brand", DataType::Int),
            Column::new("i_category", DataType::Int),
            Column::new("i_price", DataType::Float),
        ]),
    );
    for i in 0..n_item {
        item.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..50)),
            Value::Int(rng.gen_range(0..10)),
            Value::Float(rng.gen_range(1.0..300.0)),
        ])
        .unwrap();
    }

    let mut customer = Table::new(
        "customer",
        Schema::new(vec![
            Column::new("cu_custkey", DataType::Int),
            Column::new("cu_demo", DataType::Int),
            Column::new("cu_state", DataType::Int),
            Column::new("cu_income", DataType::Int),
        ]),
    );
    for i in 0..n_cust {
        customer
            .insert(vec![
                Value::Int(i),
                Value::Int(rng.gen_range(0..20)),
                Value::Int(rng.gen_range(0..50)),
                Value::Int(rng.gen_range(0..120_000)),
            ])
            .unwrap();
    }

    let mut store = Table::new(
        "store",
        Schema::new(vec![
            Column::new("st_storekey", DataType::Int),
            Column::new("st_state", DataType::Int),
            Column::new("st_size", DataType::Int),
        ]),
    );
    for i in 0..20 {
        store
            .insert(vec![
                Value::Int(i),
                Value::Int(rng.gen_range(0..50)),
                Value::Int(rng.gen_range(1000..50_000)),
            ])
            .unwrap();
    }

    let mut promotion = Table::new(
        "promotion",
        Schema::new(vec![
            Column::new("p_promokey", DataType::Int),
            Column::new("p_channel", DataType::Int),
        ]),
    );
    for i in 0..60 {
        promotion
            .insert(vec![Value::Int(i), Value::Int(rng.gen_range(0..4))])
            .unwrap();
    }

    let mut warehouse = Table::new(
        "warehouse",
        Schema::new(vec![
            Column::new("w_warehousekey", DataType::Int),
            Column::new("w_state", DataType::Int),
        ]),
    );
    for i in 0..15 {
        warehouse
            .insert(vec![Value::Int(i), Value::Int(rng.gen_range(0..50))])
            .unwrap();
    }

    let item_zipf = Zipf::new(n_item as usize, 1.0);
    let cust_zipf = Zipf::new(n_cust as usize, 1.0);
    let mut store_sales = Table::new(
        "store_sales",
        Schema::new(vec![
            Column::new("ss_datekey", DataType::Int),
            Column::new("ss_itemkey", DataType::Int),
            Column::new("ss_custkey", DataType::Int),
            Column::new("ss_storekey", DataType::Int),
            Column::new("ss_promokey", DataType::Int),
            Column::new("ss_qty", DataType::Int),
            Column::new("ss_price", DataType::Float),
            Column::new("ss_netpaid", DataType::Float),
        ]),
    );
    for _ in 0..n_ss {
        let qty = rng.gen_range(1..100);
        let price: f64 = rng.gen_range(1.0..300.0);
        store_sales
            .insert(vec![
                Value::Int(rng.gen_range(0..DAYS)),
                Value::Int(item_zipf.sample(&mut rng) as i64),
                Value::Int(cust_zipf.sample(&mut rng) as i64),
                Value::Int(rng.gen_range(0..20)),
                Value::Int(rng.gen_range(0..60)),
                Value::Int(qty),
                Value::Float(price),
                Value::Float(price * qty as f64 * rng.gen_range(0.5..1.0)),
            ])
            .unwrap();
    }

    let mut inventory = Table::new(
        "inventory",
        Schema::new(vec![
            Column::new("inv_datekey", DataType::Int),
            Column::new("inv_itemkey", DataType::Int),
            Column::new("inv_warehousekey", DataType::Int),
            Column::new("inv_qty", DataType::Int),
        ]),
    );
    for _ in 0..n_inv {
        inventory
            .insert(vec![
                Value::Int(rng.gen_range(0..DAYS)),
                Value::Int(item_zipf.sample(&mut rng) as i64),
                Value::Int(rng.gen_range(0..15)),
                Value::Int(rng.gen_range(0..1000)),
            ])
            .unwrap();
    }

    let mut db = Database::new();
    let date_dim = db.add_table_analyzed(date_dim);
    let item = db.add_table_analyzed(item);
    let customer = db.add_table_analyzed(customer);
    let store = db.add_table_analyzed(store);
    let promotion = db.add_table_analyzed(promotion);
    let warehouse = db.add_table_analyzed(warehouse);
    let store_sales = db.add_table_analyzed(store_sales);
    let inventory = db.add_table_analyzed(inventory);
    let customer_pk = db.create_btree_index("pk_customer", customer, vec![0]);
    let item_pk = db.create_btree_index("pk_item", item, vec![0]);
    let store_pk = db.create_btree_index("pk_store", store, vec![0]);
    // No query seeks store_sales(ss_itemkey); the index stays in the design.
    db.create_btree_index("ix_ss_item", store_sales, vec![1]);

    TpcdsDb {
        db,
        date_dim,
        item,
        customer,
        store,
        promotion,
        warehouse,
        store_sales,
        inventory,
        customer_pk,
        item_pk,
        store_pk,
    }
}

/// Build the full workload (db + queries).
pub fn workload(scale: WorkloadScale) -> Workload {
    let t = build_db(scale);
    let queries = queries(&t);
    Workload {
        name: "TPC-DS",
        db: t.db,
        queries,
    }
}

fn nq(name: &str, plan: lqs_plan::PhysicalPlan) -> NamedQuery {
    NamedQuery {
        name: name.to_string(),
        plan,
    }
}

/// The Figure 11 plan: a big probe into a scalar hash aggregate whose output
/// is a single row — the worst case for output-only blocking progress.
pub fn q13_plan(t: &TpcdsDb) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(&t.db);
    let cust = b.table_scan_filtered(t.customer, Expr::col(1).lt(Expr::lit(10i64)), true);
    let ss = b.table_scan_filtered(
        t.store_sales,
        Expr::col(5)
            .ge(Expr::lit(5i64))
            .and(Expr::col(6).lt(Expr::lit(250.0))),
        true,
    );
    // probe ss ++ build customer: ss(0..8) ++ customer(8..12)
    let jc = b.hash_join(JoinKind::Inner, cust, ss, vec![0], vec![2]);
    let store = b.table_scan(t.store);
    // probe jc ++ build store: jc(0..12) ++ store(12..15)
    let js = b.hash_join(JoinKind::Inner, store, jc, vec![0], vec![3]);
    let agg = b.hash_aggregate(
        js,
        vec![],
        vec![
            Aggregate::of_col(AggFunc::Avg, 5),
            Aggregate::of_col(AggFunc::Avg, 6),
            Aggregate::of_col(AggFunc::Sum, 7),
            Aggregate::count_star(),
        ],
    );
    b.finish(agg)
}

/// The Figure 12 plan (Q21-shape): 6 pipelines with weights differing by
/// more than an order of magnitude — three cheap dimension build pipelines,
/// one expensive probe pipeline, the aggregate's output and a final sort.
pub fn q21_plan(t: &TpcdsDb) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(&t.db);
    let date = b.table_scan_filtered(
        t.date_dim,
        Expr::col(0)
            .ge(Expr::lit(DAYS / 2 - 30))
            .and(Expr::col(0).le(Expr::lit(DAYS / 2 + 30))),
        true,
    );
    let inv = b.table_scan(t.inventory);
    // probe inventory ++ build date: inv(0..4) ++ date(4..8)
    let jd = b.hash_join(JoinKind::Inner, date, inv, vec![0], vec![0]);
    let item = b.table_scan(t.item);
    // probe jd ++ build item: jd(0..8) ++ item(8..12)
    let ji = b.hash_join(JoinKind::Inner, item, jd, vec![0], vec![1]);
    let wh = b.table_scan(t.warehouse);
    // probe ji ++ build warehouse: ji(0..12) ++ warehouse(12..14)
    let jw = b.hash_join(JoinKind::Inner, wh, ji, vec![0], vec![2]);
    let agg = b.hash_aggregate(jw, vec![12, 8], vec![Aggregate::of_col(AggFunc::Sum, 3)]);
    let sort = b.sort(agg, vec![SortKey::asc(0), SortKey::asc(1)]);
    b.finish(sort)
}

/// The Figure 13 plan (Q36-shape): sales by category/state rollup.
pub fn q36_plan(t: &TpcdsDb) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(&t.db);
    let ss = b.table_scan(t.store_sales);
    let item = b.table_scan(t.item);
    // probe ss ++ build item: ss(0..8) ++ item(8..12)
    let ji = b.hash_join(JoinKind::Inner, item, ss, vec![0], vec![1]);
    let store = b.table_scan(t.store);
    // probe ji ++ build store: ji(0..12) ++ store(12..15)
    let js = b.hash_join(JoinKind::Inner, store, ji, vec![0], vec![3]);
    let agg = b.hash_aggregate(
        js,
        vec![10, 13],
        vec![
            Aggregate::of_col(AggFunc::Sum, 7),
            Aggregate::of_col(AggFunc::Sum, 6),
        ],
    );
    let ratio = b.compute_scalar(
        agg,
        vec![Expr::Arith {
            op: lqs_plan::ArithOp::Div,
            lhs: Box::new(Expr::col(2)),
            rhs: Box::new(Expr::col(3)),
        }],
    );
    let top = b.top_n_sort(ratio, 100, vec![SortKey::desc(4)]);
    b.finish(top)
}

/// All 12 query plans.
pub fn queries(t: &TpcdsDb) -> Vec<NamedQuery> {
    let mut out = Vec::new();
    out.push(nq("tpcds-q13", q13_plan(t)));
    out.push(nq("tpcds-q21", q21_plan(t)));
    out.push(nq("tpcds-q36", q36_plan(t)));

    // Q3: brand revenue by year for November.
    {
        let mut b = PlanBuilder::new(&t.db);
        let date = b.table_scan_filtered(t.date_dim, Expr::col(2).eq(Expr::lit(11i64)), true);
        let ss = b.table_scan(t.store_sales);
        // ss(0..8) ++ date(8..12)
        let jd = b.hash_join(JoinKind::Inner, date, ss, vec![0], vec![0]);
        let item = b.table_scan_filtered(t.item, Expr::col(1).lt(Expr::lit(25i64)), true);
        // jd(0..12) ++ item(12..16)
        let ji = b.hash_join(JoinKind::Inner, item, jd, vec![0], vec![1]);
        let agg = b.hash_aggregate(ji, vec![9, 13], vec![Aggregate::of_col(AggFunc::Sum, 7)]);
        let sort = b.sort(agg, vec![SortKey::asc(0), SortKey::desc(2)]);
        out.push(nq("tpcds-q03", b.finish(sort)));
    }

    // Q7: average quantities for a demographic + promotion slice.
    {
        let mut b = PlanBuilder::new(&t.db);
        let cust = b.table_scan_filtered(t.customer, Expr::col(1).eq(Expr::lit(5i64)), true);
        let ss = b.table_scan(t.store_sales);
        // ss(0..8) ++ cust(8..12)
        let jc = b.hash_join(JoinKind::Inner, cust, ss, vec![0], vec![2]);
        let promo = b.table_scan_filtered(t.promotion, Expr::col(1).lt(Expr::lit(2i64)), true);
        // jc(0..12) ++ promo(12..14)
        let jp = b.hash_join(JoinKind::Inner, promo, jc, vec![0], vec![4]);
        let item_seek = b.index_seek(t.item_pk, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
        // jp(0..14) ++ item(14..18)
        let ji = b.nested_loops(JoinKind::Inner, jp, item_seek, None, 128);
        let agg = b.hash_aggregate(
            ji,
            vec![14],
            vec![
                Aggregate::of_col(AggFunc::Avg, 5),
                Aggregate::of_col(AggFunc::Avg, 6),
            ],
        );
        let top = b.top_n_sort(agg, 100, vec![SortKey::asc(0)]);
        out.push(nq("tpcds-q07", b.finish(top)));
    }

    // Q19: brand revenue for a store state, customer joined by NL seek.
    {
        let mut b = PlanBuilder::new(&t.db);
        let ss = b.table_scan_filtered(t.store_sales, Expr::col(5).gt(Expr::lit(10i64)), true);
        let cust_seek = b.index_seek(t.customer_pk, SeekRange::eq(vec![SeekKey::OuterRef(2)]));
        // ss(0..8) ++ cust(8..12)
        let jc = b.nested_loops(JoinKind::Inner, ss, cust_seek, None, 512);
        let store_seek = b.index_seek(t.store_pk, SeekRange::eq(vec![SeekKey::OuterRef(3)]));
        // jc(0..12) ++ store(12..15)
        let js = b.nested_loops(JoinKind::Inner, jc, store_seek, None, 512);
        let sfilter = b.filter(js, Expr::col(13).lt(Expr::lit(25i64)));
        let item = b.table_scan(t.item);
        // sfilter(0..15) ++ item(15..19)
        let ji = b.hash_join(JoinKind::Inner, item, sfilter, vec![0], vec![1]);
        let agg = b.hash_aggregate(ji, vec![16], vec![Aggregate::of_col(AggFunc::Sum, 7)]);
        let sort = b.sort(agg, vec![SortKey::desc(1)]);
        out.push(nq("tpcds-q19", b.finish(sort)));
    }

    // Q25-like: merge join of two fact slices on item key (explicit sorts).
    {
        let mut b = PlanBuilder::new(&t.db);
        let ss = b.table_scan_filtered(t.store_sales, Expr::col(3).lt(Expr::lit(10i64)), true);
        let ss_sorted = b.sort(ss, vec![SortKey::asc(1)]);
        let inv = b.table_scan_filtered(t.inventory, Expr::col(3).gt(Expr::lit(500i64)), true);
        let inv_sorted = b.sort(inv, vec![SortKey::asc(1)]);
        // merge: ss(0..8) ++ inv(8..12)
        let m = b.merge_join(JoinKind::Inner, ss_sorted, inv_sorted, vec![1], vec![1]);
        let agg = b.stream_aggregate(m, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 5)]);
        let top = b.top_n_sort(agg, 50, vec![SortKey::desc(1)]);
        out.push(nq("tpcds-q25", b.finish(top)));
    }

    // Q42: category revenue by year via exchange-parallel aggregation.
    {
        let mut b = PlanBuilder::new(&t.db);
        let date = b.table_scan(t.date_dim);
        let ss = b.table_scan(t.store_sales);
        let jd = b.hash_join(JoinKind::Inner, date, ss, vec![0], vec![0]);
        let item = b.table_scan(t.item);
        let ji = b.hash_join(JoinKind::Inner, item, jd, vec![0], vec![1]);
        let ex = b.exchange(ji, ExchangeKind::RepartitionStreams, 8);
        let agg = b.hash_aggregate(ex, vec![9, 14], vec![Aggregate::of_col(AggFunc::Sum, 7)]);
        let ga = b.exchange(agg, ExchangeKind::GatherStreams, 8);
        let sort = b.sort(ga, vec![SortKey::desc(2)]);
        out.push(nq("tpcds-q42", b.finish(sort)));
    }

    // Q52-like: brand revenue for one month, semi-join on promoted items.
    {
        let mut b = PlanBuilder::new(&t.db);
        let promo_items =
            b.table_scan_filtered(t.store_sales, Expr::col(4).lt(Expr::lit(10i64)), true);
        let ss = b.table_scan(t.store_sales);
        // semi: probe ss against promoted item keys
        let semi = b.hash_join(JoinKind::LeftSemi, promo_items, ss, vec![1], vec![1]);
        let agg = b.hash_aggregate(semi, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 7)]);
        let top = b.top_n_sort(agg, 100, vec![SortKey::desc(1)]);
        out.push(nq("tpcds-q52", b.finish(top)));
    }

    // Q55: brand revenue, two-level aggregate with spooled subresult.
    {
        let mut b = PlanBuilder::new(&t.db);
        let ss = b.table_scan(t.store_sales);
        let per_item = b.hash_aggregate(ss, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 7)]);
        let spool = b.spool(per_item, false);
        let item = b.table_scan(t.item);
        // probe item ++ build spool: item(0..4) ++ per_item(4..6)
        let j = b.hash_join(JoinKind::Inner, spool, item, vec![0], vec![0]);
        let agg = b.hash_aggregate(j, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 5)]);
        let top = b.top_n_sort(agg, 25, vec![SortKey::desc(1)]);
        out.push(nq("tpcds-q55", b.finish(top)));
    }

    // Q82-like: items with inventory in a range that ever sold — anti join.
    {
        let mut b = PlanBuilder::new(&t.db);
        let inv = b.table_scan_filtered(
            t.inventory,
            Expr::col(3)
                .ge(Expr::lit(100i64))
                .and(Expr::col(3).le(Expr::lit(500i64))),
            true,
        );
        let ss = b.table_scan(t.store_sales);
        // anti: probe inventory rows with no sale of the same item
        let anti = b.hash_join(JoinKind::LeftAnti, ss, inv, vec![1], vec![1]);
        let item_seek = b.index_seek(t.item_pk, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
        // anti(0..4) ++ item(4..8)
        let ji = b.nested_loops(JoinKind::Inner, anti, item_seek, None, 64);
        let dist = b.add(
            lqs_plan::PhysicalOp::DistinctSort {
                keys: vec![SortKey::asc(4)],
            },
            vec![ji],
        );
        out.push(nq("tpcds-q82", b.finish(dist)));
    }

    // Q96-like: scalar count through buffered NL seeks.
    {
        let mut b = PlanBuilder::new(&t.db);
        let ss = b.table_scan_filtered(
            t.store_sales,
            Expr::col(0)
                .lt(Expr::lit(DAYS / 4))
                .and(Expr::col(5).gt(Expr::lit(50i64))),
            true,
        );
        let cust_seek = b.index_seek(t.customer_pk, SeekRange::eq(vec![SeekKey::OuterRef(2)]));
        let jc = b.nested_loops(JoinKind::Inner, ss, cust_seek, None, 4096);
        let ex = b.exchange(jc, ExchangeKind::GatherStreams, 4);
        let agg = b.stream_aggregate(ex, vec![], vec![Aggregate::count_star()]);
        out.push(nq("tpcds-q96", b.finish(agg)));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::{execute, ExecOptions};
    use lqs_plan::PipelineSet;

    fn scale() -> WorkloadScale {
        WorkloadScale {
            data_scale: 0.15,
            query_limit: usize::MAX,
            seed: 5,
        }
    }

    #[test]
    fn all_queries_execute() {
        let t = build_db(scale());
        for q in queries(&t) {
            let run = execute(&t.db, &q.plan, &ExecOptions::default());
            assert!(run.duration_ns > 0, "{} did no work", q.name);
        }
    }

    #[test]
    fn q13_is_high_reduction_aggregate() {
        let t = build_db(scale());
        let plan = q13_plan(&t);
        let run = execute(&t.db, &plan, &ExecOptions::default());
        // Scalar aggregate: one output row from thousands of inputs.
        assert_eq!(run.rows_returned, 1);
        let agg = plan.root();
        assert!(run.final_counters[agg.0].rows_input > 100);
    }

    #[test]
    fn q21_has_six_pipelines() {
        let t = build_db(scale());
        let plan = q21_plan(&t);
        let pipes = PipelineSet::decompose(&plan);
        // 3 hash-join builds + probe pipeline (sink = agg) + agg output
        // (sink = sort) + sort output = 6.
        assert_eq!(pipes.len(), 6);
    }

    #[test]
    fn q21_pipeline_weights_differ_by_order_of_magnitude() {
        let t = build_db(scale());
        let plan = q21_plan(&t);
        let statics = lqs_progress_statics_shim::build(&plan, &t.db);
        let durations = statics;
        let max = durations.iter().cloned().fold(0.0f64, f64::max);
        let positives: Vec<f64> = durations.iter().cloned().filter(|d| *d > 0.0).collect();
        let min = positives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "pipeline durations {durations:?}");
    }

    /// Minimal duplicate of the §4.6 pipeline-duration computation, to keep
    /// `lqs-workloads` free of a dev-dependency cycle on `lqs-progress`.
    mod lqs_progress_statics_shim {
        use lqs_plan::{PhysicalPlan, PipelineSet};
        use lqs_storage::Database;

        pub(super) fn build(plan: &PhysicalPlan, _db: &Database) -> Vec<f64> {
            let pipes = PipelineSet::decompose(plan);
            pipes
                .pipelines()
                .iter()
                .map(|p| {
                    p.nodes
                        .iter()
                        .map(|&n| {
                            let node = plan.node(n);
                            node.est_cpu_ns.max(node.est_io_pages * 40_000.0)
                        })
                        .sum()
                })
                .collect()
        }
    }
}
