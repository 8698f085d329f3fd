//! TPC-H-shaped workload with Zipf-skewed foreign keys (the paper evaluates
//! on TPC-H "with the data generated with a skew-parameter of Z = 1").
//!
//! Two physical designs reproduce the §5.4 experiment:
//! * [`PhysicalDesign::RowStore`] — clustered PK indexes plus the secondary
//!   indexes a tuning advisor recommends for this workload; plans use index
//!   seeks, nested loops, merge joins, sorts and exchanges.
//! * [`PhysicalDesign::Columnstore`] — a columnstore index on every large
//!   table; plans collapse to batch-mode columnstore scans + hash joins
//!   (Figure 19's operator-mix contrast).
//!
//! Queries are authored as plan shapes mirroring the corresponding TPC-H
//! queries' showplans; absolute semantics are simplified (no SQL frontend by
//! design) but operator mixes, pipeline structures and cardinality-error
//! opportunities match the originals.

use crate::rng::{seeded, string_pool, Zipf};
use crate::suite::{NamedQuery, Workload, WorkloadScale};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, IndexOutput, JoinKind, PhysicalOp, PlanBuilder,
    SeekKey, SeekRange, SortKey,
};
use lqs_storage::{
    Column, ColumnstoreId, DataType, Database, IndexId, Schema, Table, TableId, Value,
};
use rand::Rng;

/// Physical design variants for the §5.4 columnstore experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalDesign {
    /// B+tree clustered + secondary indexes (DTA-style).
    RowStore,
    /// Nonclustered columnstore index on every large table.
    Columnstore,
}

/// Catalog handles for the generated TPC-H database.
pub struct TpchDb {
    /// The database.
    pub db: Database,
    /// region(r_regionkey, r_name)
    pub(crate) region: TableId,
    /// nation(n_nationkey, n_regionkey, n_name)
    pub(crate) nation: TableId,
    /// supplier(s_suppkey, s_nationkey, s_acctbal)
    pub(crate) supplier: TableId,
    /// customer(c_custkey, c_nationkey, c_mktsegment, c_acctbal)
    pub(crate) customer: TableId,
    /// part(p_partkey, p_brand, p_type, p_size, p_retailprice)
    pub(crate) part: TableId,
    /// partsupp(ps_partkey, ps_suppkey, ps_supplycost)
    pub(crate) partsupp: TableId,
    /// orders(o_orderkey, o_custkey, o_orderdate, o_totalprice, o_orderpriority)
    pub(crate) orders: TableId,
    /// lineitem(l_orderkey, l_linenumber, l_partkey, l_suppkey, l_quantity,
    /// l_extendedprice, l_discount, l_shipdate, l_returnflag, l_linestatus)
    pub(crate) lineitem: TableId,
    /// Row-store secondary indexes (present in `RowStore` design).
    pub(crate) ix: Option<RowIndexes>,
    /// Columnstore indexes (present in `Columnstore` design).
    pub(crate) cs: Option<CsIndexes>,
    /// The design the database was built with.
    pub(crate) design: PhysicalDesign,
}

/// Secondary B+tree indexes of the row-store design.
pub(crate) struct RowIndexes {
    /// orders clustered on o_orderkey.
    pub(crate) orders_pk: IndexId,
    /// orders(o_custkey).
    pub(crate) orders_custkey: IndexId,
    /// lineitem clustered on (l_orderkey, l_linenumber).
    pub(crate) lineitem_pk: IndexId,
    /// customer clustered on c_custkey.
    pub(crate) customer_pk: IndexId,
    /// supplier clustered on s_suppkey.
    pub(crate) supplier_pk: IndexId,
    /// part clustered on p_partkey.
    pub(crate) part_pk: IndexId,
}

/// Columnstore indexes of the columnstore design.
pub(crate) struct CsIndexes {
    /// Columnstore over lineitem.
    pub(crate) lineitem: ColumnstoreId,
    /// Columnstore over orders.
    pub(crate) orders: ColumnstoreId,
    /// Columnstore over customer.
    pub(crate) customer: ColumnstoreId,
    /// Columnstore over part.
    pub(crate) part: ColumnstoreId,
    /// Columnstore over partsupp.
    pub(crate) partsupp: ColumnstoreId,
    /// Columnstore over supplier.
    pub(crate) supplier: ColumnstoreId,
}

/// Days in the simulated 7-year order-date domain.
pub(crate) const DATE_DOMAIN: i32 = 2555;

/// Generate the TPC-H database at `scale.data_scale` with Zipf z=1 skew.
pub fn build_db(scale: WorkloadScale, design: PhysicalDesign) -> TpchDb {
    build_db_with_skew(scale, design, 1.0)
}

/// Generate with an explicit Zipf exponent.
pub(crate) fn build_db_with_skew(scale: WorkloadScale, design: PhysicalDesign, z: f64) -> TpchDb {
    let s = scale.data_scale;
    let n_lineitem = (28_000.0 * s) as i64;
    let n_orders = (7_000.0 * s) as i64;
    let n_customer = (700.0 * s).max(50.0) as i64;
    let n_part = (900.0 * s).max(60.0) as i64;
    let n_supplier = (60.0 * s).max(10.0) as i64;
    let n_partsupp = n_part * 4;
    let mut rng = seeded(scale.seed ^ 0x7c48);
    let names = string_pool(&mut rng, 64, 18);

    let mut region = Table::new(
        "region",
        Schema::new(vec![
            Column::new("r_regionkey", DataType::Int),
            Column::new("r_name", DataType::Str),
        ]),
    );
    for i in 0..5 {
        region
            .insert(vec![Value::Int(i), Value::str(names[i as usize].as_str())])
            .unwrap();
    }

    let mut nation = Table::new(
        "nation",
        Schema::new(vec![
            Column::new("n_nationkey", DataType::Int),
            Column::new("n_regionkey", DataType::Int),
            Column::new("n_name", DataType::Str),
        ]),
    );
    for i in 0..25 {
        nation
            .insert(vec![
                Value::Int(i),
                Value::Int(i % 5),
                Value::str(names[(i + 5) as usize].as_str()),
            ])
            .unwrap();
    }

    let mut supplier = Table::new(
        "supplier",
        Schema::new(vec![
            Column::new("s_suppkey", DataType::Int),
            Column::new("s_nationkey", DataType::Int),
            Column::new("s_acctbal", DataType::Float),
        ]),
    );
    for i in 0..n_supplier {
        supplier
            .insert(vec![
                Value::Int(i),
                Value::Int(rng.gen_range(0..25)),
                Value::Float(rng.gen_range(-999.0..10_000.0)),
            ])
            .unwrap();
    }

    let mut customer = Table::new(
        "customer",
        Schema::new(vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_nationkey", DataType::Int),
            Column::new("c_mktsegment", DataType::Int),
            Column::new("c_acctbal", DataType::Float),
        ]),
    );
    for i in 0..n_customer {
        customer
            .insert(vec![
                Value::Int(i),
                Value::Int(rng.gen_range(0..25)),
                Value::Int(rng.gen_range(0..5)),
                Value::Float(rng.gen_range(-999.0..10_000.0)),
            ])
            .unwrap();
    }

    let mut part = Table::new(
        "part",
        Schema::new(vec![
            Column::new("p_partkey", DataType::Int),
            Column::new("p_brand", DataType::Int),
            Column::new("p_type", DataType::Int),
            Column::new("p_size", DataType::Int),
            Column::new("p_retailprice", DataType::Float),
        ]),
    );
    for i in 0..n_part {
        part.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..25)),
            Value::Int(rng.gen_range(0..150)),
            Value::Int(rng.gen_range(1..51)),
            Value::Float(900.0 + (i % 200) as f64),
        ])
        .unwrap();
    }

    let mut partsupp = Table::new(
        "partsupp",
        Schema::new(vec![
            Column::new("ps_partkey", DataType::Int),
            Column::new("ps_suppkey", DataType::Int),
            Column::new("ps_supplycost", DataType::Float),
        ]),
    );
    for i in 0..n_partsupp {
        partsupp
            .insert(vec![
                Value::Int(i % n_part),
                Value::Int(rng.gen_range(0..n_supplier)),
                Value::Float(rng.gen_range(1.0..1000.0)),
            ])
            .unwrap();
    }

    // Skewed foreign keys on the fact tables.
    let cust_zipf = Zipf::new(n_customer as usize, z);
    let part_zipf = Zipf::new(n_part as usize, z);
    let supp_zipf = Zipf::new(n_supplier as usize, z);

    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            Column::new("o_orderkey", DataType::Int),
            Column::new("o_custkey", DataType::Int),
            Column::new("o_orderdate", DataType::Date),
            Column::new("o_totalprice", DataType::Float),
            Column::new("o_orderpriority", DataType::Int),
        ]),
    );
    for i in 0..n_orders {
        orders
            .insert(vec![
                Value::Int(i),
                Value::Int(cust_zipf.sample(&mut rng) as i64),
                Value::Date(rng.gen_range(0..DATE_DOMAIN)),
                Value::Float(rng.gen_range(800.0..500_000.0)),
                Value::Int(rng.gen_range(0..5)),
            ])
            .unwrap();
    }

    let mut lineitem = Table::new(
        "lineitem",
        Schema::new(vec![
            Column::new("l_orderkey", DataType::Int),
            Column::new("l_linenumber", DataType::Int),
            Column::new("l_partkey", DataType::Int),
            Column::new("l_suppkey", DataType::Int),
            Column::new("l_quantity", DataType::Int),
            Column::new("l_extendedprice", DataType::Float),
            Column::new("l_discount", DataType::Float),
            Column::new("l_shipdate", DataType::Date),
            Column::new("l_returnflag", DataType::Int),
            Column::new("l_linestatus", DataType::Int),
        ]),
    );
    for i in 0..n_lineitem {
        let orderkey = i * n_orders / n_lineitem; // ~4 lines per order, clustered
        lineitem
            .insert(vec![
                Value::Int(orderkey),
                Value::Int(i % 7),
                Value::Int(part_zipf.sample(&mut rng) as i64),
                Value::Int(supp_zipf.sample(&mut rng) as i64),
                Value::Int(rng.gen_range(1..51)),
                Value::Float(rng.gen_range(900.0..105_000.0)),
                Value::Float(rng.gen_range(0.0..0.11)),
                Value::Date(rng.gen_range(0..DATE_DOMAIN)),
                Value::Int(rng.gen_range(0..3)),
                Value::Int(rng.gen_range(0..2)),
            ])
            .unwrap();
    }

    let mut db = Database::new();
    let region = db.add_table_analyzed(region);
    let nation = db.add_table_analyzed(nation);
    let supplier = db.add_table_analyzed(supplier);
    let customer = db.add_table_analyzed(customer);
    let part = db.add_table_analyzed(part);
    let partsupp = db.add_table_analyzed(partsupp);
    let orders = db.add_table_analyzed(orders);
    let lineitem = db.add_table_analyzed(lineitem);

    let (ix, cs) = match design {
        PhysicalDesign::RowStore => {
            // No query seeks the `ix_o_orderdate`, `ix_l_*` or
            // `ix_ps_partkey` indexes, but the design still carries them (and
            // in this order, which fixes every `IndexId`).
            let orders_pk = db.create_btree_index("pk_orders", orders, vec![0]);
            let orders_custkey = db.create_btree_index("ix_o_custkey", orders, vec![1]);
            db.create_btree_index("ix_o_orderdate", orders, vec![2]);
            let lineitem_pk = db.create_btree_index("pk_lineitem", lineitem, vec![0, 1]);
            db.create_btree_index("ix_l_partkey", lineitem, vec![2]);
            db.create_btree_index("ix_l_suppkey", lineitem, vec![3]);
            db.create_btree_index("ix_l_shipdate", lineitem, vec![7]);
            let ix = RowIndexes {
                orders_pk,
                orders_custkey,
                lineitem_pk,
                customer_pk: db.create_btree_index("pk_customer", customer, vec![0]),
                supplier_pk: db.create_btree_index("pk_supplier", supplier, vec![0]),
                part_pk: db.create_btree_index("pk_part", part, vec![0]),
            };
            db.create_btree_index("ix_ps_partkey", partsupp, vec![0]);
            (Some(ix), None)
        }
        PhysicalDesign::Columnstore => {
            let cs = CsIndexes {
                lineitem: db.create_columnstore_index("cs_lineitem", lineitem),
                orders: db.create_columnstore_index("cs_orders", orders),
                customer: db.create_columnstore_index("cs_customer", customer),
                part: db.create_columnstore_index("cs_part", part),
                partsupp: db.create_columnstore_index("cs_partsupp", partsupp),
                supplier: db.create_columnstore_index("cs_supplier", supplier),
            };
            (None, Some(cs))
        }
    };

    TpchDb {
        db,
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
        ix,
        cs,
        design,
    }
}

/// Build the workload: database + query set for the given design.
pub fn workload(scale: WorkloadScale, design: PhysicalDesign) -> Workload {
    let tpch = build_db(scale, design);
    let queries = queries(&tpch);
    Workload {
        name: match design {
            PhysicalDesign::RowStore => "TPC-H",
            PhysicalDesign::Columnstore => "TPC-H ColumnStore",
        },
        db: tpch.db,
        queries,
    }
}

/// All query plans for the database's physical design.
pub fn queries(t: &TpchDb) -> Vec<NamedQuery> {
    match t.design {
        PhysicalDesign::RowStore => row_queries(t),
        PhysicalDesign::Columnstore => cs_queries(t),
    }
}

fn nq(name: &str, plan: lqs_plan::PhysicalPlan) -> NamedQuery {
    NamedQuery {
        name: name.to_string(),
        plan,
    }
}

/// Revenue expression `l_extendedprice * (1 - l_discount)` given the two
/// column ordinals.
fn revenue(extprice: usize, discount: usize) -> Expr {
    Expr::Arith {
        op: lqs_plan::ArithOp::Mul,
        lhs: Box::new(Expr::col(extprice)),
        rhs: Box::new(Expr::Arith {
            op: lqs_plan::ArithOp::Sub,
            lhs: Box::new(Expr::lit(1.0)),
            rhs: Box::new(Expr::col(discount)),
        }),
    }
}

// ---------------------------------------------------------------------------
// Row-store design queries
// ---------------------------------------------------------------------------

fn row_queries(t: &TpchDb) -> Vec<NamedQuery> {
    let ix = t.ix.as_ref().expect("row design");
    let mut out = Vec::new();

    // Q1: pricing summary — big scan, pushed date filter, hash agg, sort.
    {
        let mut b = PlanBuilder::new(&t.db);
        let scan = b.table_scan_filtered(
            t.lineitem,
            Expr::col(7).le(Expr::lit(Value::Date(DATE_DOMAIN - 90))),
            true,
        );
        let rev = b.compute_scalar(scan, vec![revenue(5, 6)]); // col 10
        let agg = b.hash_aggregate(
            rev,
            vec![8, 9],
            vec![
                Aggregate::of_col(AggFunc::Sum, 4),
                Aggregate::of_col(AggFunc::Sum, 5),
                Aggregate::of_col(AggFunc::Sum, 10),
                Aggregate::of_col(AggFunc::Avg, 4),
                Aggregate::count_star(),
            ],
        );
        let sort = b.sort(agg, vec![SortKey::asc(0), SortKey::asc(1)]);
        out.push(nq("tpch-q01", b.finish(sort)));
    }

    // Q3: shipping priority — customer → orders (index NL) → lineitem
    // (index NL), buffered loops, top-N.
    {
        let mut b = PlanBuilder::new(&t.db);
        let cust = b.table_scan_filtered(t.customer, Expr::col(2).eq(Expr::lit(3i64)), true);
        let ord_seek = b.index_seek(ix.orders_custkey, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
        // customer(0..4) ++ orders(4..9)
        let j1 = b.nested_loops(JoinKind::Inner, cust, ord_seek, None, 256);
        let date_filter = b.filter(j1, Expr::col(6).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2))));
        let li_seek = b.index_seek(ix.lineitem_pk, SeekRange::eq(vec![SeekKey::OuterRef(4)]));
        // prev(0..9) ++ lineitem(9..19)
        let j2 = b.nested_loops(JoinKind::Inner, date_filter, li_seek, None, 256);
        let ship_filter = b.filter(
            j2,
            Expr::col(16).gt(Expr::lit(Value::Date(DATE_DOMAIN / 2))),
        );
        let rev = b.compute_scalar(ship_filter, vec![revenue(14, 15)]); // col 19
        let agg = b.hash_aggregate(rev, vec![9, 6], vec![Aggregate::of_col(AggFunc::Sum, 19)]);
        let top = b.top_n_sort(agg, 10, vec![SortKey::desc(2)]);
        out.push(nq("tpch-q03", b.finish(top)));
    }

    // Q5: local supplier volume — 6-table join chain of hash joins.
    {
        let mut b = PlanBuilder::new(&t.db);
        let region = b.table_scan_filtered(t.region, Expr::col(0).eq(Expr::lit(2i64)), true);
        let nation = b.table_scan(t.nation);
        // probe nation ++ build region: nation(0..3) region(3..5)
        let jn = b.hash_join(JoinKind::Inner, region, nation, vec![0], vec![1]);
        let supplier = b.table_scan(t.supplier);
        // supplier(0..3) ++ jn(3..8)
        let js = b.hash_join(JoinKind::Inner, jn, supplier, vec![0], vec![1]);
        let lineitem = b.table_scan(t.lineitem);
        // lineitem(0..10) ++ js(10..18)
        let jl = b.hash_join(JoinKind::Inner, js, lineitem, vec![0], vec![3]);
        let orders = b.table_scan_filtered(
            t.orders,
            Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 3))),
            true,
        );
        // jl(0..18) ++ orders(18..23)  (probe = jl on l_orderkey)
        let jo = b.hash_join(JoinKind::Inner, orders, jl, vec![0], vec![0]);
        let customer = b.table_scan(t.customer);
        // customer(0..4) ++ jo(4..27)
        let jc = b.hash_join(JoinKind::Inner, jo, customer, vec![22], vec![0]);
        // c_nationkey must match s_nationkey (jo's supplier block is at
        // 4+10=14..17, s_nationkey = 15).
        let nfilter = b.filter(jc, Expr::col(1).eq(Expr::col(15)));
        let rev = b.compute_scalar(nfilter, vec![revenue(9, 10)]); // col 27
                                                                   // group by n_name: nation block inside jo: jo offset 4 → jl 0..18 →
                                                                   // js at 10..18 → nation at 13..16 → n_name = 4 + 10 + 3 + 2 = 19.
        let agg = b.hash_aggregate(rev, vec![19], vec![Aggregate::of_col(AggFunc::Sum, 27)]);
        let sort = b.sort(agg, vec![SortKey::desc(1)]);
        out.push(nq("tpch-q05", b.finish(sort)));
    }

    // Q6: forecasting revenue — pure pushed-filter scan + scalar aggregate.
    {
        let mut b = PlanBuilder::new(&t.db);
        let pred = Expr::col(7)
            .ge(Expr::lit(Value::Date(DATE_DOMAIN / 4)))
            .and(Expr::col(7).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2))))
            .and(Expr::col(6).ge(Expr::lit(0.03)))
            .and(Expr::col(6).le(Expr::lit(0.07)))
            .and(Expr::col(4).lt(Expr::lit(24i64)));
        let scan = b.table_scan_filtered(t.lineitem, pred, true);
        let rev = b.compute_scalar(scan, vec![revenue(5, 6)]);
        let agg = b.stream_aggregate(rev, vec![], vec![Aggregate::of_col(AggFunc::Sum, 10)]);
        out.push(nq("tpch-q06", b.finish(agg)));
    }

    // Q9-like: product type profit — part → partsupp → lineitem (skewed
    // keys) → orders via index NL; exchange on top.
    {
        let mut b = PlanBuilder::new(&t.db);
        let part = b.table_scan_filtered(t.part, Expr::col(2).lt(Expr::lit(30i64)), true);
        let partsupp = b.table_scan(t.partsupp);
        // partsupp(0..3) ++ part(3..8)
        let jp = b.hash_join(JoinKind::Inner, part, partsupp, vec![0], vec![0]);
        let lineitem = b.table_scan(t.lineitem);
        // lineitem(0..10) ++ jp(10..18)
        let jl = b.hash_join(JoinKind::Inner, jp, lineitem, vec![0, 1], vec![2, 3]);
        let ord_seek = b.index_seek(ix.orders_pk, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
        // jl(0..18) ++ orders(18..23)
        let jo = b.nested_loops(JoinKind::Inner, jl, ord_seek, None, 512);
        let year = b.compute_scalar(
            jo,
            vec![Expr::Arith {
                op: lqs_plan::ArithOp::Div,
                lhs: Box::new(Expr::col(20)),
                rhs: Box::new(Expr::lit(365i64)),
            }],
        ); // col 23
        let ex = b.exchange(year, ExchangeKind::RepartitionStreams, 4);
        let profit = b.compute_scalar(ex, vec![revenue(5, 6)]); // col 24
        let agg = b.hash_aggregate(profit, vec![23], vec![Aggregate::of_col(AggFunc::Sum, 24)]);
        let gather = b.exchange(agg, ExchangeKind::GatherStreams, 4);
        let sort = b.sort(gather, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q09", b.finish(sort)));
    }

    // Q10: returned items — orders date range → customer seek → lineitem
    // seek with returnflag residual, top 20.
    {
        let mut b = PlanBuilder::new(&t.db);
        let orders = b.table_scan_filtered(
            t.orders,
            Expr::col(2)
                .ge(Expr::lit(Value::Date(DATE_DOMAIN / 2)))
                .and(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2 + 90)))),
            true,
        );
        let cust_seek = b.index_seek(ix.customer_pk, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
        // orders(0..5) ++ customer(5..9)
        let jc = b.nested_loops(JoinKind::Inner, orders, cust_seek, None, 128);
        let li_seek = b.add(
            PhysicalOp::IndexSeek {
                index: ix.lineitem_pk,
                seek: SeekRange::eq(vec![SeekKey::OuterRef(0)]),
                residual: Some(Expr::col(8).eq(Expr::lit(2i64))),
                output: IndexOutput::BaseRow,
            },
            vec![],
        );
        // jc(0..9) ++ lineitem(9..19)
        let jl = b.nested_loops(JoinKind::Inner, jc, li_seek, None, 128);
        let rev = b.compute_scalar(jl, vec![revenue(14, 15)]); // col 19
        let agg = b.hash_aggregate(rev, vec![5, 8], vec![Aggregate::of_col(AggFunc::Sum, 19)]);
        let top = b.top_n_sort(agg, 20, vec![SortKey::desc(2)]);
        out.push(nq("tpch-q10", b.finish(top)));
    }

    // Q12: shipping modes — lineitem date range → orders PK seek → agg by
    // priority.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.table_scan_filtered(
            t.lineitem,
            Expr::col(7)
                .ge(Expr::lit(Value::Date(DATE_DOMAIN / 5)))
                .and(Expr::col(7).lt(Expr::lit(Value::Date(DATE_DOMAIN / 5 + 365)))),
            true,
        );
        let ord_seek = b.index_seek(ix.orders_pk, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
        // lineitem(0..10) ++ orders(10..15)
        let j = b.nested_loops(JoinKind::Inner, li, ord_seek, None, 512);
        let agg = b.hash_aggregate(j, vec![14], vec![Aggregate::count_star()]);
        let sort = b.sort(agg, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q12", b.finish(sort)));
    }

    // Q14: promotion effect — lineitem date month → hash join part → scalar.
    {
        let mut b = PlanBuilder::new(&t.db);
        let part = b.table_scan(t.part);
        let li = b.table_scan_filtered(
            t.lineitem,
            Expr::col(7)
                .ge(Expr::lit(Value::Date(900)))
                .and(Expr::col(7).lt(Expr::lit(Value::Date(930)))),
            true,
        );
        // lineitem(0..10) ++ part(10..15)
        let j = b.hash_join(JoinKind::Inner, part, li, vec![0], vec![2]);
        let rev = b.compute_scalar(j, vec![revenue(5, 6)]); // col 15
        let agg = b.stream_aggregate(
            rev,
            vec![],
            vec![
                Aggregate::of_col(AggFunc::Sum, 15),
                Aggregate::of_col(AggFunc::Count, 15),
            ],
        );
        out.push(nq("tpch-q14", b.finish(agg)));
    }

    // Q18: large volume customers — lineitem agg → filter → orders seek →
    // customer seek → top 100. The aggregate feeds nested loops, so its
    // output phase drives the pipeline.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.table_scan(t.lineitem);
        let agg = b.hash_aggregate(li, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 4)]);
        let big = b.filter(agg, Expr::col(1).gt(Expr::lit(150i64)));
        let ord_seek = b.index_seek(ix.orders_pk, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
        // agg(0..2) ++ orders(2..7)
        let jo = b.nested_loops(JoinKind::Inner, big, ord_seek, None, 64);
        let cust_seek = b.index_seek(ix.customer_pk, SeekRange::eq(vec![SeekKey::OuterRef(3)]));
        // jo(0..7) ++ customer(7..11)
        let jc = b.nested_loops(JoinKind::Inner, jo, cust_seek, None, 64);
        let top = b.top_n_sort(jc, 100, vec![SortKey::desc(5)]);
        out.push(nq("tpch-q18", b.finish(top)));
    }

    // Q4-like: order priority checking — orders semi-join lineitem.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.table_scan_filtered(t.lineitem, Expr::col(4).gt(Expr::lit(30i64)), true);
        let orders = b.table_scan_filtered(
            t.orders,
            Expr::col(2)
                .ge(Expr::lit(Value::Date(DATE_DOMAIN / 3)))
                .and(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 3 + 90)))),
            true,
        );
        // probe orders, build lineitem, semi → orders columns only
        let semi = b.hash_join(JoinKind::LeftSemi, li, orders, vec![0], vec![0]);
        let agg = b.hash_aggregate(semi, vec![4], vec![Aggregate::count_star()]);
        let sort = b.sort(agg, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q04", b.finish(sort)));
    }

    // Q21-like: suppliers who kept orders waiting — semi + anti joins.
    {
        let mut b = PlanBuilder::new(&t.db);
        let l1 = b.table_scan_filtered(t.lineitem, Expr::col(8).eq(Expr::lit(1i64)), true);
        let l2 = b.table_scan(t.lineitem);
        // probe l1, build l2: does another lineitem of the same order exist?
        let semi = b.hash_join(JoinKind::LeftSemi, l2, l1, vec![0], vec![0]);
        let l3 = b.table_scan_filtered(t.lineitem, Expr::col(8).eq(Expr::lit(2i64)), true);
        let anti = b.hash_join(JoinKind::LeftAnti, l3, semi, vec![0], vec![0]);
        let supp_seek = b.index_seek(ix.supplier_pk, SeekRange::eq(vec![SeekKey::OuterRef(3)]));
        // anti(0..10) ++ supplier(10..13)
        let js = b.nested_loops(JoinKind::Inner, anti, supp_seek, None, 128);
        let agg = b.hash_aggregate(js, vec![10], vec![Aggregate::count_star()]);
        let top = b.top_n_sort(agg, 100, vec![SortKey::desc(1)]);
        out.push(nq("tpch-q21", b.finish(top)));
    }

    // Q2-like: minimum cost supplier — aggregate subquery joined back via
    // spool (common subexpression).
    {
        let mut b = PlanBuilder::new(&t.db);
        let ps1 = b.table_scan(t.partsupp);
        let mins = b.hash_aggregate(ps1, vec![0], vec![Aggregate::of_col(AggFunc::Min, 2)]);
        let spool = b.spool(mins, false);
        let ps2 = b.table_scan(t.partsupp);
        // probe ps2, build spool(min): ps2(0..3) ++ mins(3..5)
        let j = b.hash_join(JoinKind::Inner, spool, ps2, vec![0], vec![0]);
        let same_cost = b.filter(j, Expr::col(2).eq(Expr::col(4)));
        let part_seek = b.index_seek(ix.part_pk, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
        // j(0..5) ++ part(5..10)
        let jp = b.nested_loops(JoinKind::Inner, same_cost, part_seek, None, 64);
        let sort = b.sort(jp, vec![SortKey::asc(5)]);
        out.push(nq("tpch-q02", b.finish(sort)));
    }

    // Q13-like: customer order counts — left outer join + double aggregate.
    {
        let mut b = PlanBuilder::new(&t.db);
        let orders = b.table_scan_filtered(t.orders, Expr::col(4).lt(Expr::lit(4i64)), true);
        let cust = b.table_scan(t.customer);
        // probe customer preserved: customer(0..4) ++ orders(4..9)
        let lo = b.hash_join(JoinKind::LeftOuter, orders, cust, vec![1], vec![0]);
        let per_cust = b.hash_aggregate(lo, vec![0], vec![Aggregate::of_col(AggFunc::Count, 4)]);
        let dist = b.hash_aggregate(per_cust, vec![1], vec![Aggregate::count_star()]);
        let sort = b.sort(dist, vec![SortKey::desc(1), SortKey::desc(0)]);
        out.push(nq("tpch-q13", b.finish(sort)));
    }

    // Large sort: order book by price (sort-dominated plan).
    {
        let mut b = PlanBuilder::new(&t.db);
        let orders = b.table_scan(t.orders);
        let sort = b.sort(orders, vec![SortKey::desc(3)]);
        let top = b.add(PhysicalOp::Top { n: 1000 }, vec![sort]);
        out.push(nq("tpch-qsort", b.finish(top)));
    }

    // Merge join: clustered order scan ∪ lineitem in order-key order, with a
    // stream aggregate (sort-free pipeline).
    {
        let mut b = PlanBuilder::new(&t.db);
        let o = b.index_scan(ix.orders_pk);
        let l = b.index_scan(ix.lineitem_pk);
        // merge: orders(0..5) ++ lineitem(5..15)
        let m = b.merge_join(JoinKind::Inner, o, l, vec![0], vec![0]);
        let agg = b.stream_aggregate(m, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 9)]);
        let top = b.add(PhysicalOp::Top { n: 500 }, vec![agg]);
        out.push(nq("tpch-qmerge", b.finish(top)));
    }

    // Parallel aggregation: scan → repartition → agg → gather → sort.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.table_scan(t.lineitem);
        let re = b.exchange(li, ExchangeKind::RepartitionStreams, 8);
        let agg = b.hash_aggregate(re, vec![3], vec![Aggregate::of_col(AggFunc::Sum, 5)]);
        let ga = b.exchange(agg, ExchangeKind::GatherStreams, 8);
        let sort = b.sort(ga, vec![SortKey::desc(1)]);
        out.push(nq("tpch-qpar", b.finish(sort)));
    }

    // Bitmap semi-join reduction pushed into the probe-side scan (Figure 6):
    // part (filtered) builds the bitmap; the lineitem scan probes it in the
    // storage engine.
    {
        let mut b = PlanBuilder::new(&t.db);
        let bitmap = b.new_bitmap();
        let part = b.table_scan_filtered(t.part, Expr::col(1).eq(Expr::lit(3i64)), true);
        let bc = b.add(
            PhysicalOp::BitmapCreate {
                key_columns: vec![0],
                bitmap,
            },
            vec![part],
        );
        let li = b.add(
            PhysicalOp::TableScan {
                table: t.lineitem,
                predicate: None,
                pushed_to_storage: true,
                bitmap_probe: Some(lqs_plan::BitmapProbe {
                    bitmap,
                    key_columns: vec![2],
                }),
            },
            vec![],
        );
        // probe lineitem ++ build part: lineitem(0..10) ++ part(10..15)
        let j = b.hash_join(JoinKind::Inner, bc, li, vec![0], vec![2]);
        let rev = b.compute_scalar(j, vec![revenue(5, 6)]); // col 15
        let agg = b.stream_aggregate(rev, vec![], vec![Aggregate::of_col(AggFunc::Sum, 15)]);
        out.push(nq("tpch-qbitmap", b.finish(agg)));
    }

    out
}

// ---------------------------------------------------------------------------
// Columnstore design queries (batch mode)
// ---------------------------------------------------------------------------

fn cs_queries(t: &TpchDb) -> Vec<NamedQuery> {
    let cs = t.cs.as_ref().expect("columnstore design");
    let mut out = Vec::new();

    // Q1: batch scan + batch hash aggregate.
    {
        let mut b = PlanBuilder::new(&t.db);
        let scan = b.columnstore_scan(
            cs.lineitem,
            Some(Expr::col(7).le(Expr::lit(Value::Date(DATE_DOMAIN - 90)))),
        );
        let agg = b.hash_aggregate(
            scan,
            vec![8, 9],
            vec![
                Aggregate::of_col(AggFunc::Sum, 4),
                Aggregate::of_col(AggFunc::Sum, 5),
                Aggregate::count_star(),
            ],
        );
        let sort = b.sort(agg, vec![SortKey::asc(0), SortKey::asc(1)]);
        out.push(nq("tpch-q01", b.finish(sort)));
    }

    // Q3: customer ⋈ orders ⋈ lineitem, all batch hash joins.
    {
        let mut b = PlanBuilder::new(&t.db);
        let cust = b.columnstore_scan(cs.customer, Some(Expr::col(2).eq(Expr::lit(3i64))));
        let orders = b.columnstore_scan(
            cs.orders,
            Some(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2)))),
        );
        // probe orders ++ build customer: orders(0..5) ++ customer(5..9)
        let jc = b.hash_join(JoinKind::Inner, cust, orders, vec![0], vec![1]);
        let li = b.columnstore_scan(
            cs.lineitem,
            Some(Expr::col(7).gt(Expr::lit(Value::Date(DATE_DOMAIN / 2)))),
        );
        // probe lineitem ++ build jc: lineitem(0..10) ++ jc(10..19)
        let jl = b.hash_join(JoinKind::Inner, jc, li, vec![0], vec![0]);
        let rev = b.compute_scalar(jl, vec![revenue(5, 6)]); // col 19
        let agg = b.hash_aggregate(rev, vec![0, 12], vec![Aggregate::of_col(AggFunc::Sum, 19)]);
        let top = b.top_n_sort(agg, 10, vec![SortKey::desc(2)]);
        out.push(nq("tpch-q03", b.finish(top)));
    }

    // Q5: the 6-table chain, all hash joins over batch scans.
    {
        let mut b = PlanBuilder::new(&t.db);
        let region = b.table_scan_filtered(t.region, Expr::col(0).eq(Expr::lit(2i64)), true);
        let nation = b.table_scan(t.nation);
        let jn = b.hash_join(JoinKind::Inner, region, nation, vec![0], vec![1]);
        let supplier = b.columnstore_scan(cs.supplier, None);
        let js = b.hash_join(JoinKind::Inner, jn, supplier, vec![0], vec![1]);
        let lineitem = b.columnstore_scan(cs.lineitem, None);
        let jl = b.hash_join(JoinKind::Inner, js, lineitem, vec![0], vec![3]);
        let orders = b.columnstore_scan(
            cs.orders,
            Some(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 3)))),
        );
        let jo = b.hash_join(JoinKind::Inner, orders, jl, vec![0], vec![0]);
        let customer = b.columnstore_scan(cs.customer, None);
        let jc = b.hash_join(JoinKind::Inner, jo, customer, vec![22], vec![0]);
        let nfilter = b.filter(jc, Expr::col(1).eq(Expr::col(15)));
        let rev = b.compute_scalar(nfilter, vec![revenue(9, 10)]);
        let agg = b.hash_aggregate(rev, vec![19], vec![Aggregate::of_col(AggFunc::Sum, 27)]);
        let sort = b.sort(agg, vec![SortKey::desc(1)]);
        out.push(nq("tpch-q05", b.finish(sort)));
    }

    // Q6: batch scan with pushed compound predicate + scalar aggregate.
    {
        let mut b = PlanBuilder::new(&t.db);
        let pred = Expr::col(7)
            .ge(Expr::lit(Value::Date(DATE_DOMAIN / 4)))
            .and(Expr::col(7).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2))))
            .and(Expr::col(6).ge(Expr::lit(0.03)))
            .and(Expr::col(6).le(Expr::lit(0.07)))
            .and(Expr::col(4).lt(Expr::lit(24i64)));
        let scan = b.columnstore_scan(cs.lineitem, Some(pred));
        let rev = b.compute_scalar(scan, vec![revenue(5, 6)]);
        let agg = b.hash_aggregate(rev, vec![], vec![Aggregate::of_col(AggFunc::Sum, 10)]);
        out.push(nq("tpch-q06", b.finish(agg)));
    }

    // Q9: part ⋈ partsupp ⋈ lineitem ⋈ orders, batch joins.
    {
        let mut b = PlanBuilder::new(&t.db);
        let part = b.columnstore_scan(cs.part, Some(Expr::col(2).lt(Expr::lit(30i64))));
        let partsupp = b.columnstore_scan(cs.partsupp, None);
        let jp = b.hash_join(JoinKind::Inner, part, partsupp, vec![0], vec![0]);
        let lineitem = b.columnstore_scan(cs.lineitem, None);
        let jl = b.hash_join(JoinKind::Inner, jp, lineitem, vec![0, 1], vec![2, 3]);
        let orders = b.columnstore_scan(cs.orders, None);
        let jo = b.hash_join(JoinKind::Inner, orders, jl, vec![0], vec![0]);
        let rev = b.compute_scalar(jo, vec![revenue(5, 6)]); // col 23
        let agg = b.hash_aggregate(rev, vec![20], vec![Aggregate::of_col(AggFunc::Sum, 23)]);
        let sort = b.sort(agg, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q09", b.finish(sort)));
    }

    // Q10 analog.
    {
        let mut b = PlanBuilder::new(&t.db);
        let orders = b.columnstore_scan(
            cs.orders,
            Some(
                Expr::col(2)
                    .ge(Expr::lit(Value::Date(DATE_DOMAIN / 2)))
                    .and(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 2 + 90)))),
            ),
        );
        let li = b.columnstore_scan(cs.lineitem, Some(Expr::col(8).eq(Expr::lit(2i64))));
        // probe lineitem ++ build orders: lineitem(0..10) ++ orders(10..15)
        let jl = b.hash_join(JoinKind::Inner, orders, li, vec![0], vec![0]);
        let cust = b.columnstore_scan(cs.customer, None);
        // probe jl ++ build customer? build = customer (smaller):
        // jl(0..15) ++ customer(15..19)
        let jc = b.hash_join(JoinKind::Inner, cust, jl, vec![0], vec![11]);
        let rev = b.compute_scalar(jc, vec![revenue(5, 6)]); // col 19
        let agg = b.hash_aggregate(rev, vec![15], vec![Aggregate::of_col(AggFunc::Sum, 19)]);
        let top = b.top_n_sort(agg, 20, vec![SortKey::desc(1)]);
        out.push(nq("tpch-q10", b.finish(top)));
    }

    // Q12 analog: lineitem ⋈ orders, group by priority.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.columnstore_scan(
            cs.lineitem,
            Some(
                Expr::col(7)
                    .ge(Expr::lit(Value::Date(DATE_DOMAIN / 5)))
                    .and(Expr::col(7).lt(Expr::lit(Value::Date(DATE_DOMAIN / 5 + 365)))),
            ),
        );
        let orders = b.columnstore_scan(cs.orders, None);
        // probe orders ++ build lineitem: orders(0..5) ++ lineitem(5..15)
        let j = b.hash_join(JoinKind::Inner, li, orders, vec![0], vec![0]);
        let agg = b.hash_aggregate(j, vec![4], vec![Aggregate::count_star()]);
        let sort = b.sort(agg, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q12", b.finish(sort)));
    }

    // Q14 analog.
    {
        let mut b = PlanBuilder::new(&t.db);
        let part = b.columnstore_scan(cs.part, None);
        let li = b.columnstore_scan(
            cs.lineitem,
            Some(
                Expr::col(7)
                    .ge(Expr::lit(Value::Date(900)))
                    .and(Expr::col(7).lt(Expr::lit(Value::Date(930)))),
            ),
        );
        let j = b.hash_join(JoinKind::Inner, part, li, vec![0], vec![2]);
        let rev = b.compute_scalar(j, vec![revenue(5, 6)]);
        let agg = b.hash_aggregate(rev, vec![], vec![Aggregate::of_col(AggFunc::Sum, 15)]);
        out.push(nq("tpch-q14", b.finish(agg)));
    }

    // Q18 analog: lineitem agg → join orders → join customer, batch.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.columnstore_scan(cs.lineitem, None);
        let agg = b.hash_aggregate(li, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 4)]);
        let big = b.filter(agg, Expr::col(1).gt(Expr::lit(150i64)));
        let orders = b.columnstore_scan(cs.orders, None);
        // probe orders ++ build big: orders(0..5) ++ big(5..7)
        let jo = b.hash_join(JoinKind::Inner, big, orders, vec![0], vec![0]);
        let cust = b.columnstore_scan(cs.customer, None);
        // probe jo? build customer: jo(0..7) ++ customer(7..11)
        let jc = b.hash_join(JoinKind::Inner, cust, jo, vec![0], vec![1]);
        let top = b.top_n_sort(jc, 100, vec![SortKey::desc(3)]);
        out.push(nq("tpch-q18", b.finish(top)));
    }

    // Q4 analog: semi join.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.columnstore_scan(cs.lineitem, Some(Expr::col(4).gt(Expr::lit(30i64))));
        let orders = b.columnstore_scan(
            cs.orders,
            Some(
                Expr::col(2)
                    .ge(Expr::lit(Value::Date(DATE_DOMAIN / 3)))
                    .and(Expr::col(2).lt(Expr::lit(Value::Date(DATE_DOMAIN / 3 + 90)))),
            ),
        );
        let semi = b.hash_join(JoinKind::LeftSemi, li, orders, vec![0], vec![0]);
        let agg = b.hash_aggregate(semi, vec![4], vec![Aggregate::count_star()]);
        let sort = b.sort(agg, vec![SortKey::asc(0)]);
        out.push(nq("tpch-q04", b.finish(sort)));
    }

    // Bitmap probe pushed into a columnstore scan.
    {
        let mut b = PlanBuilder::new(&t.db);
        let bitmap = b.new_bitmap();
        let part = b.columnstore_scan(cs.part, Some(Expr::col(1).eq(Expr::lit(3i64))));
        let bc = b.add(
            PhysicalOp::BitmapCreate {
                key_columns: vec![0],
                bitmap,
            },
            vec![part],
        );
        let li = b.add(
            PhysicalOp::ColumnstoreScan {
                columnstore: cs.lineitem,
                predicate: None,
                bitmap_probe: Some(lqs_plan::BitmapProbe {
                    bitmap,
                    key_columns: vec![2],
                }),
            },
            vec![],
        );
        let j = b.hash_join(JoinKind::Inner, bc, li, vec![0], vec![2]);
        let rev = b.compute_scalar(j, vec![revenue(5, 6)]);
        let agg = b.hash_aggregate(rev, vec![], vec![Aggregate::of_col(AggFunc::Sum, 15)]);
        out.push(nq("tpch-qbitmap", b.finish(agg)));
    }

    // Parallel batch aggregation.
    {
        let mut b = PlanBuilder::new(&t.db);
        let li = b.columnstore_scan(cs.lineitem, None);
        let re = b.exchange(li, ExchangeKind::RepartitionStreams, 8);
        let agg = b.hash_aggregate(re, vec![3], vec![Aggregate::of_col(AggFunc::Sum, 5)]);
        let ga = b.exchange(agg, ExchangeKind::GatherStreams, 8);
        let sort = b.sort(ga, vec![SortKey::desc(1)]);
        out.push(nq("tpch-qpar", b.finish(sort)));
    }

    // Q13 analog: left outer + double aggregate.
    {
        let mut b = PlanBuilder::new(&t.db);
        let orders = b.columnstore_scan(cs.orders, Some(Expr::col(4).lt(Expr::lit(4i64))));
        let cust = b.columnstore_scan(cs.customer, None);
        let lo = b.hash_join(JoinKind::LeftOuter, orders, cust, vec![1], vec![0]);
        let per_cust = b.hash_aggregate(lo, vec![0], vec![Aggregate::of_col(AggFunc::Count, 4)]);
        let dist = b.hash_aggregate(per_cust, vec![1], vec![Aggregate::count_star()]);
        let sort = b.sort(dist, vec![SortKey::desc(1), SortKey::desc(0)]);
        out.push(nq("tpch-q13", b.finish(sort)));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::{execute, ExecOptions};

    fn smoke_scale() -> WorkloadScale {
        WorkloadScale {
            data_scale: 0.2,
            query_limit: usize::MAX,
            seed: 7,
        }
    }

    #[test]
    fn db_generation_row_counts() {
        let t = build_db(smoke_scale(), PhysicalDesign::RowStore);
        assert_eq!(t.db.table(t.region).row_count(), 5);
        assert_eq!(t.db.table(t.nation).row_count(), 25);
        assert!(t.db.table(t.lineitem).row_count() > 4000);
        // ~4 lineitems per order.
        let ratio =
            t.db.table(t.lineitem).row_count() as f64 / t.db.table(t.orders).row_count() as f64;
        assert!((3.0..5.0).contains(&ratio));
    }

    #[test]
    fn zipf_skew_visible_in_lineitem() {
        let t = build_db(smoke_scale(), PhysicalDesign::RowStore);
        // The most frequent l_partkey should be far above the average.
        let mut counts = std::collections::HashMap::new();
        for r in t.db.table(t.lineitem).rows() {
            *counts.entry(r[2].as_int().unwrap()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let avg = t.db.table(t.lineitem).row_count() / counts.len();
        assert!(max > avg * 10, "max {max} avg {avg}: skew not visible");
    }

    #[test]
    fn all_row_queries_execute() {
        let t = build_db(smoke_scale(), PhysicalDesign::RowStore);
        let qs = queries(&t);
        assert_eq!(qs.len(), 17);
        for q in &qs {
            let run = execute(&t.db, &q.plan, &ExecOptions::default());
            assert!(run.duration_ns > 0, "{} produced no work", q.name);
        }
    }

    #[test]
    fn all_cs_queries_execute_in_batch_mode() {
        let t = build_db(smoke_scale(), PhysicalDesign::Columnstore);
        let qs = queries(&t);
        assert_eq!(qs.len(), 13);
        for q in &qs {
            // Every columnstore query must contain at least one batch node.
            assert!(
                q.plan.nodes().iter().any(|n| n.batch_mode),
                "{} has no batch-mode operators",
                q.name
            );
            let run = execute(&t.db, &q.plan, &ExecOptions::default());
            assert!(run.duration_ns > 0, "{} produced no work", q.name);
        }
    }

    #[test]
    fn designs_have_different_operator_mixes() {
        let row = build_db(smoke_scale(), PhysicalDesign::RowStore);
        let cs = build_db(smoke_scale(), PhysicalDesign::Columnstore);
        let count_ops = |qs: &[NamedQuery], name: &str| -> usize {
            qs.iter()
                .flat_map(|q| q.plan.nodes())
                .filter(|n| n.op.display_name() == name)
                .count()
        };
        let row_qs = queries(&row);
        let cs_qs = queries(&cs);
        assert!(count_ops(&row_qs, "Index Seek") > 5);
        assert_eq!(count_ops(&cs_qs, "Index Seek"), 0);
        assert!(count_ops(&cs_qs, "Columnstore Index Scan") > 10);
        assert_eq!(count_ops(&row_qs, "Columnstore Index Scan"), 0);
    }
}
