//! Fixtures shared by the server integration tests: the two small
//! databases and their plans, a temp directory, a raw-socket HTTP client,
//! the stall-shaped fault injector, and an exposition reader. Each test
//! binary uses its own subset.
#![allow(dead_code)]

use lqs_exec::{FaultInjector, IoVerdict};
use lqs_plan::{AggFunc, Aggregate, Expr, NodeId, PhysicalPlan, PlanBuilder, SortKey};
use lqs_server::{SessionAlert, Watchdog};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A database holding one analyzed `orders(id, amount)` table of `rows` rows.
pub fn orders_db(rows: i64) -> Database {
    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("amount", DataType::Int),
        ]),
    );
    for i in 0..rows {
        orders
            .insert(vec![Value::Int(i), Value::Int((i * 7) % 1000)])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table_analyzed(orders);
    db
}

/// scan → sort over [`orders_db`]'s table. The scan is the first node built.
pub fn scan_sort_plan(db: &Database) -> Arc<PhysicalPlan> {
    let orders = db.table_by_name("orders").expect("orders table");
    let mut b = PlanBuilder::new(db);
    let scan = b.table_scan(orders);
    let sort = b.sort(scan, vec![SortKey::desc(1)]);
    Arc::new(b.finish(sort))
}

/// A database holding one analyzed `t(a, b)` table of 4000 rows.
pub fn mixed_db() -> (Database, TableId) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..4000 {
        t.insert(vec![Value::Int(i), Value::Int(i % 97)]).unwrap();
    }
    let mut db = Database::new();
    let id = db.add_table_analyzed(t);
    (db, id)
}

/// Three plan shapes over [`mixed_db`]'s table: filtered scan → sort,
/// scan → hash aggregate, and a plain scan.
pub fn mixed_plans(db: &Database, t: TableId) -> Vec<Arc<PhysicalPlan>> {
    let scan_sort = {
        let mut b = PlanBuilder::new(db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(60i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        Arc::new(b.finish(sort))
    };
    let agg = {
        let mut b = PlanBuilder::new(db);
        let scan = b.table_scan(t);
        let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        Arc::new(b.finish(agg))
    };
    let plain = {
        let mut b = PlanBuilder::new(db);
        let scan = b.table_scan(t);
        Arc::new(b.finish(scan))
    };
    vec![scan_sort, agg, plain]
}

/// A fresh, empty directory under the system temp dir.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lqs-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Blocking GET over a raw socket; returns the full response (head + body).
pub fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: lqs\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

pub fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").expect("head/body split").1
}

/// Blocks the executing worker inside an I/O charge once `after_pages`
/// cumulative logical reads have passed, until released. The session stays
/// `Running` with a frozen publish sequence — the stall shape.
pub struct Gate {
    after_pages: u64,
    release: AtomicBool,
}

impl Gate {
    pub fn new(after_pages: u64) -> Arc<Self> {
        Arc::new(Gate {
            after_pages,
            release: AtomicBool::new(false),
        })
    }

    pub fn open(&self) {
        self.release.store(true, Ordering::Release);
    }
}

impl FaultInjector for Gate {
    fn on_io(&self, _node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if total_pages > self.after_pages {
            while !self.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        IoVerdict::Ok
    }
}

/// Sweep until the watchdog raises something (bounded), sleeping between
/// sweeps so the gated worker thread gets scheduled.
pub fn sweep_until_raised(wd: &mut Watchdog, max_sweeps: u64) -> Vec<SessionAlert> {
    for _ in 0..max_sweeps {
        let raised = wd.sweep();
        if !raised.is_empty() {
            return raised;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Vec::new()
}

/// First sample value of metric family `name` in an exposition.
pub fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}
